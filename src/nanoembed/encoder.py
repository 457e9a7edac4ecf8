"""Toy sequence encoders producing unit-norm embeddings.

The student is a stack of affine layers with tanh between them, applied
position-locally; only the final position feeds the projection head, so
the embedding of an item is a function of its last feature vector alone.
A frozen, seeded teacher variant adds a group-dependent offset so that
items sharing a group label end up with higher mutual cosine than items
from different groups.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .atomic import atomic_open
from .autodiff import Parameter, Tensor
from .fields import check_types, is_number

_CHECKPOINT_MAGIC = b"NEC1"
_CHECKPOINT_VERSION = 1

MODALITIES = ("text", "image", "fused")


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture and initialization of the toy encoder.

    depth counts the affine layers in the per-position stack; tanh sits
    between consecutive layers. init_gain scales the fan-in uniform init.
    Sizes whose float64 weights take more bytes than an intp can count,
    which no address space holds, are refused before anything allocates.
    """

    input_dim: int
    hidden_dim: int
    embed_dim: int
    depth: int = 2
    seed: int = 0
    init_gain: float = 1.0

    def __post_init__(self):
        check_types(self)
        for name, low in (("input_dim", 1), ("hidden_dim", 1), ("embed_dim", 1), ("depth", 1), ("seed", 0)):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if self.init_gain <= 0.0:
            raise ValueError(f"init_gain must be a finite number > 0, got {self.init_gain!r}")
        # Every layer's weights and biases, counted in Python ints, which never overflow.
        hidden = self.hidden_dim
        weights = hidden * (self.input_dim + 1 + (self.depth - 1) * (hidden + 1) + self.embed_dim)
        if weights * 8 > np.iinfo(np.intp).max:
            raise ValueError(
                "input_dim, hidden_dim, embed_dim and depth ask for more weights than an address space holds"
            )


@dataclass
class ItemRecord:
    """One corpus item: a short sequence of feature vectors plus tags."""

    id: str
    modality: str
    features: np.ndarray
    group: str | None = None

    def __post_init__(self):
        check_types(self)
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")
        arr = np.asarray(self.features, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError(f"features must be (positions, input_dim), got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"item {self.id!r} has non-finite features")
        self.features = arr


@dataclass(frozen=True)
class ItemRows:
    """Items stacked once for the encoders: ids and groups as object arrays,
    and the last feature rows, the only ones an embedding reads (n x
    input_dim). rows[indices] gathers rows by index; rows[a:b] is a view."""

    ids: np.ndarray
    groups: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, items: Sequence[ItemRecord], input_dim: int) -> ItemRows:
        items = list(items)
        if not items:
            raise ValueError("cannot encode an empty batch")
        for it in items:
            if it.modality == "fused":
                raise ValueError(f"item {it.id!r} is fused; stage-2 training takes text and image items only")
            if it.features.shape[1] != input_dim:
                raise ValueError(
                    f"item {it.id!r} has feature width {it.features.shape[1]}, encoder expects {input_dim}"
                )
        return cls(
            np.array([it.id for it in items], dtype=object),
            np.array([it.group for it in items], dtype=object),
            np.stack([it.features[-1] for it in items]),
        )

    def __getitem__(self, rows: slice | np.ndarray) -> ItemRows:
        return ItemRows(self.ids[rows], self.groups[rows], self.values[rows])

    def __len__(self) -> int:
        return len(self.ids)


def check_unit_rows(values: np.ndarray, label: str = "row") -> None:
    """Raise ValueError naming the first row whose L2 norm is not 1 within
    1e-10, as "<label> i has norm ..."; a NaN row is never unit-norm."""
    norms = np.linalg.norm(values, axis=1)
    if not (np.abs(norms - 1.0) <= 1e-10).all():
        bad = int(np.abs(norms - 1.0).argmax())
        raise ValueError(f"{label} {bad} has norm {norms[bad]}, expected 1 within 1e-10")


class EmbeddingBatch:
    """Unit-norm embedding rows keyed by unique item ids."""

    __slots__ = ("ids", "matrix")

    def __init__(self, ids: Sequence[str], matrix: Tensor):
        ids = list(ids)
        if len(set(ids)) != len(ids):
            raise ValueError("embedding batch ids must be unique")
        if matrix.shape[0] != len(ids):
            raise ValueError(f"{len(ids)} ids but {matrix.shape[0]} rows")
        check_unit_rows(matrix.values)
        self.ids = ids
        self.matrix = matrix

    @property
    def values(self) -> np.ndarray:
        return self.matrix.values

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.ids)


def _init_weight_arrays(config: EncoderConfig) -> list[tuple[str, np.ndarray]]:
    """Fan-in scaled uniform weights, zero biases, in a fixed seeded order."""
    rng = np.random.default_rng(config.seed)
    arrays: list[tuple[str, np.ndarray]] = []
    fan_in = config.input_dim
    for layer in range(config.depth):
        bound = config.init_gain / np.sqrt(fan_in)
        arrays.append((f"layer{layer}.weight", rng.uniform(-bound, bound, size=(fan_in, config.hidden_dim))))
        arrays.append((f"layer{layer}.bias", np.zeros((1, config.hidden_dim))))
        fan_in = config.hidden_dim
    bound = config.init_gain / np.sqrt(fan_in)
    arrays.append(("proj.weight", rng.uniform(-bound, bound, size=(fan_in, config.embed_dim))))
    return arrays


def _forward(x: np.ndarray, weights: Sequence[Tensor], depth: int, record: bool) -> Tensor:
    """The forward pass on rows x as one graph node whose parents are the
    weights, or as a constant with record=False.

    It runs the numpy expressions of the per-op chain (matmul, add of the
    bias row, tanh between layers, projection matmul, row_l2_normalize), and
    its vjp runs those ops' vjps in reverse order, so values and gradients
    keep their bits. The node saves the input, each tanh output, the
    pre-projection rows, the output and its norms.
    """
    w = [t.values for t in weights]
    tanh_out: list[np.ndarray] = []
    h = x
    for layer in range(depth):
        h = h @ w[2 * layer] + w[2 * layer + 1]
        if layer < depth - 1:
            h = np.tanh(h)
            if record:  # without a vjp to read them, each layer's rows are freed as the next is made
                tanh_out.append(h)
    pre = h
    out, norms = ad.unit_rows(pre @ w[-1])
    # add's vjp sums the bias adjoint over rows, unless one row makes the shapes equal.
    bias_row = x.shape[0] != 1

    def vjp(g):
        grads: list[np.ndarray] = [None] * len(w)
        g = ad.unit_rows_vjp(g, out, norms)
        grads[-1] = pre.T @ g
        g = g @ w[-1].T
        for layer in reversed(range(depth)):
            if layer < depth - 1:
                g = g * (1.0 - tanh_out[layer] * tanh_out[layer])
            grads[2 * layer + 1] = g.sum(axis=0, keepdims=True) if bias_row else g
            grads[2 * layer] = (x if layer == 0 else tanh_out[layer - 1]).T @ g
            if layer > 0:
                g = g @ w[2 * layer].T
        return tuple(grads)

    return ad.from_op(out, tuple(weights) if record else (), vjp, saved=(x, *tanh_out, pre, norms))


class Encoder:
    """Trainable student encoder."""

    def __init__(self, config: EncoderConfig):
        self.config = config
        self._params = [Parameter(name, values) for name, values in _init_weight_arrays(config)]

    def parameters(self) -> list[Parameter]:
        return list(self._params)

    def weight_arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(p.name, p.values.copy()) for p in self._params]

    def load_weight_arrays(self, arrays: Sequence[tuple[str, np.ndarray]]) -> None:
        if [name for name, _ in arrays] != [p.name for p in self._params]:
            raise ValueError("weight names do not match this encoder's architecture")
        for p, (_, values) in zip(self._params, arrays):
            if p.values.shape != values.shape:
                raise ValueError(f"{p.name}: shape {values.shape} does not fit {p.values.shape}")
            p.tensor.values[...] = values

    def encode(self, items: Sequence[ItemRecord] | ItemRows, record: bool = True) -> EmbeddingBatch:
        """Embed a batch of text or image items, as records or as one block.

        Position-local layers mean only the final position can affect the
        output, so only that position is computed. With record=False the
        parameters enter the graph as constants and no gradients flow.
        Weights that overflow the forward pass raise ValueError, from the
        EmbeddingBatch's unit-norm check, with no floating-point warning
        before it.
        """
        if not isinstance(items, ItemRows):
            items = ItemRows.of(items, self.config.input_dim)
        return EmbeddingBatch(items.ids, self._embed(items.values, record))

    def _embed(self, values: np.ndarray, record: bool) -> Tensor:
        """The forward pass on last feature rows (n x input_dim). An overflow
        leaves NaN rows, which the caller's EmbeddingBatch refuses."""
        width = self.config.input_dim
        if values.shape[1] != width:
            raise ValueError(f"rows have feature width {values.shape[1]}, encoder expects {width}")
        with np.errstate(over="ignore", invalid="ignore"):
            return _forward(values, [p.tensor for p in self._params], self.config.depth, record)


def _group_direction(seed: int, group: str, embed_dim: int) -> np.ndarray:
    digest = hashlib.sha256(f"{seed}/{group}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    direction = rng.normal(size=embed_dim)
    return direction / np.linalg.norm(direction)


class TeacherEncoder:
    """Frozen seeded encoder whose embeddings carry group structure.

    Groupless items get the plain encoder output; grouped items are pulled
    toward a per-group unit direction before re-normalizing, which makes
    same-group cosines exceed cross-group ones by construction. Each
    group's direction is computed on its first use and then held,
    read-only, for the life of the teacher.
    """

    def __init__(self, config: EncoderConfig, offset_scale: float = 3.0):
        if not (is_number(offset_scale) and offset_scale >= 0.0):
            raise ValueError(f"offset_scale must be finite and >= 0, got {offset_scale!r}")
        self.config = config
        self.offset_scale = float(offset_scale)
        self._encoder = Encoder(config)
        self._directions: dict[str, np.ndarray] = {}

    def group_direction(self, group: str) -> np.ndarray:
        direction = self._directions.get(group)
        if direction is None:
            direction = _group_direction(self.config.seed, group, self.config.embed_dim)
            direction.flags.writeable = False
            self._directions[group] = direction
        return direction

    def encode(self, items: Sequence[ItemRecord] | ItemRows) -> EmbeddingBatch:
        rows = items if isinstance(items, ItemRows) else ItemRows.of(items, self.config.input_dim)
        out = self._encoder._embed(rows.values, record=False)
        grouped = [i for i, group in enumerate(rows.groups) if group is not None]
        if grouped and self.offset_scale > 0.0:
            offsets = np.array([self.group_direction(group) for group in rows.groups[grouped]])
            out.values[grouped] = _renormalized(out.values[grouped] + self.offset_scale * offsets)
        return EmbeddingBatch(rows.ids, out)


def _renormalized(rows: np.ndarray) -> np.ndarray:
    """Each row divided by its L2 norm; a row that sums to zero, as two
    opposite embeddings do, raises ValueError."""
    # Row by row what rows[i].dot(rows[i]) gives, hence np.linalg.norm, bit for bit.
    norms = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])
    cancelled = norms < ad.NORM_FLOOR
    if cancelled.any():
        raise ValueError(f"embeddings cancel in row {int(cancelled.argmax())}; its direction is undefined")
    return rows / norms[:, None]


def embed_items(encoder: Encoder, items: Sequence[ItemRecord]) -> EmbeddingBatch:
    """Gradient-free embedding of mixed-modality items.

    Plain items are encoded in one batch. A fused item splits its position
    sequence in half; the last rows of every fused item's halves are
    encoded in a second batch, and each pair is summed and re-normalized.
    """
    items = list(items)
    if not items:
        raise ValueError("cannot embed an empty batch")
    width = encoder.config.input_dim
    fused = [i for i, it in enumerate(items) if it.modality == "fused"]
    plain = [i for i, it in enumerate(items) if it.modality != "fused"]
    out = np.empty((len(items), encoder.config.embed_dim))
    if plain:
        out[plain] = encoder._embed(ItemRows.of([items[i] for i in plain], width).values, record=False).values
    for i in fused:
        shape = items[i].features.shape
        if shape[0] < 2:
            raise ValueError(f"fused item {items[i].id!r} needs at least 2 positions")
        if shape[1] != width:
            raise ValueError(f"item {items[i].id!r} has feature width {shape[1]}, encoder expects {width}")
    if fused:
        # The two halves of a fused item end at features[half - 1] and features[-1].
        last = [items[i].features[j] for i in fused for j in (items[i].features.shape[0] // 2 - 1, -1)]
        pairs = encoder._embed(np.stack(last), record=False).values
        out[fused] = _renormalized(pairs[0::2] + pairs[1::2])
    return EmbeddingBatch([it.id for it in items], ad.constant(out))


def save_checkpoint(path, encoder: Encoder) -> None:
    """Write encoder config and weights as a little-endian binary dump."""
    config_blob = json.dumps(asdict(encoder.config), sort_keys=True).encode()
    arrays = encoder.weight_arrays()
    with atomic_open(path, "wb") as fh:
        fh.write(struct.pack("<4sH", _CHECKPOINT_MAGIC, _CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(config_blob)))
        fh.write(config_blob)
        fh.write(struct.pack("<I", len(arrays)))
        for name, values in arrays:
            encoded = name.encode()
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<II", values.shape[0], values.shape[1]))
            fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def load_checkpoint(path) -> Encoder:
    """Read a save_checkpoint file; a short, overlong, malformed or
    non-finite one raises ValueError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = 0

    def take(size: int, what: str) -> bytes:
        nonlocal offset
        left = len(blob) - offset
        if size > left:
            raise ValueError(f"{path}: checkpoint truncated in {what} (needs {size} bytes, {left} left)")
        offset += size
        return blob[offset - size : offset]

    def unpack(fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))

    magic, version = unpack("<4sH", "header")
    if magic != _CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not an encoder checkpoint")
    if version != _CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    (config_len,) = unpack("<I", "config length")
    config_blob = take(config_len, "config")
    try:
        encoder = Encoder(EncoderConfig(**json.loads(config_blob.decode())))
    except (TypeError, ValueError, RecursionError, MemoryError) as exc:
        raise ValueError(f"{path}: bad encoder config: {exc}") from None
    (n_params,) = unpack("<I", "array count")
    arrays = []
    for _ in range(n_params):
        (name_len,) = unpack("<H", "array name length")
        name = take(name_len, "array name").decode(errors="replace")  # a bad name fails the name match
        rows, cols = unpack("<II", f"shape of {name}")
        data = np.frombuffer(take(rows * cols * 8, f"array {name}"), dtype="<f8").reshape(rows, cols)
        if not np.isfinite(data).all():
            raise ValueError(f"{path}: array {name} holds non-finite weights")
        arrays.append((name, data.astype(np.float64)))
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes after the last array")
    try:
        encoder.load_weight_arrays(arrays)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return encoder
