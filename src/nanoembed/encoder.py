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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .atomic import atomic_open
from .autodiff import Parameter, Tensor

_CHECKPOINT_MAGIC = b"NEC1"
_CHECKPOINT_VERSION = 1

MODALITIES = ("text", "image", "fused")


class DimMismatchError(ValueError):
    """Feature or embedding width does not match the expected dimension."""


class EmptyBatchError(ValueError):
    """An encoder call needs at least one item."""


class ZeroSumError(ValueError):
    """Fusing two embeddings whose sum is (near-)zero has no direction."""


class NonUnitRowError(ValueError):
    """A row that must be unit-norm is not."""


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture and initialization of the toy encoder.

    depth counts the affine layers in the per-position stack; tanh sits
    between consecutive layers. init_gain scales the fan-in uniform init.
    """

    input_dim: int
    hidden_dim: int
    embed_dim: int
    depth: int = 2
    seed: int = 0
    init_gain: float = 1.0

    def __post_init__(self):
        for name in ("input_dim", "hidden_dim", "embed_dim", "depth"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.init_gain > 0.0:
            raise ValueError(f"init_gain must be > 0, got {self.init_gain}")


@dataclass
class ItemRecord:
    """One corpus item: a short sequence of feature vectors plus tags."""

    id: str
    modality: str
    features: np.ndarray
    group: str | None = None

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")
        arr = np.asarray(self.features, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise DimMismatchError(f"features must be (positions, input_dim), got shape {arr.shape}")
        self.features = arr


class EmbeddingBatch:
    """Unit-norm embedding rows keyed by unique item ids."""

    __slots__ = ("ids", "matrix")

    def __init__(self, ids: Sequence[str], matrix: Tensor):
        ids = list(ids)
        if len(set(ids)) != len(ids):
            raise ValueError("embedding batch ids must be unique")
        if matrix.shape[0] != len(ids):
            raise ValueError(f"{len(ids)} ids but {matrix.shape[0]} rows")
        norms = np.linalg.norm(matrix.values, axis=1)
        if norms.size and np.abs(norms - 1.0).max() > 1e-10:
            bad = int(np.abs(norms - 1.0).argmax())
            raise NonUnitRowError(f"row {bad} has norm {norms[bad]!r}, expected 1 within 1e-10")
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


def _forward(x: Tensor, weights: Sequence[Tensor], depth: int) -> Tensor:
    h = x
    for layer in range(depth):
        h = ad.add(ad.matmul(h, weights[2 * layer]), weights[2 * layer + 1])
        if layer < depth - 1:
            h = ad.tanh(h)
    return ad.row_l2_normalize(ad.matmul(h, weights[-1]))


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
                raise DimMismatchError(f"{p.name}: shape {values.shape} does not fit {p.values.shape}")
            p.tensor.values[...] = values

    def encode(self, items: Sequence[ItemRecord], record: bool = True) -> EmbeddingBatch:
        """Embed a batch of text or image items.

        Position-local layers mean only the final position can affect the
        output, so only that position is computed. With record=False the
        parameters enter the graph as constants and no gradients flow.
        """
        items = list(items)
        if not items:
            raise EmptyBatchError("cannot encode an empty batch")
        width = self.config.input_dim
        for it in items:
            if it.modality == "fused":
                raise ValueError(f"item {it.id!r} is fused; stage-2 training takes text and image items only")
            if it.features.shape[1] != width:
                raise DimMismatchError(
                    f"item {it.id!r} has feature width {it.features.shape[1]}, encoder expects {width}"
                )
        x = ad.constant(np.stack([it.features[-1] for it in items]))
        weights = [p.tensor if record else ad.constant(p.values) for p in self._params]
        return EmbeddingBatch([it.id for it in items], _forward(x, weights, self.config.depth))


def _group_direction(seed: int, group: str, embed_dim: int) -> np.ndarray:
    digest = hashlib.sha256(f"{seed}/{group}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    direction = rng.normal(size=embed_dim)
    return direction / np.linalg.norm(direction)


class TeacherEncoder:
    """Frozen seeded encoder whose embeddings carry group structure.

    Groupless items get the plain encoder output; grouped items are pulled
    toward a per-group unit direction before re-normalizing, which makes
    same-group cosines exceed cross-group ones by construction.
    """

    def __init__(self, config: EncoderConfig, offset_scale: float = 3.0):
        if offset_scale < 0.0:
            raise ValueError(f"offset_scale must be >= 0, got {offset_scale}")
        self.config = config
        self.offset_scale = float(offset_scale)
        self._encoder = Encoder(config)

    def group_direction(self, group: str) -> np.ndarray:
        return _group_direction(self.config.seed, group, self.config.embed_dim)

    def encode(self, items: Sequence[ItemRecord]) -> EmbeddingBatch:
        base = self._encoder.encode(items, record=False).values
        out = base.copy()
        for i, it in enumerate(items):
            if it.group is not None and self.offset_scale > 0.0:
                shifted = base[i] + self.offset_scale * self.group_direction(it.group)
                out[i] = shifted / np.linalg.norm(shifted)
        return EmbeddingBatch([it.id for it in items], ad.constant(out))


def fuse_multimodal(e_a: np.ndarray, e_b: np.ndarray) -> np.ndarray:
    """Combine two unit embeddings by element-wise sum, then re-normalize."""
    a = np.asarray(e_a, dtype=np.float64).reshape(-1)
    b = np.asarray(e_b, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise DimMismatchError(f"embedding dims differ: {a.shape[0]} vs {b.shape[0]}")
    for name, v in (("first", a), ("second", b)):
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > 1e-6:
            raise NonUnitRowError(f"{name} embedding has norm {norm!r}, expected unit")
    s = a + b
    norm = np.linalg.norm(s)
    if norm < 1e-12:
        raise ZeroSumError("embeddings cancel; fused direction is undefined")
    return s / norm


def embed_items(encoder: Encoder, items: Sequence[ItemRecord]) -> EmbeddingBatch:
    """Gradient-free embedding of mixed-modality items.

    Fused items split their position sequence in half; each half is encoded
    on its own and the two embeddings are combined with fuse_multimodal.
    """
    items = list(items)
    if not items:
        raise EmptyBatchError("cannot embed an empty batch")
    plain = [it for it in items if it.modality != "fused"]
    rows: dict[str, np.ndarray] = {}
    if plain:
        batch = encoder.encode(plain, record=False)
        for i, it in enumerate(plain):
            rows[it.id] = batch.values[i]
    for it in items:
        if it.modality != "fused":
            continue
        if it.features.shape[0] < 2:
            raise DimMismatchError(f"fused item {it.id!r} needs at least 2 positions")
        half = it.features.shape[0] // 2
        part_a = ItemRecord(f"{it.id}/a", "text", it.features[:half], it.group)
        part_b = ItemRecord(f"{it.id}/b", "image", it.features[half:], it.group)
        pair = encoder.encode([part_a, part_b], record=False)
        rows[it.id] = fuse_multimodal(pair.values[0], pair.values[1])
    return EmbeddingBatch([it.id for it in items], ad.constant(np.stack([rows[it.id] for it in items])))


def save_checkpoint(path, encoder: Encoder) -> None:
    """Write encoder config and weights as a little-endian binary dump."""
    config_blob = json.dumps(
        {
            "input_dim": encoder.config.input_dim,
            "hidden_dim": encoder.config.hidden_dim,
            "embed_dim": encoder.config.embed_dim,
            "depth": encoder.config.depth,
            "seed": encoder.config.seed,
            "init_gain": encoder.config.init_gain,
        },
        sort_keys=True,
    ).encode()
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
    try:
        config = EncoderConfig(**json.loads(take(config_len, "config").decode()))
    except TypeError as exc:
        raise ValueError(f"{path}: bad encoder config: {exc}") from None
    (n_params,) = unpack("<I", "array count")
    arrays = []
    for _ in range(n_params):
        (name_len,) = unpack("<H", "array name length")
        name = take(name_len, "array name").decode()
        rows, cols = unpack("<II", f"shape of {name}")
        data = np.frombuffer(take(rows * cols * 8, f"array {name}"), dtype="<f8").reshape(rows, cols)
        if not np.isfinite(data).all():
            raise ValueError(f"{path}: array {name} holds non-finite weights")
        arrays.append((name, data.astype(np.float64)))
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes after the last array")
    encoder = Encoder(config)
    encoder.load_weight_arrays(arrays)
    return encoder
