"""Synthetic grouped corpora and the line-delimited corpus format.

Items are short feature sequences drawn around a two-level latent
hierarchy: a group centroid plus a per-pair offset, with fresh noise at
every position. A query and its positive share the pair latent, so pair
identity is learnable while items still cluster by group.

Queries and candidates observe the shared latent through two different
fixed orthogonal views, the way a caption and an image render one
underlying scene. view_mix sets how far the two views rotate apart: at 0
both collapse to the identity and raw features already align, at 1 they
are independent random rotations and an untrained encoder sees queries
and candidates as unrelated (retrieval starts at chance). Trained
encoders can map both views into a common space at any mix.

A configurable fraction of queries gets a planted false negative: a
near-copy of the query's positive, nudged toward the query so that, in
any reasonably smooth embedding space, the copy sits strictly closer to
the query than the positive itself. That makes the similarity-threshold
filter's job verifiable.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .atomic import atomic_open
from .encoder import MODALITIES, ItemRecord
from .fields import check_types, is_number, json_lines

PLANTED_SUFFIX = "#dup"
_PLANTED_BLEND = 0.5


@dataclass(frozen=True)
class CorpusSpec:
    """Knobs of the synthetic corpus generator.

    items_per_group counts candidate items (equivalently, query/positive
    pairs) per group. Scales are expected offset norms: centroid_scale for
    group centroids, pair_scale for the per-pair latent offset, and
    noise_scale for the per-position noise around the pair latent.
    Sizes whose float64 features take more bytes than an intp can count,
    which no address space holds, are refused before anything allocates.
    """

    seed: int = 0
    n_groups: int = 8
    items_per_group: int = 8
    input_dim: int = 16
    seq_len_range: tuple[int, int] = (2, 4)
    noise_scale: float = 0.5
    false_negative_rate: float = 0.0
    modality_mix: dict[str, float] = field(default_factory=lambda: {"text": 1.0})
    centroid_scale: float = 1.0
    pair_scale: float = 0.5
    view_mix: float = 1.0

    def __post_init__(self):
        check_types(self)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_groups < 1 or self.items_per_group < 1 or self.input_dim < 1:
            raise ValueError("n_groups, items_per_group, and input_dim must be >= 1")
        lo, hi = self.seq_len_range
        if lo < 1 or hi < lo:
            raise ValueError(f"bad seq_len_range {self.seq_len_range}")
        if not 0.0 <= self.false_negative_rate <= 1.0:
            raise ValueError(f"false_negative_rate must be in [0, 1], got {self.false_negative_rate}")
        if self.noise_scale < 0.0 or self.centroid_scale <= 0.0 or self.pair_scale < 0.0:
            raise ValueError("scales must be non-negative (centroid_scale strictly positive)")
        if not 0.0 <= self.view_mix <= 1.0:
            raise ValueError(f"view_mix must be in [0, 1], got {self.view_mix}")
        if not self.modality_mix:
            raise ValueError("modality_mix cannot be empty")
        for name, weight in self.modality_mix.items():
            if name not in MODALITIES:
                raise ValueError(f"unknown modality {name!r} in mix")
            if weight < 0.0:
                raise ValueError(f"weight for modality {name!r} must be finite and >= 0, got {weight}")
        total = sum(self.modality_mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"modality_mix weights must sum to 1, got {total}")
        if self.modality_mix.get("fused", 0.0) > 0.0 and lo < 2:
            raise ValueError("fused items need seq_len_range starting at 2 or more")
        # The two input_dim^2 views, then up to three sequences per pair
        # (query, positive, planted copy), counted in Python ints, which never overflow.
        dim = self.input_dim
        features = 2 * dim * dim + 3 * self.n_groups * self.items_per_group * hi * dim
        if features * 8 > np.iinfo(np.intp).max:
            raise ValueError(
                "n_groups, items_per_group, input_dim and seq_len_range"
                " ask for more features than an address space holds"
            )


@dataclass
class PairRecord:
    """A query item, the id of its positive candidate, and a planted flag."""

    query: ItemRecord
    positive_id: str
    is_false_negative_planted: bool = False

    def __post_init__(self):
        check_types(self)


class Corpus:
    """Candidate items plus query/positive pairs over them."""

    def __init__(self, items: Sequence[ItemRecord], pairs: Sequence[PairRecord]):
        self.items = list(items)
        self.pairs = list(pairs)
        ids = [it.id for it in self.items] + [p.query.id for p in self.pairs]
        if len(set(ids)) != len(ids):
            raise ValueError("corpus item and query ids must be unique")
        self._index = {it.id: i for i, it in enumerate(self.items)}
        for pair in self.pairs:
            if pair.positive_id not in self._index:
                raise ValueError(
                    f"pair for query {pair.query.id!r} references missing positive {pair.positive_id!r}"
                )

    def item_index(self, item_id: str) -> int:
        return self._index[item_id]

    def item_by_id(self, item_id: str) -> ItemRecord:
        return self.items[self._index[item_id]]

    def queries(self) -> list[ItemRecord]:
        """Every pair's query, in pair order; a corpus without pairs raises."""
        if not self.pairs:
            raise ValueError("corpus has no query/positive pairs")
        return [pair.query for pair in self.pairs]

    def text_items(self) -> list[ItemRecord]:
        """All text-modality items, queries included; the distillation pool."""
        pool = [pair.query for pair in self.pairs] + self.items
        return [it for it in pool if it.modality == "text"]

    def planted_id_for(self, query_id: str) -> str | None:
        planted = query_id + PLANTED_SUFFIX
        return planted if planted in self._index else None

    def positive_indices(self) -> list[int]:
        """Candidate index of each pair's positive, in pair order."""
        return [self._index[pair.positive_id] for pair in self.pairs]


def _modality_cdf(mix: dict[str, float]) -> tuple[list[str], list[float]]:
    """Sorted modality names and the cdf Generator.choice builds from p."""
    names = sorted(mix)
    weights = np.array([mix[n] for n in names])
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    return names, cdf.tolist()


def _draw_modality(rng: np.random.Generator, names: list[str], cdf: list[float]) -> str:
    # Same stream and picks as rng.choice(len(names), p=...), without re-checking p.
    return names[bisect.bisect_right(cdf, rng.random())]


def _orthogonalized(matrix: np.ndarray) -> np.ndarray:
    """The Q of matrix's QR factorization, its signs fixed so diag(R) > 0."""
    q, r = np.linalg.qr(matrix)
    return q * np.sign(np.diag(r))


def _view(rng: np.random.Generator, dim: int, mix: float) -> np.ndarray:
    """An orthogonal view matrix mix of the way from the identity.

    Blending the identity with a random rotation and re-orthogonalizing
    gives a smooth path: mix=0 is exactly the identity, mix=1 is a fully
    random rotation, and intermediate values leave a shrinking shared
    component between independently drawn views.
    """
    random_part = _orthogonalized(rng.normal(size=(dim, dim)))
    if mix == 0.0:
        return np.eye(dim)
    if mix == 1.0:
        return random_part
    return _orthogonalized((1.0 - mix) * np.eye(dim) + mix * random_part)


def generate(spec: CorpusSpec) -> Corpus:
    """Build a corpus deterministically from the spec's seed."""
    rng = np.random.default_rng(spec.seed)
    dim = spec.input_dim
    lo, hi = spec.seq_len_range
    query_view = _view(rng, dim, spec.view_mix)
    candidate_view = _view(rng, dim, spec.view_mix)
    modality_names, modality_cdf = _modality_cdf(spec.modality_mix)

    centroids = []
    for _ in range(spec.n_groups):
        c = rng.normal(size=dim)
        centroids.append(c / np.linalg.norm(c) * spec.centroid_scale)

    pair_spread = spec.pair_scale / np.sqrt(dim)
    noise_spread = spec.noise_scale / np.sqrt(dim)
    items: list[ItemRecord] = []
    pairs: list[PairRecord] = []
    for g in range(spec.n_groups):
        group = f"g{g:02d}"
        for j in range(spec.items_per_group):
            latent = centroids[g] + rng.normal(size=dim) * pair_spread
            q_len = int(rng.integers(lo, hi + 1))
            q_feats = query_view @ latent + rng.normal(size=(q_len, dim)) * noise_spread
            q_modality = _draw_modality(rng, modality_names, modality_cdf)
            c_len = int(rng.integers(lo, hi + 1))
            c_feats = candidate_view @ latent + rng.normal(size=(c_len, dim)) * noise_spread
            c_modality = _draw_modality(rng, modality_names, modality_cdf)
            query = ItemRecord(f"q{g:02d}-{j:02d}", q_modality, q_feats, group=group)
            positive = ItemRecord(f"c{g:02d}-{j:02d}", c_modality, c_feats, group=group)
            items.append(positive)
            pairs.append(PairRecord(query=query, positive_id=positive.id))

    quota = int(round(spec.false_negative_rate * len(pairs)))
    if quota:
        chosen = rng.choice(len(pairs), size=quota, replace=False)
        for idx in sorted(int(i) for i in chosen):
            pair = pairs[idx]
            positive = items[idx]  # one candidate appended per pair, in order
            feats = positive.features.copy()
            # Nudge the copy toward the query so any smooth encoder ranks it
            # closer to the query than the positive itself.
            feats[-1] = (1.0 - _PLANTED_BLEND) * feats[-1] + _PLANTED_BLEND * pair.query.features[-1]
            feats += rng.normal(size=feats.shape) * (spec.noise_scale / 10.0 / np.sqrt(dim))
            items.append(
                ItemRecord(pair.query.id + PLANTED_SUFFIX, positive.modality, feats, group=positive.group)
            )
            pair.is_false_negative_planted = True

    return Corpus(items, pairs)


def _item_to_json(item: ItemRecord) -> dict:
    return {
        "id": item.id,
        "modality": item.modality,
        "group": item.group,
        "features": [[float(v) for v in row] for row in item.features],
    }


def _item_from_json(obj: dict) -> ItemRecord:
    try:
        if not all(map(is_number, np.asarray(obj["features"], dtype=object).flat)):
            raise ValueError("features must be JSON numbers that a float holds")
        return ItemRecord(
            id=obj["id"],
            modality=obj["modality"],
            features=np.asarray(obj["features"], dtype=np.float64),
            group=obj.get("group"),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"bad item record: {err}") from err


def write_corpus(path, corpus: Corpus) -> None:
    """Write one JSON record per line: items first, then pairs."""
    with atomic_open(path) as fh:
        for item in corpus.items:
            fh.write(json.dumps({"kind": "item", **_item_to_json(item)}, sort_keys=True))
            fh.write("\n")
        for pair in corpus.pairs:
            record = {
                "kind": "pair",
                "query": _item_to_json(pair.query),
                "positive": pair.positive_id,
                "is_false_negative_planted": pair.is_false_negative_planted,
            }
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")


def read_corpus(path) -> Corpus:
    items: list[ItemRecord] = []
    pairs: list[PairRecord] = []
    seen: set[str] = set()
    for where, obj in json_lines(path):
        try:
            if not isinstance(obj, dict) or "kind" not in obj:
                raise ValueError("record must be an object with a 'kind'")
            if obj["kind"] == "item":
                item = _item_from_json(obj)
                if item.id in seen:
                    raise ValueError(f"duplicate id {item.id!r}")
                seen.add(item.id)
                items.append(item)
            elif obj["kind"] == "pair":
                if "query" not in obj or "positive" not in obj:
                    raise ValueError("pair record needs 'query' and 'positive'")
                query = _item_from_json(obj["query"])
                if query.id in seen:
                    raise ValueError(f"duplicate id {query.id!r}")
                seen.add(query.id)
                planted = obj.get("is_false_negative_planted", False)
                pairs.append(PairRecord(query, obj["positive"], planted))
            else:
                raise ValueError(f"unknown kind {obj['kind']!r}")
        except ValueError as err:
            raise ValueError(f"{where}: {err}") from None
    if not items and not pairs:
        raise ValueError(f"{path}: no records")
    return Corpus(items, pairs)
