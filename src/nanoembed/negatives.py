"""False-negative filtering and hard-negative sampling over cosine rows.

Mining is a pure selection procedure on the current embedding values; no
gradients flow through it. A candidate is treated as a probable false
negative when its similarity to the query strictly exceeds the query's
positive similarity plus a margin beta. The remaining candidates are
ranked by descending similarity (ties broken by ascending index) and the
top k become hard negatives, cycling through the ranked list when fewer
than k are eligible.

``select_negatives`` applies that rule, and the easy and random modes, to a
whole query-by-candidate similarity matrix at once; the per-row
``filter_false_negatives`` and ``sample_hard_negatives`` are the scalar
reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .encoder import EmbeddingBatch


NEGATIVE_MODES = ("hard", "easy", "random")


class NoEligibleNegativesError(ValueError):
    """Every candidate was the positive or filtered; nothing to sample."""


class ModeUnknownError(ValueError):
    """Requested negative-selection mode is not one of hard/easy/random."""


@dataclass(frozen=True)
class MinerConfig:
    """Filtering margin, negatives per query, and the loss temperature."""

    beta: float = 0.1
    k: int = 8
    tau: float = 0.05

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be > 0, got {self.tau}")


@dataclass
class MinedBatch:
    """Per-query mining outcome over a shared candidate pool."""

    positive_indices: list[int]
    filtered: list[set[int]]
    negatives: list[list[int]]
    duplication_counts: list[int]
    k: int
    candidate_count: int


@dataclass(frozen=True)
class MinerStats:
    """Aggregates reported alongside a mined batch.

    false_neg_pct: percent of queries with a nonempty filtered set.
    hard_neg_pct: percent of the candidate pool each query keeps, 100*k/m.
    duplication_rate: fraction of queries that needed cyclic duplication.
    """

    false_neg_pct: float
    hard_neg_pct: float
    duplication_rate: float


def false_negative_threshold(sim_q_pos: float, beta: float) -> float:
    """The exclusion threshold: positive similarity shifted by beta."""
    return float(sim_q_pos) + float(beta)


def filter_false_negatives(sims: np.ndarray, positive_idx: int, alpha: float) -> set[int]:
    """Candidate indices whose similarity strictly exceeds alpha.

    The positive itself is never part of the filtered set. Candidates at
    exactly alpha survive.
    """
    sims = np.asarray(sims, dtype=np.float64).reshape(-1)
    if not 0 <= positive_idx < sims.size:
        raise IndexError(f"positive index {positive_idx} out of range for {sims.size} candidates")
    over = np.flatnonzero(sims > alpha)
    return {int(j) for j in over if j != positive_idx}


def sample_hard_negatives(
    sims: np.ndarray, positive_idx: int, filtered: set[int], k: int
) -> list[int]:
    """Top-k most similar eligible candidates, duplicated cyclically if short.

    Eligible means: not the positive and not filtered. Ranking is by
    descending similarity with ties broken by ascending index, so the
    result is deterministic for any input.
    """
    sims = np.asarray(sims, dtype=np.float64).reshape(-1)
    if not 0 <= positive_idx < sims.size:
        raise IndexError(f"positive index {positive_idx} out of range for {sims.size} candidates")
    mask = np.ones(sims.size, dtype=bool)
    mask[positive_idx] = False
    for j in filtered:
        if not 0 <= j < sims.size:
            raise IndexError(f"filtered index {j} out of range for {sims.size} candidates")
        mask[j] = False
    eligible = np.flatnonzero(mask)
    if eligible.size == 0:
        raise NoEligibleNegativesError("no eligible candidates remain after filtering")
    ranked = eligible[np.lexsort((eligible, -sims[eligible]))]
    if ranked.size >= k:
        picked = ranked[:k]
    else:
        reps = -(-k // ranked.size)
        picked = np.tile(ranked, reps)[:k]
    return [int(j) for j in picked]


def select_negatives(
    sims: np.ndarray,
    positives: Sequence[int],
    k: int,
    mode: str,
    beta: float,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pick k negatives for every row of an n x m query-candidate similarity matrix.

    Returns (neg, filtered, dup): neg[i] holds query i's k candidate indices,
    filtered[i, j] marks candidates dropped as probable false negatives
    (hard mode only), and dup[i] counts the cyclic repeats query i needed.
    Hard and easy picks equal the per-row rule of sample_hard_negatives on
    sims and -sims, ties included. Random mode draws one ``rng.permutation``
    per row in row order, so the generator is consumed exactly as a
    per-query loop would consume it; the other modes never touch ``rng``.
    """
    if mode not in NEGATIVE_MODES:
        raise ModeUnknownError(f"negative_mode must be one of {NEGATIVE_MODES}, got {mode!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    sims = np.asarray(sims, dtype=np.float64)
    if sims.ndim != 2 or sims.shape[0] == 0:
        raise ValueError(f"need a nonempty n x m similarity matrix, got shape {sims.shape}")
    n, m = sims.shape
    pos = np.asarray(positives, dtype=np.int64)
    if pos.shape != (n,):
        raise ValueError(f"{pos.size} positive indices for {n} queries")
    out_of_range = (pos < 0) | (pos >= m)
    if out_of_range.any():
        raise IndexError(f"positive index {pos[out_of_range][0]} out of range for {m} candidates")
    if not np.isfinite(sims).all():
        raise ValueError("similarities must be finite")

    rows = np.arange(n)
    if mode == "hard":
        alpha = sims[rows, pos] + float(beta)
        filtered = sims > alpha[:, None]
        filtered[rows, pos] = False
    else:
        filtered = np.zeros((n, m), dtype=bool)
    ineligible = filtered.copy()
    ineligible[rows, pos] = True
    eligible = m - np.count_nonzero(ineligible, axis=1)
    if not eligible.all():
        query = int(np.flatnonzero(eligible == 0)[0])
        raise NoEligibleNegativesError(f"query {query}: no eligible candidates remain after filtering")
    dup = np.maximum(0, k - eligible)
    # Position of each pick in its row's ranked eligible list, cycling when short.
    take = np.arange(k) % eligible[:, None]

    if mode == "random":
        if rng is None:
            raise ValueError("random mode needs a generator")
        neg = np.empty((n, k), dtype=np.int64)
        for i in range(n):
            neg[i] = rng.permutation(np.flatnonzero(~ineligible[i]))[take[i]]
        return neg, filtered, dup

    key = -sims if mode == "hard" else sims.copy()
    key[ineligible] = np.inf
    kth = min(k, m) - 1
    bound = np.partition(key, kth, axis=1)[:, kth]
    # Every eligible entry at or below its row's k-th key, sorted by
    # (row, key, index): the same order as the per-row lexsort.
    r, c = np.nonzero((key <= bound[:, None]) & ~ineligible)
    c = c[np.lexsort((c, key[r, c], r))]
    starts = np.concatenate(([0], np.cumsum(np.bincount(r, minlength=n))[:-1]))
    return c[starts[:, None] + take], filtered, dup


def selection_rates(filtered: np.ndarray, dup: np.ndarray) -> tuple[float, float]:
    """False-negative percent and duplication rate of one select_negatives call."""
    n = dup.shape[0]
    return 100.0 * int(np.count_nonzero(filtered.any(axis=1))) / n, int(np.count_nonzero(dup)) / n


def mine_batch(
    queries: EmbeddingBatch,
    candidates: EmbeddingBatch,
    positives: Sequence[int],
    config: MinerConfig,
) -> tuple[MinedBatch, MinerStats]:
    """Filter and sample for every query against a shared candidate pool."""
    if queries.dim != candidates.dim:
        raise ValueError(f"query dim {queries.dim} != candidate dim {candidates.dim}")
    m = len(candidates)
    positives = [int(p) for p in positives]
    sims = queries.values @ candidates.values.T
    neg, filtered, dup = select_negatives(sims, positives, config.k, "hard", config.beta, None)
    false_neg_pct, duplication_rate = selection_rates(filtered, dup)
    stats = MinerStats(
        false_neg_pct=false_neg_pct,
        hard_neg_pct=config.k * 100.0 / m,
        duplication_rate=duplication_rate,
    )
    mined = MinedBatch(
        positive_indices=positives,
        filtered=[set(np.flatnonzero(row).tolist()) for row in filtered],
        negatives=neg.tolist(),
        duplication_counts=dup.tolist(),
        k=config.k,
        candidate_count=m,
    )
    return mined, stats
