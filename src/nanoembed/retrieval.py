"""Exhaustive embedding retrieval: rank every candidate per query by cosine
similarity and aggregate Precision@k / Recall@k.

Scoring is exact (no approximate index); ties break by ascending candidate
index, matching the negative miner's ordering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import Corpus
from .encoder import EmbeddingBatch, Encoder, embed_items


class EmptyCandidatesError(ValueError):
    """Ranking requested against an empty candidate set."""


class KExceedsCandidatesError(ValueError):
    """Metric cutoff k is larger than the ranked list."""


def rank_scores(scores: np.ndarray) -> list[int]:
    """Indices sorted by score descending, ties by ascending index."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if scores.size == 0:
        raise EmptyCandidatesError("no candidates to rank")
    order = np.lexsort((np.arange(scores.size), -scores))
    return [int(i) for i in order]


def rank_candidates(q_row: np.ndarray, candidates: EmbeddingBatch) -> list[int]:
    """Candidate indices ordered by cosine similarity to the query."""
    if len(candidates) == 0:
        raise EmptyCandidatesError("no candidates to rank")
    q = np.asarray(q_row, dtype=np.float64).reshape(-1)
    if q.size != candidates.dim:
        raise ValueError(f"query width {q.size} != candidate width {candidates.dim}")
    return rank_scores(candidates.values @ q)


def _check_k(ranked: Mapping[str, Sequence[str]], k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    shortest = min(len(ids) for ids in ranked.values())
    if k > shortest:
        raise KExceedsCandidatesError(f"k={k} exceeds shortest ranked list ({shortest})")


def precision_at_k(ranked: Mapping[str, Sequence[str]], relevance: Mapping[str, set[str]], k: int) -> float:
    """Mean over queries of |top-k hits| / k."""
    if not ranked:
        raise ValueError("no ranked queries")
    _check_k(ranked, k)
    hits = [len(set(ids[:k]) & relevance[q]) / k for q, ids in ranked.items()]
    return float(np.mean(hits))


def recall_at_k(ranked: Mapping[str, Sequence[str]], relevance: Mapping[str, set[str]], k: int) -> float:
    """Mean over queries of |top-k hits| / |relevant|."""
    if not ranked:
        raise ValueError("no ranked queries")
    _check_k(ranked, k)
    hits = [len(set(ids[:k]) & relevance[q]) / len(relevance[q]) for q, ids in ranked.items()]
    return float(np.mean(hits))


@dataclass(frozen=True)
class RetrievalReport:
    """Per-query rankings plus aggregated cutoff metrics."""

    ranked: dict[str, list[str]]
    precision_at: dict[int, float]
    recall_at: dict[int, float]

    def to_json(self) -> str:
        payload = {
            "precision_at": {str(k): v for k, v in sorted(self.precision_at.items())},
            "recall_at": {str(k): v for k, v in sorted(self.recall_at.items())},
            "ranked": self.ranked,
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def evaluate_checkpoint(encoder: Encoder, corpus: Corpus, ks: Sequence[int] = (1, 5)) -> RetrievalReport:
    """Rank every corpus query against all items; each query's labeled positive is its one relevant item."""
    queries = embed_items(encoder, [pair.query for pair in corpus.pairs])
    candidates = embed_items(encoder, corpus.items)
    ranked = {
        qid: [candidates.ids[i] for i in rank_candidates(row, candidates)]
        for qid, row in zip(queries.ids, queries.values)
    }
    relevance = {pair.query.id: {pair.positive_id} for pair in corpus.pairs}
    precision = {int(k): precision_at_k(ranked, relevance, k) for k in ks}
    recall = {int(k): recall_at_k(ranked, relevance, k) for k in ks}
    return RetrievalReport(ranked=ranked, precision_at=precision, recall_at=recall)
