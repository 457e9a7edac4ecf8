"""Exhaustive embedding retrieval: rank every candidate per query by cosine
similarity and aggregate Precision@k / Recall@k over a hit matrix.

Scoring is exact (no approximate index); ties break by ascending candidate
index, matching the negative miner's ordering.  A report keeps its rankings
as one query-by-candidate index matrix and writes its JSON one query at a
time.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .corpus import Corpus
from .encoder import EmbeddingBatch, Encoder, embed_items


def rank_scores(scores: np.ndarray) -> list[int]:
    """Indices sorted by score descending, ties by ascending index."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if scores.size == 0:
        raise ValueError("no candidates to rank")
    order = np.lexsort((np.arange(scores.size), -scores))
    return [int(i) for i in order]


def rank_candidates(q_row: np.ndarray, candidates: EmbeddingBatch) -> np.ndarray:
    """Candidate indices ordered by cosine similarity to the query.

    The same order as rank_scores of the same scores.  numpy's default
    (unstable, SIMD) sort runs first; when its sorted keys rise strictly,
    every key is distinct and the order is unique.  A row with a tie or a
    NaN fails that test (NaN compares false) and is re-sorted stably,
    which keeps tied candidates in ascending index order.
    """
    if len(candidates) == 0:
        raise ValueError("no candidates to rank")
    q = np.asarray(q_row, dtype=np.float64).reshape(-1)
    if q.size != candidates.dim:
        raise ValueError(f"query width {q.size} != candidate width {candidates.dim}")
    keys = -(candidates.values @ q)
    order = np.argsort(keys)
    ranked = keys[order]
    if (ranked[1:] > ranked[:-1]).all():
        return order
    return np.argsort(keys, kind="stable")


def _hit_counts(hits: np.ndarray, k: int) -> np.ndarray:
    """Relevant items among each query's top k; hits[i, r] marks rank r of query i."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if hits.shape[0] == 0:
        raise ValueError("no ranked queries")
    if k > hits.shape[1]:
        raise ValueError(f"k={k} exceeds the ranked list ({hits.shape[1]})")
    return np.count_nonzero(hits[:, :k], axis=1)


def precision_at_k(hits: np.ndarray, k: int) -> float:
    """Mean over queries of |top-k hits| / k."""
    return float(np.mean(_hit_counts(hits, k) / k))


def recall_at_k(hits: np.ndarray, k: int) -> float:
    """Mean over queries of |top-k hits|, each query having one relevant item."""
    return float(np.mean(_hit_counts(hits, k)))


def _nested_json(payload) -> str:
    """json.dumps(payload, sort_keys=True, indent=2) as written one level deep."""
    # Encoded JSON holds no raw newline, so each one starts an indented line.
    return json.dumps(payload, sort_keys=True, indent=2).replace("\n", "\n  ")


@dataclass(frozen=True, eq=False)
class RetrievalReport:
    """Per-query rankings plus aggregated cutoff metrics.

    Row i of order holds the candidate indices ranked for query_ids[i], in
    the narrowest unsigned dtype that holds the largest index.
    """

    query_ids: list[str]
    candidate_ids: list[str]
    order: np.ndarray
    precision_at: dict[int, float]
    recall_at: dict[int, float]

    def write_json(self, handle: IO[str]) -> None:
        """Write json.dumps of {precision_at, recall_at, ranked} with
        sort_keys=True and indent=2, one query at a time."""
        handle.write('{\n  "precision_at": ')
        handle.write(_nested_json({str(k): v for k, v in self.precision_at.items()}))
        handle.write(',\n  "ranked": {')
        # Each candidate's row is ",\n      " + its JSON string, and a query's
        # list is its rows in ranked order less the leading comma. Rows of
        # one length gather as a fixed-width byte table (json.dumps writes
        # ASCII); rows of several lengths join as strings, which measured
        # faster than deleting a byte table's NUL padding.
        quoted = [f",\n      {json.dumps(cid)}" for cid in self.candidate_ids]
        fixed = len(set(map(len, quoted))) == 1
        table = np.array(quoted, dtype=np.bytes_ if fixed else object)
        separator = "\n    "
        for i in sorted(range(len(self.query_ids)), key=self.query_ids.__getitem__):
            ranked = table[self.order[i]]
            items = ranked.tobytes().decode() if fixed else "".join(ranked.tolist())
            handle.write(f"{separator}{json.dumps(self.query_ids[i])}: [{items[1:]}\n    ]")
            separator = ",\n    "
        handle.write("\n  }" if self.query_ids else "}")
        handle.write(',\n  "recall_at": ')
        handle.write(_nested_json({str(k): v for k, v in self.recall_at.items()}))
        handle.write("\n}")

    def to_json(self) -> str:
        buffer = io.StringIO()
        self.write_json(buffer)
        return buffer.getvalue()


def evaluate_checkpoint(encoder: Encoder, corpus: Corpus, ks: Sequence[int] = (1, 5)) -> RetrievalReport:
    """Rank every corpus query against all items; each query's labeled positive is its one relevant item."""
    queries = embed_items(encoder, corpus.queries())
    candidates = embed_items(encoder, corpus.items)
    order = np.empty((len(queries), len(candidates)), dtype=np.min_scalar_type(max(len(candidates) - 1, 0)))
    for i, row in enumerate(queries.values):
        order[i] = rank_candidates(row, candidates)
    # The metrics read no further down a ranking than the largest cutoff.
    hits = order[:, : max(ks, default=0)] == np.array(corpus.positive_indices())[:, None]
    precision = {int(k): precision_at_k(hits, k) for k in ks}
    recall = {int(k): recall_at_k(hits, k) for k in ks}
    return RetrievalReport(queries.ids, candidates.ids, order, precision, recall)
