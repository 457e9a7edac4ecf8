"""Exhaustive embedding retrieval: rank every candidate per query by cosine
similarity and aggregate Precision@k / Recall@k over a hit matrix.

Scoring is exact (no approximate index); ties break by ascending candidate
index, matching the negative miner's ordering.  The metrics need only each
query's positive's rank; a report keeps the query rows and ranks them a
block at a time while it writes its JSON.
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


# Queries ranked per pass: their score rows fit in cache while they sort.
_BLOCK = 8
_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)


def _rank_block(scores: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write each row's candidate indices by descending score, ties by
    ascending index, into out with one sort of packed keys; scores (a
    C-contiguous float64 block) is overwritten.

    Each score's bits map to an int64 that orders descending by score
    (-0.0 made 0.0 first), and the low bits that hold the largest index
    are replaced by the index.  Returns the rows that order may get wrong,
    those with a NaN or with two neighbours whose truncated keys are equal
    (a tie, or scores that differ only in the replaced bits).
    """
    bits = (scores.shape[1] - 1).bit_length()
    scores += 0.0
    inexact = np.isnan(scores).any(axis=1)
    keys = scores.view(np.int64)
    keys ^= (keys >> 63) & _MAGNITUDE
    np.invert(keys, out=keys)
    keys &= np.int64(-1) << bits
    keys |= np.arange(scores.shape[1], dtype=np.int64)
    keys.sort(axis=1)
    truncated = keys >> bits
    inexact |= (truncated[:, 1:] == truncated[:, :-1]).any(axis=1)
    np.bitwise_and(keys, (1 << bits) - 1, out=keys)
    out[...] = keys
    return inexact


def rank_candidates(queries: np.ndarray, candidates: EmbeddingBatch) -> np.ndarray:
    """Each query row's candidate indices ordered by cosine similarity, as an
    n x m matrix in the narrowest unsigned dtype that holds m - 1.

    Row i is rank_scores of candidates.values @ queries[i].  Blocks of
    query rows are scored one matrix-vector product per query and ordered
    by _rank_block; a row it cannot order exactly is re-sorted stably on
    its scores.
    """
    m = len(candidates)
    if m == 0:
        raise ValueError("no candidates to rank")
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != candidates.dim:
        raise ValueError(f"queries of shape {queries.shape} do not match candidate width {candidates.dim}")
    order = np.empty((len(queries), m), dtype=np.min_scalar_type(m - 1))
    scores = np.empty((_BLOCK, m))
    for start in range(0, len(queries), _BLOCK):
        block = queries[start : start + _BLOCK]
        rows = scores[: len(block)]
        for row, q in zip(rows, block):
            np.matmul(candidates.values, q, out=row)
        for i in np.flatnonzero(_rank_block(rows, order[start : start + len(block)])):
            order[start + i] = np.argsort(-(candidates.values @ block[i]), kind="stable")
    return order


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
    """Query rows in id order, their candidates, and aggregated cutoff metrics.

    Row i of rows embeds query_ids[i]; write_json ranks the rows against
    candidates a block at a time.
    """

    query_ids: list[str]
    rows: np.ndarray
    candidates: EmbeddingBatch
    precision_at: dict[int, float]
    recall_at: dict[int, float]

    def write_json(self, handle: IO[bytes]) -> None:
        """Write json.dumps of {precision_at, recall_at, ranked} with
        sort_keys=True and indent=2, ASCII-encoded, one block of queries at
        a time."""
        handle.write(b'{\n  "precision_at": ')
        handle.write(_nested_json({str(k): v for k, v in self.precision_at.items()}).encode())
        handle.write(b',\n  "ranked": {')
        # Each candidate's row is ",\n      " + its JSON string, and a query's
        # list is its rows in ranked order less the leading comma. Rows of
        # one length gather as a fixed-width byte table (json.dumps writes
        # ASCII) whose bytes go out as they lie; rows of several lengths
        # join as bytes, which measured faster than deleting a byte table's
        # NUL padding.
        quoted = [f",\n      {json.dumps(cid)}".encode() for cid in self.candidates.ids]
        fixed = len(set(map(len, quoted))) == 1
        table = np.array(quoted, dtype=np.bytes_ if fixed else object)
        separator = b"\n    "
        for start in range(0, len(self.query_ids), _BLOCK):
            order = rank_candidates(self.rows[start : start + _BLOCK], self.candidates)
            for qid, indices in zip(self.query_ids[start : start + _BLOCK], order):
                ranked = np.take(table, indices)
                handle.write(b"%s%s: [" % (separator, json.dumps(qid).encode()))
                handle.write(memoryview(ranked.view(np.uint8))[1:] if fixed else b"".join(ranked.tolist())[1:])
                handle.write(b"\n    ]")
                separator = b",\n    "
        handle.write(b"\n  }" if self.query_ids else b"}")
        handle.write(b',\n  "recall_at": ')
        handle.write(_nested_json({str(k): v for k, v in self.recall_at.items()}).encode())
        handle.write(b"\n}")

    def to_json(self) -> str:
        buffer = io.BytesIO()
        self.write_json(buffer)
        return buffer.getvalue().decode()


def _positive_ranks(queries: np.ndarray, candidates: EmbeddingBatch, positives: Sequence[int]) -> np.ndarray:
    """The position of each query's positive in its rank_candidates row.

    Each row is scored by the same matrix-vector product rank_candidates
    runs; the positive follows every higher score and every equal score at
    a lower index.  Unit rows score no NaN, the one case this count would
    place differently from the ranking.
    """
    ranks = np.empty(len(queries), dtype=np.intp)
    row = np.empty(len(candidates))
    for i, (q, p) in enumerate(zip(queries, positives)):
        np.matmul(candidates.values, q, out=row)
        ranks[i] = np.count_nonzero(row > row[p]) + np.count_nonzero(row[:p] == row[p])
    return ranks


def evaluate_checkpoint(encoder: Encoder, corpus: Corpus, ks: Sequence[int] = (1, 5)) -> RetrievalReport:
    """Score every corpus query against all items; each query's labeled positive is its one relevant item."""
    queries = embed_items(encoder, corpus.queries())
    candidates = embed_items(encoder, corpus.items)
    # The positives' ranks are counted on the rows write_json ranks, in id
    # order; the metrics average them in pair order.
    by_id = sorted(range(len(queries)), key=queries.ids.__getitem__)
    rows = queries.values[by_id]
    ranks = np.empty(len(queries), dtype=np.intp)
    ranks[by_id] = _positive_ranks(rows, candidates, np.array(corpus.positive_indices())[by_id])
    # hits[i, r]: rank r of query i is its positive, read no further down a
    # ranking than the largest cutoff.
    hits = np.arange(min(max(ks, default=0), len(candidates))) == ranks[:, None]
    precision = {int(k): precision_at_k(hits, k) for k in ks}
    recall = {int(k): recall_at_k(hits, k) for k in ks}
    return RetrievalReport([queries.ids[i] for i in by_id], rows, candidates, precision, recall)
