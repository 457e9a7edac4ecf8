"""Tests for exhaustive ranking and Precision@k / Recall@k aggregation.

Rankings are checked against a brute-force sort with an explicit
(-similarity, index) key and against the rank_scores oracle, the aggregate
metrics against plain counting loops, the streamed report against
json.dumps of the same payload, each positive's counted rank against its
position in the written list, and the eval's peak memory against one byte
per query-candidate pair.
"""

import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanoembed import autodiff as ad
from nanoembed import corpus as cp
from nanoembed import encoder as enc
from nanoembed import retrieval as rt


def unit_batch(rng, n, d, prefix):
    rows = rng.normal(size=(n, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return enc.EmbeddingBatch([f"{prefix}{i}" for i in range(n)], ad.constant(rows))


def batch_from_rows(rows, prefix):
    rows = np.asarray(rows, dtype=np.float64)
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    return enc.EmbeddingBatch([f"{prefix}{i}" for i in range(len(rows))], ad.constant(rows))


def scored_candidates(scores):
    """Candidates that score exactly `scores` against SCORING_QUERY."""
    rows = np.array([[s, np.sqrt(1.0 - s * s)] for s in scores])
    return enc.EmbeddingBatch([f"c{j}" for j in range(len(rows))], ad.constant(rows))


# (1, -0) keeps the sign of a zero score: s * 1 + y * -0.0 == s.
SCORING_QUERY = np.array([1.0, -0.0])


class TestRankScores:
    def test_hand_checked_order(self):
        assert rt.rank_scores(np.array([0.2, 0.9, 0.5])) == [1, 2, 0]

    def test_ties_break_by_ascending_index(self):
        assert rt.rank_scores(np.array([0.5, 0.7, 0.5, 0.7])) == [1, 3, 0, 2]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no candidates to rank"):
            rt.rank_scores(np.array([]))

    def test_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(11)
        scores = rng.normal(size=64)
        assert rt.rank_scores(scores) == rt.rank_scores(3.7 * scores)


def narrowest_index_dtype(m):
    """The smallest unsigned integer type whose range holds index m - 1."""
    return next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if m - 1 <= np.iinfo(t).max)


def rank_one(q, candidates):
    return rt.rank_candidates(np.asarray(q, dtype=np.float64)[None, :], candidates)[0]


def assert_matches_oracle(queries, candidates):
    """Every row of the block ranking equals rank_scores of that query's scores."""
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    order = rt.rank_candidates(queries, candidates)
    assert order.shape == (len(queries), len(candidates))
    assert order.dtype == narrowest_index_dtype(len(candidates))
    for row, q in zip(order, queries):
        assert row.tolist() == rt.rank_scores(candidates.values @ q)


def unit_rows(rng, n, d):
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestRankCandidates:
    def test_identical_candidate_ranked_first(self):
        q = np.array([1.0, 0.0, 0.0])
        rows = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.6, 0.8, 0.0]])
        candidates = batch_from_rows(rows, "c")
        order = rank_one(q, candidates)
        assert order[0] == 1
        assert candidates.values[1] @ q == pytest.approx(1.0)

    def test_matches_brute_force_on_200_candidates(self):
        rng = np.random.default_rng(7)
        candidates = unit_batch(rng, 200, 16, "c")
        queries = unit_rows(rng, 13, 16)
        order = rt.rank_candidates(queries, candidates)
        for row, q in zip(order, queries):
            sims = candidates.values @ q
            assert row.tolist() == sorted(range(200), key=lambda j: (-sims[j], j))

    def test_duplicate_rows_keep_index_order(self):
        row = np.array([0.6, 0.8])
        candidates = batch_from_rows(np.stack([row, row, row]), "c")
        assert rank_one(np.array([1.0, 0.0]), candidates).tolist() == [0, 1, 2]

    @pytest.mark.parametrize("queries", [np.ones((1, 5)), np.ones(8), np.ones((2, 2, 8))], ids=["width", "1-d", "3-d"])
    def test_query_shape_mismatch_rejected(self, queries):
        rng = np.random.default_rng(3)
        candidates = unit_batch(rng, 4, 8, "c")
        with pytest.raises(ValueError, match="do not match candidate width 8"):
            rt.rank_candidates(queries, candidates)

    def test_no_queries_rank_to_an_empty_matrix(self):
        candidates = unit_batch(np.random.default_rng(4), 300, 4, "c")
        order = rt.rank_candidates(np.empty((0, 4)), candidates)
        assert order.shape == (0, 300) and order.dtype == np.uint16

    def test_no_candidates_rejected(self):
        candidates = enc.EmbeddingBatch([], ad.constant(np.empty((0, 4))))
        with pytest.raises(ValueError, match="no candidates to rank"):
            rt.rank_candidates(np.ones((1, 4)), candidates)

    # Scores on a 0.1 grid tie often; -0.0 and 0.0 compare equal and must
    # tie as well.
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([round(0.1 * i, 1) for i in range(-10, 11)] + [-0.0]),
                    min_size=1, max_size=40))
    def test_matches_rank_scores_oracle(self, grid_scores):
        candidates = scored_candidates(grid_scores)
        order = rt.rank_candidates(SCORING_QUERY[None, :], candidates)
        assert order.dtype == narrowest_index_dtype(len(grid_scores))
        assert order[0].tolist() == rt.rank_scores(candidates.values @ SCORING_QUERY)


def scoring_block(rng, n):
    """n queries: SCORING_QUERY first, which scores scored_candidates exactly,
    then random unit rows."""
    return np.vstack([SCORING_QUERY, unit_rows(rng, n - 1, 2)])


def with_low_bits(score, low):
    """score with the lowest 11 bits of its float64 pattern set to low."""
    bits = np.array(score, dtype=np.float64).view(np.int64)
    return float(((bits & ~np.int64(2047)) | np.int64(low)).view(np.float64))


class TestRankBlock:
    """The packed-key sort on score rows that rank_candidates cannot be fed
    on every platform (OpenBLAS's gemv returns no -0.0, and x86 makes
    inf * 0 a negative NaN): each row is ordered as rank_scores orders it
    or flagged for the stable re-sort."""

    def rows(self):
        rng = np.random.default_rng(71)
        rows = rng.uniform(-1.0, 1.0, size=(7, 300))
        rows[1, [40, 9]] = -0.0, 0.0
        rows[2, [3, 250]] = -0.0, 0.0
        rows[3, 17] = np.nan
        rows[4, 17] = -np.nan
        rows[5, [8, 80]] = np.inf, -np.inf
        rows[6, 30] = with_low_bits(rows[6, 30], 5)
        rows[6, 31] = np.nextafter(rows[6, 30], np.inf)
        return rows

    def test_each_row_is_exact_or_flagged(self):
        rows = self.rows()
        out = np.empty(rows.shape, dtype=np.uint16)
        inexact = rt._rank_block(rows.copy(), out)
        assert inexact.tolist() == [False, True, True, True, True, False, True]
        for row, flagged, scores in zip(out, inexact, rows):
            assert flagged or row.tolist() == rt.rank_scores(scores)

    def test_a_full_block_of_distinct_scores_needs_no_re_sort(self):
        rows = np.random.default_rng(73).uniform(-1.0, 1.0, size=(8, 2049))
        out = np.empty(rows.shape, dtype=np.uint16)
        assert not rt._rank_block(rows.copy(), out).any()
        assert [row.tolist() for row in out] == [rt.rank_scores(scores) for scores in rows]


class TestRankCandidatesAtEvalScale:
    """rank_candidates against the rank_scores oracle at eval-sized pools.

    The packed-key sort drops the low bits of each score, so a row with
    tied or NaN scores, or with scores that differ only in those bits,
    must take the stable re-sort to match.
    """

    @settings(max_examples=25, deadline=None)
    @given(st.integers(200, 2048), st.integers(0, 2**32 - 1))
    def test_grid_scores_tie(self, m, seed):
        rng = np.random.default_rng(seed)
        scores = rng.integers(-10, 11, size=m) / 10
        assert len(np.unique(scores)) < m
        assert_matches_oracle(scoring_block(rng, 11), scored_candidates(scores))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(200, 2048), st.integers(0, 2**32 - 1))
    def test_continuous_scores_take_the_fast_path(self, m, seed):
        rng = np.random.default_rng(seed)
        candidates = unit_batch(rng, m, 8, "c")
        queries = rng.normal(size=(9, 8))
        for q in queries:
            assert len(np.unique(candidates.values @ q)) == m
        assert_matches_oracle(queries, candidates)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(200, 2048), st.integers(0, 2**32 - 1))
    def test_signed_zero_pair_ties(self, m, seed):
        rng = np.random.default_rng(seed)
        scores = rng.uniform(-1.0, 1.0, size=m)
        i, j = rng.choice(m, size=2, replace=False)
        scores[i], scores[j] = -0.0, 0.0
        assert_matches_oracle(scoring_block(rng, 3), scored_candidates(scores))
        assert_matches_oracle(SCORING_QUERY, scored_candidates(-0.0 * np.ones(m)))

    @pytest.mark.parametrize("q", [[np.nan, 0.0], [np.inf, 0.0], [-np.inf, 1.0]])
    @pytest.mark.parametrize("m", [200, 2048])
    def test_non_finite_query(self, q, m):
        # A NaN query scores NaN everywhere; an infinite one scores +-inf,
        # and NaN where it meets a zero coordinate. Finite rows share its block.
        rng = np.random.default_rng(m)
        rows = rng.normal(size=(m, 2))
        rows[::7, 0] = 0.0
        candidates = batch_from_rows(rows, "c")
        queries = unit_rows(rng, 10, 2)
        queries[3] = q
        with np.errstate(invalid="ignore"):
            assert_matches_oracle(queries, candidates)

    @pytest.mark.parametrize("m", [1, 2, 255, 256, 257, 2048, 2049])
    def test_pool_sizes_around_index_widths(self, m):
        rng = np.random.default_rng(m)
        candidates = unit_batch(rng, m, 6, "c")
        assert_matches_oracle(unit_rows(rng, 13, 6), candidates)

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 17])
    def test_query_counts_around_the_block_size(self, n):
        rng = np.random.default_rng(n)
        scores = rng.integers(-10, 11, size=300) / 10
        assert_matches_oracle(scoring_block(rng, n), scored_candidates(scores))
        assert_matches_oracle(unit_rows(rng, n, 2), scored_candidates(rng.uniform(-1.0, 1.0, size=300)))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("m", [300, 2048])
    def test_scores_apart_only_in_the_dropped_bits_sort_exactly(self, sign, m):
        # Each planted pair differs by one ulp, inside the low bits the packed
        # key gives to the index, and the higher score sits at the higher
        # index, so only the exact re-sort puts it first.
        rng = np.random.default_rng(m)
        scores = rng.uniform(0.1, 0.9, size=m) * sign
        for i in range(0, m - 1, m // 5):
            scores[i] = with_low_bits(scores[i], 5)
            scores[i + 1] = np.nextafter(scores[i], np.inf)
        assert len(np.unique(scores)) == m
        candidates = scored_candidates(scores)
        block = np.vstack([SCORING_QUERY, unit_rows(rng, 4, 2), SCORING_QUERY])
        assert_matches_oracle(block, candidates)
        order = rank_one(SCORING_QUERY, candidates).tolist()
        for i in range(0, m - 1, m // 5):
            assert order.index(i + 1) == order.index(i) - 1


def hit_matrix(orders, positives):
    """hits[i, r]: the candidate at rank r of query i is its positive."""
    return np.asarray(orders) == np.asarray(positives)[:, None]


class TestMetrics:
    """precision_at_k and recall_at_k read a query-by-rank hit matrix."""

    def test_precision_hand_count(self):
        hits = np.array([[True, False], [True, False], [False, True]])
        assert rt.precision_at_k(hits, 1) == pytest.approx(2 / 3)
        assert rt.precision_at_k(hits, 2) == 0.5
        assert rt.recall_at_k(hits, 2) == 1.0

    def test_perfect_retrieval(self):
        hits = hit_matrix([[i, 5] for i in range(5)], range(5))
        assert rt.precision_at_k(hits, 1) == 1.0
        assert rt.recall_at_k(hits, 1) == 1.0

    def test_matches_counting_oracle_at_k5(self):
        rng = np.random.default_rng(19)
        orders = np.array([rng.permutation(30) for _ in range(40)])
        positives = rng.integers(0, 30, size=40)
        found = [int(pos in row[:5]) for row, pos in zip(orders.tolist(), positives.tolist())]
        hits = hit_matrix(orders, positives)
        assert rt.precision_at_k(hits, 5) == np.mean([f / 5 for f in found])
        assert rt.recall_at_k(hits, 5) == np.mean([f / 1 for f in found])

    def test_singleton_relevance_makes_p1_equal_r1(self):
        rng = np.random.default_rng(23)
        hits = hit_matrix([rng.permutation(12) for _ in range(25)], rng.integers(0, 12, size=25))
        assert rt.precision_at_k(hits, 1) == rt.recall_at_k(hits, 1)

    def test_invariant_under_query_permutation(self):
        rng = np.random.default_rng(29)
        hits = hit_matrix([rng.permutation(10) for _ in range(8)], rng.integers(0, 10, size=8))
        shuffled = hits[rng.permutation(8)]
        for k in (1, 3, 10):
            assert rt.precision_at_k(hits, k) == rt.precision_at_k(shuffled, k)
            assert rt.recall_at_k(hits, k) == rt.recall_at_k(shuffled, k)

    def test_k_beyond_candidates_rejected(self):
        hits = np.array([[True, False]])
        with pytest.raises(ValueError, match="k=3 exceeds the ranked list"):
            rt.precision_at_k(hits, 3)
        with pytest.raises(ValueError, match="k=3 exceeds the ranked list"):
            rt.recall_at_k(hits, 3)

    def test_bad_k_and_empty_rejected(self):
        with pytest.raises(ValueError):
            rt.precision_at_k(np.array([[True]]), 0)
        with pytest.raises(ValueError):
            rt.recall_at_k(np.zeros((0, 3), dtype=bool), 1)


def set_intersection_metrics(report, corpus, k):
    """Precision and recall@k as per-query set intersections of ranked ids."""
    relevance = {pair.query.id: {pair.positive_id} for pair in corpus.pairs}
    ranked = json.loads(report.to_json())["ranked"]
    # In pair order, as the report averages them.
    found = {pair.query.id: len(set(ranked[pair.query.id][:k]) & relevance[pair.query.id]) for pair in corpus.pairs}
    precision = float(np.mean([n / k for n in found.values()]))
    recall = float(np.mean([n / len(relevance[q]) for q, n in found.items()]))
    return precision, recall


class TestMetricsOracle:
    @pytest.mark.parametrize("seed", [59, 61, 67])
    def test_equals_set_intersection_on_tied_scores(self, seed):
        # Items share three feature sequences, so their scores tie in blocks.
        rng = np.random.default_rng(seed)
        pool = rng.normal(size=(3, 2, 4))
        items = [item(f"c{j}", pool[rng.integers(3)]) for j in range(12)]
        pairs = [cp.PairRecord(item(f"q{i}", pool[rng.integers(3)]), f"c{rng.integers(12)}") for i in range(30)]
        corpus = cp.Corpus(items, pairs)
        m = len(items)
        report = rt.evaluate_checkpoint(enc.Encoder(enc.EncoderConfig(4, 8, 4, seed=seed)), corpus, ks=(1, 5, m))
        for k in (1, 5, m):
            assert (report.precision_at[k], report.recall_at[k]) == set_intersection_metrics(report, corpus, k)
        assert report.recall_at[m] == 1.0


class TestRetrievalTask:
    """The retrieval task evaluate_checkpoint builds from a corpus."""

    def test_report_lists_are_candidate_permutations(self):
        corpus = cp.generate(cp.CorpusSpec(seed=37, n_groups=3, items_per_group=3, input_dim=8))
        encoder = enc.Encoder(enc.EncoderConfig(8, 16, 8, seed=1))
        report = rt.evaluate_checkpoint(encoder, corpus, ks=(1, 5))
        for ids in json.loads(report.to_json())["ranked"].values():
            assert sorted(ids) == sorted(it.id for it in corpus.items)
        assert set(report.precision_at) == {1, 5}
        for v in list(report.precision_at.values()) + list(report.recall_at.values()):
            assert 0.0 <= v <= 1.0

    def test_report_json_is_deterministic(self):
        corpus = cp.generate(cp.CorpusSpec(seed=41, n_groups=2, items_per_group=2, input_dim=4))
        encoder = enc.Encoder(enc.EncoderConfig(4, 8, 4, seed=2))
        a = rt.evaluate_checkpoint(encoder, corpus, ks=(1,)).to_json()
        b = rt.evaluate_checkpoint(encoder, corpus, ks=(1,)).to_json()
        assert a == b
        assert '"precision_at"' in a


class TestEvaluateCheckpoint:
    def test_random_init_scores_at_chance(self):
        # independent random views make raw feature geometry useless to an
        # untrained encoder, so precision@1 sits at the 1/m guessing rate
        spec = cp.CorpusSpec(seed=77, n_groups=8, items_per_group=8, input_dim=12)
        corpus = cp.generate(spec)
        encoder = enc.Encoder(enc.EncoderConfig(12, 32, 16, seed=5))
        report = rt.evaluate_checkpoint(encoder, corpus, ks=(1,))
        m = len(corpus.items)
        n = len(corpus.pairs)
        assert n >= 50
        chance = 1.0 / m
        band = 3.0 * np.sqrt(chance * (1.0 - chance) / n)
        assert abs(report.precision_at[1] - chance) <= band

    def test_rankings_use_all_items(self):
        spec = cp.CorpusSpec(seed=78, n_groups=4, items_per_group=4, input_dim=12)
        corpus = cp.generate(spec)
        encoder = enc.Encoder(enc.EncoderConfig(12, 32, 16, seed=6))
        report = rt.evaluate_checkpoint(encoder, corpus, ks=(1, 5))
        ranked = json.loads(report.to_json())["ranked"]
        assert len(ranked) == len(corpus.pairs)
        item_ids = sorted(it.id for it in corpus.items)
        for ids in ranked.values():
            assert sorted(ids) == item_ids

    def test_duplicate_items_rank_like_the_oracle(self):
        # 240 candidates from 6 feature rows: every score ties with 39 others.
        rng = np.random.default_rng(12)
        templates = rng.normal(size=(6, 1, 5))
        items = [item(f"i{j:03d}", templates[j % 6]) for j in range(240)]
        pairs = [cp.PairRecord(item(f"q{i}", rng.normal(size=(1, 5))), f"i{i:03d}") for i in range(8)]
        corpus = cp.Corpus(items, pairs)
        encoder = enc.Encoder(enc.EncoderConfig(5, 8, 4, seed=3))
        report = rt.evaluate_checkpoint(encoder, corpus, ks=(1, 5))
        queries = enc.embed_items(encoder, [pair.query for pair in pairs])
        candidates = enc.embed_items(encoder, items)
        assert len(np.unique(candidates.values, axis=0)) == 6
        ranked = json.loads(report.to_json())["ranked"]
        for qid, q in zip(queries.ids, queries.values):
            assert ranked[qid] == [candidates.ids[j] for j in rt.rank_scores(candidates.values @ q)]


class TestPositiveRank:
    """The rank behind a query's hits is its positive's position in the
    written list: every higher score first, then equal scores by index.

    _positive_ranks counts with comparisons, which a NaN score would fail
    where the ranking places it last. evaluate_checkpoint cannot reach that
    case: EmbeddingBatch refuses any row whose norm is not 1, NaN rows
    included (tests/test_encoder.py, test_rejects_nan_row), so unit queries
    meet unit candidates in finite scores.
    """

    def assert_rank_is_written_position(self, rows, candidates, positives):
        rows = np.asarray(rows, dtype=np.float64)
        ranks = rt._positive_ranks(rows, candidates, positives).tolist()
        ids = [f"q{i:02d}" for i in range(len(rows))]
        ranked = json.loads(rt.RetrievalReport(ids, rows, candidates, {}, {}).to_json())["ranked"]
        assert ranks == [ranked[qid].index(candidates.ids[p]) for qid, p in zip(ids, positives)]
        assert ranks == [rt.rank_scores(candidates.values @ q).index(p) for q, p in zip(rows, positives)]
        return ranks

    def test_positive_after_lower_indexed_duplicates(self):
        rows = np.array([[0.6, 0.8], [1.0, 0.0], [0.6, 0.8], [0.0, 1.0], [0.6, 0.8]])
        candidates = batch_from_rows(rows, "c")
        ranks = self.assert_rank_is_written_position([[1.0, 0.0]] * 3, candidates, [0, 2, 4])
        assert ranks == [1, 2, 3]

    def test_signed_zero_scores_of_orthogonal_rows_tie(self):
        # Summed in order, (-0, 1) scores -0.0 against SCORING_QUERY and
        # (0, -1) scores 0.0; OpenBLAS's gemv starts from +0.0 and returns
        # both as 0.0. Either way the pair ties, broken by index.
        rows = np.array([[-0.0, 1.0], [-0.6, 0.8], [0.0, -1.0], [0.6, -0.8], [-0.0, 1.0]])
        candidates = batch_from_rows(rows, "c")
        scores = candidates.values @ SCORING_QUERY
        assert scores[0] == scores[2] == scores[4] == 0.0
        ranks = self.assert_rank_is_written_position([SCORING_QUERY] * 3, candidates, [0, 2, 4])
        assert ranks == [1, 2, 3]

    @pytest.mark.parametrize("m", [300, 2048])
    def test_rows_that_take_the_stable_re_sort(self, m):
        # Grid scores tie, and a planted pair differs only in the bits the
        # packed key gives to the index, so _rank_block flags both rows.
        rng = np.random.default_rng(m)
        grid = scored_candidates(rng.integers(-10, 11, size=m) / 10)
        scores = rng.uniform(0.1, 0.9, size=m)
        scores[m // 2] = with_low_bits(scores[m // 2], 5)
        scores[m // 2 + 1] = np.nextafter(scores[m // 2], np.inf)
        planted = scored_candidates(scores)
        for candidates, positives in ((grid, [0, m // 3, m - 1]), (planted, [m // 2, m // 2 + 1, 0])):
            block = candidates.values @ SCORING_QUERY
            assert rt._rank_block(block[None, :].copy(), np.empty((1, m), dtype=np.uint16)).all()
            self.assert_rank_is_written_position([SCORING_QUERY] * 3, candidates, positives)

    def test_cutoffs_above_and_below_each_position(self):
        # 240 candidates from 6 feature rows; every cutoff from 1 to m.
        rng = np.random.default_rng(12)
        templates = rng.normal(size=(6, 1, 5))
        items = [item(f"i{j:03d}", templates[j % 6]) for j in range(240)]
        pairs = [cp.PairRecord(item(f"q{i}", rng.normal(size=(1, 5))), f"i{(37 * i) % 240:03d}") for i in range(12)]
        corpus = cp.Corpus(items, pairs)
        m = len(items)
        report = rt.evaluate_checkpoint(enc.Encoder(enc.EncoderConfig(5, 8, 4, seed=3)), corpus, ks=range(1, m + 1))
        ranked = json.loads(report.to_json())["ranked"]
        positions = [ranked[pair.query.id].index(pair.positive_id) for pair in corpus.pairs]
        assert 0 < min(positions) and max(positions) < m - 1
        for k in range(1, m + 1):
            found = [int(p < k) for p in positions]
            assert report.recall_at[k] == float(np.mean(found))
            assert report.precision_at[k] == float(np.mean([f / k for f in found]))


class CountingSink:
    """A binary handle that keeps only the number of bytes written to it."""

    def __init__(self):
        self.size = 0

    def write(self, data):
        self.size += memoryview(data).nbytes


class TestEvalMemory:
    """The eval holds no query x candidate array: evaluate_checkpoint ranks
    nothing, and write_json ranks one block of queries at a time."""

    def test_peak_stays_under_one_byte_per_query_candidate_pair(self, monkeypatch):
        corpus = cp.generate(cp.CorpusSpec(seed=5, n_groups=32, items_per_group=32, input_dim=8))
        n, m = len(corpus.pairs), len(corpus.items)
        assert n == m == 1024
        encoder = enc.Encoder(enc.EncoderConfig(8, 16, 8, seed=5))
        calls = []
        rank = rt.rank_candidates

        def counted_rank(queries, candidates):
            calls.append(len(queries))
            return rank(queries, candidates)

        monkeypatch.setattr(rt, "rank_candidates", counted_rank)
        sink = CountingSink()
        tracemalloc.start()
        try:
            report = rt.evaluate_checkpoint(encoder, corpus, ks=(1, 5))
            assert calls == []
            report.write_json(sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == -(-n // rt._BLOCK) and sum(calls) == n
        assert sink.size == len(report.to_json())
        assert peak < n * m, f"peak {peak} B"


def test_plain_item_named_like_a_fused_half_is_kept_apart():
    rng = np.random.default_rng(9)
    items = [
        cp.ItemRecord("f/a", "text", rng.normal(size=(2, 6))),
        cp.ItemRecord("f", "fused", rng.normal(size=(4, 6))),
    ]
    query = cp.ItemRecord("q", "text", items[1].features[:2])
    corpus = cp.Corpus(items, [cp.PairRecord(query, "f")])
    encoder = enc.Encoder(enc.EncoderConfig(6, 8, 4, seed=2))
    report = rt.evaluate_checkpoint(encoder, corpus, ks=(1,))
    assert sorted(json.loads(report.to_json())["ranked"]["q"]) == ["f", "f/a"]
    candidates = enc.embed_items(encoder, items)
    alone = enc.embed_items(encoder, [items[0]])
    np.testing.assert_array_equal(candidates.values[0], alone.values[0])


def item(item_id, features, group=None):
    return cp.ItemRecord(item_id, "text", np.asarray(features, dtype=np.float64), group)


def legacy_json(encoder, corpus, ks):
    """The report as json.dumps wrote it whole: rankings from rank_scores,
    and the metrics counted on those lists in pair order."""
    queries = enc.embed_items(encoder, [pair.query for pair in corpus.pairs])
    candidates = enc.embed_items(encoder, corpus.items)
    ranked = {
        qid: [candidates.ids[j] for j in rt.rank_scores(candidates.values @ row)]
        for qid, row in zip(queries.ids, queries.values)
    }
    found = {k: [int(pair.positive_id in ranked[pair.query.id][:k]) for pair in corpus.pairs] for k in ks}
    payload = {
        "precision_at": {str(k): float(np.mean([f / k for f in found[k]])) for k in ks},
        "recall_at": {str(k): float(np.mean(found[k])) for k in ks},
        "ranked": ranked,
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def corpus_order(encoder, corpus):
    """rank_candidates of the corpus's queries against its items."""
    queries = enc.embed_items(encoder, [pair.query for pair in corpus.pairs])
    return rt.rank_candidates(queries.values, enc.embed_items(encoder, corpus.items))


def assert_streams_legacy_bytes(encoder, corpus, ks):
    report = rt.evaluate_checkpoint(encoder, corpus, ks=ks)
    assert corpus_order(encoder, corpus).dtype == narrowest_index_dtype(len(corpus.items))
    expected = legacy_json(encoder, corpus, ks)
    buffer = io.BytesIO()
    report.write_json(buffer)
    assert buffer.getvalue().decode() == expected
    assert report.to_json() == expected
    return report


class TestReportJson:
    """write_json streams exactly the bytes of json.dumps(..., sort_keys=True, indent=2)."""

    @pytest.mark.parametrize("ks", [(1, 5, 10), (10, 2), ()])
    def test_matches_json_dumps(self, ks):
        corpus = cp.generate(cp.CorpusSpec(seed=43, n_groups=3, items_per_group=5, input_dim=6))
        assert len({len(it.id) for it in corpus.items}) == 1  # ids of one length
        encoder = enc.Encoder(enc.EncoderConfig(6, 12, 6, seed=4))
        report = assert_streams_legacy_bytes(encoder, corpus, ks)
        assert sorted(report.precision_at) == sorted(ks)
        if not ks:
            assert '"precision_at": {}' in report.to_json()

    def test_ids_that_need_escaping(self):
        rng = np.random.default_rng(47)
        names = ['quo"te', "back\\slash", "caf\u00e9", "\u65e5\u672c", "tab\tnew\nline", "Zeta", "alpha"]
        items = [item(f"c-{name}", rng.normal(size=(2, 4))) for name in names]
        pairs = [
            cp.PairRecord(item(f"q-{name}", rng.normal(size=(2, 4))), items[(i * 3) % len(items)].id)
            for i, name in enumerate(reversed(names))
        ]
        encoder = enc.Encoder(enc.EncoderConfig(4, 8, 4, seed=5))
        assert_streams_legacy_bytes(encoder, cp.Corpus(items, pairs), (1, 5))

    def test_one_candidate(self):
        rng = np.random.default_rng(53)
        only = item("only", rng.normal(size=(1, 4)))
        pairs = [cp.PairRecord(item(f"q{i}", rng.normal(size=(1, 4))), "only") for i in range(3)]
        corpus = cp.Corpus([only], pairs)
        encoder = enc.Encoder(enc.EncoderConfig(4, 8, 4, seed=6))
        report = assert_streams_legacy_bytes(encoder, corpus, (1,))
        assert report.precision_at == {1: 1.0}
        with pytest.raises(ValueError, match="k=2 exceeds the ranked list"):
            rt.evaluate_checkpoint(encoder, corpus, ks=(1, 2))

    def test_ids_of_unequal_length(self):
        # Planted false negatives add "#dup" ids among equal-length ones.
        spec = cp.CorpusSpec(seed=44, n_groups=3, items_per_group=5, input_dim=6, false_negative_rate=0.5)
        corpus = cp.generate(spec)
        assert len({len(it.id) for it in corpus.items}) > 1 and any(it.id.endswith(cp.PLANTED_SUFFIX) for it in corpus.items)
        assert_streams_legacy_bytes(enc.Encoder(enc.EncoderConfig(6, 12, 6, seed=4)), corpus, (1, 5))

    def test_escaped_ids_of_equal_encoded_length(self):
        # Each id's JSON string is 10 characters: escapes count as written.
        rng = np.random.default_rng(48)
        names = ["c-\u00e9", "c-abcdef", 'c-"\\\t', "c-\u65e5", "c-\n\"\\"]
        assert {len(json.dumps(name)) for name in names} == {10}
        items = [item(name, rng.normal(size=(2, 4))) for name in names]
        pairs = [cp.PairRecord(item(f"q{i}", rng.normal(size=(2, 4))), name) for i, name in enumerate(names)]
        assert_streams_legacy_bytes(enc.Encoder(enc.EncoderConfig(4, 8, 4, seed=5)), cp.Corpus(items, pairs), (1, 5))

    @pytest.mark.parametrize("m, dtype", [(256, np.uint8), (257, np.uint16)])
    def test_index_dtype_widens_past_256_candidates(self, m, dtype):
        rng = np.random.default_rng(m)
        items = [item(f"c{j:03d}", rng.normal(size=(1, 4))) for j in range(m)]
        pairs = [cp.PairRecord(item(f"q{i}", rng.normal(size=(1, 4))), items[(i * 97) % m].id) for i in range(6)]
        corpus = cp.Corpus(items, pairs)
        encoder = enc.Encoder(enc.EncoderConfig(4, 8, 4, seed=7))
        # legacy_json ranks every query's list with rank_scores of its scores.
        assert_streams_legacy_bytes(encoder, corpus, (1, 5))
        assert corpus_order(encoder, corpus).dtype == dtype
