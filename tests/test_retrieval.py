"""Tests for exhaustive ranking and Precision@k / Recall@k aggregation.

Rankings are checked against a brute-force sort with an explicit
(-similarity, index) key, and the aggregate metrics against plain
counting loops.
"""

import numpy as np
import pytest

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


class TestRankScores:
    def test_hand_checked_order(self):
        assert rt.rank_scores(np.array([0.2, 0.9, 0.5])) == [1, 2, 0]

    def test_ties_break_by_ascending_index(self):
        assert rt.rank_scores(np.array([0.5, 0.7, 0.5, 0.7])) == [1, 3, 0, 2]

    def test_empty_rejected(self):
        with pytest.raises(rt.EmptyCandidatesError):
            rt.rank_scores(np.array([]))

    def test_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(11)
        scores = rng.normal(size=64)
        assert rt.rank_scores(scores) == rt.rank_scores(3.7 * scores)


class TestRankCandidates:
    def test_identical_candidate_ranked_first(self):
        q = np.array([1.0, 0.0, 0.0])
        rows = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.6, 0.8, 0.0]])
        candidates = batch_from_rows(rows, "c")
        order = rt.rank_candidates(q, candidates)
        assert order[0] == 1
        assert candidates.values[1] @ q == pytest.approx(1.0)

    def test_matches_brute_force_on_200_candidates(self):
        rng = np.random.default_rng(7)
        candidates = unit_batch(rng, 200, 16, "c")
        q = rng.normal(size=16)
        q /= np.linalg.norm(q)
        sims = candidates.values @ q
        expected = sorted(range(200), key=lambda j: (-sims[j], j))
        assert rt.rank_candidates(q, candidates) == expected

    def test_duplicate_rows_keep_index_order(self):
        row = np.array([0.6, 0.8])
        candidates = batch_from_rows(np.stack([row, row, row]), "c")
        assert rt.rank_candidates(np.array([1.0, 0.0]), candidates) == [0, 1, 2]

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        candidates = unit_batch(rng, 4, 8, "c")
        with pytest.raises(ValueError):
            rt.rank_candidates(np.ones(5), candidates)


class TestMetrics:
    def test_precision_hand_count(self):
        ranked = {"q0": ["a", "b"], "q1": ["c", "a"], "q2": ["b", "c"]}
        relevance = {"q0": {"a"}, "q1": {"c"}, "q2": {"c"}}
        assert rt.precision_at_k(ranked, relevance, 1) == pytest.approx(2 / 3)

    def test_perfect_retrieval(self):
        ranked = {f"q{i}": [f"c{i}", "x"] for i in range(5)}
        relevance = {f"q{i}": {f"c{i}"} for i in range(5)}
        assert rt.precision_at_k(ranked, relevance, 1) == 1.0
        assert rt.recall_at_k(ranked, relevance, 1) == 1.0

    def test_matches_counting_oracle_at_k5(self):
        rng = np.random.default_rng(19)
        ids = [f"c{j}" for j in range(30)]
        ranked = {}
        relevance = {}
        for i in range(40):
            order = list(rng.permutation(30))
            ranked[f"q{i}"] = [ids[j] for j in order]
            relevance[f"q{i}"] = {ids[j] for j in rng.choice(30, size=4, replace=False)}
        p_hits = [len(set(ranked[q][:5]) & relevance[q]) / 5 for q in ranked]
        r_hits = [len(set(ranked[q][:5]) & relevance[q]) / len(relevance[q]) for q in ranked]
        assert rt.precision_at_k(ranked, relevance, 5) == pytest.approx(np.mean(p_hits), rel=1e-12)
        assert rt.recall_at_k(ranked, relevance, 5) == pytest.approx(np.mean(r_hits), rel=1e-12)

    def test_singleton_relevance_makes_p1_equal_r1(self):
        rng = np.random.default_rng(23)
        ids = [f"c{j}" for j in range(12)]
        ranked = {f"q{i}": [ids[j] for j in rng.permutation(12)] for i in range(25)}
        relevance = {q: {ids[int(rng.integers(12))]} for q in ranked}
        assert rt.precision_at_k(ranked, relevance, 1) == rt.recall_at_k(ranked, relevance, 1)

    def test_invariant_under_query_permutation(self):
        rng = np.random.default_rng(29)
        ids = [f"c{j}" for j in range(10)]
        ranked = {f"q{i}": [ids[j] for j in rng.permutation(10)] for i in range(8)}
        relevance = {q: {ids[int(rng.integers(10))]} for q in ranked}
        shuffled = dict(reversed(list(ranked.items())))
        assert rt.precision_at_k(ranked, relevance, 3) == rt.precision_at_k(shuffled, relevance, 3)

    def test_k_beyond_candidates_rejected(self):
        ranked = {"q0": ["a", "b"]}
        relevance = {"q0": {"a"}}
        with pytest.raises(rt.KExceedsCandidatesError):
            rt.precision_at_k(ranked, relevance, 3)

    def test_bad_k_and_empty_rejected(self):
        with pytest.raises(ValueError):
            rt.precision_at_k({"q": ["a"]}, {"q": {"a"}}, 0)
        with pytest.raises(ValueError):
            rt.precision_at_k({}, {}, 1)


class TestRetrievalTask:
    """The retrieval task evaluate_checkpoint builds from a corpus."""

    def test_report_lists_are_candidate_permutations(self):
        corpus = cp.generate(cp.CorpusSpec(seed=37, n_groups=3, items_per_group=3, input_dim=8))
        encoder = enc.Encoder(enc.EncoderConfig(8, 16, 8, seed=1))
        report = rt.evaluate_checkpoint(encoder, corpus, ks=(1, 5))
        for ids in report.ranked.values():
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
        assert len(report.ranked) == len(corpus.pairs)
        item_ids = sorted(it.id for it in corpus.items)
        for ids in report.ranked.values():
            assert sorted(ids) == item_ids
