"""Tests for false-negative filtering and hard-negative sampling.

The miner is checked against an independent brute-force implementation
written with plain Python loops and sorting, and the batched
select_negatives against the per-row scalar selection it replaces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nanoembed import autodiff as ad
from nanoembed import corpus as cp
from nanoembed import encoder as enc
from nanoembed import infonce as nce
from nanoembed import negatives as neg


def brute_force_filter(sims, pos, alpha):
    return {j for j in range(len(sims)) if j != pos and sims[j] > alpha}


def brute_force_sample(sims, pos, filtered, k):
    eligible = [j for j in range(len(sims)) if j != pos and j not in filtered]
    if not eligible:
        raise ValueError("empty")
    ranked = sorted(eligible, key=lambda j: (-sims[j], j))
    return [ranked[i % len(ranked)] for i in range(k)]


def unit_batch(rng, n, d, prefix):
    rows = rng.normal(size=(n, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return enc.EmbeddingBatch([f"{prefix}{i}" for i in range(n)], ad.constant(rows))


class TestThreshold:
    def test_adds_beta(self):
        assert neg.false_negative_threshold(0.8, 0.1) == pytest.approx(0.9)
        assert neg.false_negative_threshold(0.8, -0.1) == pytest.approx(0.7)
        assert neg.false_negative_threshold(0.8, 0.0) == 0.8


class TestFilter:
    def test_strictly_above_threshold_only(self):
        sims = np.array([0.95, 0.8, 0.3])
        assert neg.filter_false_negatives(sims, 1, 0.8) == {0}

    def test_candidate_exactly_at_alpha_survives(self):
        sims = np.array([0.9, 0.8, 0.9])
        assert neg.filter_false_negatives(sims, 1, 0.9) == set()

    def test_positive_never_filtered(self):
        sims = np.array([0.1, 0.99, 0.2])
        assert neg.filter_false_negatives(sims, 1, 0.5) == set()

    def test_alpha_above_one_filters_nothing(self):
        rng = np.random.default_rng(0)
        sims = rng.uniform(-1, 1, size=32)
        assert neg.filter_false_negatives(sims, 3, 1.01) == set()

    def test_positive_index_bounds_checked(self):
        with pytest.raises(IndexError):
            neg.filter_false_negatives(np.array([0.5, 0.5]), 2, 0.0)
        with pytest.raises(IndexError):
            neg.filter_false_negatives(np.array([0.5, 0.5]), -1, 0.0)


class TestSampler:
    def test_descending_similarity_order(self):
        sims = np.array([0.1, 0.9, 0.5, 0.7])
        assert neg.sample_hard_negatives(sims, 0, set(), 3) == [1, 3, 2]

    def test_ties_broken_by_ascending_index(self):
        sims = np.array([0.2, 0.7, 0.7, 0.7, 0.1])
        assert neg.sample_hard_negatives(sims, 0, set(), 3) == [1, 2, 3]

    def test_filtered_candidates_are_ineligible(self):
        sims = np.array([0.95, 0.9, 0.5, 0.2])
        assert neg.sample_hard_negatives(sims, 1, {0}, 2) == [2, 3]

    def test_cyclic_duplication_when_short(self):
        sims = np.array([0.9, 0.8, 0.4])
        assert neg.sample_hard_negatives(sims, 0, {1}, 3) == [2, 2, 2]
        assert neg.sample_hard_negatives(sims, 0, set(), 5) == [1, 2, 1, 2, 1]

    def test_no_eligible_candidates_raises(self):
        sims = np.array([0.9, 0.8])
        with pytest.raises(neg.NoEligibleNegativesError):
            neg.sample_hard_negatives(sims, 0, {1}, 2)

    def test_bad_indices_rejected(self):
        sims = np.array([0.9, 0.8])
        with pytest.raises(IndexError):
            neg.sample_hard_negatives(sims, 5, set(), 1)
        with pytest.raises(IndexError):
            neg.sample_hard_negatives(sims, 0, {7}, 1)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            m = int(rng.integers(2, 65))
            sims = np.round(rng.uniform(-1, 1, size=m), 2)  # rounding forces ties
            pos = int(rng.integers(0, m))
            beta = float(rng.uniform(-0.2, 0.3))
            k = int(rng.integers(1, 12))
            alpha = neg.false_negative_threshold(sims[pos], beta)
            filtered = neg.filter_false_negatives(sims, pos, alpha)
            assert filtered == brute_force_filter(sims, pos, alpha)
            if len(filtered) == m - 1:
                continue
            got = neg.sample_hard_negatives(sims, pos, filtered, k)
            assert got == brute_force_sample(sims, pos, filtered, k)

    def test_permutation_maps_indices_consistently(self):
        rng = np.random.default_rng(7)
        sims = rng.uniform(-1, 1, size=20)  # continuous draw: ties have measure zero
        pos = 4
        base = neg.sample_hard_negatives(sims, pos, set(), 6)
        perm = rng.permutation(20)
        inverse = np.argsort(perm)
        permuted = neg.sample_hard_negatives(sims[perm], int(inverse[pos]), set(), 6)
        assert [int(perm[j]) for j in permuted] == base


class TestMinerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            neg.MinerConfig(k=0)
        with pytest.raises(ValueError):
            neg.MinerConfig(tau=0.0)


class TestMineBatch:
    def test_matches_per_query_brute_force(self):
        rng = np.random.default_rng(3)
        queries = unit_batch(rng, 16, 8, "q")
        candidates = unit_batch(rng, 24, 8, "c")
        positives = list(rng.integers(0, 24, size=16))
        config = neg.MinerConfig(beta=0.05, k=5)
        mined, stats = neg.mine_batch(queries, candidates, positives, config)
        sims = queries.values @ candidates.values.T
        for i in range(16):
            alpha = sims[i, positives[i]] + config.beta
            expected_filtered = brute_force_filter(sims[i], positives[i], alpha)
            assert mined.filtered[i] == expected_filtered
            assert mined.negatives[i] == brute_force_sample(sims[i], positives[i], expected_filtered, 5)
            eligible = 24 - 1 - len(expected_filtered)
            assert mined.duplication_counts[i] == max(0, 5 - eligible)
            assert (mined.duplication_counts[i] > 0) == (eligible < 5)

    def test_negative_lists_always_length_k(self):
        rng = np.random.default_rng(4)
        queries = unit_batch(rng, 6, 5, "q")
        candidates = unit_batch(rng, 4, 5, "c")
        mined, _ = neg.mine_batch(queries, candidates, [0] * 6, neg.MinerConfig(beta=2.0, k=9))
        for negs, dup in zip(mined.negatives, mined.duplication_counts):
            assert len(negs) == 9
            assert dup > 0

    def test_planted_duplicates_all_filtered_at_beta_zero(self):
        spec = cp.CorpusSpec(
            seed=13, n_groups=8, items_per_group=8, input_dim=16, noise_scale=0.5, false_negative_rate=0.25
        )
        corpus = cp.generate(spec)
        teacher = enc.TeacherEncoder(enc.EncoderConfig(input_dim=16, hidden_dim=24, embed_dim=12, seed=5))
        queries = teacher.encode(corpus.queries())
        candidates = teacher.encode(corpus.items)
        mined, stats = neg.mine_batch(
            queries, candidates, corpus.positive_indices(), neg.MinerConfig(beta=0.0, k=4)
        )
        planted_total = caught = 0
        for i, pair in enumerate(corpus.pairs):
            if not pair.is_false_negative_planted:
                continue
            planted_total += 1
            planted_idx = corpus.item_index(corpus.planted_id_for(pair.query.id))
            caught += planted_idx in mined.filtered[i]
        assert planted_total == 16
        assert caught == planted_total
        assert stats.false_neg_pct >= 100.0 * planted_total / len(corpus.pairs)

    def test_huge_beta_filters_nothing(self):
        rng = np.random.default_rng(5)
        queries = unit_batch(rng, 8, 6, "q")
        candidates = unit_batch(rng, 10, 6, "c")
        mined, stats = neg.mine_batch(queries, candidates, [0] * 8, neg.MinerConfig(beta=2.0, k=3))
        assert all(not f for f in mined.filtered)
        assert stats.false_neg_pct == 0.0

    def test_hard_neg_pct_exact_fractions(self):
        rng = np.random.default_rng(6)
        queries = unit_batch(rng, 2, 4, "q")
        candidates = unit_batch(rng, 1000, 4, "c")
        expected = {4: 0.4, 8: 0.8, 16: 1.6, 32: 3.2, 64: 6.4}
        for k, pct in expected.items():
            _, stats = neg.mine_batch(queries, candidates, [0, 1], neg.MinerConfig(beta=0.1, k=k))
            assert stats.hard_neg_pct == pct

    def test_false_neg_pct_non_increasing_in_beta(self):
        spec = cp.CorpusSpec(
            seed=17, n_groups=6, items_per_group=10, input_dim=12, noise_scale=0.6, false_negative_rate=0.2
        )
        corpus = cp.generate(spec)
        teacher = enc.TeacherEncoder(enc.EncoderConfig(input_dim=12, hidden_dim=16, embed_dim=10, seed=8))
        queries = teacher.encode(corpus.queries())
        candidates = teacher.encode(corpus.items)
        rates = []
        for beta in (-0.1, 0.0, 0.1, 0.2, 0.3):
            _, stats = neg.mine_batch(
                queries, candidates, corpus.positive_indices(), neg.MinerConfig(beta=beta, k=4)
            )
            rates.append(stats.false_neg_pct)
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert rates[0] > rates[-1]

    def test_dim_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            neg.mine_batch(unit_batch(rng, 2, 4, "q"), unit_batch(rng, 2, 5, "c"), [0, 1], neg.MinerConfig())

    def test_positive_out_of_range_rejected(self):
        rng = np.random.default_rng(10)
        with pytest.raises(IndexError):
            neg.mine_batch(unit_batch(rng, 2, 4, "q"), unit_batch(rng, 3, 4, "c"), [0, 3], neg.MinerConfig())


@st.composite
def similarity_cases(draw):
    """(sims, positives, k, beta, seed) with ties, short pools and k past m."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 10))
    sims = draw(hnp.arrays(np.float64, (n, m), elements=st.floats(-1.0, 1.0)))
    if draw(st.booleans()):
        sims = np.round(sims, 1)  # a 0.1 grid forces ties
    positives = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    k = draw(st.integers(1, m + 4))
    beta = draw(st.floats(-0.3, 0.3))
    return sims, positives, k, beta, draw(st.integers(0, 2**32 - 1))


class TestSelectNegatives:
    @settings(max_examples=300, deadline=None)
    @given(similarity_cases(), st.sampled_from(neg.NEGATIVE_MODES))
    def test_matches_per_row_selection(self, case, mode):
        sims, positives, k, beta, seed = case
        row_rng, batch_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            expected = [
                nce._select_negatives(sims[i], pos, k, mode, beta, row_rng)
                for i, pos in enumerate(positives)
            ]
        except neg.NoEligibleNegativesError:
            with pytest.raises(neg.NoEligibleNegativesError):
                neg.select_negatives(sims, positives, k, mode, beta, batch_rng)
            return
        picks, filtered, dup = neg.select_negatives(sims, positives, k, mode, beta, batch_rng)
        assert picks.shape == (len(positives), k)
        assert picks.tolist() == [e[0] for e in expected]
        assert [set(np.flatnonzero(row).tolist()) for row in filtered] == [e[1] for e in expected]
        assert dup.tolist() == [e[2] for e in expected]
        assert batch_rng.integers(2**62) == row_rng.integers(2**62)  # same stream consumed

    @settings(max_examples=50, deadline=None)
    @given(similarity_cases(), st.sampled_from(neg.NEGATIVE_MODES), st.data())
    def test_positive_out_of_range_raises_index_error(self, case, mode, data):
        sims, positives, k, beta, seed = case
        m = sims.shape[1]
        i = data.draw(st.integers(0, len(positives) - 1))
        positives[i] = data.draw(st.one_of(st.integers(-m - 3, -1), st.integers(m, m + 3)))
        with pytest.raises(IndexError):
            neg.select_negatives(sims, positives, k, mode, beta, np.random.default_rng(seed))

    @settings(max_examples=50, deadline=None)
    @given(similarity_cases())
    def test_everything_filtered_raises(self, case):
        sims, positives, k, _, _ = case
        # beta -3 puts every other candidate of a [-1, 1] row above the threshold
        with pytest.raises(neg.NoEligibleNegativesError):
            neg.select_negatives(sims, positives, k, "hard", -3.0, None)

    @settings(max_examples=50, deadline=None)
    @given(similarity_cases(), st.sampled_from(neg.NEGATIVE_MODES), st.data())
    def test_non_finite_similarity_raises_value_error(self, case, mode, data):
        sims, positives, k, beta, seed = case
        i = data.draw(st.integers(0, sims.shape[0] - 1))
        j = data.draw(st.integers(0, sims.shape[1] - 1))
        sims[i, j] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        with pytest.raises(ValueError, match="finite"):
            neg.select_negatives(sims, positives, k, mode, beta, np.random.default_rng(seed))

    def test_unknown_mode_rejected(self):
        with pytest.raises(neg.ModeUnknownError):
            neg.select_negatives(np.zeros((1, 2)), [0], 1, "medium", 0.0, None)

    def test_random_mode_needs_a_generator(self):
        with pytest.raises(ValueError, match="generator"):
            neg.select_negatives(np.zeros((1, 3)), [0], 1, "random", 0.0, None)
