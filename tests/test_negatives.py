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
from nanoembed import gradcache as gc
from nanoembed import infonce as nce
from nanoembed import negatives as neg
from nanoembed import optim


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

    @pytest.mark.parametrize("field, value", [
        ("beta", float("nan")), ("beta", float("inf")), ("beta", -float("inf")), ("tau", float("inf")),
    ])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            neg.MinerConfig(**{field: value})

    @pytest.mark.parametrize("value", [True, 2.0, "4"])
    def test_non_integer_k_rejected(self, value):
        with pytest.raises(ValueError, match="k must be an integer"):
            neg.MinerConfig(k=value)

    def test_negative_beta_stays_legal(self):
        assert neg.MinerConfig(beta=-0.1).beta == -0.1


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

    def test_negative_lists_always_length_k(self):
        rng = np.random.default_rng(4)
        queries = unit_batch(rng, 6, 5, "q")
        candidates = unit_batch(rng, 4, 5, "c")
        sims = queries.values @ candidates.values.T
        picks, _, dup = neg.select_negatives(sims, [0] * 6, 9, "hard", 2.0, None)
        assert picks.shape == (6, 9)
        assert (dup > 0).all()

    def test_planted_duplicates_all_filtered_at_beta_zero(self):
        spec = cp.CorpusSpec(
            seed=13, n_groups=8, items_per_group=8, input_dim=16, noise_scale=0.5, false_negative_rate=0.25
        )
        corpus = cp.generate(spec)
        teacher = enc.TeacherEncoder(enc.EncoderConfig(input_dim=16, hidden_dim=24, embed_dim=12, seed=5))
        queries = teacher.encode(corpus.queries())
        candidates = teacher.encode(corpus.items)
        mined, _ = neg.mine_batch(
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
        assert sum(map(bool, mined.filtered)) >= planted_total

    def test_huge_beta_filters_nothing(self):
        rng = np.random.default_rng(5)
        queries = unit_batch(rng, 8, 6, "q")
        candidates = unit_batch(rng, 10, 6, "c")
        mined, _ = neg.mine_batch(queries, candidates, [0] * 8, neg.MinerConfig(beta=2.0, k=3))
        assert all(not f for f in mined.filtered)

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
            mined, _ = neg.mine_batch(
                queries, candidates, corpus.positive_indices(), neg.MinerConfig(beta=beta, k=4)
            )
            rates.append(sum(map(bool, mined.filtered)))
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
        with pytest.raises(ValueError, match="negative_mode must be one of .*, got 'medium'"):
            neg.select_negatives(np.zeros((1, 2)), [0], 1, "medium", 0.0, None)

    @pytest.mark.parametrize("entry", ["select_negatives", "ContrastiveObjective", "stage2_train", "_select_negatives"])
    def test_unknown_mode_reads_the_same_at_every_entry(self, entry):
        corpus = cp.generate(cp.CorpusSpec(n_groups=2, items_per_group=2, input_dim=4))
        encoder = enc.Encoder(enc.EncoderConfig(input_dim=4, hidden_dim=4, embed_dim=4))
        calls = {
            "select_negatives": lambda: neg.select_negatives(np.zeros((1, 2)), [0], 1, "medium", 0.0, None),
            "ContrastiveObjective": lambda: gc.ContrastiveObjective(1, (0,), neg.MinerConfig(), mode="medium"),
            # Rejected at the call, before step 0 would run.
            "stage2_train": lambda: nce.stage2_train(
                encoder, corpus, neg.MinerConfig(), optim.OptimizerSettings(), 0, "medium"
            ),
            "_select_negatives": lambda: nce._select_negatives(np.array([0.1]), 0, 1, "medium", 0.0, None),
        }
        with pytest.raises(ValueError) as raised:
            calls[entry]()
        assert str(raised.value) == "negative_mode must be one of ('hard', 'easy', 'random'), got 'medium'"

    @pytest.mark.parametrize("positives", [[0.9, 1.2, 2.7], [True, False, True]], ids=["float", "bool"])
    @pytest.mark.parametrize("mode", neg.NEGATIVE_MODES)
    def test_non_integer_positives_rejected(self, mode, positives):
        with pytest.raises(ValueError, match="^positives must hold integers, got dtype"):
            neg.select_negatives(np.zeros((3, 4)), positives, 1, mode, 0.0, np.random.default_rng(0))

    def test_random_mode_needs_a_generator(self):
        with pytest.raises(ValueError, match="generator"):
            neg.select_negatives(np.zeros((1, 3)), [0], 1, "random", 0.0, None)


class TestRandomMode:
    def test_draws_and_generator_state_match_per_row_permutations(self):
        # One row-wise rng.permuted call must leave the generator exactly
        # where one rng.permutation per row would, not only draw the same picks.
        shapes = np.random.default_rng(83)
        for _ in range(60):
            n, m, k = (int(v) for v in shapes.integers((1, 2, 1), (60, 300, 40)))
            sims = shapes.uniform(-1, 1, size=(n, m))
            positives = shapes.integers(0, m, size=n)
            seed = int(shapes.integers(2**32))
            row_rng, batch_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = [nce._select_negatives(sims[i], pos, k, "random", 0.1, row_rng) for i, pos in enumerate(positives)]
            picks, filtered, dup = neg.select_negatives(sims, positives, k, "random", 0.1, batch_rng)
            assert picks.tolist() == [e[0] for e in expected]
            assert not filtered.any() and dup.tolist() == [e[2] for e in expected]
            assert batch_rng.bit_generator.state == row_rng.bit_generator.state


def assert_matches_per_row(sims, positives, k, mode, beta):
    expected = [nce._select_negatives(sims[i], pos, k, mode, beta, None) for i, pos in enumerate(positives)]
    picks, filtered, dup = neg.select_negatives(sims, positives, k, mode, beta, None)
    assert picks.tolist() == [e[0] for e in expected]
    assert [set(np.flatnonzero(row).tolist()) for row in filtered] == [e[1] for e in expected]
    assert dup.tolist() == [e[2] for e in expected]


def survivors_per_row(sims, positives, k, mode, beta):
    """How many eligible keys sit at or below each row's k-th smallest key."""
    key = -sims if mode == "hard" else sims.copy()
    widths = []
    for i, pos in enumerate(positives):
        expected = nce._select_negatives(sims[i], pos, k, mode, beta, None)
        eligible = [j for j in range(sims.shape[1]) if j != pos and j not in expected[1]]
        keys = np.sort(key[i, eligible])
        widths.append(int(np.count_nonzero(keys <= keys[min(k, len(keys)) - 1])))
    return widths


# Rows of one-decimal keys tie exactly, and the rounding leaves both 0.0 and
# -0.0. With beta 0 row 5 keeps one eligible candidate and row 6 two.
TIED_SIMS = np.array([
    [0.5, -0.0, 0.0, 0.5, -0.0, 0.2, 0.5, 0.0, -0.3, 0.9],
    [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1],
    [-0.0, 0.0, -0.0, 0.0, 0.4, 0.0, -0.0, 0.0, 0.4, 0.0],
    [0.7, 0.2, 0.7, -0.1, 0.2, 0.7, 0.3, -0.1, 0.7, 0.2],
    [-0.6, -0.6, 0.1, -0.6, 0.0, -0.6, -0.0, 0.8, -0.6, 0.1],
    [0.3, -0.4, 0.8, 0.5, 0.6, 0.7, -0.4, 0.2, 0.1, 0.9],
    [0.3, -0.4, 0.8, -0.5, 0.6, 0.7, -0.4, 0.2, 0.1, 0.9],
])
TIED_POSITIVES = [9, 4, 4, 6, 7, 1, 1]


class TestSelectNegativesBlockEdges:
    """Edges of the hard and easy ranking: keys that tie at a row's k-th key,
    rows short of k eligible candidates, and k around the candidate count,
    where the argmin passes stop at the most eligible candidates of any row."""

    @pytest.mark.parametrize("mode", ["hard", "easy"])
    @pytest.mark.parametrize(
        "from_m, offset", [(0, 1), (0, 2), (1, -2), (1, -1), (1, 0), (1, 3)],
        ids=["1", "2", "m-2", "m-1", "m", "m+3"],
    )
    def test_k_around_the_candidate_count_with_ties_and_short_rows(self, mode, from_m, offset):
        m = TIED_SIMS.shape[1]
        k = from_m * m + offset
        zeros = TIED_SIMS == 0.0
        assert (zeros & np.signbit(TIED_SIMS)).any() and (zeros & ~np.signbit(TIED_SIMS)).any()
        picks, filtered, dup = neg.select_negatives(TIED_SIMS, TIED_POSITIVES, k, mode, 0.0, None)
        if mode == "hard":
            assert (m - 1 - filtered.sum(axis=1)).tolist()[5:] == [1, 2]
        assert picks.dtype == np.intp and picks.shape == (7, k) and picks.flags.c_contiguous
        assert_matches_per_row(TIED_SIMS, TIED_POSITIVES, k, mode, 0.0)

    @pytest.mark.parametrize("mode", ["hard", "easy"])
    def test_exact_ties_at_the_kth_key_keep_more_than_k_survivors(self, mode):
        sims = np.array([
            [0.9, 0.5, 0.3, 0.5, 0.5, 0.1, 0.5, 0.5, -0.2, 0.5],
            [0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2],
            [-0.4, 0.7, -0.4, 0.0, -0.4, -0.4, 0.6, -0.4, 0.3, -0.4],
        ])
        positives, k = [0, 4, 1], 3
        assert max(survivors_per_row(sims, positives, k, mode, 0.5)) > k
        assert_matches_per_row(sims, positives, k, mode, 0.5)

    @pytest.mark.parametrize("mode", ["hard", "easy"])
    def test_signed_zero_ties_rank_by_index(self, mode):
        sims = np.array([
            [0.0, -0.0, 0.0, -0.0, 0.5, -0.0, 0.0, -0.5],
            [-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, 0.25, 0.0],
        ])
        for k in (1, 2, 4, 7, 9):
            assert_matches_per_row(sims, [4, 6], k, mode, 0.6)

    def test_rows_short_of_k_cycle_through_their_eligible_candidates(self):
        # beta -0.25 leaves row 0 two eligible candidates and row 1 one: the
        # k-th key of both rows is +inf, and their bound is clipped to a float.
        sims = np.array([[0.5, 0.1, 0.2, 0.3, 0.4, 0.9], [0.8, 0.6, 0.7, 0.9, 0.56, 0.2]])
        positives, k = [0, 0], 4
        picks, _, dup = neg.select_negatives(sims, positives, k, "hard", -0.25, None)
        assert dup.tolist() == [2, 3]
        assert picks.tolist() == [[2, 1, 2, 1], [5, 5, 5, 5]]
        assert_matches_per_row(sims, positives, k, "hard", -0.25)

    @pytest.mark.parametrize("mode", ["hard", "easy"])
    def test_k_above_the_candidate_count(self, mode):
        sims = np.array([
            [0.6, 0.9, -0.1, 0.4],
            [0.3, 0.8, 0.3, -0.7],
            [0.2, 0.2, 0.5, 0.2],
            [-0.0, 0.0, 0.1, 0.7],
            [0.9, -0.3, 0.4, 0.4],
        ])
        for k in (5, 9, 13):
            assert_matches_per_row(sims, [0, 1, 2, 3, 0], k, mode, 0.1)

    @pytest.mark.parametrize("mode", ["hard", "easy"])
    @pytest.mark.parametrize("beta", [-0.3, -0.1, 0.02])
    def test_matches_per_row_selection_at_training_shape(self, mode, beta):
        # Each query's positive is a noisy copy of it, as after stage 1.
        rng = np.random.default_rng(2024)
        queries = rng.normal(size=(384, 16))
        candidates = rng.normal(size=(480, 16))
        positives = rng.permutation(480)[:384]
        candidates[positives] = queries + 0.4 * rng.normal(size=queries.shape)
        queries /= np.linalg.norm(queries, axis=1, keepdims=True)
        candidates /= np.linalg.norm(candidates, axis=1, keepdims=True)
        assert_matches_per_row(queries @ candidates.T, positives, 8, mode, beta)


class TestSelectNegativesLayout:
    """Picks feed the loss's fancy index as they are; a strided pick array
    changes the order in which later row sums add, so every mode must
    return a fresh C-contiguous intp array."""

    @pytest.mark.parametrize("mode", neg.NEGATIVE_MODES)
    @pytest.mark.parametrize("shape, k", [((7, 11), 3), ((6, 4), 9), ((40, 60), 8)])
    def test_returned_arrays_have_the_documented_layout(self, mode, shape, k):
        rng = np.random.default_rng(31)
        sims = np.round(rng.uniform(-1, 1, size=shape), 1)
        n, m = shape
        positives = rng.integers(0, m, size=n)
        sims[np.arange(n), positives] = 0.9
        picks, filtered, dup = neg.select_negatives(sims, positives, k, mode, -0.2, np.random.default_rng(0))
        assert picks.dtype == np.intp and picks.shape == (n, k) and picks.flags.c_contiguous
        assert filtered.dtype == np.bool_ and filtered.shape == (n, m)
        assert dup.shape == (n,)
