"""Tests for the InfoNCE objective and the Stage-2 training loop."""

import mpmath as mp
import numpy as np
import pytest

from nanoembed import autodiff as ad
from nanoembed import corpus as cp
from nanoembed import encoder as enc
from nanoembed import infonce as nce
from nanoembed import metrics
from nanoembed import negatives as ng
from nanoembed import optim

LN_9 = 2.19722457733621938279049
# frozen from the mpmath oracle below on the seed-77 triple
TRIPLE_77_TAU_07 = 0.6456996486177499487910482
TRIPLE_77_TAU_005 = 2.449692879572727402296453e-05


def unit_rows(seed, n, d):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def triple_from(q, pos, negs):
    return nce.ContrastiveTriple(ad.constant(q), ad.constant(pos), ad.constant(negs))


def mp_triple_loss(q, pos, negs, tau):
    """Direct -log softmax-weight evaluation in 50-digit arithmetic."""
    mp.mp.dps = 50
    tau = mp.mpf(tau)

    def cos(a, b):
        return mp.fsum(mp.mpf(x) * mp.mpf(y) for x, y in zip(a, b))

    num = mp.e ** (cos(q, pos) / tau)
    den = num + mp.fsum(mp.e ** (cos(q, row) / tau) for row in negs)
    return -mp.log(num / den)


class TestTriple:
    def test_shape_and_norm_validation(self):
        q = unit_rows(0, 1, 4)
        negs = unit_rows(1, 3, 4)
        with pytest.raises(ValueError, match=r"^query row 0 has norm 2\.0\d*, expected 1 within 1e-10$"):
            triple_from(q * 2.0, q, negs)
        with pytest.raises(ValueError):
            triple_from(unit_rows(0, 2, 4), q, negs)
        with pytest.raises(ValueError):
            triple_from(q, unit_rows(2, 1, 5), negs)
        with pytest.raises(ValueError):
            triple_from(q, q, np.zeros((0, 4)))
        assert triple_from(q, q, negs).e_neg.shape == (3, 4)

    def test_nan_row_is_not_unit_norm(self):
        q = unit_rows(0, 1, 4)
        negs = unit_rows(1, 3, 4)
        negs[1, 0] = np.nan
        with pytest.raises(ValueError, match="^negative row 1 has norm nan, expected 1 within 1e-10$"):
            triple_from(q, q, negs)


class TestHardLoss:
    def test_equal_similarities_give_ln_k_plus_one(self):
        q = unit_rows(3, 1, 6)
        pos = unit_rows(4, 1, 6)
        triple = triple_from(q, pos, np.repeat(pos, 8, axis=0))
        for tau in (0.05, 1.0):
            np.testing.assert_allclose(nce.infonce_hard_loss(triple, tau).item(), LN_9, atol=1e-12)

    def test_saturated_separation_gives_zero(self):
        q = np.array([[1.0, 0.0]])
        negs = np.repeat([[-1.0, 0.0]], 8, axis=0)
        loss = nce.infonce_hard_loss(triple_from(q, q, negs), 0.05).item()
        # the exact value, ln(1 + 8 e^-40) = 3.3987e-17, is below float64
        # resolution around 1, so the implementation returns 0
        assert 0.0 <= loss <= 1e-12

    def test_frozen_oracle_values(self):
        rng = np.random.default_rng(77)

        def unit(n, d):
            rows = rng.normal(size=(n, d))
            return rows / np.linalg.norm(rows, axis=1, keepdims=True)

        q, pos, negs = unit(1, 5), unit(1, 5), unit(3, 5)
        got_07 = nce.infonce_hard_loss(triple_from(q, pos, negs), 0.7).item()
        np.testing.assert_allclose(got_07, TRIPLE_77_TAU_07, rtol=1e-12)
        got_005 = nce.infonce_hard_loss(triple_from(q, pos, negs), 0.05).item()
        np.testing.assert_allclose(got_005, TRIPLE_77_TAU_005, rtol=1e-8)

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            d = int(rng.integers(2, 16))
            k = int(rng.integers(1, 12))
            tau = float(rng.uniform(0.05, 2.0))
            rows = rng.normal(size=(k + 2, d))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            q, pos, negs = rows[:1], rows[1:2], rows[2:]
            got = nce.infonce_hard_loss(triple_from(q, pos, negs), tau).item()
            np.testing.assert_allclose(got, float(mp_triple_loss(q[0], pos[0], negs, tau)), rtol=1e-10)

    def test_always_positive(self):
        for seed in range(10):
            rows = unit_rows(seed, 6, 4)
            loss = nce.infonce_hard_loss(triple_from(rows[:1], rows[1:2], rows[2:]), 0.1).item()
            assert loss > 0.0

    def test_monotone_in_positive_and_negative_similarity(self):
        def loss_at(pos_angle, neg_angle):
            q = np.array([[1.0, 0.0]])
            pos = np.array([[np.cos(pos_angle), np.sin(pos_angle)]])
            neg = np.array([[np.cos(neg_angle), np.sin(neg_angle)]])
            return nce.infonce_hard_loss(triple_from(q, pos, neg), 0.3).item()

        # shrinking the positive angle raises cos(q,pos) and must lower loss
        assert loss_at(0.2, 1.0) < loss_at(0.5, 1.0) < loss_at(1.0, 1.0)
        # shrinking the negative angle raises cos(q,neg) and must raise loss
        assert loss_at(0.5, 0.3) > loss_at(0.5, 0.8) > loss_at(0.5, 1.4)

    def test_negative_permutation_invariance(self):
        rows = unit_rows(9, 7, 5)
        q, pos, negs = rows[:1], rows[1:2], rows[2:]
        base = nce.infonce_hard_loss(triple_from(q, pos, negs), 0.2).item()
        rng = np.random.default_rng(10)
        for _ in range(3):
            spun = nce.infonce_hard_loss(triple_from(q, pos, rng.permutation(negs)), 0.2).item()
            np.testing.assert_allclose(spun, base, rtol=1e-13)

    def test_softmax_argmax_stable_under_tau_change(self):
        rows = unit_rows(11, 8, 4)
        q, cands = rows[0], rows[1:]
        logits = cands @ q
        for tau in (0.05, 0.3, 1.7):
            p = np.exp(logits / tau - (logits / tau).max())
            assert int(np.argmax(p)) == int(np.argmax(logits))

    def test_nonpositive_tau_rejected(self):
        rows = unit_rows(12, 3, 4)
        with pytest.raises(ValueError, match="tau must be finite and > 0"):
            nce.infonce_hard_loss(triple_from(rows[:1], rows[1:2], rows[2:]), 0.0)

    def test_infinite_tau_rejected(self):
        # At tau = inf the batch loss would read ln(1 + k) whatever the embeddings.
        rows = unit_rows(13, 3, 4)
        with pytest.raises(ValueError, match="tau must be finite and > 0"):
            nce.infonce_batch_loss(ad.constant(rows[:1] @ rows[1:].T), float("inf"))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        params = [
            ad.Parameter("q", rng.normal(size=(1, 4))),
            ad.Parameter("pos", rng.normal(size=(1, 4))),
            ad.Parameter("negs", rng.normal(size=(5, 4))),
        ]

        def loss_fn():
            q, pos, negs = (ad.row_l2_normalize(p.tensor) for p in params)
            return nce.infonce_hard_loss(nce.ContrastiveTriple(q, pos, negs), 0.4)

        report = ad.finite_difference_check(loss_fn, params)
        assert report.passed, f"max rel error {report.max_rel_error}"


def batch_loss(queries, candidates, positives, negatives, tau):
    """infonce_batch_loss of each query's positive and negatives, gathered
    from the similarities as ContrastiveObjective.loss_between gathers them."""
    cols = np.column_stack((positives, negatives))
    scores = ad.gather_products(ad.constant(queries), ad.constant(candidates), queries @ candidates.T, cols)
    return nce.infonce_batch_loss(scores, tau)


class TestBatchLoss:
    def test_equals_mean_of_triples(self):
        rng = np.random.default_rng(14)
        queries = unit_rows(15, 6, 5)
        candidates = unit_rows(16, 12, 5)
        positives = [int(rng.integers(0, 12)) for _ in range(6)]
        negatives = [[int(j) for j in rng.choice(12, size=4, replace=False)] for _ in range(6)]
        batch = batch_loss(queries, candidates, positives, negatives, 0.1).item()
        per_triple = [
            nce.infonce_hard_loss(
                triple_from(queries[i : i + 1], candidates[positives[i]][None, :], candidates[negatives[i]]),
                0.1,
            ).item()
            for i in range(6)
        ]
        np.testing.assert_allclose(batch, np.mean(per_triple), rtol=1e-12)

    def test_duplicated_negatives_count_repeatedly(self):
        queries = unit_rows(17, 1, 4)
        candidates = unit_rows(18, 3, 4)
        once = batch_loss(queries, candidates, [0], [[1]], 0.5).item()
        twice = batch_loss(queries, candidates, [0], [[1, 1]], 0.5).item()
        assert twice > once

    def test_non_integer_positives_rejected(self):
        with pytest.raises(ValueError, match="^gather_products: cols must hold integers, got dtype float64$"):
            batch_loss(unit_rows(21, 1, 4), unit_rows(22, 3, 4), [0.9], [[2]], 0.5)

    def test_shape_validation(self):
        queries, candidates = unit_rows(19, 2, 4), unit_rows(20, 5, 4)
        q, c = ad.constant(queries), ad.constant(candidates)
        with pytest.raises(ValueError, match=r"^gather_products: \(5, 2\) is not the product"):
            ad.gather_products(q, c, candidates @ queries.T, [[0, 1], [1, 2]])
        with pytest.raises(ValueError, match=r"^gather_products: \(2, 5\) is not the product"):
            ad.gather_products(q, ad.constant(unit_rows(20, 5, 3)), queries @ candidates.T, [[0, 1], [1, 2]])
        with pytest.raises(IndexError, match="^gather_products: index out of range for 5 columns$"):
            ad.gather_products(q, c, queries @ candidates.T, [[0, 1], [1, 5]])

    @pytest.mark.parametrize(
        "cols, message",
        [([[0, 1], [1, 2], [2, 3]], r"index shape \(3, 2\) does not match 2 rows"),
         ([[0, 1, 2, 3]], r"index shape \(1, 4\) does not match 2 rows"),
         ([0, 1], r"index shape \(2,\) does not match 2 rows")],
    )
    def test_index_rows_that_miss_the_queries_are_named(self, cols, message):
        queries, candidates = unit_rows(21, 2, 4), unit_rows(22, 5, 4)
        with pytest.raises(ValueError, match=message):
            ad.gather_products(ad.constant(queries), ad.constant(candidates), queries @ candidates.T, cols)

    def test_array_inputs_give_the_same_loss_as_lists(self):
        queries, candidates = unit_rows(23, 3, 4), unit_rows(24, 6, 4)
        positives, negatives = [5, 0, 2], [[1, 1, 4], [3, 5, 2], [0, 1, 3]]
        as_lists = batch_loss(queries, candidates, positives, negatives, 0.2).item()
        as_arrays = batch_loss(queries, candidates, np.array(positives, np.intp), np.array(negatives, np.intp), 0.2)
        assert as_arrays.item() == as_lists


class TestSelectNegatives:
    def test_easy_mode_takes_least_similar(self):
        row = np.array([0.9, 0.1, 0.5, -0.4, 0.7])
        picks, filtered, dup = nce._select_negatives(row, 0, 2, "easy", 0.0, np.random.default_rng(0))
        assert picks == [3, 1]
        assert filtered == set() and dup == 0

    def test_easy_mode_duplicates_cyclically(self):
        row = np.array([0.9, 0.1])
        picks, _, dup = nce._select_negatives(row, 0, 3, "easy", 0.0, np.random.default_rng(0))
        assert picks == [1, 1, 1] and dup == 2

    def test_random_mode_draws_from_all_non_positives(self):
        row = np.linspace(-1, 1, 10)
        seen = set()
        rng = np.random.default_rng(1)
        for _ in range(50):
            picks, _, _ = nce._select_negatives(row, 4, 3, "random", 0.0, rng)
            assert 4 not in picks
            assert len(set(picks)) == 3
            seen.update(picks)
        assert seen == set(range(10)) - {4}

    def test_hard_mode_delegates_to_miner(self):
        row = np.array([0.2, 0.95, 0.8, 0.5])
        picks, filtered, dup = nce._select_negatives(row, 3, 2, "hard", 0.0, np.random.default_rng(2))
        assert filtered == {1, 2}
        assert picks == [0, 0] and dup == 1

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="negative_mode must be one of .*, got 'medium'"):
            nce._select_negatives(np.array([0.1, 0.2]), 0, 1, "medium", 0.0, np.random.default_rng(0))


def small_setup(seed=0):
    corpus = cp.generate(
        cp.CorpusSpec(seed=seed, n_groups=4, items_per_group=6, input_dim=8, noise_scale=0.4)
    )
    encoder = enc.Encoder(enc.EncoderConfig(input_dim=8, hidden_dim=12, embed_dim=8, seed=seed + 50))
    return corpus, encoder


class TestStage2Train:
    def test_same_seed_identical_traces(self):
        corpus, _ = small_setup()
        traces = []
        for _ in range(2):
            _, encoder = small_setup()
            traces.append(
                nce.stage2_train(
                    encoder, corpus, ng.MinerConfig(beta=0.0, k=4), optim.OptimizerSettings(), steps=15, seed=3
                )
            )
        assert traces[0] == traces[1]

    @pytest.mark.parametrize("sub_batch", [None, 5], ids=["naive", "cached"])
    @pytest.mark.parametrize("mode", ["hard", "easy", "random"])
    def test_only_random_mode_depends_on_seed(self, tmp_path, mode, sub_batch):
        # Every step takes all pairs in corpus order, so seed feeds random negatives alone.
        corpus, _ = small_setup()
        runs = []
        for seed in (3, 4):
            _, encoder = small_setup()
            trace = nce.stage2_train(encoder, corpus, ng.MinerConfig(beta=0.0, k=4), optim.OptimizerSettings(),
                                     steps=4, negative_mode=mode, seed=seed, sub_batch=sub_batch)
            metrics.write_trace(tmp_path / f"{seed}.jsonl", trace)
            weights = b"".join(p.values.tobytes() for p in encoder.parameters())
            runs.append(((tmp_path / f"{seed}.jsonl").read_bytes(), weights))
        assert (runs[0] == runs[1]) == (mode != "random")

    @pytest.mark.parametrize("sub_batch", [None, 5], ids=["naive", "cached"])
    def test_rows_are_stacked_once_per_run(self, monkeypatch, sub_batch):
        corpus, _ = small_setup()
        stack = enc.ItemRows.of.__func__
        calls = []

        def counting(cls, items, input_dim):
            calls.append(len(items))
            return stack(cls, items, input_dim)

        monkeypatch.setattr(enc.ItemRows, "of", classmethod(counting))
        counts = []
        for steps in (2, 5):
            calls.clear()
            nce.stage2_train(small_setup()[1], corpus, ng.MinerConfig(beta=0.0, k=4), optim.OptimizerSettings(),
                             steps=steps, seed=3, sub_batch=sub_batch)
            counts.append(list(calls))
        assert counts[0] == counts[1] == [len(corpus.pairs) + len(corpus.items)]

    @pytest.mark.parametrize("steps", [0, 1])
    def test_bad_sub_batch_fails_at_the_call_with_no_step(self, steps):
        corpus, encoder = small_setup()
        with pytest.raises(ValueError, match=r"^sub_batch must be in \[1, \d+\], got 0$"):
            nce.stage2_train(encoder, corpus, ng.MinerConfig(beta=0.0, k=4), optim.OptimizerSettings(),
                             steps=steps, sub_batch=0)

    @pytest.mark.parametrize("sub_batch", [None, 4])
    @pytest.mark.parametrize("steps", [True, 2.0, -1])
    def test_steps_must_be_a_nonnegative_integer(self, steps, sub_batch):
        corpus, encoder = small_setup()
        before = [w.copy() for _, w in encoder.weight_arrays()]
        with pytest.raises(ValueError) as raised:
            nce.stage2_train(encoder, corpus, ng.MinerConfig(beta=2.0, k=4), optim.OptimizerSettings(),
                             steps=steps, sub_batch=sub_batch)
        assert str(raised.value) == f"steps must be a nonnegative integer, got {steps!r}"
        for (_, after), prior in zip(encoder.weight_arrays(), before):
            np.testing.assert_array_equal(after, prior)

    def test_unknown_mode_rejected(self):
        corpus, encoder = small_setup()
        with pytest.raises(ValueError, match="negative_mode must be one of .*, got 'medium'"):
            nce.stage2_train(encoder, corpus, ng.MinerConfig(), optim.OptimizerSettings(), 1, "medium")

    def test_trace_schema_and_loss_decreases(self):
        # a loose margin keeps every query eligible from random init, where a
        # tight one can filter away the whole candidate pool
        corpus, encoder = small_setup(1)
        trace = nce.stage2_train(
            encoder, corpus, ng.MinerConfig(beta=2.0, k=4), optim.OptimizerSettings(learning_rate=3e-3),
            steps=200, seed=4,
        )
        assert [r.step for r in trace] == list(range(200))
        losses = [r.loss for r in trace]
        assert np.mean(losses[-50:]) < np.mean(losses[:50])
        assert all(r.grad_norm >= 0.0 for r in trace)

    def test_easy_mode_converges_low(self):
        corpus, encoder = small_setup(2)
        trace = nce.stage2_train(
            encoder, corpus, ng.MinerConfig(beta=0.0, k=4), optim.OptimizerSettings(learning_rate=1e-2),
            steps=300, negative_mode="easy", seed=5,
        )
        assert np.mean([r.loss for r in trace][-50:]) < 0.05

    def test_hard_mode_sustains_higher_loss_than_easy(self):
        corpus, _ = small_setup(3)
        terminal = {}
        for mode in ("easy", "hard"):
            _, encoder = small_setup(3)
            trace = nce.stage2_train(
                encoder, corpus, ng.MinerConfig(beta=0.0, k=4), optim.OptimizerSettings(learning_rate=1e-2),
                steps=300, negative_mode=mode, seed=6,
            )
            terminal[mode] = np.mean([r.loss for r in trace][-50:])
        assert terminal["hard"] > terminal["easy"]


class TestStage2Memory:
    # tests/test_heap.py's shape: 384 queries x 480 candidates with planted near-duplicates.
    SPEC = cp.CorpusSpec(seed=5, n_groups=24, items_per_group=16, input_dim=16, noise_scale=0.15,
                         centroid_scale=1.2, pair_scale=0.5, view_mix=0.0, false_negative_rate=0.25)

    def test_naive_steps_hold_one_graph_at_a_time(self):
        corpus = cp.generate(self.SPEC)
        peaks = []
        for steps in (1, 3):
            encoder = enc.Encoder(enc.EncoderConfig(input_dim=16, hidden_dim=48, embed_dim=16, seed=5))
            ad.reset_peak_live_elements()
            live = ad.live_elements()
            nce.stage2_train(encoder, corpus, ng.MinerConfig(beta=0.02, k=8, tau=1.0),
                             optim.OptimizerSettings(kind="adam", learning_rate=3e-4), steps)
            peaks.append(ad.peak_live_elements() - live)
        assert peaks[0] > 384 * 480
        assert peaks[1] == peaks[0]
