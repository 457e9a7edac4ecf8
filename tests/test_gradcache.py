"""Tests for two-pass gradient caching against the naive full-batch path."""

import numpy as np
import pytest

from nanoembed import autodiff as ad
from nanoembed import corpus as cp
from nanoembed import encoder as enc
from nanoembed import gradcache as gc
from nanoembed import negatives as ng


def make_setup(seed=0, n_groups=4, items_per_group=8, rate=0.0):
    spec = cp.CorpusSpec(
        seed=seed, n_groups=n_groups, items_per_group=items_per_group, input_dim=10,
        noise_scale=0.5, false_negative_rate=rate,
    )
    corpus = cp.generate(spec)
    encoder = enc.Encoder(enc.EncoderConfig(input_dim=10, hidden_dim=14, embed_dim=8, seed=seed + 9))
    return corpus, encoder


def distill_case(seed=0, count=64):
    corpus, encoder = make_setup(seed)
    items = corpus.text_items()[:count]
    assert len(items) == count
    teacher = enc.TeacherEncoder(enc.EncoderConfig(input_dim=10, hidden_dim=14, embed_dim=8, seed=77))
    objective = gc.DistillObjective(teacher=teacher.encode(items), tau=0.1)
    return encoder, items, objective


def contrastive_case(seed=1, mode="hard"):
    corpus, encoder = make_setup(seed)
    items = [p.query for p in corpus.pairs] + list(corpus.items)
    assert len(items) == 64
    positives = tuple(corpus.positive_indices())
    objective = gc.ContrastiveObjective(
        n_queries=len(corpus.pairs), positives=positives,
        config=ng.MinerConfig(beta=0.05, k=8, tau=0.05), mode=mode, seed=3,
    )
    return encoder, items, objective


class TestCachePlan:
    def test_ranges_partition_with_short_tail(self):
        plan = gc.CachePlan(effective_batch=10, sub_batch=3)
        assert plan.ranges == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_degenerate_plan_is_one_range(self):
        assert gc.CachePlan(effective_batch=5, sub_batch=5).ranges == [(0, 5)]

    def test_validation(self):
        with pytest.raises(ValueError):
            gc.CachePlan(effective_batch=0, sub_batch=1)
        with pytest.raises(ValueError):
            gc.CachePlan(effective_batch=4, sub_batch=5)
        with pytest.raises(ValueError):
            gc.CachePlan(effective_batch=4, sub_batch=0)

    def test_plan_must_cover_batch(self):
        encoder, items, objective = distill_case()
        for batch in (items, enc.ItemRows.of(items, encoder.config.input_dim)):
            with pytest.raises(ValueError, match="plan covers 32 items, batch has 64"):
                gc.cached_step(encoder, batch, objective, gc.CachePlan(effective_batch=32, sub_batch=8))


class TestObjectiveValidation:
    def test_contrastive_shape_checks(self):
        with pytest.raises(ValueError):
            gc.ContrastiveObjective(n_queries=2, positives=(0,), config=ng.MinerConfig())
        with pytest.raises(ValueError, match="mode must be one of .*, got 'medium'"):
            gc.ContrastiveObjective(n_queries=1, positives=(0,), config=ng.MinerConfig(), mode="medium")

    def test_contrastive_refuses_non_integer_positives(self):
        rng = np.random.default_rng(0)
        queries, candidates = ad.constant(rng.normal(size=(3, 4))), ad.constant(rng.normal(size=(4, 4)))
        objective = gc.ContrastiveObjective(n_queries=3, positives=[0.9, 1.2, 2.7], config=ng.MinerConfig(k=2))
        with pytest.raises(ValueError, match="^positives must hold integers, got dtype float64$"):
            objective.loss_between(queries, candidates)

    def test_contrastive_batch_needs_candidates_and_in_range_positives(self):
        encoder, items, objective = contrastive_case()
        with pytest.raises(ValueError, match="leaves no candidates after 32 queries"):
            objective.loss_on(encoder.encode(items[:32], record=False))
        with pytest.raises(IndexError, match="positive index 31 out of range for 31 candidates"):
            objective.loss_on(encoder.encode(items[:63], record=False))

    def test_distill_requires_matching_ids(self):
        encoder, items, objective = distill_case()
        shuffled = list(items)
        shuffled[0], shuffled[1] = shuffled[1], shuffled[0]
        emb = encoder.encode(shuffled, record=False)
        with pytest.raises(ValueError):
            objective.loss_on(emb)


class TestGradientEquality:
    @pytest.mark.parametrize("sub_batch", [1, 8, 32, 64])
    def test_distill_matches_naive(self, sub_batch):
        encoder, items, objective = distill_case()
        naive_grads, naive_loss = gc.naive_step(encoder, items, objective)
        grads, loss, _ = gc.cached_step(
            encoder, items, objective, gc.CachePlan(effective_batch=64, sub_batch=sub_batch)
        )
        assert abs(loss - naive_loss) < 1e-12
        assert naive_grads.keys() == grads.keys()
        for name in naive_grads:
            np.testing.assert_allclose(grads[name], naive_grads[name], atol=1e-9, rtol=0)

    @pytest.mark.parametrize("sub_batch", [1, 8, 32, 64])
    def test_contrastive_matches_naive(self, sub_batch):
        encoder, items, objective = contrastive_case()
        naive_grads, naive_loss = gc.naive_step(encoder, items, objective)
        grads, loss, stats = gc.cached_step(
            encoder, items, objective, gc.CachePlan(effective_batch=64, sub_batch=sub_batch)
        )
        assert abs(loss - naive_loss) < 1e-12
        for name in naive_grads:
            np.testing.assert_allclose(grads[name], naive_grads[name], atol=1e-9, rtol=0)

    @pytest.mark.parametrize("sub_batch", [1, 7, 64])
    @pytest.mark.parametrize("case", [distill_case, contrastive_case])
    def test_a_block_steps_exactly_as_its_records(self, case, sub_batch):
        encoder, items, objective = case()
        plan = gc.CachePlan(effective_batch=64, sub_batch=sub_batch)
        grads, loss, stats = gc.cached_step(encoder, items, objective, plan)
        rows = enc.ItemRows.of(items, encoder.config.input_dim)
        block_grads, block_loss, block_stats = gc.cached_step(encoder, rows, objective, plan)
        assert block_loss == loss
        assert (block_stats.embedding_values == stats.embedding_values).all()
        assert block_stats.pass2_overhead == stats.pass2_overhead
        assert block_grads.keys() == grads.keys()
        for name in grads:
            assert (block_grads[name] == grads[name]).all()
        assert gc.naive_step(encoder, rows, objective)[1] == gc.naive_step(encoder, items, objective)[1]

    def test_loss_on_scores_the_batch_as_loss_between_its_halves(self):
        encoder, items, objective = contrastive_case()
        emb = encoder.encode(items, record=False)
        n = objective.n_queries
        queries, candidates = ad.constant(emb.values[:n]), ad.constant(emb.values[n:])
        assert objective.loss_on(emb).item() == objective.loss_between(queries, candidates).item()

    def test_degenerate_plan_is_exactly_naive(self):
        encoder, items, objective = distill_case(2)
        naive_grads, naive_loss = gc.naive_step(encoder, items, objective)
        grads, loss, _ = gc.cached_step(
            encoder, items, objective, gc.CachePlan(effective_batch=64, sub_batch=64)
        )
        assert loss == naive_loss
        for name in naive_grads:
            np.testing.assert_array_equal(grads[name], naive_grads[name])

    @pytest.mark.parametrize("mode", ["hard", "easy", "random"])
    def test_mined_indices_identical_to_naive(self, mode):
        encoder, items, objective = contrastive_case(3, mode=mode)
        naive_emb = encoder.encode(items, record=False)
        _, _, stats = gc.cached_step(
            encoder, items, objective, gc.CachePlan(effective_batch=64, sub_batch=8)
        )
        n = objective.n_queries
        cached_values = stats.embedding_values
        mined = objective.mine(ad.constant(cached_values[:n] @ cached_values[n:].T))
        assert mined.shape == (n, objective.config.k) and mined.dtype == np.intp
        assert np.array_equal(mined, objective.mine(ad.constant(naive_emb.values[:n] @ naive_emb.values[n:].T)))

    def test_planted_corpus_with_filtering_still_matches(self):
        corpus, encoder = make_setup(4, rate=0.25)
        items = [p.query for p in corpus.pairs] + list(corpus.items)
        # beta=0.2 keeps every query eligible at this random init while the
        # filter still fires for all of them, so both code paths are exercised
        objective = gc.ContrastiveObjective(
            n_queries=len(corpus.pairs), positives=tuple(corpus.positive_indices()),
            config=ng.MinerConfig(beta=0.2, k=4), mode="hard",
        )
        naive_grads, naive_loss = gc.naive_step(encoder, items, objective)
        plan = gc.CachePlan(effective_batch=len(items), sub_batch=8)
        grads, loss, _ = gc.cached_step(encoder, items, objective, plan)
        assert abs(loss - naive_loss) < 1e-12
        for name in naive_grads:
            np.testing.assert_allclose(grads[name], naive_grads[name], atol=1e-9, rtol=0)


class TestMemory:
    def overhead(self, effective, sub_batch):
        encoder, items, objective = distill_case(5, count=effective)
        _, _, stats = gc.cached_step(
            encoder, items, objective, gc.CachePlan(effective_batch=effective, sub_batch=sub_batch)
        )
        return stats.pass2_overhead

    def test_pass2_peak_grows_with_sub_batch(self):
        assert self.overhead(64, 4) * 4 <= self.overhead(64, 64)

    def test_pass2_peak_independent_of_effective_batch(self):
        # per-range graphs are built and freed one at a time, so doubling the
        # effective batch at fixed sub-batch must not move the peak
        assert self.overhead(32, 8) == self.overhead(64, 8)
