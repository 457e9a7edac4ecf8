"""Tests for similarity-distribution distillation.

Loss values are checked against an arbitrary-precision reimplementation
(mpmath) and against values frozen from that oracle.
"""

import dataclasses

import mpmath as mp
import numpy as np
import pytest

from nanoembed import autodiff as ad
from nanoembed import corpus as cp
from nanoembed import distill as ds
from nanoembed import encoder as enc
from nanoembed import optim

# forward KL between seeded 3x4 unit batches (see unit_rows(2024) below)
KL_3X4_TAU_HALF = 1.874404305638839306407586
KL_3X4_TAU_005 = 2.886465083770724643656935


def unit_rows(seed, n, d):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def batch(rows, prefix="r"):
    return enc.EmbeddingBatch([f"{prefix}{i}" for i in range(rows.shape[0])], ad.constant(rows))


def mp_kl(student, teacher, tau):
    """Row-softmax KL in 50-digit arithmetic, written independently."""
    mp.mp.dps = 50
    tau = mp.mpf(tau)
    n, d = student.shape

    def dist_rows(m):
        rows = []
        for i in range(n):
            sims = [mp.fsum(mp.mpf(m[i, c]) * mp.mpf(m[j, c]) for c in range(d)) for j in range(n)]
            exps = [mp.e ** (s / tau) for s in sims]
            z = mp.fsum(exps)
            rows.append([x / z for x in exps])
        return rows

    ps, pt = dist_rows(student), dist_rows(teacher)
    return mp.fsum(ps[i][j] * mp.log(ps[i][j] / pt[i][j]) for i in range(n) for j in range(n))


class TestKlLoss:
    def test_zero_when_batches_equal(self):
        e = batch(unit_rows(4, 5, 6))
        loss = ds.kl_distillation_loss(e, e, 0.05)
        assert abs(loss.item()) <= 1e-12

    def test_single_row_batch_gives_zero(self):
        e = batch(unit_rows(5, 1, 4))
        assert ds.kl_distillation_loss(e, e, 1.0).item() == 0.0
        other = batch(unit_rows(6, 1, 4))
        assert ds.kl_distillation_loss(e, other, 1.0).item() == 0.0

    def test_frozen_oracle_values(self):
        rng = np.random.default_rng(2024)
        student = rng.normal(size=(3, 4))
        student /= np.linalg.norm(student, axis=1, keepdims=True)
        teacher = rng.normal(size=(3, 4))
        teacher /= np.linalg.norm(teacher, axis=1, keepdims=True)
        loss_half = ds.kl_distillation_loss(batch(student, "s"), batch(teacher, "t"), 0.5)
        np.testing.assert_allclose(loss_half.item(), KL_3X4_TAU_HALF, rtol=1e-12)
        loss_sharp = ds.kl_distillation_loss(batch(student, "s"), batch(teacher, "t"), 0.05)
        np.testing.assert_allclose(loss_sharp.item(), KL_3X4_TAU_005, rtol=1e-12)

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(2, 8))
            student = rng.normal(size=(n, d))
            student /= np.linalg.norm(student, axis=1, keepdims=True)
            teacher = rng.normal(size=(n, d))
            teacher /= np.linalg.norm(teacher, axis=1, keepdims=True)
            tau = float(rng.uniform(0.05, 2.0))
            got = ds.kl_distillation_loss(batch(student, "s"), batch(teacher, "t"), tau).item()
            want = float(mp_kl(student, teacher, tau))
            np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(12)
        for seed in range(20):
            student = unit_rows(seed, 4, 5)
            teacher = unit_rows(seed + 100, 4, 5)
            loss = ds.kl_distillation_loss(batch(student, "s"), batch(teacher, "t"), 0.2)
            assert loss.item() >= 0.0

    def test_rotation_invariance(self):
        rng = np.random.default_rng(13)
        student = unit_rows(14, 4, 6)
        teacher = unit_rows(15, 4, 6)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        base = ds.kl_distillation_loss(batch(student, "s"), batch(teacher, "t"), 0.1).item()
        spun = ds.kl_distillation_loss(batch(student @ q, "s"), batch(teacher @ q, "t"), 0.1).item()
        np.testing.assert_allclose(spun, base, rtol=1e-9)

    def test_batch_size_mismatch(self):
        with pytest.raises(ValueError, match="student batch has 3 rows, teacher 2"):
            ds.kl_distillation_loss(batch(unit_rows(0, 3, 4)), batch(unit_rows(1, 2, 4), "t"), 0.1)

    def test_no_gradient_reaches_teacher(self):
        student_enc = enc.Encoder(enc.EncoderConfig(input_dim=6, hidden_dim=8, embed_dim=5, seed=1))
        teacher_enc = enc.Encoder(enc.EncoderConfig(input_dim=6, hidden_dim=8, embed_dim=5, seed=2))
        items = [
            enc.ItemRecord(f"i{i}", "text", np.random.default_rng(i).normal(size=(3, 6)))
            for i in range(4)
        ]
        loss = ds.kl_distillation_loss(student_enc.encode(items), teacher_enc.encode(items), 0.1)
        ad.backward(loss)
        assert all(p.grad is not None for p in student_enc.parameters())
        assert all(p.grad is None for p in teacher_enc.parameters())

    def test_gradient_matches_finite_differences(self):
        config = enc.EncoderConfig(input_dim=5, hidden_dim=6, embed_dim=4, depth=1, seed=3)
        student = enc.Encoder(config)
        rng = np.random.default_rng(16)
        items = [enc.ItemRecord(f"i{i}", "text", rng.normal(size=(2, 5))) for i in range(3)]
        teacher = batch(unit_rows(17, 3, 4), "t")

        def loss_fn():
            return ds.kl_distillation_loss(student.encode(items), teacher, 0.5)

        report = ad.finite_difference_check(loss_fn, student.parameters())
        assert report.passed, f"max rel error {report.max_rel_error}"


def tiny_corpus(n=8, dim=6, seed=21, modality="text"):
    rng = np.random.default_rng(seed)
    items, pairs = [], []
    for i in range(n):
        query = enc.ItemRecord(f"q{i}", modality, rng.normal(size=(2, dim)))
        cand = enc.ItemRecord(f"c{i}", modality, rng.normal(size=(2, dim)))
        items.append(cand)
        pairs.append(cp.PairRecord(query=query, positive_id=cand.id))
    return cp.Corpus(items=items, pairs=pairs)


class TestStage1Train:
    def test_student_matching_teacher_stays_put(self):
        # groupless corpus: the teacher surrogate reduces to the same seeded
        # network, so the student starts aligned and must not drift
        config = enc.EncoderConfig(input_dim=6, hidden_dim=8, embed_dim=5, seed=7)
        student = enc.Encoder(config)
        before = [w.copy() for _, w in student.weight_arrays()]
        teacher = enc.TeacherEncoder(config)
        corpus = tiny_corpus()
        # plain sgd: adam would rescale roundoff-level gradients into
        # full-size steps and walk away from the flat minimum
        trace = ds.stage1_train(
            student, corpus, teacher, ds.DistillConfig(batch_size=8), optim.OptimizerSettings(kind="sgd"), steps=3, seed=0
        )
        assert all(r.loss == pytest.approx(0.0, abs=1e-12) for r in trace)
        for (_, after), prior in zip(student.weight_arrays(), before):
            np.testing.assert_allclose(after, prior, atol=1e-9)

    def test_same_seed_gives_identical_traces(self):
        corpus = cp.generate(cp.CorpusSpec(seed=3, n_groups=4, items_per_group=4, input_dim=8))
        teacher = enc.TeacherEncoder(enc.EncoderConfig(input_dim=8, hidden_dim=10, embed_dim=6, seed=31))
        traces = []
        for _ in range(2):
            student = enc.Encoder(enc.EncoderConfig(input_dim=8, hidden_dim=10, embed_dim=6, seed=32))
            traces.append(
                ds.stage1_train(student, corpus, teacher, ds.DistillConfig(batch_size=8), optim.OptimizerSettings(), steps=20, seed=5)
            )
        assert traces[0] == traces[1]

    def test_loss_trend_decreases(self):
        corpus = cp.generate(cp.CorpusSpec(seed=4, n_groups=6, items_per_group=6, input_dim=10))
        teacher = enc.TeacherEncoder(enc.EncoderConfig(input_dim=10, hidden_dim=12, embed_dim=8, seed=41))
        student = enc.Encoder(enc.EncoderConfig(input_dim=10, hidden_dim=12, embed_dim=8, seed=42))
        trace = ds.stage1_train(
            student,
            corpus,
            teacher,
            ds.DistillConfig(batch_size=16),
            optim.OptimizerSettings(learning_rate=3e-3),
            steps=500,
            seed=6,
        )
        losses = [r.loss for r in trace]
        assert np.mean(losses[-50:]) < np.mean(losses[:50])
        assert trace[-1].loss < trace[0].loss

    def test_rows_are_stacked_once_per_run(self, monkeypatch):
        corpus = cp.generate(cp.CorpusSpec(seed=3, n_groups=4, items_per_group=4, input_dim=8))
        config = enc.EncoderConfig(input_dim=8, hidden_dim=10, embed_dim=6, seed=32)
        teacher = enc.TeacherEncoder(dataclasses.replace(config, seed=31))
        stack = enc.ItemRows.of.__func__
        calls = []

        def counting(cls, items, input_dim):
            calls.append(len(items))
            return stack(cls, items, input_dim)

        monkeypatch.setattr(enc.ItemRows, "of", classmethod(counting))
        counts = []
        for steps in (2, 5):
            calls.clear()
            ds.stage1_train(enc.Encoder(config), corpus, teacher, ds.DistillConfig(batch_size=8),
                            optim.OptimizerSettings(), steps=steps, seed=5)
            counts.append(list(calls))
        assert counts[0] == counts[1] == [len(corpus.text_items())]

    @pytest.mark.parametrize("steps", [True, 2.0, -1])
    def test_steps_must_be_a_nonnegative_integer(self, steps):
        student = enc.Encoder(enc.EncoderConfig(input_dim=6, hidden_dim=8, embed_dim=5, seed=7))
        before = [w.copy() for _, w in student.weight_arrays()]
        teacher = enc.TeacherEncoder(enc.EncoderConfig(input_dim=6, hidden_dim=8, embed_dim=5, seed=8))
        with pytest.raises(ValueError) as raised:
            ds.stage1_train(student, tiny_corpus(), teacher, ds.DistillConfig(batch_size=8),
                            optim.OptimizerSettings(), steps=steps)
        assert str(raised.value) == f"steps must be a nonnegative integer, got {steps!r}"
        for (_, after), prior in zip(student.weight_arrays(), before):
            np.testing.assert_array_equal(after, prior)

    def test_image_only_corpus_has_no_text_pool(self):
        student = enc.Encoder(enc.EncoderConfig(input_dim=6, hidden_dim=8, embed_dim=5, seed=7))
        teacher = enc.TeacherEncoder(enc.EncoderConfig(input_dim=6, hidden_dim=8, embed_dim=5, seed=7))
        corpus = tiny_corpus(modality="image")
        with pytest.raises(ValueError, match="need at least 2 text items to distill"):
            ds.stage1_train(student, corpus, teacher, ds.DistillConfig(), optim.OptimizerSettings(), steps=1)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="tau must be finite and > 0"):
            ds.DistillConfig(tau=-1.0)
        with pytest.raises(ValueError):
            ds.DistillConfig(batch_size=1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_tau_rejected(self, value):
        with pytest.raises(ValueError, match="^tau must be a finite number"):
            ds.DistillConfig(tau=value)
