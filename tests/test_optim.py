"""Tests for optimizers and gradient clipping."""

import numpy as np
import pytest

from nanoembed import autodiff as ad
from nanoembed import optim


def quadratic_params(seed=0):
    rng = np.random.default_rng(seed)
    return [ad.Parameter("w", rng.normal(size=(2, 3)))]


def fill_grads(params, value):
    for p in params:
        p.tensor.grad = np.full_like(p.values, value)


class TestSgd:
    def test_step_moves_against_gradient(self):
        (p,) = quadratic_params()
        before = p.values.copy()
        fill_grads([p], 2.0)
        optim.Sgd(0.5).step([p])
        np.testing.assert_allclose(p.values, before - 1.0, rtol=0, atol=1e-15)

    def test_missing_gradient_leaves_parameter_alone(self):
        (p,) = quadratic_params()
        before = p.values.copy()
        optim.Sgd(0.5).step([p])
        np.testing.assert_array_equal(p.values, before)


class TestAdam:
    def test_first_step_size_is_learning_rate(self):
        # With bias correction the first update is lr * sign(g) up to eps.
        (p,) = quadratic_params()
        before = p.values.copy()
        fill_grads([p], 3.0)
        optim.Adam(0.1).step([p])
        np.testing.assert_allclose(p.values, before - 0.1, rtol=1e-6, atol=0)

    def test_converges_on_a_quadratic(self):
        p = ad.Parameter("w", [[5.0, -3.0]])
        opt = optim.Adam(0.2)
        for _ in range(400):
            p.zero_grad()
            ad.backward(ad.total_sum(ad.mul(p.tensor, p.tensor)))
            opt.step([p])
        assert np.abs(p.values).max() < 1e-3

    def test_deterministic_across_instances(self):
        results = []
        for _ in range(2):
            p = ad.Parameter("w", [[1.0, 2.0]])
            opt = optim.Adam(0.05)
            for _ in range(10):
                p.zero_grad()
                ad.backward(ad.total_sum(ad.mul(p.tensor, p.tensor)))
                opt.step([p])
            results.append(p.values.copy())
        assert np.array_equal(results[0], results[1])


class TestClipping:
    def test_norm_below_threshold_untouched(self):
        (p,) = quadratic_params()
        p.tensor.grad = np.full_like(p.values, 0.01)
        before = p.grad.copy()
        norm = optim.clip_global_norm([p], 1.0)
        assert norm == pytest.approx(np.sqrt(0.01**2 * p.values.size))
        np.testing.assert_array_equal(p.grad, before)

    def test_norm_above_threshold_scaled_to_max(self):
        (p,) = quadratic_params()
        p.tensor.grad = np.full_like(p.values, 10.0)
        pre = optim.clip_global_norm([p], 1.0)
        assert pre > 1.0
        assert optim.global_grad_norm([p]) == pytest.approx(1.0, rel=1e-12)

    def test_pre_clip_norm_is_reported(self):
        (p,) = quadratic_params()
        p.tensor.grad = np.zeros_like(p.values)
        p.tensor.grad[0, 0] = 5.0
        assert optim.clip_global_norm([p], 1.0) == pytest.approx(5.0)


class TestSettings:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            optim.OptimizerSettings(kind="rmsprop")

    def test_non_positive_rates_rejected(self):
        with pytest.raises(ValueError):
            optim.OptimizerSettings(learning_rate=0.0)
        with pytest.raises(ValueError):
            optim.OptimizerSettings(clip_norm=0.0)

    @pytest.mark.parametrize("field", ["learning_rate", "clip_norm"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            optim.OptimizerSettings(**{field: value})

    def test_factory_builds_both_kinds(self):
        assert isinstance(optim.make_optimizer(optim.OptimizerSettings(kind="adam")), optim.Adam)
        assert isinstance(optim.make_optimizer(optim.OptimizerSettings(kind="sgd")), optim.Sgd)
