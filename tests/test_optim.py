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
        optim.Sgd(0.5, [p]).step()
        np.testing.assert_allclose(p.values, before - 1.0, rtol=0, atol=1e-15)

    def test_missing_gradient_leaves_parameter_alone(self):
        (p,) = quadratic_params()
        before = p.values.copy()
        optim.Sgd(0.5, [p]).step()
        np.testing.assert_array_equal(p.values, before)


class TestAdam:
    def test_first_step_size_is_learning_rate(self):
        # With bias correction the first update is lr * sign(g) up to eps.
        (p,) = quadratic_params()
        before = p.values.copy()
        fill_grads([p], 3.0)
        optim.Adam(0.1, [p]).step()
        np.testing.assert_allclose(p.values, before - 0.1, rtol=1e-6, atol=0)

    def test_converges_on_a_quadratic(self):
        p = ad.Parameter("w", [[5.0, -3.0]])
        opt = optim.Adam(0.2, [p])
        for _ in range(400):
            p.zero_grad()
            ad.backward(ad.total_sum(ad.mul(p.tensor, p.tensor)))
            opt.step()
        assert np.abs(p.values).max() < 1e-3

    def test_deterministic_across_instances(self):
        results = []
        for _ in range(2):
            p = ad.Parameter("w", [[1.0, 2.0]])
            opt = optim.Adam(0.05, [p])
            for _ in range(10):
                p.zero_grad()
                ad.backward(ad.total_sum(ad.mul(p.tensor, p.tensor)))
                opt.step()
            results.append(p.values.copy())
        assert np.array_equal(results[0], results[1])


def reference_adam_step(lr, params, grads, m, v, t):
    """Adam as written with one temporary per operation."""
    for name, g in grads.items():
        if g is None:
            continue
        m[name] *= 0.9
        m[name] += (1.0 - 0.9) * g
        v[name] *= 0.999
        v[name] += (1.0 - 0.999) * g * g
        m_hat = m[name] / (1.0 - 0.9**t)
        v_hat = v[name] / (1.0 - 0.999**t)
        params[name] -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)


class TestBufferedUpdates:
    """The optimizers write into per-parameter buffers; every value must
    equal, bit for bit, the formula that allocates a temporary per operation."""

    SHAPES = {"w": (7, 5), "b": (1, 5), "s": (3, 1)}

    def random_grads(self, rng):
        # Magnitudes over six decades; "b" skips every third step.
        grads = {name: rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3) for name, shape in self.SHAPES.items()}
        if rng.integers(3) == 0:
            grads["b"] = None
        return grads

    def run(self, optimizer_cls, steps=300):
        rng = np.random.default_rng(97)
        params = [ad.Parameter(name, rng.normal(size=shape)) for name, shape in self.SHAPES.items()]
        opt = optimizer_cls(0.01, params)
        history = []
        for _ in range(steps):
            grads = self.random_grads(rng)
            for p in params:
                p.tensor.grad = grads[p.name]
            opt.step()
            history.append(grads)
        return opt, {p.name: p.values for p in params}, history

    def test_adam_matches_the_unbuffered_formula(self):
        opt, weights, history = self.run(optim.Adam)
        rng = np.random.default_rng(97)
        params = {name: rng.normal(size=shape) for name, shape in self.SHAPES.items()}
        m = {name: np.zeros(shape) for name, shape in self.SHAPES.items()}
        v = {name: np.zeros(shape) for name, shape in self.SHAPES.items()}
        for t, grads in enumerate(history, start=1):
            reference_adam_step(0.01, params, grads, m, v, t)
        for i, name in enumerate(self.SHAPES):
            assert weights[name].tobytes() == params[name].tobytes()
            got_m, got_v = opt._state[i][:2]
            assert got_m.tobytes() == m[name].tobytes()
            assert got_v.tobytes() == v[name].tobytes()

    def test_sgd_matches_the_unbuffered_formula(self):
        _, weights, history = self.run(optim.Sgd)
        rng = np.random.default_rng(97)
        params = {name: rng.normal(size=shape) for name, shape in self.SHAPES.items()}
        for grads in history:
            for name, g in grads.items():
                if g is not None:
                    params[name] -= 0.01 * g
        for name in self.SHAPES:
            assert weights[name].tobytes() == params[name].tobytes()


class TestParameterIdentity:
    """An optimizer holds each parameter's state by position; a shared
    name must not make two parameters share moments or buffers."""

    @pytest.mark.parametrize("optimizer_cls", [optim.Adam, optim.Sgd])
    @pytest.mark.parametrize("shapes", [[(2, 3), (2, 3)], [(2, 3), (4, 1)]], ids=["equal", "unequal"])
    def test_same_named_parameters_step_as_if_alone(self, optimizer_cls, shapes):
        def make_params():
            rng = np.random.default_rng(5)
            return [ad.Parameter("w", rng.normal(size=shape)) for shape in shapes]

        rng = np.random.default_rng(11)
        grads = [[rng.normal(size=shape) for _ in range(3)] for shape in shapes]

        def train(opt, params, param_grads):
            for step in range(3):
                for p, g in zip(params, param_grads):
                    p.tensor.grad = g[step]
                opt.step()

        together = make_params()
        train(optimizer_cls(0.1, together), together, grads)
        alone = make_params()
        for p, g in zip(alone, grads):
            train(optimizer_cls(0.1, [p]), [p], [g])
        for got, want in zip(together, alone):
            assert got.values.tobytes() == want.values.tobytes()


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
        # A second call returns the norm it finds, which is the first call's post-clip norm.
        assert optim.clip_global_norm([p], 1.0) == pytest.approx(1.0, rel=1e-12)

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
        params = quadratic_params()
        assert isinstance(optim.make_optimizer(optim.OptimizerSettings(kind="adam"), params), optim.Adam)
        assert isinstance(optim.make_optimizer(optim.OptimizerSettings(kind="sgd"), params), optim.Sgd)
