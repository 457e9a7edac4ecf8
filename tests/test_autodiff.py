"""Tests for the reverse-mode autodiff core.

Gradient correctness is checked against central finite differences; the
softmax oracle row below was frozen from a 40-digit evaluation.
"""

import zlib

import numpy as np
import pytest

from nanoembed import autodiff as ad


def fd_gradient(f, x, step=1e-6):
    """Central finite differences of a scalar function of an array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    g_flat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        plus = f(x)
        flat[i] = orig - step
        minus = f(x)
        flat[i] = orig
        g_flat[i] = (plus - minus) / (2.0 * step)
    return g


def rel_err(a, b):
    return np.abs(a - b) / (np.abs(a) + np.abs(b) + 1e-12)


class TestTensorBasics:
    def test_one_dimensional_input_becomes_a_row(self):
        t = ad.Tensor([1.0, 2.0, 3.0])
        assert t.shape == (1, 3)

    def test_higher_rank_input_rejected(self):
        with pytest.raises(ValueError):
            ad.Tensor(np.zeros((2, 2, 2)))

    def test_values_are_float64(self):
        t = ad.Tensor([[1, 2]])
        assert t.values.dtype == np.float64

    def test_item_requires_scalar(self):
        with pytest.raises(ValueError, match="item\\(\\) needs a 1x1 tensor"):
            ad.Tensor([[1.0, 2.0]]).item()

    def test_constant_requires_no_grad(self):
        c = ad.constant([[1.0]])
        assert not c.requires_grad
        assert c.grad is None

    def test_ops_on_constants_stay_outside_the_graph(self):
        a = ad.constant([[1.0, 2.0]])
        b = ad.constant([[3.0, 4.0]])
        out = ad.add(a, b)
        assert not out.requires_grad
        assert out._vjp is None


class TestForwardValues:
    def test_row_l2_normalize_three_four(self):
        out = ad.row_l2_normalize(ad.constant([[3.0, 4.0]]))
        np.testing.assert_allclose(out.values, [[0.6, 0.8]], rtol=0, atol=1e-15)

    def test_row_l2_normalize_keeps_unit_rows(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 7))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        out = ad.row_l2_normalize(ad.constant(x))
        np.testing.assert_allclose(out.values, x, rtol=0, atol=1e-12)

    def test_row_l2_normalize_rows_unit_within_1e12(self):
        rng = np.random.default_rng(1)
        out = ad.row_l2_normalize(ad.constant(rng.normal(size=(20, 9))))
        norms = np.linalg.norm(out.values, axis=1)
        np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)

    def test_row_l2_normalize_zero_row_raises(self):
        with pytest.raises(ValueError, match="row 1 has norm below"):
            ad.row_l2_normalize(ad.constant([[1.0, 1.0], [0.0, 0.0]]))

    def test_softmax_uniform_row(self):
        out = ad.softmax_rows(ad.constant([[0.0, 0.0]]), tau=1.0)
        np.testing.assert_allclose(out.values, [[0.5, 0.5]], rtol=0, atol=1e-15)

    def test_softmax_frozen_oracle_row(self):
        # softmax([1, 2, 3] / 0.5), 40-digit evaluation
        expected = [0.015876239976466766323, 0.11731042782619836253, 0.86681333219733487114]
        out = ad.softmax_rows(ad.constant([[1.0, 2.0, 3.0]]), tau=0.5)
        np.testing.assert_allclose(out.values[0], expected, rtol=1e-15, atol=0)

    def test_softmax_extreme_logits_do_not_overflow(self):
        out = ad.softmax_rows(ad.constant([[1000.0, 0.0]]), tau=1.0)
        assert np.all(np.isfinite(out.values))
        np.testing.assert_allclose(out.values[0, 0], 1.0, rtol=0, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        out = ad.softmax_rows(ad.constant(rng.normal(size=(30, 11)) * 10), tau=0.05)
        np.testing.assert_allclose(out.values.sum(axis=1), 1.0, rtol=0, atol=1e-10)

    def test_softmax_rejects_non_positive_temperature(self):
        x = ad.constant([[1.0, 2.0]])
        for tau in (0.0, -1.0):
            with pytest.raises(ValueError, match="tau must be finite and > 0"):
                ad.softmax_rows(x, tau=tau)
            with pytest.raises(ValueError, match="tau must be finite and > 0"):
                ad.log_softmax_rows(x, tau=tau)

    @pytest.mark.parametrize("tau", [float("inf"), -float("inf"), float("nan")])
    def test_non_finite_temperature_rejected(self, tau):
        # An infinite tau would flatten every softmax row to uniform.
        with pytest.raises(ValueError, match="tau must be finite and > 0"):
            ad.check_tau(tau)
        with pytest.raises(ValueError, match="tau must be finite and > 0"):
            ad.softmax_rows(ad.constant([[1.0, 2.0]]), tau=tau)

    def test_log_softmax_matches_log_of_softmax(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6))
        ls = ad.log_softmax_rows(ad.constant(x), tau=0.3)
        p = ad.softmax_rows(ad.constant(x), tau=0.3)
        np.testing.assert_allclose(ls.values, np.log(p.values), rtol=0, atol=1e-12)

    def test_row_log_sum_exp_matches_direct_sum(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 8))
        out = ad.row_log_sum_exp(ad.constant(x))
        np.testing.assert_allclose(out.values[:, 0], np.log(np.exp(x).sum(axis=1)), rtol=1e-14, atol=0)

    def test_gather_columns_picks_per_row(self):
        x = ad.constant([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        out = ad.gather_columns(x, [[2, 0], [1, 1]])
        np.testing.assert_array_equal(out.values, [[3.0, 1.0], [5.0, 5.0]])

    def test_gather_columns_bounds_checked(self):
        x = ad.constant([[1.0, 2.0]])
        with pytest.raises(IndexError):
            ad.gather_columns(x, [[2]])
        with pytest.raises(IndexError):
            ad.gather_columns(x, [[-1]])

    @pytest.mark.parametrize("cols", [[[0.9], [1.5], [3.99]], [[True], [False], [True]]], ids=["float", "bool"])
    def test_gather_columns_refuses_non_integer_indices(self, cols):
        x = ad.constant(np.arange(12.0).reshape(3, 4))
        with pytest.raises(ValueError, match="^gather_columns: cols must hold integers, got dtype"):
            ad.gather_columns(x, cols)

    @pytest.mark.parametrize("dtype", [np.float64, bool])
    def test_gather_columns_takes_an_empty_index_of_any_dtype(self, dtype):
        x = ad.constant(np.arange(6.0).reshape(2, 3))
        assert ad.gather_columns(x, np.zeros((2, 0), dtype=dtype)).shape == (2, 0)

    def test_gather_rows_picks_and_repeats(self):
        x = ad.constant([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = ad.gather_rows(x, [2, 0, 2])
        np.testing.assert_array_equal(out.values, [[5.0, 6.0], [1.0, 2.0], [5.0, 6.0]])

    def test_gather_rows_bounds_checked(self):
        x = ad.constant([[1.0, 2.0]])
        with pytest.raises(IndexError):
            ad.gather_rows(x, [1])
        with pytest.raises(IndexError):
            ad.gather_rows(x, [-1])
        with pytest.raises(ValueError):
            ad.gather_rows(x, [])

    @pytest.mark.parametrize("rows", [[2.7, True], [2.0, 1.0], [True, False]], ids=["mixed", "float", "bool"])
    def test_gather_rows_refuses_non_integer_indices(self, rows):
        x = ad.constant(np.arange(6.0).reshape(3, 2))
        with pytest.raises(ValueError, match="^gather_rows: rows must hold integers, got dtype"):
            ad.gather_rows(x, rows)

    def test_concat_rows_stacks(self):
        out = ad.concat_rows([ad.constant([[1.0, 2.0]]), ad.constant([[3.0, 4.0], [5.0, 6.0]])])
        np.testing.assert_array_equal(out.values, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_concat_rows_rejects_mixed_widths(self):
        with pytest.raises(ValueError):
            ad.concat_rows([ad.constant([[1.0]]), ad.constant([[1.0, 2.0]])])

    def test_binary_shape_mismatch_rejected(self):
        a = ad.constant(np.zeros((2, 3)))
        b = ad.constant(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            ad.add(a, b)
        with pytest.raises(ValueError):
            ad.matmul(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 3))))

    def test_only_add_broadcasts_a_row_vector(self):
        a = ad.constant(np.arange(6.0).reshape(2, 3))
        row = ad.constant([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(ad.add(a, row).values, a.values + row.values)
        for op in (ad.sub, ad.mul):
            with pytest.raises(ValueError):
                op(a, row)

    def test_evaluation_is_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 6))
        runs = []
        for _ in range(2):
            t = ad.Tensor(x, requires_grad=True)
            out = ad.softmax_rows(ad.matmul(ad.row_l2_normalize(t), ad.transpose(ad.row_l2_normalize(t))), tau=0.1)
            runs.append(out.values.copy())
        assert np.array_equal(runs[0], runs[1])


class TestBackward:
    def test_sum_gradient_is_ones(self):
        t = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.backward(ad.total_sum(t))
        np.testing.assert_array_equal(t.grad, np.ones((2, 3)))

    def test_quadratic_gradient(self):
        t = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        ad.backward(ad.total_sum(ad.mul(t, t)))
        np.testing.assert_allclose(t.grad, [[2.0, 4.0]], rtol=0, atol=1e-15)

    def test_repeated_backward_accumulates(self):
        t = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        y = ad.mul(t, t)
        loss = ad.total_sum(y)
        ad.backward(loss)
        ad.backward(loss)
        np.testing.assert_allclose(t.grad, [[4.0, 8.0]], rtol=0, atol=1e-15)
        assert y.grad is None and loss.grad is None

    def test_constant_root_gets_no_grad(self):
        loss = ad.total_sum(ad.constant([[1.0, 2.0]]))
        ad.backward(loss)
        assert loss.grad is None
        root = ad.constant([[3.0]])
        ad.backward(root)
        assert root.grad is None

    def test_non_scalar_loss_rejected(self):
        t = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        with pytest.raises(ValueError, match="loss must be 1x1"):
            ad.backward(t)

    def test_seed_gives_the_leaves_the_pseudo_loss_gradients_by_bytes(self):
        # An encoder-shaped graph whose root is an n x d embedding: a seed g
        # must deposit what backward(total_sum(root * g)) does, bit for bit.
        rng = np.random.default_rng(11)
        x = ad.constant(rng.normal(size=(6, 5)))
        weights = [rng.normal(size=shape) for shape in ((5, 4), (1, 4), (4, 3))]
        seed = rng.normal(size=(6, 3))
        kept = seed.copy()

        def leaf_grads(seeded):
            w, b, p = (ad.Tensor(values, requires_grad=True) for values in weights)
            root = ad.row_l2_normalize(ad.matmul(ad.tanh(ad.add(ad.matmul(x, w), b)), p))
            if seeded:
                ad.backward(root, seed)
            else:
                ad.backward(ad.total_sum(ad.mul(root, ad.constant(seed))))
            assert root.grad is None
            return [leaf.grad.tobytes() for leaf in (w, b, p)]

        assert leaf_grads(seeded=True) == leaf_grads(seeded=False)
        assert seed.tobytes() == kept.tobytes()

    def test_seeded_leaf_root_gets_a_copy_of_the_seed(self):
        t = ad.Tensor(np.zeros((2, 3)), requires_grad=True)
        seed = np.arange(6.0).reshape(2, 3)
        ad.backward(t, seed)
        seed[0, 0] = 9.0
        np.testing.assert_array_equal(t.grad, np.arange(6.0).reshape(2, 3))

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 2), (6,)])
    def test_seed_of_another_shape_rejected(self, shape):
        t = ad.Tensor(np.ones((2, 3)), requires_grad=True)
        with pytest.raises(ValueError, match=r"seed shape .* != root shape \(2, 3\)"):
            ad.backward(ad.tanh(t), np.ones(shape))
        assert t.grad is None

    def test_diamond_graph_accumulates_once_per_path(self):
        # loss = sum(t + t) so dloss/dt = 2 exactly once per backward call
        t = ad.Tensor([[3.0]], requires_grad=True)
        ad.backward(ad.total_sum(ad.add(t, t)))
        np.testing.assert_array_equal(t.grad, [[2.0]])

    def test_shared_subexpression_reused(self):
        t = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        y = ad.mul(t, t)
        loss = ad.total_sum(ad.add(y, y))
        ad.backward(loss)
        np.testing.assert_allclose(t.grad, [[4.0, 8.0]], rtol=0, atol=1e-15)
        assert y.grad is None and loss.grad is None


class TestPrimitiveGradients:
    """Every primitive against central finite differences, with a random
    weighting tensor so adjoints are non-uniform."""

    cases = {
        "add": lambda x, c: ad.total_sum(ad.mul(ad.add(x, x), c)),
        "sub": lambda x, c: ad.total_sum(ad.mul(ad.sub(ad.mul(x, x), x), c)),
        "mul": lambda x, c: ad.total_sum(ad.mul(ad.mul(x, x), c)),
        "scale": lambda x, c: ad.total_sum(ad.mul(ad.scale(x, -1.7), c)),
        "matmul": lambda x, c: ad.total_sum(ad.mul(ad.matmul(x, ad.transpose(x)), ad.matmul(c, ad.transpose(c)))),
        "transpose": lambda x, c: ad.total_sum(ad.mul(ad.transpose(x), ad.transpose(c))),
        "exp": lambda x, c: ad.total_sum(ad.mul(ad.exp(x), c)),
        "tanh": lambda x, c: ad.total_sum(ad.mul(ad.tanh(x), c)),
        "row_sum": lambda x, c: ad.total_sum(ad.mul(ad.row_sum(x), ad.row_sum(c))),
        "row_l2_normalize": lambda x, c: ad.total_sum(ad.mul(ad.row_l2_normalize(x), c)),
        "softmax_rows": lambda x, c: ad.total_sum(ad.mul(ad.softmax_rows(x, tau=0.7), c)),
        "log_softmax_rows": lambda x, c: ad.total_sum(ad.mul(ad.log_softmax_rows(x, tau=0.7), c)),
        "row_log_sum_exp": lambda x, c: ad.total_sum(ad.mul(ad.row_log_sum_exp(x), ad.row_sum(c))),
    }

    @pytest.mark.parametrize("name", sorted(cases))
    def test_primitive_matches_finite_differences(self, name):
        build = self.cases[name]
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        x = rng.uniform(-2.0, 2.0, size=(4, 5))
        c = ad.constant(rng.uniform(-1.0, 1.0, size=(4, 5)))

        t = ad.Tensor(x.copy(), requires_grad=True)
        ad.backward(build(t, c))
        analytic = t.grad

        fd = fd_gradient(lambda arr: build(ad.constant(arr), c).item(), x.copy())
        assert rel_err(analytic, fd).max() < 1e-6

    def test_log_gradient(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0.5, 3.0, size=(3, 4))
        c = ad.constant(rng.uniform(-1.0, 1.0, size=(3, 4)))
        t = ad.Tensor(x.copy(), requires_grad=True)
        ad.backward(ad.total_sum(ad.mul(ad.log(t), c)))
        fd = fd_gradient(lambda arr: ad.total_sum(ad.mul(ad.log(ad.constant(arr)), c)).item(), x.copy())
        assert rel_err(t.grad, fd).max() < 1e-6

    def test_row_vector_broadcast_gradient(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 3))
        b = rng.normal(size=(1, 3))
        c = ad.constant(rng.normal(size=(4, 3)))
        tb = ad.Tensor(b.copy(), requires_grad=True)
        ad.backward(ad.total_sum(ad.mul(ad.add(ad.constant(x), tb), c)))
        fd = fd_gradient(lambda arr: ad.total_sum(ad.mul(ad.add(ad.constant(x), ad.constant(arr)), c)).item(), b.copy())
        assert rel_err(tb.grad, fd).max() < 1e-6

    def test_gather_columns_gradient_accumulates_duplicates(self):
        x = ad.Tensor([[1.0, 2.0, 3.0]], requires_grad=True)
        out = ad.gather_columns(x, [[0, 0, 2]])
        ad.backward(ad.total_sum(ad.mul(out, ad.constant([[1.0, 10.0, 100.0]]))))
        np.testing.assert_array_equal(x.grad, [[11.0, 0.0, 100.0]])

    def test_gather_rows_gradient_accumulates_duplicates(self):
        x = ad.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        out = ad.gather_rows(x, [0, 0, 1])
        w = ad.constant([[1.0, 2.0], [10.0, 20.0], [100.0, 200.0]])
        ad.backward(ad.total_sum(ad.mul(out, w)))
        np.testing.assert_array_equal(x.grad, [[11.0, 22.0], [100.0, 200.0]])

    def test_gather_adjoints_equal_add_at_bit_for_bit(self):
        # Duplicate indices, -0.0 adjoints (alone and summed with +0.0) and a
        # transposed, non-contiguous g: the adjoint must be np.add.at's, byte for byte.
        rng = np.random.default_rng(41)
        x = ad.Tensor(rng.normal(size=(5, 7)), requires_grad=True)
        cols = np.array([[3, 3, 0, 6], [1, 1, 1, 1], [2, 5, 2, 5], [6, 0, 3, 3], [4, 4, 4, 2]])
        rows = [4, 0, 4, 2, 4, 1]
        g_cols = rng.normal(size=(4, 5)).T
        g_cols[0, :2], g_cols[1, 0], g_cols[1, 1:] = -0.0, -0.0, 0.0
        g_rows = rng.normal(size=(7, 6)).T
        g_rows[0, :3] = g_rows[2, :3] = -0.0
        assert not g_cols.flags.c_contiguous and not g_rows.flags.c_contiguous
        expected_cols = np.zeros(x.shape)
        np.add.at(expected_cols, (np.arange(5)[:, None], cols), g_cols)
        expected_rows = np.zeros(x.shape)
        np.add.at(expected_rows, rows, g_rows)
        (got_cols,) = ad.gather_columns(x, cols)._vjp(g_cols)
        (got_rows,) = ad.gather_rows(x, rows)._vjp(g_rows)
        assert got_cols.dtype == got_rows.dtype == np.float64
        assert got_cols.tobytes() == expected_cols.tobytes()
        assert got_rows.tobytes() == expected_rows.tobytes()

    def test_gather_adjoint_of_an_empty_gather_is_float_zeros(self):
        x = ad.Tensor(np.ones((2, 3)), requires_grad=True)
        (got,) = ad.gather_columns(x, np.zeros((2, 0), np.intp))._vjp(np.zeros((2, 0)))
        assert got.dtype == np.float64 and got.tobytes() == np.zeros((2, 3)).tobytes()

    def test_matmul_skips_the_adjoint_of_a_constant_operand(self):
        rng = np.random.default_rng(42)
        x, w_values, g = rng.normal(size=(6, 4)), rng.normal(size=(4, 3)), rng.normal(size=(6, 3))
        w = ad.Tensor(w_values.copy(), requires_grad=True)
        ga, gb = ad.matmul(ad.constant(x), w)._vjp(g)
        assert ga is None
        assert gb.tobytes() == (x.T @ g).tobytes()
        ga, gb = ad.matmul(w, ad.constant(x.T[:3, :2]))._vjp(rng.normal(size=(4, 2)))
        assert gb is None and ga.shape == (4, 3)
        ad.backward(ad.total_sum(ad.mul(ad.matmul(ad.constant(x), w), ad.constant(g))))
        assert w.grad.tobytes() == (x.T @ g).tobytes()

    def test_concat_rows_gradient_splits(self):
        a = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        b = ad.Tensor([[3.0, 4.0], [5.0, 6.0]], requires_grad=True)
        out = ad.concat_rows([a, b])
        w = ad.constant([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        ad.backward(ad.total_sum(ad.mul(out, w)))
        np.testing.assert_array_equal(a.grad, [[1.0, 2.0]])
        np.testing.assert_array_equal(b.grad, [[3.0, 4.0], [5.0, 6.0]])


class TestFiniteDifferenceCheck:
    def _params(self, seed):
        rng = np.random.default_rng(seed)
        return [
            ad.Parameter("w", rng.normal(size=(3, 4))),
            ad.Parameter("b", rng.normal(size=(1, 4))),
        ]

    def test_linear_loss_passes_tightly(self):
        params = self._params(0)
        w, b = params

        def loss_fn():
            return ad.total_sum(ad.add(ad.scale(w.tensor, 2.0), ad.scale(b.tensor, -3.0)))

        report = ad.finite_difference_check(loss_fn, params, tolerance=1e-8)
        assert report.passed
        assert report.max_rel_error < 1e-10

    def test_composite_normalized_softmax_loss_passes(self):
        params = self._params(1)
        w, b = params
        x = ad.constant(np.random.default_rng(2).normal(size=(5, 3)))

        def loss_fn():
            h = ad.add(ad.matmul(x, w.tensor), b.tensor)
            e = ad.row_l2_normalize(ad.tanh(h))
            p = ad.softmax_rows(ad.matmul(e, ad.transpose(e)), tau=0.5)
            return ad.total_sum(ad.mul(p, ad.log(p)))

        report = ad.finite_difference_check(loss_fn, params, tolerance=1e-4)
        assert report.passed

    def test_detects_a_wrong_gradient(self):
        # A loss whose graph drops one dependency: analytic and numeric must disagree.
        p = ad.Parameter("w", [[1.0, 2.0]])

        def loss_fn():
            frozen = ad.constant(p.values * p.values)
            return ad.total_sum(ad.add(ad.mul(p.tensor, p.tensor), frozen))

        report = ad.finite_difference_check(loss_fn, [p], tolerance=1e-4)
        assert not report.passed

    def test_parameters_sharing_a_name_keep_their_own_gradients(self):
        # A name is a label: each parameter's analytic gradient is its own.
        rng = np.random.default_rng(3)
        a = ad.Parameter("w", rng.normal(size=(2, 3)))
        b = ad.Parameter("w", rng.normal(size=(2, 3)))

        def loss_fn():
            return ad.add(ad.total_sum(ad.mul(a.tensor, a.tensor)), ad.total_sum(ad.scale(b.tensor, 5.0)))

        report = ad.finite_difference_check(loss_fn, [a, b], tolerance=1e-8)
        assert report.passed
        assert report.max_rel_error < 1e-9

    def test_nondeterministic_loss_rejected(self):
        p = ad.Parameter("w", [[1.0]])
        counter = {"n": 0}

        def loss_fn():
            counter["n"] += 1
            return ad.total_sum(ad.scale(p.tensor, float(counter["n"])))

        with pytest.raises(RuntimeError, match="different values on identical parameters"):
            ad.finite_difference_check(loss_fn, [p])


def products_and_chain(a_values, b_values, cols, adjoint, backwards=1, interior=False):
    """Leaf gradients of gather_products and of the chain it replaces,
    gather_columns of matmul(a, transpose(b)), under one adjoint on the
    gathered columns, after `backwards` backward passes on one graph. With
    interior, a and b reach the op through a row_l2_normalize node."""
    results = []
    for op in ("products", "chain"):
        a = ad.Tensor(a_values.copy(), requires_grad=True)
        b = ad.Tensor(b_values.copy(), requires_grad=True)
        qa, qb = (ad.row_l2_normalize(a), ad.row_l2_normalize(b)) if interior else (a, b)
        if op == "products":
            out = ad.gather_products(qa, qb, qa.values @ qb.values.T, cols)
        else:
            out = ad.gather_columns(ad.matmul(qa, ad.transpose(qb)), cols)
        for _ in range(backwards):
            ad.backward(out, adjoint)
        results.append((out.values, a.grad, b.grad))
    return results


class TestGatherProducts:
    """gather_products against gather_columns∘matmul∘transpose, by bytes. A
    vjp that scatters the columns in reverse order fails the duplicate
    case, one that assigns the first column instead of adding it to 0.0
    fails the -0.0 case, and one that zero-fills its buffer only on its
    first call fails the twice-run case."""

    # Row 0 takes column 2 three times with adjoints 1, 1e-16 and -1, which
    # sum to 0.0 in index order and to 1.1e-16 in reverse order.
    COLS = np.array([[2, 2, 2, 0], [1, 3, 1, 4], [0, 0, 4, 4]])

    def adjoint(self):
        g = np.random.default_rng(5).normal(size=self.COLS.shape)
        g[0, :3] = 1.0, 1e-16, -1.0
        g[2] = -0.0
        return g

    @pytest.mark.parametrize("interior", [False, True])
    @pytest.mark.parametrize("backwards", [1, 2])
    def test_values_and_gradients_equal_the_chain_by_bytes(self, interior, backwards):
        rng = np.random.default_rng(6)
        a_values, b_values = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        got, want = products_and_chain(a_values, b_values, self.COLS, self.adjoint(), backwards, interior)
        for x, y in zip(got, want):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()

    def test_negative_zero_adjoints_are_added_to_zero_as_the_chain_does(self):
        # Row 2's adjoints are all -0.0: the buffer must hold the chain's dense
        # adjoint, np.add.at into zeros, where 0.0 + -0.0 reads 0.0.
        rng = np.random.default_rng(7)
        a, b = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True), ad.constant(rng.normal(size=(5, 4)))
        products = a.values @ b.values.T
        g = self.adjoint()
        ad.backward(ad.gather_products(a, b, products, self.COLS), g)
        dense = np.zeros((3, 5))
        np.add.at(dense, (np.arange(3)[:, None], self.COLS), g)
        assert not np.signbit(dense[2]).any()
        assert products.tobytes() == dense.tobytes()
        got, want = products_and_chain(a.values, b.values, self.COLS, g)
        for x, y in zip(got, want):
            assert x.tobytes() == y.tobytes()

    def test_a_constant_operand_gets_no_adjoint(self):
        rng = np.random.default_rng(9)
        a, b = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True), ad.constant(rng.normal(size=(5, 4)))
        ga, gb = ad.gather_products(a, b, a.values @ b.values.T, self.COLS)._vjp(self.adjoint())
        assert gb is None and ga.shape == (3, 4)

    def test_backward_overwrites_the_buffer_it_gathered_from(self):
        rng = np.random.default_rng(10)
        a, b = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True), ad.constant(rng.normal(size=(5, 4)))
        products = a.values @ b.values.T
        out = ad.gather_products(a, b, products, self.COLS)
        assert out.values.tobytes() == np.take_along_axis(a.values @ b.values.T, self.COLS, 1).tobytes()
        ad.backward(out, np.ones(self.COLS.shape))
        counts = np.zeros((3, 5))
        np.add.at(counts, (np.arange(3)[:, None], self.COLS), 1.0)
        assert products.tobytes() == counts.tobytes()


class TestAllocationCounter:
    def test_counter_tracks_tensor_lifetimes(self):
        before = ad.live_elements()
        t = ad.Tensor(np.zeros((10, 10)))
        assert ad.live_elements() == before + 100
        del t
        assert ad.live_elements() == before

    def test_peak_tracks_high_water_mark(self):
        ad.reset_peak_live_elements()
        base = ad.peak_live_elements()
        t = ad.Tensor(np.zeros((20, 20)))
        del t
        assert ad.peak_live_elements() >= base + 400
        ad.reset_peak_live_elements()
        assert ad.peak_live_elements() < base + 400
