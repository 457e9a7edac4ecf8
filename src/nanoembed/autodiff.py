"""Reverse-mode automatic differentiation over dense float64 matrices.

Every tensor is a 2-D array. Operations build an acyclic graph of
``Tensor`` nodes; :func:`backward` walks the graph in reverse topological
order, passing each node's adjoint on to its parents. Only leaves that
require gradients (parameters, and explicit ``requires_grad=True`` inputs)
keep theirs in ``Tensor.grad``; interior nodes never hold one. The
primitive set is deliberately small: just enough to express normalized
embeddings, temperature-scaled similarity distributions, and log-space
contrastive losses.

Gradients are accumulators. ``backward`` adds into a leaf's ``grad`` and
never resets it; callers zero gradients explicitly between steps.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fields import is_number

Vjp = Callable[[np.ndarray], tuple]

# Smallest row norm that may divide a row to unit length.
NORM_FLOOR = 1e-12


# Live-allocation accounting. The gradient-cache tests use this to show
# that sub-batched backprop keeps fewer activation elements alive than a
# full-batch graph.
_live_elements = 0
_peak_live_elements = 0


def _count_alloc(size: int) -> None:
    global _live_elements, _peak_live_elements
    _live_elements += size
    if _live_elements > _peak_live_elements:
        _peak_live_elements = _live_elements


def _count_free(size: int) -> None:
    global _live_elements
    _live_elements -= size


def live_elements() -> int:
    """Total float64 elements held by tensors currently alive."""
    return _live_elements


def peak_live_elements() -> int:
    """High-water mark of :func:`live_elements` since the last reset."""
    return _peak_live_elements


def reset_peak_live_elements() -> None:
    global _peak_live_elements
    _peak_live_elements = _live_elements


class Tensor:
    """A (rows, cols) float64 array, optionally part of the gradient graph.

    The shape is fixed at construction. 1-D input is promoted to a single
    row. ``grad`` stays ``None`` until a backward pass deposits an adjoint,
    which it does on leaves only.
    """

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_vjp", "_size")

    def __init__(
        self,
        values,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        vjp: Vjp | None = None,
    ):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ValueError(f"tensors are 2-D matrices, got shape {arr.shape}")
        self.values = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._vjp = vjp
        self._size = arr.size
        _count_alloc(self._size)

    def __del__(self):
        size = getattr(self, "_size", None)
        if size is not None:
            _count_free(size)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def item(self) -> float:
        if self.values.shape != (1, 1):
            raise ValueError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.values[0, 0])

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def constant(values) -> Tensor:
    """A tensor outside the gradient graph."""
    return Tensor(values)


class Parameter:
    """A named tensor that records gradients."""

    __slots__ = ("name", "tensor")

    def __init__(self, name: str, values):
        self.name = name
        self.tensor = Tensor(np.array(values, dtype=np.float64), requires_grad=True)

    @property
    def values(self) -> np.ndarray:
        return self.tensor.values

    @property
    def grad(self) -> np.ndarray | None:
        return self.tensor.grad

    def zero_grad(self) -> None:
        self.tensor.grad = None

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


def _from_op(values: np.ndarray, parents: tuple[Tensor, ...], vjp: Vjp) -> Tensor:
    if any(p.requires_grad for p in parents):
        return Tensor(values, requires_grad=True, parents=parents, vjp=vjp)
    return Tensor(values)


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: shapes {a.shape} and {b.shape} are incompatible")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; the second operand may be a 1 x cols row vector."""
    row = a.shape != b.shape and b.shape == (1, a.shape[1])
    if not row:
        _same_shape(a, b, "add")

    def vjp(g):
        return (g, g.sum(axis=0, keepdims=True) if row else g)

    return _from_op(a.values + b.values, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise difference of two same-shape tensors."""
    _same_shape(a, b, "sub")

    def vjp(g):
        return (g, -g)

    return _from_op(a.values - b.values, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two same-shape tensors."""
    _same_shape(a, b, "mul")
    a_values, b_values = a.values, b.values

    def vjp(g):
        return (g * b_values, g * a_values)

    return _from_op(a_values * b_values, (a, b), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply every element by a Python scalar."""
    s = float(s)

    def vjp(g):
        return (g * s,)

    return _from_op(a.values * s, (a,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    a_values, b_values = a.values, b.values

    def vjp(g):
        return (g @ b_values.T if a.requires_grad else None, a_values.T @ g if b.requires_grad else None)

    return _from_op(a_values @ b_values, (a, b), vjp)


def transpose(a: Tensor) -> Tensor:
    def vjp(g):
        return (g.T,)

    return _from_op(a.values.T, (a,), vjp)


def exp(a: Tensor) -> Tensor:
    out_values = np.exp(a.values)

    def vjp(g):
        return (g * out_values,)

    return _from_op(out_values, (a,), vjp)


def log(a: Tensor) -> Tensor:
    a_values = a.values

    def vjp(g):
        return (g / a_values,)

    return _from_op(np.log(a_values), (a,), vjp)


def tanh(a: Tensor) -> Tensor:
    out_values = np.tanh(a.values)

    def vjp(g):
        return (g * (1.0 - out_values * out_values),)

    return _from_op(out_values, (a,), vjp)


def row_sum(a: Tensor) -> Tensor:
    """Sum each row to a single column: (n, m) -> (n, 1)."""
    shape = a.shape

    def vjp(g):
        return (np.broadcast_to(g, shape),)

    return _from_op(a.values.sum(axis=1, keepdims=True), (a,), vjp)


def total_sum(a: Tensor) -> Tensor:
    """Sum all elements to a 1 x 1 scalar tensor."""
    shape = a.shape

    def vjp(g):
        return (np.full(shape, g[0, 0]),)

    return _from_op(np.array([[a.values.sum()]]), (a,), vjp)


def row_l2_normalize(a: Tensor) -> Tensor:
    """Scale each row to unit L2 norm.

    Raises ValueError if any row norm falls below NORM_FLOOR.
    """
    norms = np.sqrt((a.values * a.values).sum(axis=1, keepdims=True))
    if np.any(norms < NORM_FLOOR):
        bad = int(np.argmax(norms < NORM_FLOOR))
        raise ValueError(f"row {bad} has norm below {NORM_FLOOR}")
    out_values = a.values / norms

    def vjp(g):
        dot = (g * out_values).sum(axis=1, keepdims=True)
        return ((g - out_values * dot) / norms,)

    return _from_op(out_values, (a,), vjp)


def check_tau(tau: float) -> float:
    """tau as a float; raises ValueError unless it is a finite number > 0
    whose cosine logits, spanning [-1/tau, 1/tau], differ by a finite 2/tau."""
    if not (is_number(tau) and tau > 0.0 and 2.0 / float(tau) <= sys.float_info.max):
        raise ValueError(f"tau must be finite and > 0, with 2 / tau finite, got {tau!r}")
    return float(tau)


def softmax_rows(a: Tensor, tau: float = 1.0) -> Tensor:
    """Row-wise softmax of a / tau, stabilized by row-max subtraction."""
    tau = check_tau(tau)
    z = a.values / tau
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        inner = (g * p).sum(axis=1, keepdims=True)
        return (p * (g - inner) / tau,)

    return _from_op(p, (a,), vjp)


def log_softmax_rows(a: Tensor, tau: float = 1.0) -> Tensor:
    """Row-wise log-softmax of a / tau, stabilized by row-max subtraction."""
    tau = check_tau(tau)
    z = a.values / tau
    m = z.max(axis=1, keepdims=True)
    shifted = z - m
    ls = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    p = np.exp(ls)

    def vjp(g):
        return ((g - p * g.sum(axis=1, keepdims=True)) / tau,)

    return _from_op(ls, (a,), vjp)


def row_log_sum_exp(a: Tensor) -> Tensor:
    """log(sum(exp(row))) per row: (n, m) -> (n, 1), max-stabilized."""
    a_values = a.values
    m = a_values.max(axis=1, keepdims=True)
    out_values = m + np.log(np.exp(a_values - m).sum(axis=1, keepdims=True))

    def vjp(g):
        return (g * np.exp(a_values - out_values),)

    return _from_op(out_values, (a,), vjp)


def index_array(values, name: str) -> np.ndarray:
    """values as an int64 array; raises ValueError, naming it, unless its
    dtype is an integer one. A float or bool would otherwise index silently
    (2.7 picks 2, True picks 1); an empty index of any dtype stays legal."""
    idx = np.asarray(values)
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, got dtype {idx.dtype}")
    return idx.astype(np.int64, copy=False)


def _scatter_add(flat: np.ndarray, g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """np.add.at of g (C order) into np.zeros(shape) at flat indices, with the
    same bits: bincount also adds in index order starting from 0.0."""
    out = np.bincount(flat, weights=g.ravel(), minlength=shape[0] * shape[1])
    return out.astype(np.float64, copy=False).reshape(shape)  # an empty flat counts in ints


def gather_columns(a: Tensor, cols) -> Tensor:
    """Pick per-row columns: out[i, j] = a[i, cols[i, j]].

    Duplicate indices are allowed; their adjoints accumulate on backward.
    """
    idx = index_array(cols, "gather_columns: cols")
    if idx.ndim != 2 or idx.shape[0] != a.shape[0]:
        raise ValueError(f"gather_columns: index shape {idx.shape} does not match {a.shape[0]} rows")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[1]):
        raise IndexError(f"gather_columns: index out of range for {a.shape[1]} columns")
    rows = np.broadcast_to(np.arange(a.shape[0])[:, None], idx.shape)
    shape = a.shape

    def vjp(g):
        return (_scatter_add((rows * shape[1] + idx).ravel(), g, shape),)

    return _from_op(a.values[rows, idx], (a,), vjp)


def gather_rows(a: Tensor, rows) -> Tensor:
    """Pick whole rows: out[i] = a[rows[i]].

    Duplicate indices are allowed; their adjoints accumulate on backward.
    """
    idx = index_array(rows, "gather_rows: rows")
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError(f"gather_rows: need a nonempty 1-D index list, got shape {idx.shape}")
    if idx.min() < 0 or idx.max() >= a.shape[0]:
        raise IndexError(f"gather_rows: index out of range for {a.shape[0]} rows")
    shape = a.shape

    def vjp(g):
        return (_scatter_add((idx[:, None] * shape[1] + np.arange(shape[1])).ravel(), g, shape),)

    return _from_op(a.values[idx], (a,), vjp)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack tensors vertically; all must share a column count."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("concat_rows: need at least one tensor")
    cols = parts[0].shape[1]
    for p in parts:
        if p.shape[1] != cols:
            raise ValueError(f"concat_rows: column counts differ, {p.shape[1]} vs {cols}")
    sizes = [p.shape[0] for p in parts]

    def vjp(g):
        out, offset = [], 0
        for s in sizes:
            out.append(g[offset : offset + s])
            offset += s
        return tuple(out)

    return _from_op(np.vstack([p.values for p in parts]), parts, vjp)


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    return order


def backward(root: Tensor, seed: np.ndarray | None = None) -> None:
    """Accumulate d(loss)/d(leaf) into every leaf requiring gradients.

    A 1x1 loss root starts with adjoint 1. A seed of the root's shape starts
    it with d(loss)/d(root) for a loss computed elsewhere, as the gradient
    cache's pass 2 does. A leaf is a node without a vjp. Each call deposits
    exactly one adjoint per leaf, and repeated calls without an explicit
    reset are additive. Interior nodes and a constant root get no ``grad``.
    """
    if seed is None and root.shape != (1, 1):
        raise ValueError(f"loss must be 1x1, got shape {root.shape}")
    if seed is not None and seed.shape != root.shape:
        raise ValueError(f"seed shape {seed.shape} != root shape {root.shape}")
    order = _topo_order(root)
    adjoint: dict[int, np.ndarray] = {id(root): np.ones((1, 1)) if seed is None else seed}
    for node in reversed(order):
        g = adjoint.pop(id(node), None)
        if g is None or not node.requires_grad:
            continue
        if node._vjp is None:
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            pid = id(parent)
            prev = adjoint.get(pid)
            adjoint[pid] = pg if prev is None else prev + pg


_FD_STEP = 1e-5


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of a finite-difference gradient check."""

    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def finite_difference_check(
    loss_fn: Callable[[], Tensor],
    params: Sequence[Parameter],
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` must rebuild the loss graph from the current parameter
    values on every call and be deterministic; two evaluations that
    disagree bit-for-bit raise RuntimeError. The relative
    error for one element is |ga - gf| / (|ga| + |gf| + 1e-12).
    """
    first = loss_fn()
    if first.shape != (1, 1):
        raise ValueError(f"loss must be 1x1, got shape {first.shape}")
    second = loss_fn()
    if not np.array_equal(first.values, second.values):
        raise RuntimeError("loss_fn returned different values on identical parameters")

    for p in params:
        p.zero_grad()
    backward(loss_fn())
    analytic = [np.zeros_like(p.values) if p.grad is None else p.grad.copy() for p in params]

    errors = []
    for p, ga in zip(params, analytic):
        values = p.tensor.values
        fd = np.zeros_like(values)
        flat = values.reshape(-1)
        fd_flat = fd.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + _FD_STEP
            plus = loss_fn().item()
            flat[i] = original - _FD_STEP
            minus = loss_fn().item()
            flat[i] = original
            fd_flat[i] = (plus - minus) / (2.0 * _FD_STEP)
        rel = np.abs(ga - fd) / (np.abs(ga) + np.abs(fd) + 1e-12)
        errors.append(float(rel.max()) if rel.size else 0.0)
    return GradCheckReport(max_rel_error=max(errors, default=0.0), tolerance=float(tolerance))
