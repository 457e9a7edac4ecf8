"""Reverse-mode automatic differentiation over dense float64 matrices.

Every tensor is a 2-D array. Operations build an acyclic graph of
``Tensor`` nodes; :func:`backward` walks the graph in reverse topological
order and accumulates an adjoint into every node that requires one. The
primitive set is deliberately small: just enough to express normalized
embeddings, temperature-scaled similarity distributions, and log-space
contrastive losses.

Gradients are accumulators. ``backward`` adds into ``Tensor.grad`` and
never resets it; callers zero gradients explicitly between steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Vjp = Callable[[np.ndarray], tuple]

_NORM_FLOOR = 1e-12


class ZeroRowError(ValueError):
    """A row with near-zero norm cannot be L2-normalized."""


class NonPositiveTemperatureError(ValueError):
    """Softmax-family temperature must be strictly positive."""


class NonScalarLossError(ValueError):
    """backward() requires a 1x1 loss tensor."""


class NonDeterministicLossError(RuntimeError):
    """A loss function returned different values on identical parameters."""


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
    row. ``grad`` stays ``None`` until a backward pass deposits an adjoint.
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
            raise NonScalarLossError(f"item() needs a 1x1 tensor, got {self.shape}")
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


def _binary_shapes(a: Tensor, b: Tensor, op: str) -> bool:
    """True when b is a broadcast row vector; raises on any other mismatch."""
    if a.shape == b.shape:
        return False
    if b.shape == (1, a.shape[1]):
        return True
    raise ValueError(f"{op}: shapes {a.shape} and {b.shape} are incompatible")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; the second operand may be a 1 x cols row vector."""
    row = _binary_shapes(a, b, "add")

    def vjp(g):
        return (g, g.sum(axis=0, keepdims=True) if row else g)

    return _from_op(a.values + b.values, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise difference; the second operand may be a row vector."""
    row = _binary_shapes(a, b, "sub")

    def vjp(g):
        return (g, -g.sum(axis=0, keepdims=True) if row else -g)

    return _from_op(a.values - b.values, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; the second operand may be a row vector."""
    row = _binary_shapes(a, b, "mul")
    a_values, b_values = a.values, b.values

    def vjp(g):
        gb = g * a_values
        return (g * b_values, gb.sum(axis=0, keepdims=True) if row else gb)

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
        return (g @ b_values.T, a_values.T @ g)

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

    Raises ZeroRowError if any row norm falls below 1e-12.
    """
    norms = np.sqrt((a.values * a.values).sum(axis=1, keepdims=True))
    if np.any(norms < _NORM_FLOOR):
        bad = int(np.argmax(norms < _NORM_FLOOR))
        raise ZeroRowError(f"row {bad} has norm below {_NORM_FLOOR}")
    out_values = a.values / norms

    def vjp(g):
        dot = (g * out_values).sum(axis=1, keepdims=True)
        return ((g - out_values * dot) / norms,)

    return _from_op(out_values, (a,), vjp)


def check_tau(tau: float) -> float:
    """tau as a float; raises NonPositiveTemperatureError unless it is > 0."""
    tau = float(tau)
    if not tau > 0.0:
        raise NonPositiveTemperatureError(f"temperature must be > 0, got {tau}")
    return tau


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


def gather_columns(a: Tensor, cols) -> Tensor:
    """Pick per-row columns: out[i, j] = a[i, cols[i, j]].

    Duplicate indices are allowed; their adjoints accumulate on backward.
    """
    idx = np.asarray(cols, dtype=np.int64)
    if idx.ndim != 2 or idx.shape[0] != a.shape[0]:
        raise ValueError(f"gather_columns: index shape {idx.shape} does not match {a.shape[0]} rows")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[1]):
        raise IndexError(f"gather_columns: index out of range for {a.shape[1]} columns")
    rows = np.broadcast_to(np.arange(a.shape[0])[:, None], idx.shape)
    shape = a.shape

    def vjp(g):
        ga = np.zeros(shape)
        np.add.at(ga, (rows, idx), g)
        return (ga,)

    return _from_op(a.values[rows, idx], (a,), vjp)


def gather_rows(a: Tensor, rows) -> Tensor:
    """Pick whole rows: out[i] = a[rows[i]].

    Duplicate indices are allowed; their adjoints accumulate on backward.
    """
    idx = np.asarray(rows, dtype=np.int64)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError(f"gather_rows: need a nonempty 1-D index list, got shape {idx.shape}")
    if idx.min() < 0 or idx.max() >= a.shape[0]:
        raise IndexError(f"gather_rows: index out of range for {a.shape[0]} rows")
    shape = a.shape

    def vjp(g):
        ga = np.zeros(shape)
        np.add.at(ga, idx, g)
        return (ga,)

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


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(node) into every graph node requiring gradients.

    Each call deposits exactly one adjoint per node; repeated calls without
    an explicit reset are additive.
    """
    if loss.shape != (1, 1):
        raise NonScalarLossError(f"loss must be 1x1, got shape {loss.shape}")
    order = _topo_order(loss)
    adjoint: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
    for node in reversed(order):
        g = adjoint.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g.copy() if node.grad is None else node.grad + g
        if node._vjp is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            pid = id(parent)
            prev = adjoint.get(pid)
            adjoint[pid] = pg if prev is None else prev + pg


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of a finite-difference gradient check."""

    per_param: dict[str, float]
    max_rel_error: float
    step: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def finite_difference_check(
    loss_fn: Callable[[], Tensor],
    params: Sequence[Parameter],
    step: float = 1e-5,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    ``loss_fn`` must rebuild the loss graph from the current parameter
    values on every call and be deterministic; two evaluations that
    disagree bit-for-bit raise NonDeterministicLossError. The relative
    error for one element is |ga - gf| / (|ga| + |gf| + 1e-12).
    """
    step = float(step)
    first = loss_fn()
    if first.shape != (1, 1):
        raise NonScalarLossError(f"loss must be 1x1, got shape {first.shape}")
    second = loss_fn()
    if not np.array_equal(first.values, second.values):
        raise NonDeterministicLossError("loss_fn returned different values on identical parameters")

    for p in params:
        p.zero_grad()
    backward(loss_fn())
    analytic = {p.name: (np.zeros_like(p.values) if p.grad is None else p.grad.copy()) for p in params}

    per_param: dict[str, float] = {}
    for p in params:
        values = p.tensor.values
        fd = np.zeros_like(values)
        flat = values.reshape(-1)
        fd_flat = fd.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            plus = loss_fn().item()
            flat[i] = original - step
            minus = loss_fn().item()
            flat[i] = original
            fd_flat[i] = (plus - minus) / (2.0 * step)
        ga = analytic[p.name]
        rel = np.abs(ga - fd) / (np.abs(ga) + np.abs(fd) + 1e-12)
        per_param[p.name] = float(rel.max()) if rel.size else 0.0

    worst = max(per_param.values()) if per_param else 0.0
    return GradCheckReport(per_param=per_param, max_rel_error=worst, step=step, tolerance=float(tolerance))
