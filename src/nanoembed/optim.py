"""Gradient-descent optimizers and global-norm gradient clipping."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import Parameter
from .fields import check_types

# Adam's moment decay rates and denominator floor.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class OptimizerSettings:
    """What a training stage needs to know about its update rule."""

    kind: str = "adam"
    learning_rate: float = 1e-2
    clip_norm: float = 1.0

    def __post_init__(self):
        check_types(self)
        if self.kind not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.clip_norm <= 0.0:
            raise ValueError(f"clip_norm must be finite and > 0, got {self.clip_norm}")


def _buffers(store: dict[str, list[np.ndarray]], p: Parameter, count: int) -> list[np.ndarray]:
    """The count per-parameter arrays an optimizer keeps in store, zeroed on first use."""
    if p.name not in store:
        store[p.name] = [np.zeros_like(p.grad) for _ in range(count)]
    return store[p.name]


class Sgd:
    """Plain gradient descent."""

    def __init__(self, learning_rate: float):
        self.learning_rate = float(learning_rate)
        self._scaled: dict[str, list[np.ndarray]] = {}

    def step(self, params: Sequence[Parameter]) -> None:
        with np.errstate(over="ignore", invalid="ignore"):  # see check_finite
            for p in params:
                if p.grad is not None:
                    (scaled,) = _buffers(self._scaled, p, 1)
                    p.tensor.values -= np.multiply(self.learning_rate, p.grad, out=scaled)


class Adam:
    """Adam with bias correction; state is keyed by parameter name.

    Each parameter keeps its two moments and two work buffers, and every
    step writes into them with out=, in the order of
    lr * m_hat / (sqrt(v_hat) + eps): the same values, bit for bit, without
    a temporary per operation.
    """

    def __init__(self, learning_rate: float):
        self.learning_rate = float(learning_rate)
        self._state: dict[str, list[np.ndarray]] = {}
        self._t = 0

    def step(self, params: Sequence[Parameter]) -> None:
        self._t += 1
        with np.errstate(over="ignore", invalid="ignore"):  # see check_finite
            for p in params:
                if p.grad is None:
                    continue
                g = p.grad
                m, v, a, b = _buffers(self._state, p, 4)
                m *= _BETA1
                m += np.multiply(1.0 - _BETA1, g, out=a)
                v *= _BETA2
                np.multiply(1.0 - _BETA2, g, out=a)
                v += np.multiply(a, g, out=a)
                np.divide(m, 1.0 - _BETA1**self._t, out=a)
                np.multiply(self.learning_rate, a, out=a)
                np.divide(v, 1.0 - _BETA2**self._t, out=b)
                np.sqrt(b, out=b)
                b += _EPS
                p.tensor.values -= np.divide(a, b, out=a)


def make_optimizer(settings: OptimizerSettings):
    if settings.kind == "adam":
        return Adam(settings.learning_rate)
    return Sgd(settings.learning_rate)


def check_finite(params: Sequence[Parameter]) -> None:
    """Raise ValueError naming the first parameter that an update left
    non-finite; the update itself overflows without a warning."""
    for p in params:
        if not np.isfinite(p.values).all():
            raise ValueError(f"the update left non-finite weights in {p.name}")


def zero_grads(params: Sequence[Parameter]) -> None:
    for p in params:
        p.zero_grad()


def global_grad_norm(params: Sequence[Parameter]) -> float:
    """L2 norm over all parameter gradients; absent gradients count as zero.

    A gradient too large to square reads as an inf norm, without a warning,
    so the caller's finiteness check is the one report of the divergence.
    """
    total = 0.0
    with np.errstate(over="ignore"):
        for p in params:
            if p.grad is not None:
                total += float((p.grad * p.grad).sum())
    return float(np.sqrt(total))


def clip_global_norm(params: Sequence[Parameter], max_norm: float) -> float:
    """Scale gradients so their global norm is at most max_norm.

    Returns the norm measured before any scaling.
    """
    norm = global_grad_norm(params)
    if norm > max_norm:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.tensor.grad = p.grad * factor
    return norm
