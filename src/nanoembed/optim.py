"""Gradient-descent optimizers and global-norm gradient clipping."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import Parameter
from .fields import check_types, is_int

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


def check_steps(steps, name: str = "steps") -> None:
    """Raise ValueError unless steps is an int, not a bool, and at least 0."""
    if not is_int(steps) or steps < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {steps!r}")


class Sgd:
    """Plain gradient descent over the parameters it is built for."""

    def __init__(self, learning_rate: float, params: Sequence[Parameter]):
        self.learning_rate = float(learning_rate)
        self._params = list(params)
        self._scaled = [np.zeros_like(p.values) for p in self._params]

    def step(self) -> None:
        with np.errstate(over="ignore", invalid="ignore"):  # see check_finite
            for p, scaled in zip(self._params, self._scaled):
                if p.grad is not None:
                    p.tensor.values -= np.multiply(self.learning_rate, p.grad, out=scaled)


class Adam:
    """Adam with bias correction over the parameters it is built for.

    Each parameter keeps its two moments and two work buffers, allocated
    once and held by position, and every step writes into them with out=,
    in the order of lr * m_hat / (sqrt(v_hat) + eps): the same values, bit
    for bit, without a temporary per operation.
    """

    def __init__(self, learning_rate: float, params: Sequence[Parameter]):
        self.learning_rate = float(learning_rate)
        self._params = list(params)
        self._state = [[np.zeros_like(p.values) for _ in range(4)] for p in self._params]
        self._t = 0

    def step(self) -> None:
        self._t += 1
        with np.errstate(over="ignore", invalid="ignore"):  # see check_finite
            for p, (m, v, a, b) in zip(self._params, self._state):
                if p.grad is None:
                    continue
                g = p.grad
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


def make_optimizer(settings: OptimizerSettings, params: Sequence[Parameter]):
    if settings.kind == "adam":
        return Adam(settings.learning_rate, params)
    return Sgd(settings.learning_rate, params)


def check_finite(params: Sequence[Parameter]) -> None:
    """Raise ValueError naming the first parameter that an update left
    non-finite; the update itself overflows without a warning."""
    for p in params:
        if not np.isfinite(p.values).all():
            raise ValueError(f"the update left non-finite weights in {p.name}")


def zero_grads(params: Sequence[Parameter]) -> None:
    for p in params:
        p.zero_grad()


def clip_global_norm(params: Sequence[Parameter], max_norm: float) -> float:
    """Scale gradients so their global norm is at most max_norm; absent
    gradients count as zero.

    Returns the norm measured before any scaling. A gradient too large to
    square reads as an inf norm, without a warning, so the caller's
    finiteness check is the one report of the divergence.
    """
    total = 0.0
    with np.errstate(over="ignore"):
        for p in params:
            if p.grad is not None:
                total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        factor = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.tensor.grad = p.grad * factor
    return norm
