"""Gradient-descent optimizers and global-norm gradient clipping."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .autodiff import Parameter

# Adam's moment decay rates and denominator floor.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class OptimizerSettings:
    """What a training stage needs to know about its update rule."""

    kind: str = "adam"
    learning_rate: float = 1e-2
    clip_norm: float = 1.0

    def __post_init__(self):
        if self.kind not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not self.clip_norm > 0.0:
            raise ValueError(f"clip_norm must be > 0, got {self.clip_norm}")


class Sgd:
    """Plain gradient descent."""

    def __init__(self, learning_rate: float):
        self.learning_rate = float(learning_rate)

    def step(self, params: Sequence[Parameter]) -> None:
        for p in params:
            if p.grad is not None:
                p.tensor.values -= self.learning_rate * p.grad


class Adam:
    """Adam with bias correction; state is keyed by parameter name."""

    def __init__(self, learning_rate: float):
        self.learning_rate = float(learning_rate)
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0

    def step(self, params: Sequence[Parameter]) -> None:
        self._t += 1
        for p in params:
            if p.grad is None:
                continue
            g = p.grad
            m = self._m.setdefault(p.name, np.zeros_like(g))
            v = self._v.setdefault(p.name, np.zeros_like(g))
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * g * g
            m_hat = m / (1.0 - _BETA1**self._t)
            v_hat = v / (1.0 - _BETA2**self._t)
            p.tensor.values -= self.learning_rate * m_hat / (np.sqrt(v_hat) + _EPS)


def make_optimizer(settings: OptimizerSettings):
    if settings.kind == "adam":
        return Adam(settings.learning_rate)
    return Sgd(settings.learning_rate)


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
