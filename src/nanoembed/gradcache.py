"""Two-pass gradient caching: full-batch contrastive gradients at
sub-batch activation cost.

Pass 1 encodes every sub-batch without recording, assembling the complete
embedding matrix as a single leaf.  The loss (and any negative mining) runs
on that leaf, and one backward call yields d(loss)/d(embeddings).  Pass 2
re-encodes each sub-batch with recording and backpropagates the cached
embedding gradient slice into the parameters; summing slice contributions
reproduces the naive full-batch gradient because encoding is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from . import autodiff as ad
from . import infonce as nce
from . import negatives as ng
from .autodiff import Tensor
from .distill import KL_NUMERATORS, kl_distillation_loss
from .encoder import EmbeddingBatch, Encoder, ItemRecord


class PlanMismatchError(ValueError):
    """A cache plan does not partition the batch it is applied to."""


@dataclass(frozen=True)
class CachePlan:
    """Partition of an effective batch into contiguous sub-batches."""

    effective_batch: int
    sub_batch: int

    def __post_init__(self):
        if self.effective_batch < 1:
            raise ValueError(f"effective_batch must be >= 1, got {self.effective_batch}")
        if not 1 <= self.sub_batch <= self.effective_batch:
            raise ValueError(
                f"sub_batch must be in [1, {self.effective_batch}], got {self.sub_batch}"
            )

    @property
    def ranges(self) -> list[tuple[int, int]]:
        starts = range(0, self.effective_batch, self.sub_batch)
        return [(a, min(a + self.sub_batch, self.effective_batch)) for a in starts]


class Objective(Protocol):
    def loss_on(self, emb: EmbeddingBatch) -> Tensor: ...


@dataclass(frozen=True)
class DistillObjective:
    """KL alignment of the batch to fixed teacher embeddings, row for row."""

    teacher: EmbeddingBatch
    tau: float = 0.05
    numerator: str = "pairwise"

    def __post_init__(self):
        if self.numerator not in KL_NUMERATORS:
            raise ValueError(f"numerator must be one of {KL_NUMERATORS}, got {self.numerator!r}")

    def loss_on(self, emb: EmbeddingBatch) -> Tensor:
        if emb.ids != self.teacher.ids:
            raise ValueError("embedding batch ids do not match the teacher's")
        return kl_distillation_loss(emb, self.teacher, self.tau, self.numerator)


@dataclass(frozen=True)
class ContrastiveObjective:
    """InfoNCE over a batch laid out as n_queries query rows then candidates.

    Negative selection runs on plain embedding values, outside the graph, so
    the naive and cached paths mine from the same numbers.
    """

    n_queries: int
    positives: tuple[int, ...]
    config: ng.MinerConfig
    mode: str = "hard"
    seed: int = 0

    def __post_init__(self):
        if self.n_queries < 1:
            raise ValueError(f"n_queries must be >= 1, got {self.n_queries}")
        if len(self.positives) != self.n_queries:
            raise ValueError(f"{len(self.positives)} positives for {self.n_queries} queries")
        if self.mode not in ng.NEGATIVE_MODES:
            raise ng.ModeUnknownError(f"mode must be one of {ng.NEGATIVE_MODES}, got {self.mode!r}")

    def _split(self, total_rows: int) -> int:
        n_candidates = total_rows - self.n_queries
        if n_candidates < 1:
            raise ValueError(f"batch of {total_rows} rows leaves no candidates after {self.n_queries} queries")
        for pos in self.positives:
            if not 0 <= pos < n_candidates:
                raise IndexError(f"positive index {pos} out of range for {n_candidates} candidates")
        return n_candidates

    def mine(self, values: np.ndarray) -> list[list[int]]:
        """Per-query negative candidate indices, deterministic given values."""
        self._split(values.shape[0])
        queries, candidates = values[: self.n_queries], values[self.n_queries :]
        rng = np.random.default_rng(self.seed)
        negatives, _, _ = ng.select_negatives(
            queries @ candidates.T, self.positives, self.config.k, self.mode, self.config.beta, rng
        )
        return negatives.tolist()

    def loss_on(self, emb: EmbeddingBatch) -> Tensor:
        n_candidates = self._split(len(emb))
        negative_lists = self.mine(emb.values)
        query_rows = ad.gather_rows(emb.matrix, list(range(self.n_queries)))
        candidate_rows = ad.gather_rows(
            emb.matrix, list(range(self.n_queries, self.n_queries + n_candidates))
        )
        return nce.infonce_batch_loss(
            query_rows, candidate_rows, list(self.positives), negative_lists, self.config.tau
        )


@dataclass
class CacheStats:
    """Bookkeeping from one cached step, for memory assertions."""

    loss: float
    embedding_values: np.ndarray
    pass2_live_start: int = 0
    pass2_peak: int = 0

    @property
    def pass2_overhead(self) -> int:
        return self.pass2_peak - self.pass2_live_start


def naive_step(encoder: Encoder, items: Sequence[ItemRecord], objective: Objective) -> tuple[dict[str, np.ndarray], float]:
    """Single-pass reference: encode everything with recording, backward once."""
    params = encoder.parameters()
    emb = encoder.encode(items)
    loss = objective.loss_on(emb)
    for p in params:
        p.zero_grad()
    ad.backward(loss)
    grads = {p.name: p.grad.copy() for p in params if p.grad is not None}
    return grads, loss.item()


def cached_step(
    encoder: Encoder,
    items: Sequence[ItemRecord],
    objective: Objective,
    plan: CachePlan,
) -> tuple[dict[str, np.ndarray], float, CacheStats]:
    """Two-pass step whose gradients match naive_step on the same inputs."""
    items = list(items)
    if plan.effective_batch != len(items):
        raise PlanMismatchError(f"plan covers {plan.effective_batch} items, batch has {len(items)}")
    params = encoder.parameters()

    blocks = [encoder.encode(items[a:b], record=False) for a, b in plan.ranges]
    full_values = np.vstack([block.values for block in blocks])
    ids = [i for block in blocks for i in block.ids]
    del blocks
    leaf = ad.Tensor(full_values, requires_grad=True)
    emb = EmbeddingBatch(ids, leaf)

    loss = objective.loss_on(emb)
    ad.backward(loss)
    loss_value = loss.item()
    embedding_grad = leaf.grad.copy()
    del loss, emb, leaf  # drop the loss graph before measuring pass-2 memory

    for p in params:
        p.zero_grad()
    stats = CacheStats(loss=loss_value, embedding_values=full_values)
    ad.reset_peak_live_elements()
    stats.pass2_live_start = ad.live_elements()
    for a, b in plan.ranges:
        sub = encoder.encode(items[a:b])
        pseudo = ad.total_sum(ad.mul(sub.matrix, ad.constant(embedding_grad[a:b])))
        ad.backward(pseudo)
    stats.pass2_peak = ad.peak_live_elements()
    grads = {p.name: p.grad.copy() for p in params if p.grad is not None}
    return grads, loss_value, stats
