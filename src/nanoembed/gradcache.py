"""Two-pass gradient caching: full-batch contrastive gradients at
sub-batch activation cost.

Pass 1 encodes every sub-batch without recording, assembling the complete
embedding matrix as a single leaf.  The loss (and any negative mining) runs
on that leaf, and one backward call yields d(loss)/d(embeddings).  Pass 2
re-encodes each sub-batch with recording and backpropagates the cached
embedding gradient slice, as the seed of ``backward``, into the parameters;
summing slice contributions reproduces the naive full-batch gradient
because encoding is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from . import autodiff as ad
from . import negatives as ng
from . import optim
from .autodiff import Tensor
from .distill import kl_distillation_loss
from .encoder import EmbeddingBatch, Encoder, ItemRecord, ItemRows
from .fields import check_types


@dataclass(frozen=True)
class CachePlan:
    """Partition of an effective batch into contiguous sub-batches."""

    effective_batch: int
    sub_batch: int

    def __post_init__(self):
        check_types(self)
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

    def loss_on(self, emb: EmbeddingBatch) -> Tensor:
        if emb.ids != self.teacher.ids:
            raise ValueError("embedding batch ids do not match the teacher's")
        return kl_distillation_loss(emb, self.teacher, self.tau)


@dataclass(eq=False)
class ContrastiveObjective:
    """InfoNCE of query rows against candidate rows: the one scoring rule of
    a stage-2 step, naive or cached.

    loss_between builds the query-by-candidate similarity matrix once, mines
    negatives on its plain values, outside the graph, and gathers the loss
    from it; loss_on does the same for a batch laid out as n_queries query
    rows then the candidates.  seed is an int (each mine starts a fresh
    generator) or a Generator (each mine draws on from it).  selection_rates
    holds the FalseNeg% and duplication rate of the latest mine.
    """

    n_queries: int
    positives: np.ndarray | Sequence[int]
    config: ng.MinerConfig
    mode: str = "hard"
    seed: int | np.random.Generator = 0
    selection_rates: tuple[float, float] | None = field(default=None, init=False)

    def __post_init__(self):
        if self.n_queries < 1:
            raise ValueError(f"n_queries must be >= 1, got {self.n_queries}")
        if len(self.positives) != self.n_queries:
            raise ValueError(f"{len(self.positives)} positives for {self.n_queries} queries")
        ng.check_mode(self.mode)

    def mine(self, sims: Tensor) -> np.ndarray:
        """The (n_queries, k) negative candidate indices, deterministic given sims.values."""
        rng = np.random.default_rng(self.seed)
        negatives, filtered, dup = ng.select_negatives(
            sims.values, self.positives, self.config.k, self.mode, self.config.beta, rng
        )
        self.selection_rates = ng.selection_rates(filtered, dup)
        return negatives

    def loss_between(self, queries: Tensor, candidates: Tensor) -> Tensor:
        from . import infonce as nce  # imported here because infonce imports this module

        sims = ad.matmul(queries, ad.transpose(candidates))
        return nce.infonce_batch_loss(sims, self.positives, self.mine(sims), self.config.tau)

    def loss_on(self, emb: EmbeddingBatch) -> Tensor:
        n, total = self.n_queries, len(emb)
        if total <= n:
            raise ValueError(f"batch of {total} rows leaves no candidates after {n} queries")
        return self.loss_between(
            ad.gather_rows(emb.matrix, np.arange(n)), ad.gather_rows(emb.matrix, np.arange(n, total))
        )


@dataclass
class CacheStats:
    """Bookkeeping from one cached step, for memory assertions."""

    embedding_values: np.ndarray
    pass2_live_start: int
    pass2_peak: int

    @property
    def pass2_overhead(self) -> int:
        return self.pass2_peak - self.pass2_live_start


def naive_step(
    encoder: Encoder, items: Sequence[ItemRecord] | ItemRows, objective: Objective
) -> tuple[dict[str, np.ndarray], float]:
    """Single-pass reference: encode everything with recording, backward once."""
    params = encoder.parameters()
    emb = encoder.encode(items)
    loss = objective.loss_on(emb)
    optim.zero_grads(params)
    ad.backward(loss)
    grads = {p.name: p.grad.copy() for p in params if p.grad is not None}
    return grads, loss.item()


def cached_step(
    encoder: Encoder,
    items: Sequence[ItemRecord] | ItemRows,
    objective: Objective,
    plan: CachePlan,
) -> tuple[dict[str, np.ndarray], float, CacheStats]:
    """Two-pass step whose gradients match naive_step on the same inputs."""
    if plan.effective_batch != len(items):
        raise ValueError(f"plan covers {plan.effective_batch} items, batch has {len(items)}")
    rows = items if isinstance(items, ItemRows) else ItemRows.of(items, encoder.config.input_dim)
    params = encoder.parameters()

    # The one EmbeddingBatch on the assembled leaf checks ids and norms for
    # both passes: pass 2 runs the same forward pass on the same rows.
    values = rows.values
    full_values = np.vstack([encoder._embed(values[a:b], record=False).values for a, b in plan.ranges])
    leaf = ad.Tensor(full_values, requires_grad=True)
    loss = objective.loss_on(EmbeddingBatch(rows.ids, leaf))
    ad.backward(loss)
    loss_value = loss.item()
    embedding_grad = leaf.grad
    del loss, leaf  # drop the loss graph before measuring pass-2 memory

    optim.zero_grads(params)
    ad.reset_peak_live_elements()
    live_start = ad.live_elements()
    for a, b in plan.ranges:
        ad.backward(encoder._embed(values[a:b], record=True), embedding_grad[a:b])
    stats = CacheStats(full_values, live_start, ad.peak_live_elements())
    grads = {p.name: p.grad.copy() for p in params if p.grad is not None}
    return grads, loss_value, stats
