"""Stage-1 distillation: align a student's in-batch similarity distribution
to a frozen teacher's by forward KL divergence.

Each batch member induces a softmax distribution over every batch member
(itself included) from cosine similarities at temperature tau.  The loss sums
row-wise KL(student || teacher); the teacher side is detached, so gradients
reach student parameters only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import optim
from .autodiff import Tensor
from .corpus import Corpus
from .encoder import EmbeddingBatch, Encoder, ItemRows, TeacherEncoder
from .fields import check_types
from .metrics import StepMetrics


@dataclass(frozen=True)
class DistillConfig:
    """Stage-1 knobs: softmax temperature and mini-batch size."""

    tau: float = 0.05
    batch_size: int = 64

    def __post_init__(self):
        check_types(self)
        ad.check_tau(self.tau)
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")


def _self_similarities(matrix: Tensor) -> Tensor:
    return ad.matmul(matrix, ad.transpose(matrix))


def kl_distillation_loss(e_s: EmbeddingBatch, e_t: EmbeddingBatch, tau: float) -> Tensor:
    """Sum over rows of KL(student distribution || teacher distribution).

    Nonnegative; zero when the two similarity matrices agree.  The teacher
    matrix is re-wrapped as a constant, so no gradient can reach it even if
    the caller passes a recording batch.
    """
    if len(e_s) != len(e_t):
        raise ValueError(f"student batch has {len(e_s)} rows, teacher {len(e_t)}")
    student_sims = _self_similarities(e_s.matrix)
    teacher_sims = _self_similarities(ad.constant(e_t.values))
    p_student = ad.softmax_rows(student_sims, tau)
    log_gap = ad.sub(ad.log_softmax_rows(student_sims, tau), ad.log_softmax_rows(teacher_sims, tau))
    return ad.total_sum(ad.mul(p_student, log_gap))


def stage1_train(
    encoder: Encoder,
    corpus: Corpus,
    teacher: TeacherEncoder,
    config: DistillConfig,
    settings: optim.OptimizerSettings,
    steps: int,
    seed: int = 0,
) -> list[StepMetrics]:
    """Seeded mini-batch descent on the distillation loss over text items.

    Batches are drawn without replacement per step, so the pool must hold at
    least two items.  Returns the per-step trace; the encoder is updated in
    place and the teacher never changes.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    pool = corpus.text_items()
    if len(pool) < 2:
        raise ValueError(f"need at least 2 text items to distill, found {len(pool)}")
    batch_size = min(config.batch_size, len(pool))
    rows = ItemRows.of(pool, encoder.config.input_dim)
    rng = np.random.default_rng(seed)
    params = encoder.parameters()
    optimizer = optim.make_optimizer(settings, params)
    trace: list[StepMetrics] = []
    for step in range(steps):
        batch = rows[rng.choice(len(pool), size=batch_size, replace=False)]
        try:
            student = encoder.encode(batch)
            frozen = teacher.encode(batch)
            loss = kl_distillation_loss(student, frozen, config.tau)
            optim.zero_grads(params)
            ad.backward(loss)
            grad_norm = optim.clip_global_norm(params, settings.clip_norm)
            optimizer.step()
            optim.check_finite(params)
            trace.append(StepMetrics(step=step, loss=loss.item(), grad_norm=grad_norm))
        except ValueError as exc:
            raise ValueError(f"step {step}: {exc}") from None
    return trace
