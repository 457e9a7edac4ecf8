"""Stage-2 contrastive objective: InfoNCE over a query, its positive, and k
mined negatives, with the training loop that drives it, naive or through
the two-pass gradient cache.

The loss is computed in log space with max subtraction, so saturated batches
stay finite.  Negatives come from negatives.select_negatives in one of three
modes: hard (filter false negatives, then top-k by similarity), easy
(bottom-k), and random (uniform without replacement).  All modes duplicate
cyclically when fewer than k candidates are eligible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import negatives as ng
from . import optim
from .autodiff import Tensor
from .corpus import Corpus
from .encoder import Encoder, ItemRows, check_unit_rows
from .gradcache import CachePlan, ContrastiveObjective, cached_step
from .metrics import StepMetrics


@dataclass(frozen=True)
class ContrastiveTriple:
    """One query with its positive and a k x d block of negatives."""

    e_q: Tensor
    e_pos: Tensor
    e_neg: Tensor

    def __post_init__(self):
        if self.e_q.shape[0] != 1 or self.e_pos.shape[0] != 1:
            raise ValueError("e_q and e_pos must be single rows")
        dims = {self.e_q.shape[1], self.e_pos.shape[1], self.e_neg.shape[1]}
        if len(dims) != 1:
            raise ValueError(f"mismatched embedding widths {sorted(dims)}")
        if self.e_neg.shape[0] < 1:
            raise ValueError("at least one negative row required")
        check_unit_rows(self.e_q.values, "query row")
        check_unit_rows(self.e_pos.values, "positive row")
        check_unit_rows(self.e_neg.values, "negative row")


def infonce_hard_loss(triple: ContrastiveTriple, tau: float) -> Tensor:
    """-log of the positive's softmax weight among positive plus negatives:
    infonce_batch_loss of one query against the rows [e_pos; e_neg]."""
    sims = ad.matmul(triple.e_q, ad.transpose(ad.concat_rows([triple.e_pos, triple.e_neg])))
    return infonce_batch_loss(sims, [0], [np.arange(1, sims.shape[1])], tau)


def infonce_batch_loss(
    sims: Tensor,
    positives: np.ndarray | Sequence[int],
    negatives: np.ndarray | Sequence[Sequence[int]],
    tau: float,
) -> Tensor:
    """Mean per-query InfoNCE over a query-by-candidate similarity matrix.

    Row i's logits gather candidate columns [positives[i], *negatives[i]],
    negatives being n x k; duplicated negative indices contribute as many
    denominator terms as they appear, matching per-triple evaluation exactly.
    """
    n = sims.shape[0]
    if len(positives) != n or len(negatives) != n:
        raise ValueError(f"{len(positives)} positives and {len(negatives)} rows of negatives for {n} queries")
    cols = np.column_stack((positives, negatives))
    logits = ad.scale(ad.gather_columns(sims, cols), 1.0 / ad.check_tau(tau))
    per_query = ad.sub(ad.row_log_sum_exp(logits), ad.gather_columns(logits, np.zeros((n, 1), np.intp)))
    return ad.scale(ad.total_sum(per_query), 1.0 / n)


def _select_negatives(
    row: np.ndarray, pos: int, k: int, mode: str, beta: float, rng: np.random.Generator
) -> tuple[list[int], set[int], int]:
    """Pick k negative indices for one query; returns (picks, filtered, dup).

    The per-row reference for negatives.select_negatives, kept for tests;
    training never calls it.
    """
    ng.check_mode(mode)
    m = row.size
    if mode == "hard":
        alpha = ng.false_negative_threshold(float(row[pos]), beta)
        filtered = ng.filter_false_negatives(row, pos, alpha)
        picks = ng.sample_hard_negatives(row, pos, filtered, k)
        return picks, filtered, max(0, k - (m - 1 - len(filtered)))
    eligible = np.array([j for j in range(m) if j != pos])
    if eligible.size == 0:
        raise ng.NoEligibleNegativesError("no candidates besides the positive")
    if mode == "easy":
        ranked = eligible[np.lexsort((eligible, row[eligible]))]
    else:
        ranked = rng.permutation(eligible)
    reps = -(-k // ranked.size)
    return [int(j) for j in np.tile(ranked, reps)[:k]], set(), max(0, k - eligible.size)


def stage2_train(
    encoder: Encoder,
    corpus: Corpus,
    config: ng.MinerConfig,
    settings: optim.OptimizerSettings,
    steps: int,
    negative_mode: str = "hard",
    seed: int = 0,
    sub_batch: int | None = None,
) -> list[StepMetrics]:
    """Contrastive fine-tuning against the full candidate pool.

    Every step encodes all queries, in corpus pair order, plus every
    candidate item and descends the mean InfoNCE loss of the call's one
    ContrastiveObjective, which mines per-query negatives in the requested
    mode and scores the batch on both paths.  Without sub_batch the step
    encodes queries and candidates with recording and backpropagates once;
    with it, the step runs through the two-pass gradient cache over
    sub-batches of that many rows and mines once, on the pass-1 embeddings.
    Either way a step's graph is released before the next step encodes, so
    one step's graph is alive at a time.  Random-negative draws, the only
    use of seed, come from one generator in the same order on both paths,
    so they walk the same trajectory up to float round-off.  A mining
    error's "query i" is pair i.  The trace records the objective's
    selection rates and the pre-clip gradient norm.
    """
    ng.check_mode(negative_mode)
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    queries = corpus.queries()
    n, m = len(queries), len(corpus.items)
    # Queries, then every candidate, stacked once; every step encodes this block.
    rows = ItemRows.of(queries + corpus.items, encoder.config.input_dim)
    positives = np.array(corpus.positive_indices(), dtype=np.intp)
    # default_rng(rng) returns rng itself, so random-mode mining draws on from one stream.
    rng = np.random.default_rng(seed)
    objective = ContrastiveObjective(n, positives, config, mode=negative_mode, seed=rng)
    params = encoder.parameters()
    optimizer = optim.make_optimizer(settings, params)
    plan = None if sub_batch is None else CachePlan(effective_batch=n + m, sub_batch=min(sub_batch, n + m))
    trace: list[StepMetrics] = []
    for step in range(steps):
        try:
            if plan is None:
                batch_loss = objective.loss_between(
                    encoder.encode(rows[:n]).matrix, encoder.encode(rows[n:]).matrix
                )
                optim.zero_grads(params)
                ad.backward(batch_loss)
                loss = batch_loss.item()
                del batch_loss  # the graph's one root: free it before the next step encodes
            else:
                _, loss, _ = cached_step(encoder, rows, objective, plan)
            grad_norm = optim.clip_global_norm(params, settings.clip_norm)
            optimizer.step()
            optim.check_finite(params)
            trace.append(StepMetrics(step, loss, grad_norm, *objective.selection_rates))
        except ValueError as exc:
            raise ValueError(f"step {step}: {exc}") from None
    return trace
