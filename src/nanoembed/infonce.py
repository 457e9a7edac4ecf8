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

import numpy as np

from . import autodiff as ad
from . import negatives as ng
from . import optim
from .autodiff import Tensor
from .corpus import Corpus
from .encoder import Encoder, NonUnitRowError
from .gradcache import CachePlan, ContrastiveObjective, cached_step
from .metrics import StepMetrics
from .negatives import NEGATIVE_MODES, ModeUnknownError  # re-exported


def _unit_rows(values: np.ndarray, label: str) -> None:
    norms = np.linalg.norm(values, axis=1)
    if norms.size and np.abs(norms - 1.0).max() > 1e-10:
        raise NonUnitRowError(f"{label} rows must be unit-norm within 1e-10")


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
        _unit_rows(self.e_q.values, "query")
        _unit_rows(self.e_pos.values, "positive")
        _unit_rows(self.e_neg.values, "negative")

    @property
    def k(self) -> int:
        return self.e_neg.shape[0]


def infonce_hard_loss(triple: ContrastiveTriple, tau: float) -> Tensor:
    """-log of the positive's softmax weight among positive plus negatives."""
    candidates = ad.concat_rows([triple.e_pos, triple.e_neg])
    logits = ad.scale(ad.matmul(triple.e_q, ad.transpose(candidates)), 1.0 / ad.check_tau(tau))
    return ad.sub(ad.row_log_sum_exp(logits), ad.gather_columns(logits, [[0]]))


def infonce_batch_loss(
    queries: Tensor,
    candidates: Tensor,
    positives: list[int],
    negatives: list[list[int]],
    tau: float,
) -> Tensor:
    """Mean per-query InfoNCE where rows index queries and columns candidates.

    Row i's logits gather candidate columns [positives[i], *negatives[i]];
    duplicated negative indices contribute as many denominator terms as they
    appear, matching per-triple evaluation exactly.
    """
    n = queries.shape[0]
    if len(positives) != n or len(negatives) != n:
        raise ValueError(f"{len(positives)} positives / {len(negatives)} negative lists for {n} queries")
    widths = {len(lst) for lst in negatives}
    if len(widths) != 1:
        raise ValueError(f"negative lists must share one length, got {sorted(widths)}")
    sims = ad.matmul(queries, ad.transpose(candidates))
    cols = np.column_stack((positives, negatives))
    logits = ad.scale(ad.gather_columns(sims, cols), 1.0 / ad.check_tau(tau))
    per_query = ad.sub(ad.row_log_sum_exp(logits), ad.gather_columns(logits, [[0]] * n))
    return ad.scale(ad.total_sum(per_query), 1.0 / n)


def _select_negatives(
    row: np.ndarray, pos: int, k: int, mode: str, beta: float, rng: np.random.Generator
) -> tuple[list[int], set[int], int]:
    """Pick k negative indices for one query; returns (picks, filtered, dup).

    The per-row reference for negatives.select_negatives, kept for tests;
    training never calls it.
    """
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
    elif mode == "random":
        ranked = rng.permutation(eligible)
    else:
        raise ModeUnknownError(f"negative_mode must be one of {NEGATIVE_MODES}, got {mode!r}")
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

    Every step encodes a seeded permutation of all queries plus every
    candidate item, mines per-query negatives in the requested mode, and
    descends the mean InfoNCE loss.  With sub_batch set, each step runs
    through the two-pass gradient cache over sub-batches of that many rows
    and mines once, on the pass-1 embeddings.  Batch and random-negative
    draws come from one generator in the same order on both paths, so they
    walk the same trajectory up to float round-off.  The trace records the
    pre-clip gradient norm.
    """
    if negative_mode not in NEGATIVE_MODES:
        raise ModeUnknownError(f"negative_mode must be one of {NEGATIVE_MODES}, got {negative_mode!r}")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    pairs = corpus.pairs
    if not pairs:
        raise ValueError("corpus has no query/positive pairs")
    rng = np.random.default_rng(seed)
    params = encoder.parameters()
    optimizer = optim.make_optimizer(settings)
    trace: list[StepMetrics] = []
    for step in range(steps):
        picks = rng.choice(len(pairs), size=len(pairs), replace=False)
        batch_pairs = [pairs[int(i)] for i in picks]
        queries = [p.query for p in batch_pairs]
        positives = [corpus.item_index(p.positive_id) for p in batch_pairs]
        if sub_batch is None:
            query_batch = encoder.encode(queries)
            candidate_batch = encoder.encode(corpus.items)
            sims = query_batch.values @ candidate_batch.values.T
            negatives, filtered, dup = ng.select_negatives(
                sims, positives, config.k, negative_mode, config.beta, rng
            )
            rates = ng.selection_rates(filtered, dup)
            batch_loss = infonce_batch_loss(
                query_batch.matrix, candidate_batch.matrix, positives, negatives, config.tau
            )
            optim.zero_grads(params)
            ad.backward(batch_loss)
            loss = batch_loss.item()
        else:
            # default_rng(rng) returns rng itself, so mining draws from the loop's stream.
            objective = ContrastiveObjective(
                n_queries=len(queries), positives=tuple(positives), config=config,
                mode=negative_mode, seed=rng,
            )
            items = queries + list(corpus.items)
            plan = CachePlan(effective_batch=len(items), sub_batch=min(sub_batch, len(items)))
            _, loss, _ = cached_step(encoder, items, objective, plan)
            rates = objective.selection_rates
        grad_norm = optim.clip_global_norm(params, settings.clip_norm)
        optimizer.step(params)
        trace.append(
            StepMetrics(
                step=step,
                loss=loss,
                grad_norm=grad_norm,
                false_neg_pct=rates[0],
                duplication_rate=rates[1],
            )
        )
    return trace
