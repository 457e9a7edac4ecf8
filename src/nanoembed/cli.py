"""Operator surface: one JSON config file, five subcommands.

Each command is a pure function of (config, seed): rerunning with the same
inputs rewrites byte-identical traces, reports, tables, and checkpoints.
Wall-clock timestamps live only in the run_info.json sidecar.  No
environment variable is read; the --seed and --out flags override the
config's seed and output directory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import infonce as nce
from . import negatives as ng
from . import optim
from .atomic import atomic_open
from .corpus import Corpus, CorpusSpec, generate, read_corpus
from .distill import DistillConfig, stage1_train
from .encoder import (
    Encoder,
    EncoderConfig,
    TeacherEncoder,
    load_checkpoint,
    save_checkpoint,
)
from .fields import is_int
from .metrics import StepMetrics, write_trace
from .retrieval import evaluate_checkpoint

# Desk-scale defaults; a config file only has to name what it changes.
_ENCODER_DEFAULTS = {"hidden_dim": 64, "embed_dim": 32}
_GRADCACHE_DEFAULTS = {"enabled": False, "sub_batch": 8}
_DEFAULT_STEPS = 1000
# glibc mallopt parameters (malloc.h) and the values main sets them to.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_THRESHOLD_BYTES = 128 << 20
_MMAP_THRESHOLD_BYTES = 32 << 20  # glibc's largest on 64-bit
_SECTIONS = (
    "corpus",
    "encoder",
    "teacher",
    "distill",
    "miner",
    "optimizer",
    "gradcache",
    "sweep",
    "seed",
    "output_dir",
)


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, resolved and validated at load time.

    corpus is generator settings or a corpus file path; a path is checked
    to name an existing file when the config loads, not when the corpus is
    first read.
    gradcache_sub_batch is None unless the gradient cache is enabled.
    sweep is the swept name ('beta' or 'k') and one miner per swept value.
    """

    corpus: CorpusSpec | Path
    encoder: EncoderConfig
    teacher: TeacherEncoder
    distill: DistillConfig
    miner: ng.MinerConfig
    optimizer: optim.OptimizerSettings
    steps: int
    gradcache_sub_batch: int | None
    sweep: tuple[str, tuple[ng.MinerConfig, ...]] | None
    seed: int
    output_dir: Path

    def load_corpus(self) -> Corpus:
        if isinstance(self.corpus, Path):
            return read_corpus(self.corpus)
        return generate(self.corpus)


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name, {})
    if not isinstance(value, dict):
        raise ValueError(f"config section {name!r} must be an object, got {type(value).__name__}")
    return dict(value)


def _build(section: str, factory, kwargs: dict):
    """factory(**kwargs) with JSON lists as tuples; its errors name the section."""
    kwargs = {name: tuple(v) if isinstance(v, list) else v for name, v in kwargs.items()}
    try:
        return factory(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad {section!r} config: {exc}") from None


def _load_sweep(raw: dict, miner_raw: dict) -> tuple[str, tuple[ng.MinerConfig, ...]] | None:
    if "sweep" not in raw or raw["sweep"] is None:
        return None
    sweep = raw["sweep"]
    if not isinstance(sweep, dict) or len(sweep) != 1:
        raise ValueError("sweep must be an object with exactly one of 'beta' or 'k'")
    (name, values), = sweep.items()
    if name not in ("beta", "k"):
        raise ValueError(f"sweep parameter must be 'beta' or 'k', got {name!r}")
    if not isinstance(values, list) or not values:
        raise ValueError(f"sweep over {name!r} needs a nonempty list of values")
    # Every swept miner must be valid before ablate trains the first one.
    return name, tuple(_build("sweep", ng.MinerConfig, {**miner_raw, name: v}) for v in values)


def load_config(
    path: str | Path,
    seed_override: int | None = None,
    out_override: str | None = None,
) -> RunConfig:
    """Read and validate a JSON run config, applying flag overrides."""
    path = Path(path)
    if not path.exists():
        raise ValueError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"config file {path} is not valid UTF-8: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"config root must be an object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(_SECTIONS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")

    seed = raw.get("seed", 0)
    if seed_override is not None:
        seed = seed_override
    if not is_int(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")

    output_dir = raw.get("output_dir", "runs")
    if not isinstance(output_dir, str):
        raise ValueError(f"output_dir must be a string, got {output_dir!r}")
    if out_override is not None:
        output_dir = out_override
    # The first artifact write makes the directory; a file in its way must
    # stop the command before it trains, not after.
    output_dir = Path(output_dir)
    existing = next(p for p in (output_dir, *output_dir.parents) if p.exists())
    if not existing.is_dir():
        raise ValueError(f"output_dir {output_dir}: {existing} is not a directory")

    corpus_raw = _section(raw, "corpus")
    if "path" in corpus_raw:
        extras = sorted(set(corpus_raw) - {"path"})
        if extras:
            raise ValueError(f"corpus path cannot be combined with spec fields: {', '.join(extras)}")
        if not isinstance(corpus_raw["path"], str):
            raise ValueError(f"corpus path must be a string, got {corpus_raw['path']!r}")
        corpus = Path(corpus_raw["path"])
        if not corpus.exists():
            raise ValueError(f"corpus path not found: {corpus}")
        if not corpus.is_file():
            raise ValueError(f"corpus path is not a file: {corpus}")
    else:
        corpus = _build("corpus", CorpusSpec, corpus_raw)

    encoder_raw = {**_ENCODER_DEFAULTS, **_section(raw, "encoder")}
    if "input_dim" not in encoder_raw:
        if isinstance(corpus, Path):
            raise ValueError("encoder input_dim is required when the corpus comes from a path")
        encoder_raw["input_dim"] = corpus.input_dim
    encoder_raw.setdefault("seed", seed)
    encoder = _build("encoder", EncoderConfig, encoder_raw)
    if isinstance(corpus, CorpusSpec) and corpus.input_dim != encoder.input_dim:
        raise ValueError(f"encoder input_dim {encoder.input_dim} != corpus input_dim {corpus.input_dim}")

    teacher_raw = _section(raw, "teacher")
    # offset_scale goes to TeacherEncoder, which holds its only default; the
    # teacher shares the student's architecture unless told otherwise, but
    # never its seed: an identical teacher makes distillation a no-op.
    offset = {"offset_scale": teacher_raw.pop("offset_scale")} if "offset_scale" in teacher_raw else {}
    teacher_defaults = {
        "input_dim": encoder.input_dim,
        "hidden_dim": encoder.hidden_dim,
        "embed_dim": encoder.embed_dim,
        "depth": encoder.depth,
        "seed": seed + 1000,
    }
    teacher_config = _build("teacher", EncoderConfig, {**teacher_defaults, **teacher_raw})
    if teacher_config.input_dim != encoder.input_dim:
        raise ValueError(f"teacher input_dim {teacher_config.input_dim} != encoder input_dim {encoder.input_dim}")
    teacher = _build("teacher", TeacherEncoder, {"config": teacher_config, **offset})

    distill = _build("distill", DistillConfig, _section(raw, "distill"))
    miner_raw = _section(raw, "miner")
    miner = _build("miner", ng.MinerConfig, miner_raw)

    optimizer_raw = _section(raw, "optimizer")
    steps = optimizer_raw.pop("steps", _DEFAULT_STEPS)
    if not is_int(steps) or steps < 0:
        raise ValueError(f"optimizer steps must be a nonnegative integer, got {steps!r}")
    optimizer = _build("optimizer", optim.OptimizerSettings, optimizer_raw)

    gradcache_raw = {**_GRADCACHE_DEFAULTS, **_section(raw, "gradcache")}
    extras = sorted(set(gradcache_raw) - set(_GRADCACHE_DEFAULTS))
    if extras:
        raise ValueError(f"unknown gradcache keys: {', '.join(extras)}")
    enabled, sub_batch = gradcache_raw["enabled"], gradcache_raw["sub_batch"]
    if not isinstance(enabled, bool):
        raise ValueError(f"gradcache enabled must be true or false, got {enabled!r}")
    if not is_int(sub_batch) or sub_batch < 1:
        raise ValueError(f"gradcache sub_batch must be a positive integer, got {sub_batch!r}")

    return RunConfig(
        corpus=corpus,
        encoder=encoder,
        teacher=teacher,
        distill=distill,
        miner=miner,
        optimizer=optimizer,
        steps=steps,
        gradcache_sub_batch=sub_batch if enabled else None,
        sweep=_load_sweep(raw, miner_raw),
        seed=seed,
        output_dir=output_dir,
    )


def _mining_corpus(cfg: RunConfig, ks: list[int]) -> Corpus:
    """The corpus, once no k the command mines with exceeds its candidates.

    The library cycles through the pool when k is larger, but it builds
    n x k arrays, so a k far past the pool would exhaust memory.
    """
    corpus = cfg.load_corpus()
    m = len(corpus.items)
    for k in ks:
        if k > m:
            raise ValueError(f"miner k={k} exceeds the corpus's {m} candidate items")
    return corpus


def _starting_encoder(cfg: RunConfig, checkpoint: str | None) -> Encoder:
    if checkpoint is None:
        return Encoder(cfg.encoder)
    checkpoint_path = Path(checkpoint)
    if not checkpoint_path.exists():
        raise ValueError(f"checkpoint not found: {checkpoint_path}")
    return load_checkpoint(checkpoint_path)


# Kept only because bench/tracer.py resolves it by name; training no longer calls it.
def _mining_stats(
    sims: np.ndarray, positives: list[int], miner: ng.MinerConfig, mode: str
) -> tuple[float, float]:
    """FalseNeg% and duplication rate for one batch, any negative mode."""
    rng = np.random.default_rng(0)  # random picks never enter the stats
    _, filtered, dup = ng.select_negatives(sims, positives, miner.k, mode, miner.beta, rng)
    return ng.selection_rates(filtered, dup)


# A separate function only so that bench/tracer.py can time the cached path by name.
def _stage2_cached(
    encoder: Encoder,
    corpus: Corpus,
    miner: ng.MinerConfig,
    settings: optim.OptimizerSettings,
    steps: int,
    mode: str,
    seed: int,
    sub_batch: int,
) -> list[StepMetrics]:
    """Stage 2 through the gradient cache: infonce.stage2_train with sub_batch set."""
    return nce.stage2_train(
        encoder, corpus, miner, settings, steps, negative_mode=mode, seed=seed, sub_batch=sub_batch
    )


def _fine_tune(
    cfg: RunConfig, checkpoint: str | None, corpus: Corpus, miner: ng.MinerConfig, mode: str
) -> tuple[Encoder, list[StepMetrics]]:
    """One stage-2 run from the starting encoder, through the gradient cache when it is on."""
    encoder = _starting_encoder(cfg, checkpoint)
    if cfg.gradcache_sub_batch is None:
        trace = nce.stage2_train(
            encoder, corpus, miner, cfg.optimizer, cfg.steps, negative_mode=mode, seed=cfg.seed
        )
    else:
        trace = _stage2_cached(
            encoder, corpus, miner, cfg.optimizer, cfg.steps, mode, cfg.seed, cfg.gradcache_sub_batch
        )
    return encoder, trace


def _write_report(out_dir: Path, encoder: Encoder, corpus: Corpus) -> str:
    ks = (1, 5) if len(corpus.items) >= 5 else (1,)
    report = evaluate_checkpoint(encoder, corpus, ks=ks)
    with atomic_open(out_dir / "report.json", "wb") as handle:
        report.write_json(handle)
        handle.write(b"\n")
    return "report.json"


def cmd_stage1(cfg: RunConfig, args: argparse.Namespace) -> list[str]:
    corpus = cfg.load_corpus()
    encoder = Encoder(cfg.encoder)
    trace = stage1_train(
        encoder, corpus, cfg.teacher, cfg.distill, cfg.optimizer, cfg.steps, seed=cfg.seed
    )
    write_trace(cfg.output_dir / "trace.jsonl", trace)
    save_checkpoint(cfg.output_dir / "checkpoint.bin", encoder)
    return ["trace.jsonl", "checkpoint.bin"]


def cmd_stage2(cfg: RunConfig, args: argparse.Namespace) -> list[str]:
    corpus = _mining_corpus(cfg, [cfg.miner.k])
    encoder, trace = _fine_tune(cfg, args.checkpoint, corpus, cfg.miner, args.mode)
    write_trace(cfg.output_dir / "trace.jsonl", trace)
    save_checkpoint(cfg.output_dir / "checkpoint.bin", encoder)
    return ["trace.jsonl", "checkpoint.bin"]


def cmd_eval(cfg: RunConfig, args: argparse.Namespace) -> list[str]:
    corpus = cfg.load_corpus()
    encoder = _starting_encoder(cfg, args.checkpoint)
    return [_write_report(cfg.output_dir, encoder, corpus)]


def cmd_ablate(cfg: RunConfig, args: argparse.Namespace) -> list[str]:
    if cfg.sweep is None:
        raise ValueError("ablate needs a 'sweep' section with 'beta' or 'k' values")
    name, miners = cfg.sweep
    corpus = _mining_corpus(cfg, [m.k for m in miners])

    # Filter and sampling rates are measured on the fixed starting encoder;
    # precision@1 comes from a fresh short run per sweep value.
    base = _starting_encoder(cfg, args.checkpoint)
    query_batch = base.encode(corpus.queries(), record=False)
    candidate_batch = base.encode(corpus.items, record=False)
    positives = corpus.positive_indices()

    pct_column = "false_neg_pct" if name == "beta" else "hard_neg_pct"
    lines = [f"{name},{pct_column},precision_at_1"]
    for miner in miners:
        _, stats = ng.mine_batch(query_batch, candidate_batch, positives, miner)
        if name == "beta":
            value, pct = float(miner.beta), stats.false_neg_pct
        else:
            value, pct = miner.k, stats.hard_neg_pct
        encoder, _ = _fine_tune(cfg, args.checkpoint, corpus, miner, "hard")
        report = evaluate_checkpoint(encoder, corpus, ks=(1,))
        lines.append(f"{value!r},{pct!r},{report.precision_at[1]!r}")
    with atomic_open(cfg.output_dir / "ablation.csv") as handle:
        handle.write("\n".join(lines) + "\n")
    return ["ablation.csv"]


def cmd_tracegrad(cfg: RunConfig, args: argparse.Namespace) -> list[str]:
    corpus = _mining_corpus(cfg, [cfg.miner.k])
    outputs = []
    for mode in ng.NEGATIVE_MODES:
        _, trace = _fine_tune(cfg, args.checkpoint, corpus, cfg.miner, mode)
        filename = f"trace_{mode}.jsonl"
        write_trace(cfg.output_dir / filename, trace)
        outputs.append(filename)
    return outputs


COMMAND_TABLE = {
    "stage1": (cmd_stage1, "distill the frozen teacher's similarity structure into a fresh encoder"),
    "stage2": (cmd_stage2, "contrastive fine-tuning with mined negatives"),
    "eval": (cmd_eval, "score a checkpoint on the corpus retrieval task"),
    "ablate": (cmd_ablate, "sweep beta or k, tabulating filter rates and precision@1"),
    "tracegrad": (cmd_tracegrad, "run all three negative modes and dump per-mode traces"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nanoembed",
        description="Two-stage contrastive embedding trainer and evaluator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line) in COMMAND_TABLE.items():
        cmd = sub.add_parser(name, help=help_line)
        cmd.add_argument("--config", required=True, help="path to the JSON run config")
        cmd.add_argument("--out", default=None, help="output directory override")
        cmd.add_argument("--seed", type=int, default=None, help="seed override")
        if name != "stage1":
            cmd.add_argument("--checkpoint", default=None, help="starting checkpoint")
        if name == "stage2":
            cmd.add_argument(
                "--mode",
                default="hard",
                choices=ng.NEGATIVE_MODES,
                help="negative sampling mode",
            )
    return parser


def _keep_heap() -> None:
    """Keep freed blocks of up to 32 MiB in glibc's heap for reuse.

    A stage-2 step allocates and frees several n x m arrays above glibc's
    default 128 KB mmap threshold. glibc hands each back to the kernel and
    the next step faults it in again; raising only one of the two
    thresholds leaves those faults in place. The values an array holds do
    not depend on where it lives. Without glibc's mallopt this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)


def main(argv: list[str] | None = None) -> int:
    """Run one command; 0 on success, 2 with one error: line on bad input.

    The output directory is made by the first artifact write, so an input
    that fails to load leaves none behind. main first sets glibc's malloc
    thresholds for the whole process (_keep_heap); run in-process, as
    under pytest, that setting outlives the call.
    """
    _keep_heap()
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
        outputs = COMMAND_TABLE[args.command][0](cfg, args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finished = time.time()
    stamp = "%Y-%m-%dT%H:%M:%SZ"
    info = {
        "command": args.command,
        "outputs": sorted(outputs),
        "started_at": time.strftime(stamp, time.gmtime(started)),
        "finished_at": time.strftime(stamp, time.gmtime(finished)),
    }
    with atomic_open(cfg.output_dir / "run_info.json") as handle:
        handle.write(json.dumps(info, indent=2, sort_keys=True) + "\n")
    for filename in outputs:
        print(cfg.output_dir / filename)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
