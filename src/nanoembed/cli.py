"""Operator surface: one JSON config file, five subcommands.

Each command is a pure function of (config, seed): rerunning with the same
inputs rewrites byte-identical traces, reports, tables, and checkpoints.
Wall-clock timestamps live only in the run_info.json sidecar.  No
environment variable is read; the --seed and --out flags override the
config's seed and output directory.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, fields, replace
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
from .metrics import StepMetrics, write_trace
from .retrieval import evaluate_checkpoint

# Desk-scale defaults; a config file only has to name what it changes.
_ENCODER_DEFAULTS = {"hidden_dim": 64, "embed_dim": 32}
_GRADCACHE_DEFAULTS = {"enabled": False, "sub_batch": 8}
_DEFAULT_STEPS = 1000
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


class ConfigError(ValueError):
    """Raised when the run configuration is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, resolved and validated at load time.

    Exactly one of corpus_spec and corpus_path is set; a path is checked
    for existence when the config loads, not when the corpus is first read.
    gradcache_sub_batch is None unless the gradient cache is enabled.
    """

    corpus_spec: CorpusSpec | None
    corpus_path: Path | None
    encoder: EncoderConfig
    teacher: EncoderConfig
    teacher_offset_scale: float
    distill: DistillConfig
    miner: ng.MinerConfig
    optimizer: optim.OptimizerSettings
    steps: int
    gradcache_sub_batch: int | None
    sweep: dict[str, list[float]] | None
    seed: int
    output_dir: Path

    def load_corpus(self) -> Corpus:
        if self.corpus_path is not None:
            return read_corpus(self.corpus_path)
        return generate(self.corpus_spec)


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be an object, got {type(value).__name__}")
    return dict(value)


def _is_int(value) -> bool:
    """A JSON integer: 2.0 and true are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A JSON number a float holds finitely: true, "3", NaN, Infinity and
    integers beyond the float range are not."""
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


# What a config field must hold in JSON, by its dataclass annotation.
_FIELD_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a finite number"),
    "tuple[int, int]": (
        lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_int, v)),
        "a list of two integers",
    ),
    "dict[str, float]": (
        lambda v: isinstance(v, dict) and all(map(_is_number, v.values())),
        "an object of finite numbers",
    ),
}


def _build(section: str, factory, kwargs: dict):
    """factory(**kwargs) once every annotated field holds its JSON type;
    JSON lists become tuples."""
    for f in fields(factory):
        if f.name in kwargs and f.type in _FIELD_TYPES:
            check, what = _FIELD_TYPES[f.type]
            if not check(kwargs[f.name]):
                raise ConfigError(f"bad {section!r} config: {f.name} must be {what}, got {kwargs[f.name]!r}")
    kwargs = {name: tuple(v) if isinstance(v, list) else v for name, v in kwargs.items()}
    try:
        return factory(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {section!r} config: {exc}") from None


def _load_sweep(raw: dict, miner_raw: dict) -> dict[str, list[float]] | None:
    if "sweep" not in raw or raw["sweep"] is None:
        return None
    sweep = raw["sweep"]
    if not isinstance(sweep, dict) or len(sweep) != 1:
        raise ConfigError("sweep must be an object with exactly one of 'beta' or 'k'")
    (name, values), = sweep.items()
    if name not in ("beta", "k"):
        raise ConfigError(f"sweep parameter must be 'beta' or 'k', got {name!r}")
    if not isinstance(values, list) or not values:
        raise ConfigError(f"sweep over {name!r} needs a nonempty list of values")
    # Every swept miner must be valid before ablate trains the first one.
    for value in values:
        _build("sweep", ng.MinerConfig, {**miner_raw, name: value})
    if name == "k":
        return {name: values}
    return {name: [float(v) for v in values]}


def load_config(
    path: str | Path,
    seed_override: int | None = None,
    out_override: str | None = None,
) -> RunConfig:
    """Read and validate a JSON run config, applying flag overrides."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(_SECTIONS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    seed = raw.get("seed", 0)
    if seed_override is not None:
        seed = seed_override
    if not _is_int(seed):
        raise ConfigError(f"seed must be an integer, got {seed!r}")

    output_dir = raw.get("output_dir", "runs")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a string, got {output_dir!r}")
    if out_override is not None:
        output_dir = out_override

    corpus_raw = _section(raw, "corpus")
    corpus_spec: CorpusSpec | None = None
    corpus_path: Path | None = None
    if "path" in corpus_raw:
        extras = sorted(set(corpus_raw) - {"path"})
        if extras:
            raise ConfigError(f"corpus path cannot be combined with spec fields: {', '.join(extras)}")
        if not isinstance(corpus_raw["path"], str):
            raise ConfigError(f"corpus path must be a string, got {corpus_raw['path']!r}")
        corpus_path = Path(corpus_raw["path"])
        if not corpus_path.exists():
            raise ConfigError(f"corpus path not found: {corpus_path}")
    else:
        corpus_spec = _build("corpus", CorpusSpec, corpus_raw)

    encoder_raw = {**_ENCODER_DEFAULTS, **_section(raw, "encoder")}
    if "input_dim" not in encoder_raw:
        if corpus_spec is None:
            raise ConfigError("encoder input_dim is required when the corpus comes from a path")
        encoder_raw["input_dim"] = corpus_spec.input_dim
    encoder_raw.setdefault("seed", seed)
    encoder = _build("encoder", EncoderConfig, encoder_raw)
    if corpus_spec is not None and corpus_spec.input_dim != encoder.input_dim:
        raise ConfigError(
            f"encoder input_dim {encoder.input_dim} != corpus input_dim {corpus_spec.input_dim}"
        )

    teacher_raw = _section(raw, "teacher")
    offset_scale = teacher_raw.pop("offset_scale", 3.0)
    if not _is_number(offset_scale):
        raise ConfigError(f"teacher offset_scale must be a finite number, got {offset_scale!r}")
    offset_scale = float(offset_scale)
    if offset_scale < 0.0:
        raise ConfigError(f"teacher offset_scale must be >= 0, got {offset_scale}")
    # The teacher shares the student's architecture unless told otherwise,
    # but never its seed: an identical teacher makes distillation a no-op.
    teacher_defaults = {
        "input_dim": encoder.input_dim,
        "hidden_dim": encoder.hidden_dim,
        "embed_dim": encoder.embed_dim,
        "depth": encoder.depth,
        "seed": seed + 1000,
    }
    teacher = _build("teacher", EncoderConfig, {**teacher_defaults, **teacher_raw})

    distill = _build("distill", DistillConfig, {"batch_size": 64, **_section(raw, "distill")})
    miner_raw = _section(raw, "miner")
    miner = _build("miner", ng.MinerConfig, miner_raw)

    optimizer_raw = _section(raw, "optimizer")
    steps = optimizer_raw.pop("steps", _DEFAULT_STEPS)
    if not _is_int(steps) or steps < 0:
        raise ConfigError(f"optimizer steps must be a nonnegative integer, got {steps!r}")
    optimizer = _build("optimizer", optim.OptimizerSettings, optimizer_raw)

    gradcache_raw = {**_GRADCACHE_DEFAULTS, **_section(raw, "gradcache")}
    extras = sorted(set(gradcache_raw) - set(_GRADCACHE_DEFAULTS))
    if extras:
        raise ConfigError(f"unknown gradcache keys: {', '.join(extras)}")
    enabled, sub_batch = gradcache_raw["enabled"], gradcache_raw["sub_batch"]
    if not isinstance(enabled, bool):
        raise ConfigError(f"gradcache enabled must be true or false, got {enabled!r}")
    if not _is_int(sub_batch) or sub_batch < 1:
        raise ConfigError(f"gradcache sub_batch must be a positive integer, got {sub_batch!r}")

    return RunConfig(
        corpus_spec=corpus_spec,
        corpus_path=corpus_path,
        encoder=encoder,
        teacher=teacher,
        teacher_offset_scale=offset_scale,
        distill=distill,
        miner=miner,
        optimizer=optimizer,
        steps=steps,
        gradcache_sub_batch=sub_batch if enabled else None,
        sweep=_load_sweep(raw, miner_raw),
        seed=seed,
        output_dir=Path(output_dir),
    )


def _starting_encoder(cfg: RunConfig, checkpoint: str | None) -> Encoder:
    if checkpoint is None:
        return Encoder(cfg.encoder)
    checkpoint_path = Path(checkpoint)
    if not checkpoint_path.exists():
        raise ConfigError(f"checkpoint not found: {checkpoint_path}")
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


def _write_report(out_dir: Path, encoder: Encoder, corpus: Corpus) -> str:
    ks = (1, 5) if len(corpus.items) >= 5 else (1,)
    report = evaluate_checkpoint(encoder, corpus, ks=ks)
    with atomic_open(out_dir / "report.json") as handle:
        handle.write(report.to_json())
        handle.write("\n")
    return "report.json"


def cmd_stage1(cfg: RunConfig, args: argparse.Namespace) -> list[str]:
    corpus = cfg.load_corpus()
    encoder = Encoder(cfg.encoder)
    teacher = TeacherEncoder(cfg.teacher, offset_scale=cfg.teacher_offset_scale)
    trace = stage1_train(
        encoder, corpus, teacher, cfg.distill, cfg.optimizer, cfg.steps, seed=cfg.seed
    )
    write_trace(cfg.output_dir / "trace.jsonl", trace)
    save_checkpoint(cfg.output_dir / "checkpoint.bin", encoder)
    return ["trace.jsonl", "checkpoint.bin"]


def cmd_stage2(cfg: RunConfig, args: argparse.Namespace) -> list[str]:
    corpus = cfg.load_corpus()
    encoder = _starting_encoder(cfg, args.checkpoint)
    if cfg.gradcache_sub_batch is not None:
        trace = _stage2_cached(
            encoder,
            corpus,
            cfg.miner,
            cfg.optimizer,
            cfg.steps,
            args.mode,
            cfg.seed,
            cfg.gradcache_sub_batch,
        )
    else:
        trace = nce.stage2_train(
            encoder,
            corpus,
            cfg.miner,
            cfg.optimizer,
            cfg.steps,
            negative_mode=args.mode,
            seed=cfg.seed,
        )
    write_trace(cfg.output_dir / "trace.jsonl", trace)
    save_checkpoint(cfg.output_dir / "checkpoint.bin", encoder)
    return ["trace.jsonl", "checkpoint.bin"]


def cmd_eval(cfg: RunConfig, args: argparse.Namespace) -> list[str]:
    corpus = cfg.load_corpus()
    encoder = _starting_encoder(cfg, args.checkpoint)
    return [_write_report(cfg.output_dir, encoder, corpus)]


def cmd_ablate(cfg: RunConfig, args: argparse.Namespace) -> list[str]:
    if cfg.sweep is None:
        raise ConfigError("ablate needs a 'sweep' section with 'beta' or 'k' values")
    (name, values), = cfg.sweep.items()
    corpus = cfg.load_corpus()

    # Filter and sampling rates are measured on the fixed starting encoder;
    # precision@1 comes from a fresh short run per sweep value.
    base = _starting_encoder(cfg, args.checkpoint)
    query_batch = base.encode(corpus.queries(), record=False)
    candidate_batch = base.encode(corpus.items, record=False)
    positives = corpus.positive_indices()

    pct_column = "false_neg_pct" if name == "beta" else "hard_neg_pct"
    lines = [f"{name},{pct_column},precision_at_1"]
    for value in values:
        miner = replace(cfg.miner, **{name: value})
        _, stats = ng.mine_batch(query_batch, candidate_batch, positives, miner)
        pct = stats.false_neg_pct if name == "beta" else stats.hard_neg_pct
        encoder = _starting_encoder(cfg, args.checkpoint)
        nce.stage2_train(
            encoder, corpus, miner, cfg.optimizer, cfg.steps, seed=cfg.seed,
            sub_batch=cfg.gradcache_sub_batch,
        )
        report = evaluate_checkpoint(encoder, corpus, ks=(1,))
        lines.append(f"{value!r},{pct!r},{report.precision_at[1]!r}")
    with atomic_open(cfg.output_dir / "ablation.csv") as handle:
        handle.write("\n".join(lines) + "\n")
    return ["ablation.csv"]


def cmd_tracegrad(cfg: RunConfig, args: argparse.Namespace) -> list[str]:
    corpus = cfg.load_corpus()
    outputs = []
    for mode in ng.NEGATIVE_MODES:
        encoder = _starting_encoder(cfg, args.checkpoint)
        trace = nce.stage2_train(
            encoder,
            corpus,
            cfg.miner,
            cfg.optimizer,
            cfg.steps,
            negative_mode=mode,
            seed=cfg.seed,
            sub_batch=cfg.gradcache_sub_batch,
        )
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        cfg = load_config(args.config, seed_override=args.seed, out_override=args.out)
        cfg.output_dir.mkdir(parents=True, exist_ok=True)
        outputs = COMMAND_TABLE[args.command][0](cfg, args)
    except (ConfigError, OSError, ValueError) as exc:
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
