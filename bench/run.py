"""End-to-end benchmark of the nanoembed CLI, with an optional traced run.

    python3 bench/run.py --workload distill_eval --seed 1 --seconds 30 --trace 0

Every command runs the real CLI (``python3 -m nanoembed.cli``, with
``src/`` on the path) in a fresh child process, one at a time: a closed
loop with one client.  A run writes the workload's configs from the seed,
builds the stage-1 checkpoint a fine-tuning workload starts from, runs one
untimed warm-up command, then repeats the workload's commands (train, then
eval) until ``--seconds`` are used.  Before each repetition of a
``--trace 0`` run it also times the training command with ``steps: 0``
three times; the median of those is ``setup_s``.  Every reported time is
the median over the run's samples.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain and traced repetitions; a traced command runs through
``bench/tracer.py``, which wraps every layer's functions from outside the
program, and the run reports per-layer metrics plus the tracing overhead.

Every command's artifacts must be byte-identical to the first run of the
same command in this invocation, traced or not; traces must parse with
``nanoembed.metrics.read_trace``, checkpoints must load with finite
weights and report metrics must lie in [0, 1].  Artifact hashes, the
environment and all per-repetition figures go to
``bench/out/<workload>-seed<seed>-trace<0|1>.json``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("distill_eval", "finetune_hard", "finetune_cached")
SETUPS_PER_REPETITION = 3
FINAL_LOSS_STEPS = 20
# A run must end within 180 s; no command may run past this point.
RUN_DEADLINE_S = 170.0
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
ARTIFACTS = {"train": ("trace.jsonl", "checkpoint.bin"), "eval": ("report.json",)}

# The configs keep the quality metrics steady from seed to seed, so their
# bounds can catch a real change.  Queries and candidates share one view
# (view_mix 0), which puts precision@1 well above chance.  The fine-tuning
# corpus plants a near-duplicate for a quarter of the queries, so the
# false-negative filter has work to do.  Miner tau 1.0 and learning rate
# 3e-4 keep easy-mode loss away from zero and stop it eroding precision.
_CORPUS_SHAPE = {
    "input_dim": 16,
    "noise_scale": 0.15,
    "centroid_scale": 1.2,
    "pair_scale": 0.5,
    "view_mix": 0.0,
}
_MODEL = {"hidden_dim": 48, "embed_dim": 16}


@dataclass
class Workload:
    """One workload's configs, generated from the workload seed."""

    name: str
    train_args: list[str]
    config: dict
    steps: int
    rows_per_step: int
    eval_queries: int
    candidates: int
    base_config: dict | None = None

    @property
    def train_rows(self) -> int:
        return self.steps * self.rows_per_step


def make_workload(name: str, seed: int, steps: int | None = None) -> Workload:
    """Configs for one workload.  The same seed gives the same inputs; the
    two fine-tuning workloads share their corpus and starting checkpoint."""
    rng = random.Random(seed)
    corpus_seed, model_seed = rng.randrange(2**31), rng.randrange(2**31)
    if name == "distill_eval":
        n_groups, per_group = 32, 64
        config = {
            "corpus": {
                "seed": corpus_seed,
                "n_groups": n_groups,
                "items_per_group": per_group,
                **_CORPUS_SHAPE,
                "modality_mix": {"text": 0.7, "image": 0.15, "fused": 0.15},
            },
            "encoder": _MODEL,
            "distill": {"batch_size": 64, "tau": 0.2},
            "optimizer": {"kind": "adam", "learning_rate": 3e-3, "steps": 300 if steps is None else steps},
            "seed": model_seed,
        }
        items = n_groups * per_group
        return Workload(name, ["stage1"], config, config["optimizer"]["steps"], 64, items, items)
    if name not in ("finetune_hard", "finetune_cached"):
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    n_groups, per_group = 24, 16
    corpus = {
        "seed": corpus_seed,
        "n_groups": n_groups,
        "items_per_group": per_group,
        **_CORPUS_SHAPE,
        "false_negative_rate": 0.25,
    }
    base_config = {
        "corpus": corpus,
        "encoder": _MODEL,
        "distill": {"batch_size": 64, "tau": 0.05},
        "optimizer": {"kind": "adam", "learning_rate": 3e-3, "steps": 200},
        "seed": model_seed,
    }
    config = {
        "corpus": corpus,
        "encoder": _MODEL,
        "miner": {"beta": 0.02, "k": 8, "tau": 1.0},
        "optimizer": {"kind": "adam", "learning_rate": 3e-4},
        "seed": model_seed,
    }
    queries = n_groups * per_group
    if name == "finetune_hard":
        config["optimizer"]["steps"] = 100 if steps is None else steps
        mode = "hard"
    else:
        config["optimizer"]["steps"] = 40 if steps is None else steps
        config["gradcache"] = {"enabled": True, "sub_batch": 64}
        mode = "easy"
    candidates = queries + round(corpus["false_negative_rate"] * queries)
    return Workload(name, ["stage2", "--mode", mode], config, config["optimizer"]["steps"], queries, queries,
                    candidates, base_config)


def with_steps(config: dict, steps: int) -> dict:
    return {**config, "optimizer": {**config["optimizer"], "steps": steps}}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("NANOEMBED_")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Deadline(Exception):
    """The run would overrun its time limit."""


def _alarm(signum, frame):
    raise Deadline


@dataclass
class Command:
    """One finished CLI command and the summaries of what it wrote."""

    out: Path
    wall_s: float
    rss_mb: float
    ok: bool
    contents: dict = field(default_factory=dict)
    spans: dict | None = None


class Runner:
    """Runs CLI commands one at a time and checks what they write."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []
        self.hashes: dict[str, str] = {}
        self._contents: dict[str, dict] = {}

    def run(self, role: str, args: list[str], config: Path, checkpoint: Path | None = None,
            traced: bool = False) -> Command:
        """Run one command in a fresh output directory and check its artifacts.

        ``role`` names the command within the workload; every run of a role
        must write the same bytes, traced or not.
        """
        self.attempted += 1
        out = self.work / f"{self.attempted:03d}-{role}{'-traced' if traced else ''}"
        argv = [*args, "--config", str(config), "--out", str(out)]
        if checkpoint is not None:
            argv += ["--checkpoint", str(checkpoint)]
        spans = out.with_suffix(".spans.json")
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), out.name, *argv]
        else:
            argv = [sys.executable, "-m", "nanoembed.cli", *argv]
        with open(out.with_suffix(".log"), "wb") as log:
            wall, code, usage = self._spawn(argv, log)
        cmd = Command(out, wall, usage.ru_maxrss / 1024.0, code == 0)
        if not cmd.ok:
            self.failures.append(f"{out.name}: exit code {code}, see {out.with_suffix('.log')}")
            return cmd
        cmd.ok = self._check(role, cmd, spans if traced else None)
        return cmd

    def _spawn(self, argv: list[str], log) -> tuple[float, int, object]:
        """Run a child to completion: wall seconds, exit code, rusage."""
        remaining = self.deadline - time.monotonic()
        if remaining < 1.0:
            raise Deadline
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT)
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage

    def _check(self, role: str, cmd: Command, spans: Path | None) -> bool:
        """Byte-compare against the first run of the role and validate bytes
        not seen before.  Artifacts are flushed to disk here, outside the
        timed region, so no command starts with our writeback pending."""
        failures = len(self.failures)
        digests = {}
        for name in ARTIFACTS["eval" if role == "eval" else "train"]:
            path = cmd.out / name
            if not path.is_file():
                self.failures.append(f"{cmd.out.name}: missing {name}")
                continue
            with open(path, "rb") as handle:
                os.fsync(handle.fileno())
            digests[name] = sha256(path)
            if digests[name] != self.hashes.setdefault(f"{role}/{name}", digests[name]):
                self.failures.append(f"{cmd.out.name}: {name} differs from the first {role} run")
        fresh = [cmd.out / name for name, digest in digests.items() if digest not in self._contents]
        if fresh or spans is not None:
            checked = self._inspect(fresh + ([spans] if spans is not None else []))
            for path in fresh:
                self._contents[digests[path.name]] = checked.get(str(path), {"error": "check failed"})
            if spans is not None:
                cmd.spans = checked.get(str(spans), {"error": "check failed"})
                spans.unlink(missing_ok=True)
        cmd.contents = {name: self._contents[digest] for name, digest in digests.items()}
        for name, summary in [*cmd.contents.items(), ("spans", cmd.spans or {})]:
            if "error" in summary:
                self.failures.append(f"{cmd.out.name}: {name}: {summary['error']}")
        return len(self.failures) == failures

    def _inspect(self, paths: list[Path]) -> dict:
        """Summaries from bench/check.py, run in a child of its own."""
        argv = [sys.executable, str(BENCH / "check.py"), *map(str, paths)]
        with open(self.work / "check.out", "w+b") as out:
            _, code, _ = self._spawn(argv, out)
            out.seek(0)
            text = out.read().decode()
        if code != 0:
            return {}
        return json.loads(text.strip().splitlines()[-1])


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# Per-layer metric -> (span name, field of its summary row), summed over
# the commands of one traced repetition.
SPAN_METRICS = {
    "encoder.teacher_s": ("encoder.teacher", "total_s"),
    "encoder.teacher_rows": ("encoder.teacher", "amount"),
    "encoder.group_direction_calls": ("encoder.group_direction", "calls"),
    "encoder.group_direction_s": ("encoder.group_direction", "total_s"),
    "encoder.encode_calls": ("encoder.encode", "calls"),
    "encoder.encode_rows": ("encoder.encode", "amount"),
    "encoder.encode_s": ("encoder.encode", "total_s"),
    "encoder.embed_items_s": ("encoder.embed_items", "total_s"),
    "negatives.filter_calls": ("negatives.filter", "calls"),
    "negatives.filter_s": ("negatives.filter", "total_s"),
    "negatives.sample_calls": ("negatives.sample", "calls"),
    "negatives.sample_s": ("negatives.sample", "total_s"),
    "infonce.select_calls": ("infonce.select", "calls"),
    "infonce.select_s": ("infonce.select", "total_s"),
    "gradcache.cached_step_s": ("gradcache.cached_step", "total_s"),
    "gradcache.mine_s": ("gradcache.mine", "total_s"),
    "cli.mining_stats_s": ("cli.mining_stats", "total_s"),
    "infonce.loss_s": ("infonce.loss", "total_s"),
    "distill.loss_s": ("distill.loss", "total_s"),
    "autodiff.backward_calls": ("autodiff.backward", "calls"),
    "autodiff.backward_s": ("autodiff.backward", "total_s"),
    "optim.clip_s": ("optim.clip", "total_s"),
    "optim.step_s": ("optim.step", "total_s"),
    "retrieval.rank_calls": ("retrieval.rank", "calls"),
    "retrieval.rank_s": ("retrieval.rank", "total_s"),
    "retrieval.metric_s": ("retrieval.metric", "total_s"),
    "retrieval.report_json_s": ("retrieval.report_json", "total_s"),
    "retrieval.report_bytes": ("retrieval.report_json", "amount"),
    "corpus.generate_s": ("corpus.generate", "total_s"),
    "encoder.checkpoint_save_s": ("encoder.checkpoint_save", "total_s"),
    "encoder.checkpoint_load_s": ("encoder.checkpoint_load", "total_s"),
    "metrics.write_trace_s": ("metrics.write_trace", "total_s"),
    "cli.self_s": ("cli.main", "self_s"),
    "distill.train_s": ("distill.train", "total_s"),
    "infonce.train_s": ("infonce.train", "total_s"),
    "cli.stage2_cached_s": ("cli.stage2_cached", "total_s"),
    "retrieval.evaluate_s": ("retrieval.evaluate", "total_s"),
}
PER_OP = ("matmul", "gather_columns", "gather_rows", "softmax_rows", "log_softmax_rows",
          "row_log_sum_exp", "row_l2_normalize", "tanh")
DERIVED_METRICS = (
    "autodiff.op_calls",
    "autodiff.op_s",
    *(f"autodiff.{op}.{field}" for op in PER_OP for field in ("calls", "s")),
    "negatives.filtered_query_frac",
    "negatives.dup_query_frac",
    "infonce.select_calls_per_query_step",
    "gradcache.encode_rows_per_batch_row",
    "autodiff.peak_live_elements",
    "trace.overhead_s",
)
LAYER_METRICS = (*SPAN_METRICS, *DERIVED_METRICS)


def layer_unit(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith("_elements"):
        return "elements"
    if "_frac" in metric or "_per_" in metric:
        return "ratio"
    return "count"


def _merged(*summaries: dict) -> dict[str, dict]:
    merged: dict[str, dict] = {}
    for summary in summaries:
        for name, row in summary["table"].items():
            into = merged.setdefault(name, {})
            for key, value in row.items():
                into[key] = into.get(key, 0) + value
    return merged


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def repetition_layers(wl: Workload, train: Command, evaluation: Command) -> dict[str, float]:
    """Per-layer figures of one traced repetition (overhead excluded)."""
    table = _merged(train.spans, evaluation.spans)
    train_table = train.spans["table"]
    empty = dict.fromkeys(("calls", "total_s", "self_s", "amount", "filtered", "duplicated"), 0)

    def row(name: str, source: dict = table) -> dict:
        return source.get(name, empty)

    values = {metric: row(span)[key] for metric, (span, key) in SPAN_METRICS.items()}
    ops = [r for name, r in table.items() if name.startswith("autodiff.op.")]
    values["autodiff.op_calls"] = sum(r["calls"] for r in ops)
    values["autodiff.op_s"] = sum(r["total_s"] for r in ops)
    for op in PER_OP:
        values[f"autodiff.{op}.calls"] = row(f"autodiff.op.{op}")["calls"]
        values[f"autodiff.{op}.s"] = row(f"autodiff.op.{op}")["total_s"]
    select = row("infonce.select")
    values["negatives.filtered_query_frac"] = _ratio(select["filtered"], select["calls"])
    values["negatives.dup_query_frac"] = _ratio(select["duplicated"], select["calls"])
    stage2_steps = wl.steps if wl.train_args[0] == "stage2" else 0
    values["infonce.select_calls_per_query_step"] = _ratio(
        row("infonce.select", train_table)["calls"], stage2_steps * wl.eval_queries)
    values["gradcache.encode_rows_per_batch_row"] = _ratio(
        row("encoder.encode", train_table)["amount"], stage2_steps * (wl.eval_queries + wl.candidates))
    values["autodiff.peak_live_elements"] = max(train.spans["peak_live_elements"],
                                                evaluation.spans["peak_live_elements"])
    return values


@dataclass
class Repetition:
    """One pass over the workload's commands: train, then eval."""

    train: Command
    eval: Command

    @property
    def wall_s(self) -> float:
        return self.train.wall_s + self.eval.wall_s

    @property
    def ok(self) -> bool:
        return self.train.ok and self.eval.ok

    def record(self) -> dict:
        return {role: {"wall_s": c.wall_s, "rss_mb": c.rss_mb, "ok": c.ok}
                for role, c in (("train", self.train), ("eval", self.eval))}


def repeat(runner: Runner, wl: Workload, config: Path, base: Path | None, traced: bool) -> Repetition:
    train = runner.run("train", wl.train_args, config, base, traced)
    evaluation = runner.run("eval", ["eval"], config, train.out / "checkpoint.bin", traced)
    for cmd in (train, evaluation):
        shutil.rmtree(cmd.out, ignore_errors=True)
    return Repetition(train, evaluation)


def environment(seed: int) -> dict:
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True, env=child_env(), timeout=60)
    return {
        "python": platform.python_version(),
        "numpy": numpy.stdout.strip(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, steps: int | None = None,
            out: Path = OUT) -> tuple[dict, dict]:
    """Set up, repeat the workload for ``seconds`` (at least once), check
    and summarize.  ``steps`` overrides the training length, for tests."""
    wl = make_workload(workload, seed, steps)
    work = out / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _alarm)
    runner = Runner(work, time.monotonic() + RUN_DEADLINE_S)
    details = {"workload": workload, "seconds": seconds, "trace": int(trace), "environment": environment(seed),
               "loadavg_1m": {"start": os.getloadavg()[0]}}

    def write_config(name: str, config: dict) -> Path:
        path = work / name
        path.write_text(json.dumps(config, indent=2, sort_keys=True))
        return path

    config = write_config("config.json", wl.config)
    base = None
    if wl.base_config is not None:
        base = runner.run("base", ["stage1"], write_config("base.json", wl.base_config)).out / "checkpoint.bin"
    setup_config = write_config("config-steps0.json", with_steps(wl.config, 0))
    # One untimed command first, so no sample pays for cold caches.
    shutil.rmtree(runner.run("setup", wl.train_args, setup_config, base).out, ignore_errors=True)
    setups: list[Command] = []
    plain: list[Repetition] = []
    traced: list[Repetition] = []
    begin = time.perf_counter()
    longest = 0.0
    while True:
        started = time.perf_counter()
        if not trace:
            # Set-up samples are spread over the run, like every other sample.
            for _ in range(SETUPS_PER_REPETITION):
                setups.append(runner.run("setup", wl.train_args, setup_config, base))
                shutil.rmtree(setups[-1].out, ignore_errors=True)
        plain.append(repeat(runner, wl, config, base, traced=False))
        if trace:
            traced.append(repeat(runner, wl, config, base, traced=True))
        now = time.perf_counter()
        longest = max(longest, now - started)
        if now - begin + longest > seconds:
            break
    details["loadavg_1m"]["end"] = os.getloadavg()[0]

    good = [r for r in plain if r.ok]
    good_traced = [r for r in traced if r.ok]
    good_setups = [c.wall_s for c in setups if c.ok]
    if not good or not (good_traced if trace else good_setups):
        raise RuntimeError("nothing succeeded: " + "; ".join(runner.failures[:3]))
    losses = good[0].train.contents["trace.jsonl"]["losses"]
    report = good[0].eval.contents["report.json"]
    if len(losses) != wl.steps:
        runner.failures.append(f"trace has {len(losses)} steps, expected {wl.steps}")
    if (report["queries"], report["candidates"]) != (wl.eval_queries, wl.candidates):
        runner.failures.append(f"report ranks {report['queries']} x {report['candidates']}, "
                               f"expected {wl.eval_queries} x {wl.candidates}")
    failed = len(runner.failures)
    details |= {
        "attempted": runner.attempted,
        "failed": failed,
        "failed_pct": 100.0 * failed / runner.attempted,
        "failures": runner.failures,
        "artifact_sha256": runner.hashes,
        "setup_s": [c.wall_s for c in setups],
        "repetitions": [r.record() for r in plain],
        "traced_repetitions": [r.record() for r in traced],
    }
    median = statistics.median
    if trace:
        per_rep = [repetition_layers(wl, r.train, r.eval) for r in good_traced]
        metrics = {m: (median(v[m] for v in per_rep), layer_unit(m)) for m in per_rep[0]}
        overhead = median(r.wall_s for r in good_traced) - median(r.wall_s for r in good)
        metrics["trace.overhead_s"] = (overhead, "s")
        details["spans"] = [{"train": r.train.spans, "eval": r.eval.spans} for r in good_traced]
    else:
        metrics = {
            "wall_s": (median(r.wall_s for r in good), "s"),
            "setup_s": (median(good_setups), "s"),
            "train_samples_per_s": (median(wl.train_rows / r.train.wall_s for r in good), "1/s"),
            "eval_queries_per_s": (median(wl.eval_queries / r.eval.wall_s for r in good), "1/s"),
            "peak_rss_mb": (median(max(r.train.rss_mb, r.eval.rss_mb) for r in good), "MB"),
            "precision_at_1": (report["precision_at"]["1"], "ratio"),
            "final_loss": (statistics.fmean(losses[-FINAL_LOSS_STEPS:]), "nats"),
            "ok_pct": (100.0 - details["failed_pct"], "%"),
        }
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="workload seed; generates every config")
    parser.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced repetitions")
    args = parser.parse_args(argv)
    if not (SRC / "nanoembed" / "cli.py").is_file():
        print(f"error: no nanoembed sources under {SRC}", file=sys.stderr)
        return 2
    try:
        metrics, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (Deadline, RuntimeError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1
    details["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    summary = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    summary.write_text(json.dumps(details, indent=2, sort_keys=True))

    env = details["environment"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(details['repetitions'])} repetitions, {details['attempted']} commands, "
          f"failed_pct {details['failed_pct']:.1f}")
    print(f"python {env['python']} numpy {env['numpy']} nproc {env['nproc']} "
          f"loadavg_1m {details['loadavg_1m']['start']:.2f} -> {details['loadavg_1m']['end']:.2f}")
    for failure in details["failures"]:
        print(f"FAILED {failure}")
    for key, digest in sorted(details["artifact_sha256"].items()):
        print(f"sha256 {key} {digest}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"details: {summary.relative_to(ROOT)}")
    print(json.dumps({
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": details["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
