"""Every CLI artifact matches a committed sha256 manifest.

The children run ``python -m nanoembed.cli`` with OpenBLAS pinned to the
Haswell kernel and one thread: the bytes a run writes hold for one numpy
build and one BLAS kernel, not across CPUs. The manifest is keyed by numpy
version, BLAS name and version, and core type. On a key the manifest
lacks, every command runs twice, the two runs must agree, and a warning
names the missing key.

Regenerate the manifest with ``python tests/test_golden.py --write``, which
lists every artifact path added, removed or changed under the current key.
A change that means to move artifact bytes regenerates it and says so.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("golden_sha256.json")
CORETYPE = "Haswell"

sys.path.insert(0, str(ROOT / "src"))
from test_cli import CORPUS, base_config  # noqa: E402

FUSED_CORPUS = {
    **CORPUS,
    "modality_mix": {"text": 0.4, "image": 0.2, "fused": 0.4},
}

# (output directory, command, config name, extra arguments); every command
# after stage1 starts from its checkpoint.
RUNS = [
    ("stage1", "stage1", "base", []),
    *[(f"stage2_{mode}", "stage2", "base", ["--mode", mode]) for mode in ("hard", "easy", "random")],
    ("stage2_easy_cached", "stage2", "cached", ["--mode", "easy"]),
    ("ablate", "ablate", "sweep", []),
    ("tracegrad", "tracegrad", "base", []),
    ("eval", "eval", "base", []),
    ("eval_fused", "eval", "fused", []),
]


def manifest_key() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}; {blas['name']} {blas['version']}; coretype {CORETYPE}"


def run_all(out: Path) -> dict[str, str]:
    """Run every command under out; sha256 of each artifact by relative path."""
    out.mkdir(parents=True)
    configs = {
        "base": base_config(),
        "cached": base_config(gradcache={"enabled": True, "sub_batch": 5}),
        "sweep": base_config(sweep={"beta": [0.0, 0.1, 0.3]}),
        "fused": base_config(corpus=FUSED_CORPUS),
    }
    for name, cfg in configs.items():
        (out / f"{name}.json").write_text(json.dumps(cfg))
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        "OPENBLAS_CORETYPE": CORETYPE,
        "OPENBLAS_NUM_THREADS": "1",
    }
    checkpoint = out / "stage1" / "checkpoint.bin"
    for directory, command, config, extra in RUNS:
        args = [sys.executable, "-m", "nanoembed.cli", command, "--config", out / f"{config}.json",
                "--out", out / directory, *extra]
        if command != "stage1":
            args += ["--checkpoint", checkpoint]
        result = subprocess.run([str(a) for a in args], env=env, capture_output=True, text=True)
        assert result.returncode == 0, f"{command} {directory} failed:\n{result.stderr}"
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.parent != out and path.name != "run_info.json"
    }


def differing(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    return sorted(name for name in expected.keys() | actual.keys() if expected.get(name) != actual.get(name))


def test_artifacts_match_manifest(tmp_path):
    key = manifest_key()
    manifest = json.loads(MANIFEST.read_text())
    first = run_all(tmp_path / "first")
    if key in manifest:
        assert not differing(manifest[key], first), f"artifacts differ from {key!r}: {differing(manifest[key], first)}"
        return
    second = run_all(tmp_path / "second")
    assert not differing(first, second), f"two runs differ: {differing(first, second)}"
    warnings.warn(f"no golden sha256 for {key!r}; two runs agreed, regenerate with tests/test_golden.py --write")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden.py --write")
    manifest = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    old = manifest.get(manifest_key(), {})
    with tempfile.TemporaryDirectory() as scratch:
        manifest[manifest_key()] = new = run_all(Path(scratch) / "run")
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}: {manifest_key()}")
    for name in differing(old, new):
        print(f"  {'added' if name not in old else 'removed' if name not in new else 'changed'} {name}")
