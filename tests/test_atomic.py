"""Tests for atomic artifact writes: a failed write never clobbers the
previous file or leaves a temp file behind."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from nanoembed import encoder as enc
from nanoembed.atomic import atomic_open


@pytest.mark.parametrize("mode, old, partial", [("w", "old\n", "part"), ("wb", b"old\n", b"part")])
def test_failed_write_keeps_previous_file(tmp_path, mode, old, partial):
    path = tmp_path / "artifact"
    with atomic_open(path, mode) as handle:
        handle.write(old)
    with pytest.raises(RuntimeError, match="mid-write"):
        with atomic_open(path, mode) as handle:
            handle.write(partial)
            raise RuntimeError("mid-write")
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_failed_first_write_leaves_nothing(tmp_path):
    with pytest.raises(RuntimeError):
        with atomic_open(tmp_path / "artifact") as handle:
            handle.write("part")
            raise RuntimeError("mid-write")
    assert list(tmp_path.iterdir()) == []


def test_missing_parent_directories_are_made(tmp_path):
    with atomic_open(tmp_path / "a" / "b" / "artifact") as handle:
        handle.write("done\n")
    assert (tmp_path / "a" / "b" / "artifact").read_text() == "done\n"
    assert [p.name for p in (tmp_path / "a" / "b").iterdir()] == ["artifact"]


class _BrokenEncoder:
    """Writes its first array, then fails on the second."""

    def __init__(self, encoder):
        self.config = encoder.config
        self._arrays = encoder.weight_arrays()

    def weight_arrays(self):
        return [self._arrays[0], ("broken", None)]


def test_save_checkpoint_interrupted_mid_file_keeps_previous(tmp_path):
    encoder = enc.Encoder(enc.EncoderConfig(input_dim=4, hidden_dim=5, embed_dim=3, seed=1))
    path = tmp_path / "checkpoint.bin"
    enc.save_checkpoint(path, encoder)
    good = path.read_bytes()
    with pytest.raises(AttributeError):
        enc.save_checkpoint(path, _BrokenEncoder(encoder))
    assert path.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.bin"]


# A replace moves the old file aside, renames the temp file in, then unlinks
# the aside file; renaming onto a free name skips the stall that renaming onto
# an existing file can take on ext4.
KILLED_BETWEEN_RENAMES = """
import os, sys
from nanoembed.atomic import atomic_open
os.replace = lambda src, dst: os._exit(3)
with atomic_open(sys.argv[1], "wb") as handle:
    handle.write(b"new\\n")
"""


def test_replace_leaves_no_aside_file(tmp_path):
    path = tmp_path / "artifact"
    for text in ("old\n", "new\n"):
        with atomic_open(path) as handle:
            handle.write(text)
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_a_kill_between_the_renames_leaves_both_byte_sets_whole(tmp_path):
    path = tmp_path / "artifact"
    path.write_bytes(b"old\n")
    src = Path(enc.__file__).resolve().parents[1]
    child = subprocess.Popen([sys.executable, "-c", KILLED_BETWEEN_RENAMES, str(path)],
                             env={**os.environ, "PYTHONPATH": str(src)})
    assert child.wait(timeout=60) == 3
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {
        f".artifact.{child.pid}.old": b"old\n", f".artifact.{child.pid}.tmp": b"new\n"}
    # The next write removes the dead process's aside file; its temp file stays, as before.
    with atomic_open(path, "wb") as handle:
        handle.write(b"newer\n")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {
        "artifact": b"newer\n", f".artifact.{child.pid}.tmp": b"new\n"}


def test_an_error_between_the_renames_puts_the_old_file_back(tmp_path, monkeypatch):
    path = tmp_path / "artifact"
    path.write_text("old\n")

    def failing_replace(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename refused"):
        with atomic_open(path) as handle:
            handle.write("new\n")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_only_aside_files_of_the_written_path_are_removed(tmp_path):
    path = tmp_path / "artifact"
    stale = [".artifact.17.old", ".artifact.4242.old"]
    kept = [".artifact.notes.old", ".other.17.old", ".artifact.17.tmp"]
    for name in stale + kept:
        (tmp_path / name).write_text(name)
    with atomic_open(path) as handle:
        handle.write("new\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["artifact", *kept])


def test_a_directory_at_path_is_refused_and_kept(tmp_path):
    path = tmp_path / "artifact"
    (path / "inside").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        with atomic_open(path) as handle:
            handle.write("new\n")
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
    assert [p.name for p in path.iterdir()] == ["inside"]
