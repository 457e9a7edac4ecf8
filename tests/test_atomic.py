"""Tests for atomic artifact writes: a failed write never clobbers the
previous file or leaves a temp file behind."""

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
