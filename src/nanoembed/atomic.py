"""Artifact writes that never leave a half-written file behind."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


@contextmanager
def atomic_open(path, mode: str = "w") -> Iterator[IO]:
    """Open a temp file beside path for writing; replace path with it on success.

    mode is "w" (UTF-8 text) or "wb". The parent directory is made first
    if it is missing. If the block raises, the temp file is removed and
    whatever was at path before is left untouched.

    An existing file is moved aside, to ``.<name>.<pid>.old``, before the
    temp file is renamed in, and unlinked after. Renaming onto an existing
    file can stall for a second on ext4, which forces the old file's data
    out first; renaming onto a free name does not. Between the two renames
    path does not exist: a process killed there leaves the old bytes under
    the aside name and the new bytes under the temp name, neither
    half-written, and the next successful atomic_open of path removes every
    aside file it left. An error raised between the renames moves the old
    file back. atomic_open does not fsync, so it never promised anything
    against power loss, which is what ext4's forced write-out guards, and
    the aside rename gives no promise up.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    aside = path.with_name(f".{path.name}.{os.getpid()}.old")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
        moved = not path.is_dir()  # a directory at path stays for os.replace to refuse
        if moved:
            try:
                os.rename(path, aside)
            except FileNotFoundError:
                moved = False
        try:
            os.replace(tmp, path)
        except BaseException:
            if moved:
                os.rename(aside, path)
            raise
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _remove_aside_files(path)


def _remove_aside_files(path: Path) -> None:
    """Unlink every ``.<name>.<pid>.old`` beside path, this process's and
    any that a process killed between atomic_open's renames left."""
    prefix = f".{path.name}."
    for entry in os.scandir(path.parent):
        name = entry.name
        if name.startswith(prefix) and name.endswith(".old") and name[len(prefix) : -4].isdigit():
            Path(entry.path).unlink(missing_ok=True)
