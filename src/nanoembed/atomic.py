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
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
