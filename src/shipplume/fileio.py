"""Atomic file writes (write to a temp name, then rename) and sidecars."""

from __future__ import annotations

import hashlib
import os
from contextlib import suppress
from pathlib import Path
from typing import Callable

import numpy as np


def write_atomic(path: str | Path, content: str | Callable) -> None:
    """Write text, or let content(fh) write to the binary file fh, so that
    the target never exists in a truncated state."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    write = content if callable(content) else lambda fh: fh.write(content)
    with open(tmp, "wb" if callable(content) else "w") as fh:
        write(fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def sidecar(data: list[bytes], arrays: Callable[[], dict]) -> Callable:
    """The content, for write_atomic, of the sidecar of a file whose bytes
    are b"".join(data): their sha256 and the arrays() called as it is written."""
    digest = hashlib.sha256()
    for piece in data:
        digest.update(piece)
    return lambda fh: np.savez(fh, digest=digest.hexdigest(), **arrays())


def read_with_sidecar(path: str | Path, load: Callable, parse: Callable):
    """load(arrays) of the sidecar <path>.npz if it holds the sha256 of the
    file, else parse(text); load rejects arrays by raising or returning None."""
    with open(path, "rb") as fh:
        digest = hashlib.file_digest(fh, "sha256").hexdigest()
    with suppress(Exception):   # any failure is a miss: the parse is right
        with open(f"{path}.npz", "rb") as fh:   # closed also if np.load fails
            arrays = dict(np.load(fh, allow_pickle=False))
        if (arrays.pop("digest").item() == digest
                and (result := load(arrays)) is not None):
            return result
    return parse(Path(path).read_bytes().decode())
