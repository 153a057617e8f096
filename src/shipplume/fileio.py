"""Atomic file writes (write to a temp name, then rename)."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable


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
