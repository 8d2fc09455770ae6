"""Atomic CSV emission (temp file + rename, so partial runs never leave
truncated outputs).  Floats are printed with 17 significant digits, which
round-trips float64 exactly."""
from __future__ import annotations

import os
import tempfile
from pathlib import Path


def format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_csv_atomic(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(format_value(v) for v in row) for row in rows)
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_text_atomic(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
