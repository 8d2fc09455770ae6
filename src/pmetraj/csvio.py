"""Atomic CSV emission (temp file + rename, so partial runs never leave
truncated outputs).

Each row is formatted with a single ``%`` against a template of ``"%.17g"``
and ``"%s"`` fields: a float (or float subclass such as ``np.float64``) gets
``"%.17g"``, 17 significant digits that round-trip float64 exactly, and any
other value gets ``"%s"``, its ``str``.  The template is built once per
distinct row type signature within a call.  The bytes are the same as
formatting each value on its own with ``f"{v:.17g}"`` or ``str(v)``, and
the Python-level work per value is smaller."""
from __future__ import annotations

import os
import tempfile
from pathlib import Path


def write_csv_atomic(path: Path, header: list[str], rows) -> None:
    templates: dict[tuple, str] = {}
    lines = [",".join(header)]
    for row in rows:
        row = tuple(row)
        signature = tuple(map(type, row))
        template = templates.get(signature)
        if template is None:
            template = templates[signature] = ",".join(
                "%.17g" if issubclass(t, float) else "%s" for t in signature)
        lines.append(template % row)
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
