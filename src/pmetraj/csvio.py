"""Atomic CSV emission (temp file + rename, so partial runs never leave
truncated outputs).

``format_columns`` makes a file's body from equal-length columns with one
``%``: each column's field is picked once, ``"%.17g"`` when every value is
a float (or float subclass such as ``np.float64``), 17 significant digits
that round-trip float64 exactly, and ``"%s"``, the value's ``str``,
otherwise; a float in such a mixed column is rendered by ``"%.17g"`` first.
The columns are interleaved into one flat list, and the row template,
repeated once per row, is applied to it.  The bytes are the same as
formatting each value on its own with ``f"{v:.17g}"`` or ``str(v)``, with no
Python-level work per row.

A caller that writes the same leading columns into many files formats them
once with ``format_columns`` and passes each line as a string, which
``"%s"`` writes as it is: ``stepper.run`` does so for the snapshot columns
``i`` and ``X``, once per run."""
from __future__ import annotations

import os
import tempfile
from pathlib import Path


def format_columns(columns) -> str:
    """The rows of equal-length columns (sequences, each read twice) as CSV
    lines, each ending in a newline.  Unequal lengths raise ValueError."""
    lengths = set(map(len, columns))
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    n, k = (lengths.pop() if lengths else 0), len(columns)
    fields, flat = [], [None] * (n * k)
    for j, column in enumerate(columns):
        if all(issubclass(t, float) for t in set(map(type, column))):
            fields.append("%.17g")
        else:
            fields.append("%s")
            column = ["%.17g" % v if isinstance(v, float) else v for v in column]
        flat[j::k] = column
    return (",".join(fields) + "\n") * n % tuple(flat)


def write_csv_atomic(path: Path, header: list[str], columns) -> None:
    write_text_atomic(path, ",".join(header) + "\n" + format_columns(columns))


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
