"""Atomic CSV emission (temp file + rename, so partial runs never leave
truncated outputs).

``format_columns`` makes a file's body from equal-length columns with one
``%``: each column's field is picked once, ``"%.17g"`` when every value is
a float (or float subclass such as ``np.float64``), 17 significant digits
that round-trip float64 exactly, and ``"%s"``, the value's ``str``,
otherwise.  Only a column that mixes floats with other types is converted,
its floats rendered by ``"%.17g"`` first; a column of strings is written as
it is.  The columns are interleaved into one flat list, and the row
template, repeated once per row, is applied to it.  The bytes are the same
as formatting each value on its own with ``f"{v:.17g}"`` or ``str(v)``, with
no Python-level work per row.

A caller that writes the same leading columns into many files formats them
once with ``format_columns`` and passes each line as a string: ``stepper.run``
does so for the snapshot columns ``i`` and ``X``, once per run, and reuses
the formatted ``X`` as ``snap_0.csv``'s x column, since x^0 is the reference
map.

``write_text_atomic`` encodes the text and writes it, in one write, into a
new temporary beside the target, which is then renamed over it.  The
temporary is opened with ``open(..., "xb")``, so it is never an existing
file, and a file gets ``0o666 & ~umask`` (0644 under umask 022).  It is
named after the target and the process id (a name that is taken, by a
leftover of an earlier run, moves on to the next) and removed on any
failure.  The directory is made only when the open reports it missing.
"""
from __future__ import annotations

import os
from pathlib import Path

#: Names a writer tries before it gives up on a directory full of leftovers.
_ATTEMPTS = 100


def format_columns(columns) -> str:
    """The rows of equal-length columns (sequences, each read twice) as CSV
    lines, each ending in a newline.  Unequal lengths raise ValueError."""
    lengths = set(map(len, columns))
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal lengths {sorted(lengths)}")
    n, k = (lengths.pop() if lengths else 0), len(columns)
    fields, flat = [], [None] * (n * k)
    for j, column in enumerate(columns):
        is_float = [issubclass(t, float) for t in set(map(type, column))]
        if all(is_float):
            fields.append("%.17g")
        else:
            fields.append("%s")
            if any(is_float):
                column = ["%.17g" % v if isinstance(v, float) else v for v in column]
        flat[j::k] = column
    return (",".join(fields) + "\n") * n % tuple(flat)


def write_csv_atomic(path: Path, header: list[str], columns) -> None:
    write_text_atomic(path, ",".join(header) + "\n" + format_columns(columns))


def _create_temporary(path: Path):
    """(file, name) of a new binary file beside path, named after it and the
    process; the directory is made if the first open finds it missing."""
    made_dir = False
    for attempt in range(_ATTEMPTS):
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{attempt}.tmp")
        try:
            return open(tmp, "xb"), tmp
        except FileExistsError:
            continue
        except FileNotFoundError:
            if made_dir:
                raise
        path.parent.mkdir(parents=True, exist_ok=True)
        made_dir = True
    raise FileExistsError(f"{path}: no free temporary name in {_ATTEMPTS} attempts")


def write_text_atomic(path: Path, text: str) -> None:
    path = Path(path)
    fh, tmp = _create_temporary(path)
    try:
        with fh:
            fh.write(text.encode())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
