import math
import os
from collections.abc import Sequence

import numpy as np
import pytest

from pmetraj import csvio
from pmetraj.csvio import write_csv_atomic


def _reference_csv(header, columns) -> str:
    """The writer's old value-by-value loop over the rows of the columns:
    17 significant digits for a float or float subclass, str() for anything
    else."""
    def format_value(v) -> str:
        if isinstance(v, float):
            return f"{v:.17g}"
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(format_value(v) for v in row) for row in zip(*columns))
    return "\n".join(lines) + "\n"


MIXED_COLUMNS = {
    "i": range(6),
    "int": [0, 1, True, False, np.int64(7), 3],
    "float": [0.1, float("nan"), -0.0, 5e-324, 1.2345678901234567e17, -math.inf],
    "float64": [np.float64(1.0 / 3.0), np.float64("inf"), np.float64(-0.0),
                np.float64(5e-324), np.float64(-1.2345678901234567e17), np.float64(2.0)],
    "float32": [np.float32(0.1), np.float32("-inf"), np.float32(5e-324),
                np.float32(1.5), np.float32(3.0), np.float32(-0.0)],
    # floats among strings and ints, as in the convergence CSV's order columns
    "mixed": [2.5, "", np.float64(2.0), 3, -math.inf, float("nan")],
    "str": ["a", "", "x y", "100%", "%s,%d", ","],
}


@pytest.mark.parametrize("columns", [list(MIXED_COLUMNS.values()),
                                     [[] for _ in MIXED_COLUMNS]], ids=["mixed", "no-rows"])
def test_writer_matches_value_by_value_loop(tmp_path, columns):
    header = list(MIXED_COLUMNS)
    target = tmp_path / "t.csv"
    write_csv_atomic(target, header, columns)
    assert target.read_bytes() == _reference_csv(header, columns).encode()


def test_float_formatting_roundtrips(tmp_path):
    values = [0.1, 1.0 / 3.0, 5e-324, 1.2345678901234567e17]
    target = tmp_path / "t.csv"
    write_csv_atomic(target, ["v", "w"], (values + [7], values + [-0.0]))
    rows = [line.split(",") for line in target.read_text().splitlines()[1:]]
    assert [float(v) for v, _ in rows[:-1]] == values
    assert [float(w) for _, w in rows[:-1]] == values
    assert rows[-1] == ["7", "-0"]


class _Interrupted(Sequence):
    """A column whose second value cannot be read."""

    def __len__(self):
        return 2

    def __getitem__(self, i):
        if i >= 1:
            raise RuntimeError("interrupted mid-write")
        return 2.0


def test_partial_write_leaves_nothing(tmp_path):
    target = tmp_path / "trace.csv"
    with pytest.raises(RuntimeError):
        write_csv_atomic(target, ["a", "b"], ([1, 2], _Interrupted()))
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("columns", [(["only"], [1, 2]), ([], [1.0]), ([1, 2], [3.0], [4])])
def test_unequal_columns_raise_and_write_nothing(tmp_path, columns):
    target = tmp_path / "out" / "t.csv"
    with pytest.raises(ValueError, match="unequal lengths"):
        write_csv_atomic(target, ["a"] * len(columns), columns)
    assert list(tmp_path.iterdir()) == []


def test_overwrite_is_atomic(tmp_path):
    target = tmp_path / "trace.csv"
    write_csv_atomic(target, ["a"], [[1]])
    write_csv_atomic(target, ["a"], [[2]])
    assert target.read_text() == "a\n2\n"
    assert list(tmp_path.iterdir()) == [target]


#: float64 values whose text is hardest to get right: nan, both infinities,
#: both zeros, the least subnormal and 17-digit mantissas.
SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 0.1, 1.0 / 3.0,
           -1.2345678901234567e17, 2.0]


@pytest.mark.parametrize("column", [
    np.array(SPECIAL),
    np.array(SPECIAL)[::-2],  # a strided view
    np.array(SPECIAL, dtype=np.float32),
    np.arange(len(SPECIAL)),
    np.array(SPECIAL).reshape(len(SPECIAL) // 2, 2),
    SPECIAL,
], ids=["float64", "float64-strided", "float32", "int", "2-D", "list"])
def test_columns_of_any_dtype_give_the_loops_bytes(tmp_path, column):
    # arrays of any dtype or shape, and lists, are scanned for the types of
    # their values, and give the value-by-value loop's bytes
    columns = [range(len(column)), column]
    target = tmp_path / "t.csv"
    write_csv_atomic(target, ["i", "v"], columns)
    assert target.read_bytes() == _reference_csv(["i", "v"], columns).encode()


def test_a_column_of_strings_is_written_as_it_is(tmp_path):
    # labels formatted once by a caller, numbers and % included
    strings = ["0,0", "1,0.5", "%.17g", "1e5", "nan", ""]
    target = tmp_path / "t.csv"
    write_csv_atomic(target, ["i", "X", "x"], (range(6), strings, np.array(SPECIAL[:6])))
    assert target.read_bytes() == _reference_csv(
        ["i", "X", "x"], (range(6), strings, SPECIAL[:6])).encode()


def test_a_leftover_temporary_does_not_stop_the_write(tmp_path):
    # a temporary of an earlier writer of this process id, killed before its
    # rename, is left as it is, and the write takes the next name
    target = tmp_path / "t.csv"
    leftover = tmp_path / f"t.csv.{os.getpid()}.0.tmp"
    leftover.write_text("partial")
    write_csv_atomic(target, ["a"], [[1.5]])
    assert target.read_text() == "a\n1.5\n"
    assert leftover.read_text() == "partial"
    assert sorted(tmp_path.iterdir()) == [target, leftover]


@pytest.mark.parametrize("fail", ["encode", "replace"])
def test_a_failed_write_leaves_no_temporary(tmp_path, monkeypatch, fail):
    # text that cannot be encoded, or a rename onto a directory, fails after
    # the temporary is made: it is removed, and what was there is left
    made, create = [], csvio._create_temporary

    def recorded(path):
        fh, tmp = create(path)
        made.append(tmp)
        return fh, tmp

    monkeypatch.setattr(csvio, "_create_temporary", recorded)
    target = tmp_path / "t.csv"
    if fail == "encode":
        target.write_text("old\n")
        error, column = UnicodeEncodeError, ["\ud800"]  # a lone surrogate
    else:
        target.mkdir()
        error, column = OSError, [1.0]
    with pytest.raises(error):
        write_csv_atomic(target, ["a"], [column])
    assert len(made) == 1
    assert list(tmp_path.iterdir()) == [target]
    assert target.is_dir() or target.read_text() == "old\n"
