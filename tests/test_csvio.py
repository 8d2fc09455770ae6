import math
from collections.abc import Sequence

import numpy as np
import pytest

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
