import math

import numpy as np
import pytest

from pmetraj.csvio import write_csv_atomic


def _reference_csv(header, rows) -> str:
    """The writer's old value-by-value loop: 17 significant digits for a
    float or float subclass, str() for anything else."""
    def format_value(v) -> str:
        if isinstance(v, float):
            return f"{v:.17g}"
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(format_value(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


MIXED_ROWS = [
    (0, 0.1, np.float64(1.0 / 3.0), np.float32(0.1), "a"),
    (1, float("nan"), np.float64("inf"), np.float32("-inf"), ""),
    (True, -0.0, np.float64(-0.0), np.float32(5e-324), "x y"),
    (False, 5e-324, np.float64(5e-324), np.float32(1.5), "100%"),
    (np.int64(7), 1.2345678901234567e17, np.float64(-1.2345678901234567e17),
     np.float32(3.0), "%s,%d"),
    # rows whose type signature differs from the ones above
    [2.5, "", np.float64(2.0), 3, -math.inf],
    ("only", 1),
    (),
]


@pytest.mark.parametrize("rows", [MIXED_ROWS, []], ids=["mixed", "no-rows"])
def test_writer_matches_value_by_value_loop(tmp_path, rows):
    header = ["i", "a", "b", "c", "d"]
    target = tmp_path / "t.csv"
    write_csv_atomic(target, header, iter(rows))
    assert target.read_bytes() == _reference_csv(header, rows).encode()


def test_float_formatting_roundtrips(tmp_path):
    values = (0.1, 1.0 / 3.0, 5e-324, 1.2345678901234567e17)
    target = tmp_path / "t.csv"
    write_csv_atomic(target, ["v"], [(v,) for v in values] + [(7,)])
    lines = target.read_text().splitlines()[1:]
    assert [float(s) for s in lines[:-1]] == list(values)
    assert lines[-1] == "7"


def test_partial_write_leaves_nothing(tmp_path):
    def rows():
        yield (1, 2.0)
        raise RuntimeError("interrupted mid-write")

    target = tmp_path / "trace.csv"
    with pytest.raises(RuntimeError):
        write_csv_atomic(target, ["a", "b"], rows())
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_overwrite_is_atomic(tmp_path):
    target = tmp_path / "trace.csv"
    write_csv_atomic(target, ["a"], [(1,)])
    write_csv_atomic(target, ["a"], [(2,)])
    assert target.read_text() == "a\n2\n"
    assert list(tmp_path.iterdir()) == [target]
