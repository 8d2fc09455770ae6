"""Property test of the CSV writer's float columns: skipped where hypothesis is
not installed, and run from a fixed seed where it is, so the suite draws
the same examples on every run."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from pmetraj.csvio import format_columns  # noqa: E402

from test_csvio import _reference_csv  # noqa: E402


@seed(20261020)
@settings(max_examples=200, deadline=None, database=None)
@given(arrays(np.float64, st.integers(0, 40), elements=st.floats()))
def test_array_and_list_columns_give_the_loops_bytes(values):
    # any float64 values, nan, infinities, zeros and subnormals among
    # them: as arrays, as lists, and through the value-by-value loop they
    # give the same bytes
    header = ["x", "y"]
    lists = (values.tolist(), values[::-1].tolist())
    by_array = format_columns((values, values[::-1]))
    assert by_array == format_columns(lists)
    assert ",".join(header) + "\n" + by_array == _reference_csv(header, lists)
