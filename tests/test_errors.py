import numpy as np
import pytest

from lagmove.cloud import make_cloud
from lagmove.diagnostics import measure
from lagmove.errors import (
    DimensionError,
    NumericInputError,
    StructuralError,
    check_points,
    check_positive,
)
from lagmove.gfdm import all_gradients
from lagmove.movers import MoveContext, exp_series_apply
from lagmove.neighbors import build_index


def test_input_errors_are_structural():
    assert issubclass(NumericInputError, StructuralError)
    assert issubclass(DimensionError, StructuralError)


_rng = np.random.default_rng(0)
POS, VEL, GRAD = _rng.normal(size=(8, 3)), _rng.normal(size=(8, 3)), _rng.normal(size=(8, 3, 3))
THREE_COLUMN_CALLS = {
    "make_cloud": lambda: make_cloud(POS, VEL, GRAD, smoothing_length=0.5, dt=0.1),
    "build_index": lambda: build_index(POS, 0.5),
    "all_gradients": lambda: all_gradients(POS, VEL, build_index(POS[:, :2], 0.5), 0.5),
    "measure": lambda: measure(POS),
    "MoveContext": lambda: MoveContext(0.1, VEL, VEL, GRAD, GRAD, True),
    "exp_series_apply": lambda: exp_series_apply(GRAD, VEL, 0.1, 5),
}


@pytest.mark.parametrize("call", list(THREE_COLUMN_CALLS))
def test_three_columns_rejected(call):
    with pytest.raises(DimensionError):
        THREE_COLUMN_CALLS[call]()


@pytest.mark.parametrize(
    "x", [np.zeros((0, 2)), np.zeros((3, 2), dtype=object), [[0.0, 0.0]]],
    ids=["empty", "object", "list"],
)
def test_check_points_rejects_non_point_arrays(x):
    with pytest.raises(StructuralError):
        check_points(x, "x")


@pytest.mark.parametrize(
    "x, error",
    [("1", StructuralError), (None, StructuralError), (np.nan, NumericInputError),
     (0.0, StructuralError)],
)
def test_check_positive_rejects(x, error):
    with pytest.raises(error):
        check_positive(x, "x")
