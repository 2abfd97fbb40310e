import numpy as np
import pytest

from lagmove.cloud import make_cloud
from lagmove.diagnostics import measure
from lagmove.errors import (
    DimensionError,
    NumericInputError,
    StructuralError,
    check_count,
    check_points,
    check_positive,
)
from lagmove.gfdm import all_gradients
from lagmove.movers import MoverKind, exp_series_apply
from lagmove.neighbors import build_index
from lagmove.scenarios import RunConfig, make_scenario, sample_disc


def test_input_errors_are_structural():
    assert issubclass(NumericInputError, StructuralError)
    assert issubclass(DimensionError, StructuralError)


_rng = np.random.default_rng(0)
POS, VEL, GRAD = _rng.normal(size=(8, 3)), _rng.normal(size=(8, 3)), _rng.normal(size=(8, 3, 3))
THREE_COLUMN_CALLS = {
    "make_cloud": lambda: make_cloud(POS, VEL, GRAD, dt=0.1),
    "build_index": lambda: build_index(POS, 0.5),
    "all_gradients": lambda: all_gradients(POS, VEL, build_index(POS[:, :2], 0.5), 0.5),
    "measure": lambda: measure(POS),
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


COUNT_SITES = {
    "Scenario.n_points": lambda n: make_scenario("rotation", n=n),
    "sample_disc": lambda n: sample_disc((0.0, 0.0), 1.0, n),
    "RunConfig.output_stride": lambda n: RunConfig(MoverKind("m1"), 0.1, output_stride=n),
    "MoverKind.terms": lambda n: MoverKind("m3", n),
    "exp_series_apply": lambda n: exp_series_apply(np.zeros((1, 2, 2)), np.ones((1, 2)), 0.1, n),
}


@pytest.mark.parametrize("bad", [2.5, "3", True], ids=["fraction", "string", "bool"])
@pytest.mark.parametrize("site", list(COUNT_SITES))
def test_counts_must_be_integers(site, bad):
    with pytest.raises(StructuralError, match="must be an integer"):
        COUNT_SITES[site](bad)


@pytest.mark.parametrize("site", list(COUNT_SITES))
def test_numpy_integer_counts_accepted(site):
    # the series' dt**p / p! cannot be formed past 170 terms
    COUNT_SITES[site](np.int64(5 if site == "exp_series_apply" else 222))


def test_check_count_lower_bound():
    assert check_count(np.int64(3), "n", 3) == 3
    with pytest.raises(StructuralError, match="n must be >= 3, got 2"):
        check_count(2, "n", 3)
