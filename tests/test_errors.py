import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagmove.cloud import advance_history, make_cloud
from lagmove.diagnostics import measure
from lagmove.errors import (
    DimensionError,
    NumericInputError,
    StructuralError,
    check_count,
    check_points,
    check_positive,
)
from lagmove.fields import LinearField, ModulatedRotation, RigidRotation
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


NAN_JACOBIAN = np.array([[0.0, np.nan], [1.0, 0.0]])
START = make_cloud(np.zeros((3, 2)), np.ones((3, 2)), np.eye(2), dt=0.1)
GRADIENT_SITES = {
    "make_cloud": lambda g: make_cloud(START.positions, START.velocities, g, dt=0.1),
    "advance_history": lambda g: advance_history(START, START.positions, START.velocities, g),
    "exp_series_apply": lambda g: exp_series_apply(g, START.velocities, 0.1, 5),
}


GRADIENT_FAULTS = {
    "nan-2x2": (NAN_JACOBIAN, NumericInputError),
    "3x3": (np.eye(3), DimensionError),
    "vector": (np.ones(2), StructuralError),
}


@pytest.mark.parametrize(
    "site, fault",
    [(s, f) for s in GRADIENT_SITES for f in GRADIENT_FAULTS if (s, f) != ("exp_series_apply", "nan-2x2")],
)
def test_malformed_one_matrix_gradient_rejected(site, fault):
    # a two-axis gradient is one (2, 2) matrix, checked as two finite rows;
    # the series leaves the finite scan to the cloud (the test below)
    grad, error = GRADIENT_FAULTS[fault]
    with pytest.raises(error, match="grad"):
        GRADIENT_SITES[site](grad)


def test_series_carries_a_nan_one_matrix_gradient_to_every_row():
    # the cloud that installed a gradient scanned it, so the series does not:
    # a NaN gives NaN rows on the (2, 2) route, as on the per-row one
    got = GRADIENT_SITES["exp_series_apply"](NAN_JACOBIAN)
    assert np.isnan(got).all()
    assert np.array_equal(got, GRADIENT_SITES["exp_series_apply"](np.tile(NAN_JACOBIAN, (3, 1, 1))), equal_nan=True)


@pytest.mark.parametrize(
    "x", [np.zeros((0, 2)), np.zeros((3, 2), dtype=object), [[0.0, 0.0]]],
    ids=["empty", "object", "list"],
)
def test_check_points_rejects_non_point_arrays(x):
    with pytest.raises(StructuralError):
        check_points(x, "x")


@pytest.mark.parametrize(
    "x, named",
    [(np.zeros((3, 2), dtype=object), "dtype object"), (np.array([["a", "b"]]), "dtype <U1"), ([[0.0, 0.0]], "list")],
    ids=["object", "str", "list"],
)
def test_check_points_names_the_wrong_dtype_or_type(x, named):
    # an ndarray is named by its dtype (what is wrong), anything else by its Python type
    with pytest.raises(StructuralError, match=f"^x must be a numeric array, not {named}$"):
        check_points(x, "x")


@pytest.mark.parametrize(
    "x, error",
    [("1", StructuralError), (None, StructuralError), (np.nan, NumericInputError),
     (0.0, StructuralError), (True, StructuralError)],
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


CENTER_SITES = {
    "Scenario.disc_center": lambda c: replace(make_scenario("rotation"), disc_center=c),
    "RigidRotation.center": lambda c: RigidRotation(center=c),
    "ModulatedRotation.center": lambda c: ModulatedRotation(center=c),
}


@pytest.mark.parametrize(
    "center, error",
    [((0.0, 0.0, 0.0), DimensionError), ((np.nan, 0.0), NumericInputError), (((0, 0), 1), StructuralError)],
    ids=["3-vector", "nan", "ragged"],
)
@pytest.mark.parametrize("site", list(CENTER_SITES))
def test_center_must_be_a_finite_2_vector(site, center, error):
    # checked where the center is constructed, not where a run first uses it
    with pytest.raises(error, match="center"):
        CENTER_SITES[site](center)


RATE_SITES = {
    "RigidRotation.omega": lambda x: RigidRotation(omega=x),
    "ModulatedRotation.omega0": lambda x: ModulatedRotation(omega0=x),
    "ModulatedRotation.modulation_freq": lambda x: ModulatedRotation(modulation_freq=x),
}


@pytest.mark.parametrize(
    "rate, error",
    [("x", StructuralError), (None, StructuralError), (True, StructuralError),
     (np.nan, NumericInputError), (-np.inf, NumericInputError)],
    ids=["string", "none", "bool", "nan", "inf"],
)
@pytest.mark.parametrize("site", list(RATE_SITES))
def test_field_rates_must_be_finite_reals(site, rate, error):
    # checked where the field is constructed, not on its first evaluate
    with pytest.raises(error, match=f"^{site.split('.')[1]} "):
        RATE_SITES[site](rate)


@pytest.mark.parametrize("rate", [0, 0.0, -2.5, np.float64(1.5)])
@pytest.mark.parametrize("site", list(RATE_SITES))
def test_zero_and_negative_field_rates_are_valid(site, rate):
    RATE_SITES[site](rate)


EYE = ((1.0, 0.0), (0.0, 1.0))


@pytest.mark.parametrize(
    "A, b, error, named",
    [((("a", "b"), ("c", "d")), (0, 0), StructuralError, "A"),
     (((True, False), (False, True)), (0, 0), StructuralError, "A"),
     (((np.nan, 0.0), (0.0, 1.0)), (0, 0), NumericInputError, "A"),
     (((1.0, 0.0), (0.0, np.inf)), (0, 0), NumericInputError, "A"),
     (EYE, ("0", "0"), StructuralError, "b"),
     (EYE, (0.0, np.nan), NumericInputError, "b")],
    ids=["A-string", "A-bool", "A-nan", "A-inf", "b-string", "b-nan"],
)
def test_linear_field_entries_must_be_finite_numbers(A, b, error, named):
    with pytest.raises(error, match=f"^{named} "):
        LinearField(A=A, b=b)


def test_check_count_lower_bound():
    assert check_count(np.int64(3), "n", 3) == 3
    with pytest.raises(StructuralError, match="n must be >= 3, got 2"):
        check_count(2, "n", 3)


def check_points_silently(x, gradient):
    """Whether ``check_points`` raised NumericInputError; fails on any warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            check_points(x, "x", gradient=gradient)
            raised = False
        except NumericInputError:
            raised = True
    assert not caught, [str(w.message) for w in caught]
    return raised


@st.composite
def point_arrays(draw):
    """Float64, float32 and int arrays of shape (N, 2) or (N, 2, 2), laid out
    C-ordered, Fortran-ordered, as a strided slice or as the first row
    broadcast to every row, with entries up to the dtype's largest and NaN,
    +inf or -inf planted at random entries or not."""
    dtype = np.dtype(draw(st.sampled_from(["float64", "float32", "int64"])))
    gradient = draw(st.booleans())
    shape = (draw(st.integers(1, 12)),) + ((2, 2) if gradient else (2,))
    size = int(np.prod(shape))
    if dtype.kind == "f":
        big = float(np.finfo(dtype).max)
        magnitude = draw(st.sampled_from([m for m in (1.0, 1e19, 1e30, 1e154, 1e200, big) if m <= big]))
        elements = st.floats(-1.0, 1.0).map(lambda u: u * magnitude)
    else:
        info = np.iinfo(dtype)
        elements = st.integers(int(info.min), int(info.max))
    x = np.array(draw(st.lists(elements, min_size=size, max_size=size)), dtype=dtype).reshape(shape)
    if dtype.kind == "f":
        for i in draw(st.lists(st.integers(0, size - 1), max_size=3)):
            x.flat[i] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    layout = draw(st.sampled_from(["C", "F", "sliced", "broadcast"]))
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "broadcast":
        x = np.broadcast_to(x[:1], x.shape)
    elif layout == "sliced":
        base = np.zeros((2 * len(x),) + shape[1:], dtype=dtype)
        base[::2] = x
        x = base[::2]
    return x, gradient


@settings(max_examples=300, deadline=None)
@given(point_arrays())
def test_finite_check_is_exact_and_silent(case):
    x, gradient = case
    assert check_points_silently(x, gradient) == (not np.isfinite(x).all())


@pytest.mark.parametrize("gradient", [False, True], ids=["points", "gradients"])
@pytest.mark.parametrize(
    "value, dtype", [(1e200, float), (-1e308, float), (1e30, np.float32)],
    ids=["1e200", "-1e308", "float32-1e30"],
)
def test_finite_entries_whose_squares_overflow_pass(value, dtype, gradient):
    shape = (5, 2, 2) if gradient else (5, 2)
    assert not check_points_silently(np.full(shape, value, dtype=dtype), gradient)


@pytest.mark.parametrize("gradient", [False, True], ids=["points", "gradients"])
def test_one_nan_among_large_entries_raises(gradient):
    x = np.full((5, 2, 2) if gradient else (5, 2), 1e200)
    x.flat[7] = np.nan
    assert check_points_silently(x, gradient)


@pytest.mark.parametrize("gradient", [False, True], ids=["points", "gradients"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_broadcast_non_finite_row_raises(bad, gradient):
    row = np.array([[0.5, bad], [1.0, 2.0]]) if gradient else np.array([bad, 0.5])
    x = np.broadcast_to(row, (1000,) + row.shape)
    assert x.strides[0] == 0
    assert check_points_silently(x, gradient)


@pytest.mark.parametrize("gradient", [False, True], ids=["points", "gradients"])
def test_broadcast_row_whose_squares_overflow_passes(gradient):
    row = np.full((2, 2) if gradient else (2,), 1e200)
    assert not check_points_silently(np.broadcast_to(row, (1000,) + row.shape), gradient)


def test_finite_check_of_a_column_major_array_copies_nothing():
    # np.vdot flattens in row order, so it would copy a Fortran-ordered array whole
    x = np.asfortranarray(np.random.default_rng(0).normal(size=(100_000, 2)))
    tracemalloc.start()
    try:
        check_points(x, "x", len(x))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
