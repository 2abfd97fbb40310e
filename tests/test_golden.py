"""End states pinned across changes.

``golden_final.json`` holds the final record of every scenario x mover x
gradient mode at t_end = 2.0 and dt = 0.03, so the shortened final step
runs. ``golden_large.json`` holds the final record of the m4 modulated
rotation at t_end = 1.0 and dt = 0.05 with many points: 20 000 with exact
gradients and 2 000 with WLSQ gradients. A change meant to keep results
must reproduce them to rounding. Regenerate only when results are meant
to change:

    PYTHONPATH=src python tests/test_golden.py
"""
import json
import pathlib

import numpy as np
import pytest

from lagmove.movers import MOVER_NAMES, MoverKind
from lagmove.scenarios import PAPER_N, SCENARIOS, RunConfig, make_scenario, run

HERE = pathlib.Path(__file__).parent
GOLDEN = HERE / "golden_final.json"
GOLDEN_LARGE = HERE / "golden_large.json"
T_END, DT = 2.0, 0.03
CASES = [
    f"{sc}-{m}-{g}" for sc in SCENARIOS for m in MOVER_NAMES for g in ("analytic", "numeric")
]
# case -> (scenario, mover, gradient mode, n_points, dt, t_end)
LARGE_CASES = {
    "modulated-rotation-m4-analytic-20000": ("modulated-rotation", "m4", "analytic", 20000, 0.05, 1.0),
    "modulated-rotation-m4-numeric-2000": ("modulated-rotation", "m4", "numeric", 2000, 0.05, 1.0),
}


def final_state(sc, m, g, n=PAPER_N, dt=DT, t_end=T_END):
    config = RunConfig(mover=MoverKind(m), dt=dt, gradient_mode=g, output_stride=10**6)
    r = run(make_scenario(sc, n, t_end), config)[-1]
    return {
        "step": r.step,
        "time": r.time,
        "centroid": [float(c) for c in r.centroid],
        "diameter": r.diameter,
        "hull_volume": r.hull_volume,
        "eps_dia": r.eps_dia,
        "eps_x": r.eps_x,
        "eps_V": r.eps_V,
    }


def assert_matches(got, ref):
    assert got["step"] == ref["step"]
    for key in ("time", "centroid", "diameter", "hull_volume", "eps_dia", "eps_x", "eps_V"):
        g, r = np.atleast_1d(got[key]), np.atleast_1d(ref[key])
        assert g.shape == r.shape
        assert np.all(np.abs(g - r) <= 1e-12 * np.maximum(1.0, np.abs(r))), (key, g, r)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def golden_large():
    return json.loads(GOLDEN_LARGE.read_text())


@pytest.mark.parametrize("case", CASES)
def test_final_state_matches_golden(case, golden):
    assert_matches(final_state(*case.rsplit("-", 2)), golden[case])


@pytest.mark.parametrize("case", sorted(LARGE_CASES))
def test_large_final_state_matches_golden(case, golden_large):
    assert_matches(final_state(*LARGE_CASES[case]), golden_large[case])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({c: final_state(*c.rsplit("-", 2)) for c in CASES}, indent=1) + "\n")
    GOLDEN_LARGE.write_text(
        json.dumps({c: final_state(*args) for c, args in LARGE_CASES.items()}, indent=1) + "\n"
    )
