"""End states pinned across changes.

``golden_final.json`` holds the final record of every scenario x mover x
gradient mode at t_end = 2.0 and dt = 0.03, so the shortened final step
runs. A change meant to keep results must reproduce them to rounding.
Regenerate only when results are meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""
import json
import pathlib

import numpy as np
import pytest

from lagmove.movers import MOVER_NAMES, MoverKind
from lagmove.scenarios import SCENARIOS, RunConfig, make_scenario, run

GOLDEN = pathlib.Path(__file__).with_name("golden_final.json")
T_END, DT = 2.0, 0.03
CASES = [
    f"{sc}-{m}-{g}" for sc in SCENARIOS for m in MOVER_NAMES for g in ("analytic", "numeric")
]


def final_state(case):
    sc, m, g = case.rsplit("-", 2)
    config = RunConfig(mover=MoverKind(m), dt=DT, gradient_mode=g, output_stride=10**6)
    r = run(make_scenario(sc, t_end=T_END), config)[-1]
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


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES)
def test_final_state_matches_golden(case, golden):
    ref, got = golden[case], final_state(case)
    assert got["step"] == ref["step"]
    for key in ("time", "centroid", "diameter", "hull_volume", "eps_dia", "eps_x", "eps_V"):
        g, r = np.atleast_1d(got[key]), np.atleast_1d(ref[key])
        assert g.shape == r.shape
        assert np.all(np.abs(g - r) <= 1e-12 * np.maximum(1.0, np.abs(r))), (key, g, r)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({c: final_state(c) for c in CASES}, indent=1) + "\n")
