"""End states pinned across changes.

``golden_final.json`` holds the final record of every scenario x mover x
gradient mode at t_end = 2.0 and dt = 0.03, so the shortened final step
runs. ``golden_large.json`` holds the final record of the m4 modulated
rotation at t_end = 1.0 and dt = 0.05 with many points: 20 000 with exact
gradients and 2 000 with WLSQ gradients. A change meant to keep results
must reproduce them to rounding. Regenerate only the cases whose results
are meant to change, by name; every other entry keeps its bytes:

    PYTHONPATH=src python tests/test_golden.py rotation-m3-analytic ...

With no case name, or with a name that is not a case, it writes nothing
and exits 2.
"""
import json
import pathlib
import sys

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


def regenerate(names):
    """Rewrite the entries of the named cases in place; 0, or 2 without a write."""
    unknown = [n for n in names if n not in CASES and n not in LARGE_CASES]
    if not names or unknown:
        print(f"unknown case(s) {unknown}" if unknown else "name the cases to regenerate", file=sys.stderr)
        return 2
    files = ((GOLDEN, CASES, lambda c: c.rsplit("-", 2)), (GOLDEN_LARGE, LARGE_CASES, LARGE_CASES.get))
    for path, cases, args in files:
        chosen = [n for n in names if n in cases]
        if chosen:
            data = json.loads(path.read_text())
            data.update({n: final_state(*args(n)) for n in chosen})
            path.write_text(json.dumps(data, indent=1) + "\n")
    return 0


def test_regenerating_one_case_rewrites_only_its_entry(tmp_path, monkeypatch, golden):
    # two stale entries; regenerating one must leave the other's bytes alone
    case, stale = "lissajous-m1-analytic", "rotation-m1-analytic"
    planted = json.loads(GOLDEN.read_text())
    planted[case]["eps_x"] = planted[stale]["eps_x"] = -1.0
    final, large = tmp_path / GOLDEN.name, tmp_path / GOLDEN_LARGE.name
    final.write_text(json.dumps(planted, indent=1) + "\n")
    large.write_bytes(GOLDEN_LARGE.read_bytes())
    monkeypatch.setitem(globals(), "GOLDEN", final)
    monkeypatch.setitem(globals(), "GOLDEN_LARGE", large)
    files = final.read_bytes(), large.read_bytes()
    assert regenerate([]) == regenerate([case, "no-such-case"]) == 2
    assert (final.read_bytes(), large.read_bytes()) == files

    assert regenerate([case]) == 0
    got = json.loads(final.read_text())
    assert_matches(got[case], golden[case])
    assert final.read_text() == json.dumps({**planted, case: got[case]}, indent=1) + "\n"
    assert large.read_bytes() == files[1]


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
