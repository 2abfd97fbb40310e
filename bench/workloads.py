"""The benchmark's three workloads: inputs from a seed, one whole run, and
the check of its outputs against the scenario's exact solution.

Each workload is a closed loop of back-to-back whole runs from one client
(see run.py). The package receives only the generated scenario and run
configuration (or, for the sweep, the command line).

  disc-numeric    paper disc with WLSQ gradients; neighbors + gfdm dominate.
  cloud-analytic  20 000 points with exact gradients; the m4 series dominates,
                  neighbors and gfdm are never called.
  paper-sweep     the paper's convergence sweep through ``cli.main``; per-step
                  overhead and the pairwise diameter dominate.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
from dataclasses import replace

import numpy as np

import lagmove as lm
from lagmove import cli, scenarios

WORKLOADS = ("disc-numeric", "cloud-analytic", "paper-sweep")
DEFAULT_SEED = 0

# Inputs at the default seed. Other seeds scale N by up to +-1% and, for the
# two single-run workloads, move the disc and the rotation centre together,
# which changes every coordinate but not the exact solution.
BASE_PARAMS = {
    "disc-numeric": {
        "scenario": "modulated-rotation", "mover": "m4", "gradient": "numeric",
        "n_points": 222, "dt": 0.05, "t_end": 10.0, "center": [0.0, 0.0],
    },
    "cloud-analytic": {
        "scenario": "modulated-rotation", "mover": "m4", "gradient": "analytic",
        "n_points": 20000, "dt": 0.05, "t_end": 10.0, "center": [0.0, 0.0],
    },
    "paper-sweep": {
        "scenario": "rotation", "gradient": "analytic", "n_points": 222,
        "dts": [0.2, 0.1, 0.05, 0.025], "t_end": None,
    },
}
# Sizes for the benchmark's self-test only. The sweep keeps whole turns,
# where eps_x (distance from the start centroid) is an error, and the
# numeric disc keeps N, so that every stencil has enough neighbors.
TOY_PARAMS = {
    "disc-numeric": {"t_end": 1.0},
    "cloud-analytic": {"n_points": 2000, "t_end": 1.0},
    "paper-sweep": {"n_points": 100, "t_end": 2.0 * math.pi},
}
N_JITTER = 0.01
CENTER_JITTER = 0.5

# Upper limits on the final errors of every run and sweep cell, on every
# seed: two or more times the default-seed values in reference.json, which
# are checked far more tightly where they apply.
RUN_LIMITS = {"eps_dia": 2e-3, "eps_x": 1e-2, "eps_V": 2e-3, "centroid_exact": 1e-4}
SWEEP_LIMITS = {
    "m1": {"eps_dia": 10.0, "eps_x": 2e-2, "eps_V": 25.0},
    "m2": {"eps_dia": 0.2, "eps_x": 2e-3, "eps_V": 0.2},
    "m3": {"eps_dia": 1e-4, "eps_x": 1e-6, "eps_V": 1e-4},
    "m4": {"eps_dia": 0.06, "eps_x": 1e-3, "eps_V": 0.06},
}
# Match against the recorded values of the default-seed inputs:
# |value - ref| <= REF_RTOL * |ref| + REF_ATOL. The absolute floor covers
# errors that sit near rounding level (m3's eps_x is ~4e-13).
REF_RTOL = 1e-6
REF_ATOL = 1e-12
# Reported errors that the benchmark recomputes from the exact solution.
RECOMPUTE_RTOL = 1e-9
ERROR_KEYS = ("eps_dia", "eps_x", "eps_V")


def make_params(workload: str, seed: int, toy: bool = False) -> dict:
    params = json.loads(json.dumps(BASE_PARAMS[workload]))
    if toy:
        params.update(TOY_PARAMS[workload])
    if seed != DEFAULT_SEED:
        rng = random.Random(f"{workload}:{seed}")
        params["n_points"] = round(params["n_points"] * (1.0 + rng.uniform(-N_JITTER, N_JITTER)))
        if "center" in params:
            params["center"] = [rng.uniform(-CENTER_JITTER, CENTER_JITTER) for _ in range(2)]
    return params


def count_steps(t_end: float, dt: float) -> int:
    """Full steps plus the shortened final step, if any."""
    n_full = math.floor(t_end / dt + 1e-9)
    return n_full + (1 if t_end - n_full * dt > 1e-12 * max(1.0, t_end) else 0)


def _geomean(values) -> float:
    if min(values) <= 0.0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _timed(tracer, fn, *args):
    """Call ``fn`` and time it; traced calls become the run's root span."""
    if tracer is not None:
        fn = tracer.wrap("bench.iteration", fn)
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _mismatch(value: float, ref: float) -> bool:
    return abs(value - ref) > REF_RTOL * abs(ref) + REF_ATOL


class Outcome:
    """One whole run (or sweep): wall time, work done and check result."""

    def __init__(self, seconds: float, point_steps: int, errors: dict, problems: list[str]):
        self.seconds = seconds
        self.scaled = seconds         # seconds at the reference speed, set by run.py
        self.point_steps = point_steps
        self.errors = errors          # eps_dia / eps_V as reported
        self.problems = problems      # empty when the outputs are correct


class RunWorkload:
    """One ``lagmove.run`` of a disc in modulated rotation about its centre."""

    def __init__(self, params: dict, reference: dict | None, out_dir: str):
        self.params = params
        self.reference = reference if reference and reference.get("params") == params else None
        p = params
        base = lm.make_scenario(p["scenario"], n=p["n_points"], t_end=p["t_end"])
        center = tuple(p["center"])
        self.scenario = replace(base, field=replace(base.field, center=center), disc_center=center)
        self.config = lm.RunConfig(
            mover=lm.MoverKind(p["mover"]), dt=p["dt"], gradient_mode=p["gradient"]
        )
        self.steps = count_steps(p["t_end"], p["dt"])

    def setup(self):
        return scenarios.initial_cloud(self.scenario, self.config)

    def warm_up(self) -> None:
        scenarios.run(replace(self.scenario, t_end=10 * self.config.dt), self.config)

    def iterate(self, tracer=None) -> Outcome:
        scenario = self.scenario if tracer is None else tracer.proxied(self.scenario)
        # looked up at call time, so that a traced run gets the wrapped function
        records, seconds = _timed(tracer, scenarios.run, scenario, self.config)
        final = records[-1]
        errors = {"eps_dia": final.eps_dia, "eps_V": final.eps_V}
        return Outcome(seconds, self.params["n_points"] * final.step, errors, self.check(records))

    def exact_angle(self, t: float) -> float:
        """Rotation angle of the exact flow map: integral of omega(s) over [0, t]."""
        f = self.scenario.field
        w = 2.0 * math.pi * f.modulation_freq
        return f.omega0 * (t + 0.5 * (1.0 - math.cos(w * t)) / w)

    def check(self, records) -> list[str]:
        p, first, final = self.params, records[0], records[-1]
        problems = []
        if final.step != self.steps or abs(final.time - p["t_end"]) > 1e-9:
            problems.append(f"ended at step {final.step}, t={final.time!r}")
        got = {k: float(getattr(final, k)) for k in ERROR_KEYS}
        if not all(math.isfinite(v) for v in got.values()):
            return problems + [f"non-finite errors {got}"]

        # exact solution: a rigid rotation of the initial disc about its centre
        center = np.asarray(p["center"], dtype=float)
        theta = self.exact_angle(p["t_end"])
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        exact = {
            "eps_dia": abs(final.diameter - 2.0 * self.scenario.disc_radius),
            "eps_V": abs(final.hull_volume - first.hull_volume) / first.hull_volume,
        }
        for key, value in exact.items():
            if not math.isclose(got[key], value, rel_tol=RECOMPUTE_RTOL, abs_tol=1e-15):
                problems.append(f"{key}={got[key]!r} but the exact solution gives {value!r}")
        centroid_exact = center + rot @ (np.asarray(first.centroid) - center)
        got_limits = dict(got, centroid_exact=float(np.linalg.norm(final.centroid - centroid_exact)))
        for key, limit in RUN_LIMITS.items():
            if not got_limits[key] <= limit:
                problems.append(f"{key}={got_limits[key]!r} exceeds {limit!r}")
        if self.reference is not None:
            for key, ref in self.reference["final"].items():
                if _mismatch(got[key], ref):
                    problems.append(f"{key}={got[key]!r} differs from the recorded {ref!r}")
        return problems


class SweepWorkload:
    """``lagmove sweep`` over all four movers, called in-process via ``cli.main``."""

    def __init__(self, params: dict, reference: dict | None, out_dir: str):
        self.params = params
        self.reference = reference if reference and reference.get("params") == params else None
        self.csv_path = os.path.join(out_dir, "paper-sweep.csv")
        self.summary_path = os.path.join(out_dir, "paper-sweep.json")
        p = params
        self.argv = [
            "sweep", "--scenario", p["scenario"], "--gradient", p["gradient"],
            "--dts", ",".join(repr(dt) for dt in p["dts"]),
            "--n-points", str(p["n_points"]),
            "--out", self.csv_path, "--summary", self.summary_path,
        ]
        if p["t_end"] is not None:
            self.argv += ["--t-end", repr(p["t_end"])]
        t_end = lm.make_scenario(p["scenario"], n=p["n_points"], t_end=p["t_end"]).t_end
        self.point_steps = p["n_points"] * len(lm.movers.MOVER_NAMES) * sum(
            count_steps(t_end, dt) for dt in p["dts"]
        )

    def setup(self):
        scenario = scenarios.make_scenario(self.params["scenario"], n=self.params["n_points"])
        config = lm.RunConfig(mover=lm.MoverKind("m1"), dt=min(self.params["dts"]))
        return scenarios.initial_cloud(scenario, config)

    def warm_up(self) -> None:
        self._main(self.argv + ["--t-end", repr(max(self.params["dts"]))])

    def _main(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def iterate(self, tracer=None) -> Outcome:
        for path in (self.csv_path, self.summary_path):
            if os.path.exists(path):
                os.remove(path)
        rc, seconds = _timed(tracer, self._main, self.argv)
        if rc != 0:
            return Outcome(seconds, 0, {}, [f"cli.main returned {rc}"])
        cells, problems = self.check()
        errors = {}
        if cells:
            errors = {k: _geomean([c[k] for c in cells]) for k in ("eps_dia", "eps_V")}
        return Outcome(seconds, self.point_steps, errors, problems)

    def check(self) -> tuple[list[dict], list[str]]:
        with open(self.summary_path) as f:
            cells = json.load(f)
        with open(self.csv_path, newline="") as f:
            lines = f.read().splitlines()
        problems = []
        expected = [(m, dt) for m in sorted(lm.movers.MOVER_NAMES) for dt in sorted(self.params["dts"])]
        if [(c["mover"], c["dt"]) for c in cells] != expected:
            return [], [f"sweep cells {[(c['mover'], c['dt']) for c in cells]} != {expected}"]
        if lines[0] != "mover,dt,eps_dia,eps_x,eps_V,failed" or len(lines) != len(cells) + 1:
            problems.append("sweep CSV has the wrong header or row count")
        for c, line in zip(cells, lines[1:]):
            name = f"{c['mover']} dt={c['dt']!r}"
            row = line.split(",")
            parsed = [row[0], float(row[1])] + [float(x) for x in row[2:5]] + [row[5] == "1"]
            if parsed != [c["mover"], c["dt"]] + [c[k] for k in ERROR_KEYS] + [c["failed"]]:
                problems.append(f"{name}: CSV row {line!r} does not round-trip the summary")
            if c["failed"]:
                problems.append(f"{name}: cell failed")
                continue
            for key in ERROR_KEYS:
                value, limit = c[key], SWEEP_LIMITS[c["mover"]][key]
                if not (math.isfinite(value) and 0.0 <= value <= limit):
                    problems.append(f"{name}: {key}={value!r} outside [0, {limit!r}]")
        # the paper's convergence figure: every mover's errors fall with dt
        for mover in sorted(lm.movers.MOVER_NAMES):
            eps = [c["eps_dia"] for c in cells if c["mover"] == mover]
            if any(small >= large for small, large in zip(eps, eps[1:])):
                problems.append(f"{mover}: eps_dia {eps} does not fall as dt falls")
        if self.reference is not None:
            for c, ref in zip(cells, self.reference["cells"]):
                for key in ERROR_KEYS:
                    if _mismatch(c[key], ref[key]):
                        problems.append(
                            f"{c['mover']} dt={c['dt']!r}: {key}={c[key]!r} differs from the recorded {ref[key]!r}"
                        )
        return cells, problems


def make_workload(name: str, params: dict, reference: dict | None, out_dir: str):
    cls = SweepWorkload if name == "paper-sweep" else RunWorkload
    return cls(params, reference, out_dir)
