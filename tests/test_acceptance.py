"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line (visible with pytest -s) in
addition to its assertions. Criteria 1, 6, 8 and 10 run the checks of
``lagmove validate`` under a wall-clock gate.
"""
import math
import time

import numpy as np

from lagmove import cli, validate
from lagmove.movers import MoverKind
from lagmove.scenarios import (
    MIN_POINTS,
    RunConfig,
    clouds,
    convergence_sweep,
    make_scenario,
    plan_steps,
    run,
)
from lagmove.validate import position_history


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}")
    assert ok, f"{name}: {detail}"


def config(mover, dt, **kw):
    return RunConfig(mover=MoverKind(mover), dt=dt, **kw)


def report_check(name, check, gate):
    """Run a ``validate`` check; it passes if the check does, within ``gate`` seconds."""
    t0 = time.time()
    ok, detail = check()
    elapsed = time.time() - t0
    report(name, ok and elapsed < gate, f"{detail}, {elapsed:.2f}s")


def test_criterion_1_reduction_identities():
    report_check("criterion 1 (reduction identities)", validate.check_reduction_identities, 1.0)


def test_criterion_2_m1_radius_growth():
    t0 = time.time()
    dt, t_end = 0.01, 4 * np.pi
    # the smallest disc's row 0 starts at (1, 0), and m1 and the rotation
    # field act point by point, so it moves as a lone point there would
    sc = make_scenario("rotation", n=MIN_POINTS, t_end=t_end)
    for cloud in clouds(sc, config("m1", dt)):
        pass
    n_full, rem = plan_steps(t_end, dt)
    radius = float(np.linalg.norm(cloud.positions[0]))
    # per-step radius factor sqrt(1 + (w dt)^2); dt does not divide 4*pi,
    # so the oracle includes the shortened final step explicitly
    oracle = (1 + dt**2) ** (n_full / 2) * math.sqrt(1 + rem**2)
    rel = abs(radius - oracle) / oracle
    elapsed = time.time() - t0
    report(
        "criterion 2 (m1 closed-form radius growth)",
        rel <= 1e-9 and elapsed < 1.0,
        f"radius {radius:.12f} vs oracle {oracle:.12f}, rel {rel:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_m3_disc_accuracy():
    t0 = time.time()
    sc = make_scenario("rotation")  # N=222, two rotations
    final = run(sc, config("m3", 0.05))[-1]
    elapsed = time.time() - t0
    report(
        "criterion 3 (m3 rotating disc eps_dia)",
        final.eps_dia <= 1e-4 and elapsed < 5.0,
        f"eps_dia {final.eps_dia:.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_two_orders_of_magnitude():
    t0 = time.time()
    sc = make_scenario("rotation")
    cells = convergence_sweep(sc, [0.2, 0.1, 0.05, 0.025])
    eps = {(c.mover, c.dt): c.eps_dia for c in cells}
    m1_small = eps[("m1", 0.025)]
    others_small = max(eps[("m2", 0.025)], eps[("m3", 0.025)], eps[("m4", 0.025)])
    at_large = {m: eps[(m, 0.2)] for m in ("m1", "m2", "m3", "m4")}
    m3_best_large = min(at_large, key=at_large.get) == "m3"
    elapsed = time.time() - t0
    report(
        "criterion 4 (two orders of magnitude + m3 best at large dt)",
        m1_small >= 100 * others_small and m3_best_large and elapsed < 30.0,
        f"ratio {m1_small / others_small:.1f}, large-dt best "
        f"{min(at_large, key=at_large.get)}, {elapsed:.2f}s",
    )


def test_criterion_5_convergence_orders():
    t0 = time.time()
    sc = make_scenario("lissajous", t_end=3.0)
    eps = {
        m: [run(sc, config(m, dt))[-1].eps_x for dt in (0.05, 0.025, 0.0125)]
        for m in ("m1", "m2")
    }
    r1 = [eps["m1"][i] / eps["m1"][i + 1] for i in range(2)]
    r2 = [eps["m2"][i] / eps["m2"][i + 1] for i in range(2)]
    ok1 = all(1.6 <= r <= 2.4 for r in r1)
    # hard floor of ratio 1.6 applies only if m2 saturates at roundoff
    saturated = min(eps["m2"]) < 1e-12
    ok2 = all(3.2 <= r <= 4.8 for r in r2) or (saturated and all(r >= 1.6 for r in r2))
    elapsed = time.time() - t0
    report(
        "criterion 5 (convergence orders on Lissajous)",
        ok1 and ok2 and elapsed < 5.0,
        f"m1 ratios {[f'{r:.2f}' for r in r1]}, m2 ratios {[f'{r:.2f}' for r in r2]}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_6_wlsq_exactness():
    report_check("criterion 6 (WLSQ exactness on linear fields)", validate.check_wlsq_exactness, 5.0)


def test_criterion_7_numeric_vs_analytic_gradients():
    t0 = time.time()
    sc = make_scenario("rotation")
    e_analytic = run(sc, config("m3", 0.05, gradient_mode="analytic"))[-1].eps_dia
    e_numeric = run(sc, config("m3", 0.05, gradient_mode="numeric"))[-1].eps_dia
    elapsed = time.time() - t0
    report(
        "criterion 7 (numeric vs analytic gradient mode)",
        e_numeric <= 10 * e_analytic and e_numeric <= 1e-2 and e_analytic <= 1e-2
        and elapsed < 10.0,
        f"analytic {e_analytic:.2e}, numeric {e_numeric:.2e}, {elapsed:.2f}s",
    )


def test_criterion_8_series_oracle():
    report_check("criterion 8 (series tail bound and expm oracle)", validate.check_series_oracle, 2.0)


def test_criterion_9_unsteady_flow_ordering():
    t0 = time.time()
    dt = 0.05
    sc = make_scenario("modulated-rotation")  # omega0=1, f=0.5, t_end=10
    n_steps, _ = plan_steps(sc.t_end, dt)
    eps = {m: run(sc, config(m, dt))[-1].eps_V for m in ("m1", "m2", "m3", "m4")}
    # m3 is exact in hull volume up to its series: each step maps x to the
    # degree-K Taylor polynomial of a rotation by theta_n = omega(t_n) dt,
    # whose |det| <= (1 + tau_n)^2 with tau_n = sum_{k>K} theta_n^k / k!
    terms = MoverKind("m3").terms
    v_bound = 1.0
    for n in range(n_steps):
        theta = sc.field.rate(n * dt) * dt
        tau = sum(theta**k / math.factorial(k) for k in range(terms + 1, 40))
        v_bound *= (1.0 + tau) ** 2
    v_bound -= 1.0
    # m4's promise on unsteady flow is the pathline: per-point error against
    # the exact flow map (rotation by the accumulated angle, as a complex
    # factor), maximised over the run, since t_end spans whole modulation
    # periods and the end-time error hides m3's phase lag
    rot = np.exp(1j * sc.field.angle(np.arange(n_steps + 1) * dt))
    traj = {}
    for m in ("m3", "m4"):
        hist = position_history(sc, config(m, dt))
        z = hist[..., 0] + 1j * hist[..., 1]
        traj[m] = np.abs(z - np.outer(rot, z[0])).max()
    elapsed = time.time() - t0
    ok = (
        eps["m2"] >= 1.0 * eps["m4"]
        and eps["m1"] >= 1.1 * eps["m2"]
        and eps["m3"] <= v_bound
        and traj["m3"] >= 1.1 * traj["m4"]
    )
    report(
        "criterion 9 (unsteady-flow volume and trajectory ordering)",
        ok and elapsed < 10.0,
        f"eps_V m1 {eps['m1']:.2e}, m2 {eps['m2']:.2e}, m3 {eps['m3']:.2e} "
        f"(bound {v_bound:.2e}), m4 {eps['m4']:.2e}; traj m3 {traj['m3']:.2e}, "
        f"m4 {traj['m4']:.2e}, {elapsed:.2f}s",
    )


def test_criterion_10_neighbor_oracle():
    report_check("criterion 10 (neighbor search oracle)", validate.check_neighbor_oracle, 2.0)


def test_criterion_11_csv_determinism(tmp_path):
    argv = [
        "run", "--scenario", "rotation", "--mover", "m3", "--dt", "0.05", "--stride", "5",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    report("criterion 11 (byte-identical CSV determinism)", identical)
