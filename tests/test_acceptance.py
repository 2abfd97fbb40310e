"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line (visible with pytest -s) in
addition to its assertions.
"""
import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from lagmove import cli
from lagmove.cloud import make_cloud
from lagmove.gfdm import all_gradients
from lagmove.movers import MoverKind, exp_series_apply
from lagmove.neighbors import brute_force_neighbors, build_index
from lagmove.scenarios import (
    RunConfig,
    convergence_sweep,
    initial_cloud,
    make_scenario,
    plan_steps,
    run,
    step,
)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}")
    assert ok, f"{name}: {detail}"


def config(mover, dt, **kw):
    return RunConfig(mover=MoverKind(mover), dt=dt, **kw)


def position_history(scenario, cfg, n_steps):
    cloud = initial_cloud(scenario, cfg)
    snaps = [cloud.positions]
    for _ in range(n_steps):
        cloud = step(cloud, scenario, cfg)
        snaps.append(cloud.positions)
    return np.array(snaps)


def test_criterion_1_reduction_identities():
    t0 = time.time()
    sc = make_scenario("lissajous", t_end=3.0)
    h1 = position_history(sc, config("m1", 0.05), 60)
    h3 = position_history(sc, config("m3", 0.05), 60)
    h2 = position_history(sc, config("m2", 0.05), 60)
    h4 = position_history(sc, config("m4", 0.05), 60)
    scale = np.abs(h1).max()
    d31 = np.abs(h3 - h1).max() / scale
    d42 = np.abs(h4 - h2).max() / scale
    elapsed = time.time() - t0
    report(
        "criterion 1 (reduction identities)",
        d31 <= 1e-13 and d42 <= 1e-13 and elapsed < 1.0,
        f"m3-m1 {d31:.2e}, m4-m2 {d42:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_m1_radius_growth():
    t0 = time.time()
    dt, t_end = 0.01, 4 * np.pi
    sc = make_scenario("rotation", t_end=t_end)
    cfg = config("m1", dt)
    pos = np.array([[1.0, 0.0]])
    cloud = make_cloud(
        pos,
        sc.field.evaluate(pos, 0.0),
        sc.field.gradient(pos, 0.0),
        smoothing_length=0.3,
        dt=dt,
    )
    n_full, rem = plan_steps(t_end, dt)
    for _ in range(n_full):
        cloud = step(cloud, sc, cfg)
    if rem > 0.0:
        cloud = step(cloud, sc, cfg, dt=rem)
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
    cells = convergence_sweep(sc, config("m1", 0.2), [0.2, 0.1, 0.05, 0.025])
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
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    h = 0.55  # tuned so each of 200 uniform points in [-1,1]^2 has >= 6 neighbors
    for _ in range(50):
        pos = rng.uniform(-1.0, 1.0, size=(200, 2))
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=2)
        vel = pos @ a.T + b
        cloud = make_cloud(pos, vel, np.zeros((200, 2, 2)), smoothing_length=h, dt=0.1)
        index = build_index(cloud, h)
        assert index.neighbor_count().min() >= 6
        fitted = all_gradients(cloud, index, zero_fallback=False)
        worst = max(worst, np.abs(fitted - a).max())
    elapsed = time.time() - t0
    report(
        "criterion 6 (WLSQ exactness on linear fields)",
        worst <= 1e-10 and elapsed < 5.0,
        f"worst error {worst:.2e}, {elapsed:.2f}s",
    )


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
    t0 = time.time()
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(1000):
        a = rng.normal(size=(2, 2))
        norm_a = np.linalg.norm(a, 2)
        if norm_a > 2.0:
            a *= 2.0 / norm_a
            norm_a = 2.0
        v = rng.normal(size=2)
        dt = rng.uniform(0.0, 0.2)
        k5 = exp_series_apply(a[None], v[None], dt, 5)[0]
        k20 = exp_series_apply(a[None], v[None], dt, 20)[0]
        # term-wise bound on the omitted terms: ||A||^k dt^(k+1) / (k+1)! ||v||
        tail = np.linalg.norm(v) * sum(
            norm_a**k * dt ** (k + 1) / math.factorial(k + 1) for k in range(5, 40)
        )
        ok &= np.linalg.norm(k5 - k20) <= tail + 1e-16
        aug = np.zeros((3, 3))
        aug[:2, :2] = a * dt
        aug[:2, 2] = v * dt
        ref = expm(aug)[:2, 2]
        ok &= np.linalg.norm(k20 - ref) <= 1e-12 * max(np.linalg.norm(ref), 1e-30)
    elapsed = time.time() - t0
    report("criterion 8 (series tail bound and expm oracle)", ok and elapsed < 2.0, f"{elapsed:.2f}s")


def test_criterion_9_unsteady_flow_ordering():
    t0 = time.time()
    sc = make_scenario("modulated-rotation")  # omega0=1, f=0.5, t_end=10
    eps = {m: run(sc, config(m, 0.05))[-1].eps_V for m in ("m1", "m2", "m3", "m4")}
    elapsed = time.time() - t0
    ok = (
        eps["m2"] >= 1.0 * eps["m4"]
        and eps["m1"] >= 1.1 * eps["m2"]
        and eps["m3"] >= 1.1 * eps["m4"]  # expected red: see ledger
    )
    report(
        "criterion 9 (unsteady-flow volume-error ordering)",
        ok and elapsed < 10.0,
        f"eps_V m1 {eps['m1']:.2e}, m2 {eps['m2']:.2e}, m3 {eps['m3']:.2e}, "
        f"m4 {eps['m4']:.2e}, {elapsed:.2f}s",
    )


def test_criterion_10_neighbor_oracle():
    t0 = time.time()
    ok = True
    for trial in range(50):
        rng = np.random.default_rng(1000 + trial)
        pos = rng.uniform(0.0, 1.0, size=(300, 2))
        cloud = make_cloud(
            pos, np.zeros((300, 2)), np.zeros((300, 2, 2)), smoothing_length=0.1, dt=0.1
        )
        index = build_index(cloud, 0.1)
        brute = brute_force_neighbors(pos, 0.1)
        ok &= all(np.array_equal(a, b) for a, b in zip(index.lists, brute))
    elapsed = time.time() - t0
    report("criterion 10 (neighbor search oracle)", ok and elapsed < 2.0, f"{elapsed:.2f}s")


def test_criterion_11_csv_determinism(tmp_path):
    argv = [
        "run", "--scenario", "rotation", "--mover", "m3", "--dt", "0.05",
        "--seed", "7", "--stride", "5",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    report("criterion 11 (byte-identical CSV determinism)", identical)
