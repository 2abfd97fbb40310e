from dataclasses import replace

import numpy as np
import pytest

from lagmove.cloud import make_cloud
from lagmove.errors import StructuralError
from lagmove.movers import MoverKind
from lagmove.scenarios import (
    RunConfig,
    initial_cloud,
    make_scenario,
    plan_steps,
    run,
    sample_disc,
    step,
)


def config(mover="m1", dt=0.05, **kw):
    return RunConfig(mover=MoverKind(mover), dt=dt, **kw)


def test_non_finite_disc_radius_rejected():
    # no CLI flag sets the radius; dt, t_end and radius_factor are covered in test_cli
    sc = make_scenario("rotation")
    for bad in (np.nan, np.inf):
        with pytest.raises(StructuralError):
            replace(sc, disc_radius=bad)


def test_sample_disc_contract():
    with pytest.raises(StructuralError):
        sample_disc((0.0, 0.0), 1.0, 1)
    pts = sample_disc((0.0, 0.0), 1.0, 3)
    assert pts.shape == (3, 2)
    assert len(np.unique(pts, axis=0)) == 3


def test_sample_disc_containment_and_spread():
    pts = sample_disc((0.5, -0.5), 2.0, 222)
    assert np.all(np.linalg.norm(pts - [0.5, -0.5], axis=1) <= 2.0 + 1e-12)
    diff = pts[:, None, :] - pts[None, :, :]
    assert np.sqrt((diff**2).sum(-1)).max() >= 2 * 2.0 * (1 - 2 / np.sqrt(222))


def test_sample_disc_centroid_regression():
    # frozen from the first run of this layout
    pts = sample_disc((0.0, 0.0), 1.0, 222)
    assert np.allclose(pts.mean(axis=0), [0.00190992, -0.00136085], atol=1e-7)


def test_sample_disc_deterministic():
    a = sample_disc((0.0, 0.0), 1.0, 100)
    b = sample_disc((0.0, 0.0), 1.0, 100)
    assert np.array_equal(a, b)


def test_plan_steps():
    assert plan_steps(3.0, 0.05) == (60, 0.0)
    n, rem = plan_steps(4 * np.pi, 0.01)
    assert n == 1256
    assert rem == pytest.approx(4 * np.pi - 12.56, abs=1e-12)


def test_single_step_composition():
    # one m1 step on the rotation field from (1, 0)
    sc = make_scenario("rotation")
    cfg = config("m1", dt=0.1)
    pos = np.array([[1.0, 0.0]])
    cloud = make_cloud(
        pos,
        sc.field.evaluate(pos, 0.0),
        sc.field.gradient(pos, 0.0),
        smoothing_length=0.3,
        dt=0.1,
    )
    out = step(cloud, sc, cfg)
    assert np.allclose(out.positions, [[1.0, 0.1]])
    assert np.allclose(out.velocities, sc.field.evaluate(np.array([[1.0, 0.1]]), 0.1))
    assert out.has_history


def test_lissajous_m3_equals_m1_history():
    sc = make_scenario("lissajous")
    hist = {}
    for m in ("m1", "m3"):
        cfg = config(m, dt=0.05)
        cloud = initial_cloud(sc, cfg)
        snaps = [cloud.positions]
        for _ in range(60):
            cloud = step(cloud, sc, cfg)
            snaps.append(cloud.positions)
        hist[m] = np.array(snaps)
    scale = np.abs(hist["m1"]).max()
    assert np.abs(hist["m3"] - hist["m1"]).max() <= 1e-13 * scale


def test_lissajous_m4_equals_m2_history():
    sc = make_scenario("lissajous")
    hist = {}
    for m in ("m2", "m4"):
        cfg = config(m, dt=0.05)
        cloud = initial_cloud(sc, cfg)
        snaps = [cloud.positions]
        for _ in range(60):
            cloud = step(cloud, sc, cfg)
            snaps.append(cloud.positions)
        hist[m] = np.array(snaps)
    scale = np.abs(hist["m2"]).max()
    assert np.abs(hist["m4"] - hist["m2"]).max() <= 1e-13 * scale


def test_run_final_time_and_payload():
    sc = make_scenario("lissajous", t_end=1.0)
    records = run(sc, config("m2", dt=0.05))
    assert records[-1].time == pytest.approx(1.0, abs=1e-12)
    assert records[0].step == 0


def test_short_final_step_lands_on_t_end():
    sc = make_scenario("rotation", t_end=1.03)  # 20 full steps of 0.05 + 0.03
    records = run(sc, config("m2", dt=0.05))
    assert records[-1].time == pytest.approx(1.03, abs=1e-12)


def test_short_step_keeps_history_spacing():
    # m2's backward difference spans the stored levels 0.05 apart, while
    # the integration interval shrinks to the short step
    sc = make_scenario("lissajous")
    cfg = config("m2", dt=0.05)
    cloud = initial_cloud(sc, cfg)
    for _ in range(3):
        cloud = step(cloud, sc, cfg)
    dt_s = 0.02
    out = step(cloud, sc, cfg, dt=dt_s)
    assert out.time == pytest.approx(3 * 0.05 + dt_s, abs=1e-12)
    assert out.step == 4
    v, v_prev = cloud.velocities, cloud.velocities_prev
    expected = v * dt_s + 0.5 * (v - v_prev) / 0.05 * dt_s**2
    assert np.allclose(out.positions - cloud.positions, expected, rtol=0.0, atol=1e-14)


def test_lissajous_m2_better_than_m1():
    sc = make_scenario("lissajous")
    e1 = run(sc, config("m1", dt=0.05))[-1].eps_x
    e2 = run(sc, config("m2", dt=0.05))[-1].eps_x
    assert np.isfinite(e2)
    assert e2 < e1


def test_exact_rotation_preserves_pair_distances():
    # oracle: applying the exact flow map to the sampled disc is an isometry
    pts = sample_disc((0.0, 0.0), 1.0, 50)
    theta = 0.9
    q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = pts @ q.T
    d0 = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    d1 = np.sqrt(((moved[:, None] - moved[None]) ** 2).sum(-1))
    assert np.abs(d1 - d0).max() <= 1e-12


def test_determinism_bitwise():
    sc = make_scenario("rotation", t_end=1.0)
    a = run(sc, config("m3", dt=0.05))
    b = run(sc, config("m3", dt=0.05))
    for ra, rb in zip(a, b):
        assert ra.time == rb.time
        assert np.array_equal(ra.centroid, rb.centroid)
        assert ra.diameter == rb.diameter
        assert ra.hull_volume == rb.hull_volume


def test_modulated_rotation_trajectory_ordering():
    # unsteady flow: change-of-streamlines beats the plain second-order
    # scheme, which beats first order, in per-point trajectory error
    sc = make_scenario("modulated-rotation")
    field = sc.field
    errs = {}
    for m in ("m1", "m2", "m4"):
        cfg = config(m, dt=0.05)
        cloud = initial_cloud(sc, cfg)
        x0 = cloud.positions.copy()
        for _ in range(200):
            cloud = step(cloud, sc, cfg)
        th = field.angle(10.0)
        q = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        errs[m] = np.linalg.norm(cloud.positions - x0 @ q.T, axis=1).max()
    assert errs["m4"] < errs["m2"] < errs["m1"]
