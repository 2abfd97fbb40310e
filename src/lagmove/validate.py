"""Built-in self checks behind the ``validate`` CLI subcommand.

Each check returns (name, passed, detail); the suite is deterministic.
``fd_jacobian`` and ``phi1_expm`` are oracles the tests share.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from . import gfdm, movers, neighbors
from .cloud import advance_history, make_cloud
from .fields import LinearField, Lissajous, ModulatedRotation, RigidRotation


def fd_jacobian(field, x, t, eps=1e-6):
    """Central-difference (2, 2) Jacobian of a 2D field at point ``x``."""
    jac = np.zeros((2, 2))
    for j in range(2):
        xp, xm = x.copy(), x.copy()
        xp[j] += eps
        xm[j] -= eps
        jac[:, j] = (field.evaluate(xp[None], t)[0] - field.evaluate(xm[None], t)[0]) / (2 * eps)
    return jac


def phi1_expm(a, v, dt):
    """Exact integral of exp(a s) v over s in [0, dt] (the series' infinite-K
    limit), from the scaling-and-squaring exponential of the augmented matrix."""
    d = len(v)
    aug = np.block([[a * dt, (v * dt)[:, None]], [np.zeros((1, d + 1))]])
    return expm(aug)[:d, d]


def check_reduction_identities():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        v = rng.normal(size=(4, 2))
        vp = rng.normal(size=(4, 2))
        zero = np.zeros((4, 2, 2))
        c = advance_history(make_cloud(zero[:, 0], vp, zero, smoothing_length=1.0, dt=0.1), v, zero)
        worst = max(worst, np.abs(movers.move_m3(c, 0.1) - movers.move_m1(c, 0.1)).max())
        worst = max(worst, np.abs(movers.move_m4(c, 0.1)[0] - movers.move_m2(c, 0.1)).max())
    return worst <= 1e-15, f"max reduction mismatch {worst:.3e}"


def check_field_gradients():
    fields = [
        RigidRotation(center=(0.2, -0.1), omega=1.3),
        Lissajous(),
        LinearField(A=((0.2, 1.0), (0.3, -0.2)), b=(0.5, -0.1)),
        ModulatedRotation(omega0=1.0, modulation_freq=0.5),
    ]
    rng = np.random.default_rng(11)
    worst = 0.0
    for field in fields:
        for _ in range(25):
            x = rng.uniform(-1, 1, size=2)
            t = rng.uniform(0, 10)
            exact = field.gradient(x[None], t)[0]
            approx = fd_jacobian(field, x, t)
            worst = max(worst, np.abs(exact - approx).max())
    return worst <= 1e-6, f"max gradient FD mismatch {worst:.3e}"


def check_series_oracle():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=(2, 2))
        a *= min(1.0, 2.0 / np.linalg.norm(a, 2))
        v = rng.normal(size=2)
        dt = rng.uniform(0.01, 0.2)
        got = movers.exp_series_apply(a[None], v[None], dt, 5)[0]
        ref = movers.exp_series_apply(a[None], v[None], dt, 20)[0]
        na = np.linalg.norm(a, 2)
        tail = sum(
            na**k * dt ** (k + 1) / math.factorial(k + 1) for k in range(5, 25)
        ) * np.linalg.norm(v)
        worst = max(worst, np.linalg.norm(got - ref) - tail)
        exact = phi1_expm(a, v, dt)
        rel = np.linalg.norm(ref - exact) / max(np.linalg.norm(exact), 1e-300)
        if rel > 1e-12:
            return False, f"K=20 vs expm relative error {rel:.3e}"
    return worst <= 0.0, f"worst tail-bound slack {worst:.3e}"


def _stencil_conditions(pos, index, h):
    """Condition number of each row's weighted normal matrix, as the fit weighs it."""
    conds = np.empty(len(pos))
    for i, j in enumerate(index.lists):
        dx = pos[j] - pos[i]
        w = np.exp(-gfdm.WEIGHT_EXPONENT * np.einsum("ij,ij->i", dx, dx) / (h * h))
        conds[i] = np.linalg.cond(dx.T @ (w[:, None] * dx))
    return conds


def check_wlsq_exactness():
    """Each row's error within 1e-10 and within 100 x its rounding scale,
    cond_i * eps * max|A|, so that a well-conditioned stencil cannot hide
    an error behind the bound an ill-conditioned one needs."""
    rng = np.random.default_rng(17)
    worst, worst_ratio, ok = 0.0, 0.0, True
    for _ in range(10):
        pos = rng.uniform(-1, 1, size=(80, 2))
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=2)
        vel = pos @ a.T + b
        index = neighbors.build_index(pos, 0.5)
        fitted = gfdm.all_gradients(pos, vel, index, 0.5, zero_fallback=False)
        err = np.abs(fitted - a).max(axis=(1, 2))
        scale = _stencil_conditions(pos, index, 0.5) * np.finfo(float).eps * np.abs(a).max()
        ok &= bool(np.all(err <= np.minimum(1e-10, 100.0 * scale)))
        worst = max(worst, err.max())
        worst_ratio = max(worst_ratio, (err / scale).max())
    return ok, f"max error {worst:.3e}, worst error/(cond eps max|A|) {worst_ratio:.2f}, bound 100"


def check_neighbor_oracle():
    rng = np.random.default_rng(19)
    pos = rng.uniform(0, 1, size=(150, 2))
    index = neighbors.build_index(pos, 0.2)
    brute = neighbors.brute_force_neighbors(pos, 0.2)
    for i, (got, want) in enumerate(zip(index.lists, brute)):
        if not np.array_equal(got, want):
            return False, f"KD-tree pair list, expanded per point, disagrees with all-pairs scan at point {i}"
    return True, "KD-tree pair list, expanded per point, equals all-pairs scan"


ALL_CHECKS = (
    ("reduction-identities", check_reduction_identities),
    ("field-gradients-vs-finite-differences", check_field_gradients),
    ("series-vs-oracle", check_series_oracle),
    ("wlsq-linear-exactness", check_wlsq_exactness),
    ("neighbor-search-vs-brute-force", check_neighbor_oracle),
)


def run_all() -> list[tuple[str, bool, str]]:
    results = []
    for name, check in ALL_CHECKS:
        try:
            ok, detail = check()
        except Exception as exc:  # a crashing check is a failing check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
