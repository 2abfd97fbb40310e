"""Built-in self checks behind the ``validate`` CLI subcommand.

Each check takes no argument, is deterministic and returns (passed,
detail); acceptance criteria 1, 6, 8 and 10 run the same functions. A check
runs the code a run runs: ``position_history`` stacks the positions of
the run's own stream, ``scenarios.clouds``, and the fit is the run's
zero-fallback ``gfdm.all_gradients``. ``scheme_history`` walks the step
plan on its own, as an oracle independent of the stream. A NaN in any
case fails its check. The finite-difference and scheme-recurrence checks
take the worst of a per-case function that the tests run case by case.
The other public functions are oracles the tests share.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from . import gfdm, movers, neighbors
from .fields import LinearField, Lissajous, ModulatedRotation, RigidRotation
from .scenarios import SCENARIOS, RunConfig, clouds, make_scenario, plan_steps, sample_disc

# the fields whose closed-form gradient is checked, by test id
FIELDS = {
    "rigid-rotation0": RigidRotation(center=(0.0, 0.0), omega=1.0),
    "rigid-rotation1": RigidRotation(center=(0.3, -0.7), omega=-2.5),
    "lissajous": Lissajous(),
    "linear": LinearField(A=((1.0, 2.0), (3.0, 4.0)), b=(0.0, 0.0)),
    "modulated-rotation": ModulatedRotation(center=(0.1, 0.2), omega0=1.0, modulation_freq=0.5),
    "rigid-rotation2": RigidRotation(center=(0.2, -0.1), omega=1.3),
    "linear-field": SCENARIOS["linear-field"].field,
}
# correct code's worst mismatch is 5.6e-10 (linear), so a gradient 1e-7 off fails
FD_GRADIENT_BOUND = 1e-8
# relative step error of a run against its scheme's exact recurrence
SCHEME_RECURRENCE_BOUND = 1e-14


def fd_jacobian(field, x, t, eps=1e-6):
    """Central-difference (2, 2) Jacobian of a 2D field at point ``x``."""
    jac = np.zeros((2, 2))
    for j in range(2):
        xp, xm = x.copy(), x.copy()
        xp[j] += eps
        xm[j] -= eps
        jac[:, j] = (field.evaluate(xp[None], t)[0] - field.evaluate(xm[None], t)[0]) / (2 * eps)
    return jac


def fd_gradient_error(field) -> float:
    """Largest entry of |closed-form gradient - central difference| over 100
    draws (seed 42) of x in [-1, 1]^2 and t in [0, 10]; NaN if any entry is."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-1.0, 1.0, size=2)
        t = rng.uniform(0.0, 10.0)
        worst = np.maximum(worst, np.abs(field.gradient(x[None], t)[0] - fd_jacobian(field, x, t)).max())
    return float(worst)


def phi1_expm(a, v, dt):
    """Exact integral of exp(a s) v over s in [0, dt] (the series' infinite-K
    limit), from the scaling-and-squaring exponential of the augmented matrix."""
    d = len(v)
    aug = np.zeros((d + 1, d + 1))
    aug[:d, :d] = a * dt
    aug[:d, d] = v * dt
    return expm(aug)[:d, d]


def position_history(scenario, config):
    """(n + 1, N, 2) positions: the stack of ``scenarios.clouds``' positions,
    the initial cloud and then one after each of the n steps of the run's
    plan, the shortened last one included."""
    return np.array([cloud.positions for cloud in clouds(scenario, config)])


def _series_matrix(a, dt, terms, offset):
    """S_o(A) = sum_{k<K} A^k dt^(k+1+o) / (k+1+o)! as one (2, 2) matrix,
    its powers formed explicitly: the movers' series kernel never does."""
    s, power = np.zeros((2, 2)), np.eye(2)
    for k in range(terms):
        p = k + 1 + offset
        s += power * (dt**p / math.factorial(p))
        power = power @ a
    return s


def scheme_history(scenario, config):
    """(n + 1, N, 2) positions: the start, then after each of the n steps of
    ``plan_steps(scenario.t_end, config.dt)``, from each scheme's affine recurrence
    on an affine field, derived apart from the movers. With v_n = A_n x_n +
    b_n sampled from the field, dt the step's interval and h = config.dt
    the level spacing, x_{n+1} - x_n is
      m1  dt v_n
      m2  dt v_n + (dt^2 / 2) (v_n - v_{n-1}) / h
      m3  S_0(A_n) v_n
      m4  dt v_n + (S_1(A_n) v_n - S_1(A_{n-1}) v_{n-1}) / h
    The first step is the bootstrap's (m1 for m2, m3 for m4); only the
    shortened last step has dt != h. A is the field's own Jacobian, as in
    an analytic run; ``config.gradient_mode`` is not read."""
    field, h, terms = scenario.field, config.dt, config.mover.terms
    n_full, remainder = plan_steps(scenario.t_end, h)
    x = sample_disc(scenario.disc_center, scenario.disc_radius, scenario.n_points)
    snaps, prev = [x], None
    for n, dt in enumerate([h] * n_full + ([remainder] if remainder > 0.0 else [])):
        t = n * h
        a, v = field.jacobian(t), field.evaluate(x, t)
        name = config.mover.name if prev is not None else config.mover.bootstrap.name
        if name == "m1":
            disp = dt * v
        elif name == "m2":
            disp = dt * v + (dt**2 / 2) * (v - prev[1]) / h
        elif name == "m3":
            disp = v @ _series_matrix(a, dt, terms, 0).T
        else:
            s_now = v @ _series_matrix(a, dt, terms, 1).T
            s_old = prev[1] @ _series_matrix(prev[0], dt, terms, 1).T
            disp = dt * v + (s_now - s_old) / h
        x, prev = x + disp, (a, v)
        snaps.append(x)
    return np.array(snaps)


def scheme_recurrence_error(name, mover) -> float:
    """Largest gap between ``position_history`` and ``scheme_history`` over
    one run of scenario ``name`` with ``mover``: 40 steps of 0.05 and a
    shortened one of 0.03, through the bootstrap. Each step's gap is its
    largest coordinate difference over max(1, its largest exact coordinate)."""
    scenario, config = make_scenario(name, t_end=2.03), RunConfig(mover=movers.MoverKind(mover), dt=0.05)
    want = scheme_history(scenario, config)
    err = np.abs(position_history(scenario, config) - want).max(axis=(1, 2))
    return float((err / np.maximum(1.0, np.abs(want).max(axis=(1, 2)))).max())


def check_reduction_identities():
    """m3 and m4 equal m1 and m2 where the gradient vanishes: the Lissajous
    translation to t_end 3 in 60 steps of 0.05, relative to the largest coordinate."""
    scenario = make_scenario("lissajous")
    config = {m: RunConfig(mover=movers.MoverKind(m), dt=0.05) for m in movers.MOVER_NAMES}
    hist = {m: position_history(scenario, c) for m, c in config.items()}
    scale = np.abs(hist["m1"]).max()
    d31 = np.abs(hist["m3"] - hist["m1"]).max() / scale
    d42 = np.abs(hist["m4"] - hist["m2"]).max() / scale
    return d31 <= 1e-13 and d42 <= 1e-13, f"m3-m1 {d31:.2e}, m4-m2 {d42:.2e} (relative, bound 1e-13)"


def check_field_gradients():
    """Every field within ``FD_GRADIENT_BOUND``; the detail names a failing one, if any."""
    errors = {name: fd_gradient_error(field) for name, field in FIELDS.items()}
    worst = max(errors, key=lambda k: (not errors[k] <= FD_GRADIENT_BOUND, errors[k]))
    detail = f"max gradient FD mismatch {errors[worst]:.3e} ({worst})"
    return all(e <= FD_GRADIENT_BOUND for e in errors.values()), detail


def check_series_oracle():
    """For 1000 draws of |A| <= 2 and dt in [0, 0.2): K = 5 within the bound
    of its omitted terms of K = 20, and K = 20 within 1e-12 of the exact
    integral. The running maxima keep a NaN, which fails both bounds."""
    rng = np.random.default_rng(8)
    worst_slack, worst_rel = -np.inf, 0.0
    for _ in range(1000):
        a = rng.normal(size=(2, 2))
        norm_a = np.linalg.norm(a, 2)
        a *= min(1.0, 2.0 / norm_a)
        norm_a = min(norm_a, 2.0)
        v = rng.normal(size=2)
        dt = rng.uniform(0.0, 0.2)
        k5 = movers.exp_series_apply(a[None], v[None], dt, 5)[0]
        k20 = movers.exp_series_apply(a[None], v[None], dt, 20)[0]
        # term k is at most ||A||^k dt^(k+1) / (k+1)! ||v||
        tail = np.linalg.norm(v) * sum(norm_a**k * dt ** (k + 1) / math.factorial(k + 1) for k in range(5, 25))
        worst_slack = np.maximum(worst_slack, np.linalg.norm(k5 - k20) - tail)
        exact = phi1_expm(a, v, dt)
        worst_rel = np.maximum(worst_rel, np.linalg.norm(k20 - exact) / max(np.linalg.norm(exact), 1e-300))
    detail = f"worst tail-bound slack {worst_slack:.3e}, K=20 vs expm relative error {worst_rel:.3e}"
    return worst_slack <= 0.0 and worst_rel <= 1e-12, detail


def check_scheme_recurrence():
    """Every scenario under every mover follows its scheme's affine recurrence;
    the detail names a failing case, a NaN one included, if there is one."""
    errors = {(name, m): scheme_recurrence_error(name, m) for name in SCENARIOS for m in movers.MOVER_NAMES}
    worst = max(errors, key=lambda k: (not errors[k] <= SCHEME_RECURRENCE_BOUND, errors[k]))
    detail = f"max step error {errors[worst]:.3e} relative ({'/'.join(worst)}), bound {SCHEME_RECURRENCE_BOUND:g}"
    return all(e <= SCHEME_RECURRENCE_BOUND for e in errors.values()), detail


def _stencil_conditions(pos, index, h):
    """Condition number of each row's weighted normal matrix, as the fit weighs it."""
    i, j = index.pairs.T
    dx = pos[j] - pos[i]
    w = np.exp(-gfdm.WEIGHT_EXPONENT * np.einsum("ij,ij->i", dx, dx) / (h * h))
    outer = w[:, None, None] * dx[:, :, None] * dx[:, None, :]
    normal = np.zeros((len(pos), 2, 2))
    np.add.at(normal, i, outer)    # a pair adds w dx dx^T to both of its ends
    np.add.at(normal, j, outer)
    return np.linalg.cond(normal)


def check_wlsq_exactness():
    """Linear fields fitted on 50 clouds of 200 points at h = 0.55 (each row
    has at least 6 neighbours): each row's error within 1e-10 and within 100 x
    its rounding scale cond_i * eps * max|A|, so that a well-conditioned
    stencil cannot hide an error behind the bound an ill-conditioned one needs.
    The fit is the run's: a fallen row's zero gradient fails its bound."""
    rng = np.random.default_rng(2024)
    h = 0.55
    worst, worst_ratio, fewest, ok = 0.0, 0.0, np.inf, True
    for _ in range(50):
        pos = rng.uniform(-1.0, 1.0, size=(200, 2))
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=2)
        index = neighbors.build_index(pos, h)
        fitted = gfdm.all_gradients(pos, pos @ a.T + b, index, h)
        err = np.abs(fitted - a).max(axis=(1, 2))
        scale = _stencil_conditions(pos, index, h) * np.finfo(float).eps * np.abs(a).max()
        ok &= bool(np.all(err <= np.minimum(1e-10, 100.0 * scale)))
        worst = np.maximum(worst, err.max())
        worst_ratio = np.maximum(worst_ratio, (err / scale).max())
        fewest = min(fewest, index.neighbor_count().min())
    detail = f"max error {worst:.3e}, worst error/(cond eps max|A|) {worst_ratio:.2f}, bound 100"
    return ok and fewest >= 6, f"{detail}; fewest neighbours {fewest}"


def check_neighbor_oracle():
    """KD-tree neighbors equal an all-pairs scan on 50 clouds of 300 points, r = 0.1."""
    for trial in range(50):
        pos = np.random.default_rng(1000 + trial).uniform(0.0, 1.0, size=(300, 2))
        got, want = neighbors.build_index(pos, 0.1).lists, neighbors.brute_force_neighbors(pos, 0.1)
        for i, (g, w) in enumerate(zip(got, want)):
            if not np.array_equal(g, w):
                return False, f"KD-tree neighbors disagree with all-pairs scan at point {i} of cloud {trial}"
    return True, "KD-tree pair list, expanded per point, equals all-pairs scan on 50 clouds"


ALL_CHECKS = (
    ("reduction-identities", check_reduction_identities),
    ("field-gradients-vs-finite-differences", check_field_gradients),
    ("series-vs-oracle", check_series_oracle),
    ("wlsq-linear-exactness", check_wlsq_exactness),
    ("neighbor-search-vs-brute-force", check_neighbor_oracle),
    ("scheme-recurrence", check_scheme_recurrence),
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
