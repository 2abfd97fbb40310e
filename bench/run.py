"""lagmove benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload disc-numeric --seed 0 --seconds 30 --trace 0
    python3 bench/selftest.py        # toy-size self-test of this benchmark

Run from the root of a source checkout; the package is imported from
``src/``. Each invocation is one client in a closed loop of back-to-back
whole runs (``lagmove.run``, or a whole ``lagmove sweep``) until
``--seconds`` have passed, with BLAS capped at one thread.

``--trace 0`` prints the end-to-end metrics: median run time, point-steps
per second, set-up time (median of several fresh interpreters that import
the package, build the scenario and call ``initial_cloud``), peak resident
memory, the final errors and the share of runs that passed their check.
The times are scaled to a reference machine speed measured next to every
run and every set-up (see calibrate.py); the table also prints the raw
wall times. ``--trace 1`` alternates untraced and traced runs and
prints the per-layer metrics from the traced ones (see tracing.py), with
the tracing overhead.

Every run's outputs are checked against the scenario's exact solution and,
for the default seed's inputs, against the values in reference.json; a miss
counts as a failed run. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
environment, the inputs, every run's sample and (when traced) the spans
are written to ``.bench_out/`` in the checkout.
"""
import time

_T0 = time.perf_counter()  # set-up time counts from here, in --setup-probe

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7


def import_package():
    """Import lagmove from the checkout's ``src/``, or exit with an error."""
    src = ROOT / "src"
    if not (src / "lagmove" / "__init__.py").is_file():
        sys.exit(f"error: no lagmove package under {src}")
    sys.path.insert(0, str(src))
    import lagmove

    if Path(lagmove.__file__).resolve().parent != src / "lagmove":
        sys.exit(f"error: imported lagmove from {lagmove.__file__}, not from {src}")
    return lagmove


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="lagmove benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="self-test sizes")
    parser.add_argument("--reference", default=str(BENCH_DIR / "reference.json"),
                        help="recorded errors of the default-seed inputs")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "load": "one process, closed loop of back-to-back whole runs",
    }


def setup_seconds(args, calibrate) -> tuple[float, float]:
    """Median set-up time over fresh interpreters, after one unmeasured:
    raw, and scaled like a run by the calibration just before and after
    each interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.toy:
        cmd.append("--toy")
    probes = 1 if args.toy else SETUP_PROBES
    raw, scaled = [], []
    before = calibrate.sample()
    for _ in range(probes + (0 if args.toy else 1)):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        after = calibrate.sample()
        raw.append(float(done.stdout.split()[-1]))
        scaled.append(raw[-1] * calibrate.scale(before + after))
        before = after
    return statistics.median(raw[-probes:]), statistics.median(scaled[-probes:])


def attempt(wl, workload, tracer=None):
    """One whole run; a run that raises counts as failed and the loop goes on."""
    t0 = time.perf_counter()
    try:
        return workload.iterate(tracer)
    except Exception as exc:
        traceback.print_exc()
        return wl.Outcome(time.perf_counter() - t0, 0, {}, [f"raised {exc!r}"])


def measure(wl, workload, lagmove, calibrate, seconds: float, tracer=None):
    """Closed loop until the deadline; with a tracer, alternate untraced and
    traced runs. Each run's ``scaled`` seconds use the calibration samples
    taken just before and just after it."""
    plain, traced = [], []
    before = calibrate.sample()
    deadline = time.perf_counter() + seconds
    while not plain or (tracer and not traced) or time.perf_counter() < deadline:
        if tracer is not None and len(traced) < len(plain):
            tracer.run_id = len(traced)
            with tracer.installed(lagmove):
                outcome = attempt(wl, workload, tracer)
            traced.append(outcome)
        else:
            outcome = attempt(wl, workload)
            plain.append(outcome)
        after = calibrate.sample()
        outcome.scaled = outcome.seconds * calibrate.scale(before + after)
        before = after
    return plain, traced


def end_to_end(plain, setup_s: float) -> dict:
    timed = [o for o in plain if o.point_steps]
    checked = [o for o in plain if o.errors]
    if not timed or not checked:
        sys.exit("error: every run raised; no metric to report")
    passed = sum(not o.problems for o in plain)
    return {
        "run_s": (statistics.median(o.scaled for o in timed), "s"),
        "point_steps_per_s": (statistics.median(o.point_steps / o.scaled for o in timed), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "eps_dia": (statistics.median(o.errors["eps_dia"] for o in checked), "1"),
        "eps_V": (statistics.median(o.errors["eps_V"] for o in checked), "1"),
        "pass_ratio": (passed / len(plain), "ratio"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    lagmove = import_package()
    sys.path.insert(0, str(BENCH_DIR))
    import calibrate
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)}")
    params = wl.make_params(args.workload, args.seed, args.toy)
    if args.setup_probe:
        wl.make_workload(args.workload, params, None, str(OUT_DIR)).setup()
        print(time.perf_counter() - _T0)
        return 0

    with open(args.reference) as f:
        reference = json.load(f).get(args.workload)
    OUT_DIR.mkdir(exist_ok=True)
    workload = wl.make_workload(args.workload, params, reference, str(OUT_DIR))
    if args.trace == 0:
        raw_setup_s, setup_s = setup_seconds(args, calibrate)
    workload.warm_up()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    plain, traced = measure(wl, workload, lagmove, calibrate, args.seconds, tracer)

    runs = plain + traced
    failed = sum(bool(o.problems) for o in runs)
    if args.trace:
        metrics = tracing.layer_metrics(
            tracer,
            [o.scaled / o.seconds for o in traced],
            statistics.median(o.scaled for o in plain),
            statistics.median(o.scaled for o in traced),
        )
        tracer.write(str(OUT_DIR / f"spans-{args.workload}.jsonl.gz"))
    else:
        metrics = end_to_end(plain, setup_s)

    env = environment()
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": params, "env": env,
        "wall_setup_s": None if args.trace else raw_setup_s,
        "runs": [{"seconds": o.seconds, "scaled_seconds": o.scaled, "point_steps": o.point_steps, "traced": o in traced,
                  "errors": o.errors, "problems": o.problems} for o in runs],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")

    for o in runs:
        for problem in o.problems:
            print(f"check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  params {json.dumps(params)}")
    print(f"env {json.dumps(env)}")
    print(f"runs {len(plain)} untraced + {len(traced)} traced, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:<24.10g} {unit}")
    if not args.trace:
        print(f"  {'failed_ratio':32s} {failed / len(runs):<24.10g} ratio")
        print(f"  {'wall.run_s':32s} {statistics.median(o.seconds for o in plain):<24.10g} s")
        print(f"  {'wall.setup_s':32s} {raw_setup_s:<24.10g} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
