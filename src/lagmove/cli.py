"""Command-line front end: run, sweep and validate subcommands.

Exit codes: 0 success, 1 usage error, 2 runtime/numeric error,
3 validation failure. Reals in CSV output carry 17 significant digits so
written values round-trip exactly.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import scenarios, validate
from .diagnostics import DiagnosticsRecord
from .errors import LagmoveError, StructuralError
from .movers import MOVER_NAMES, MoverKind


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(records: list[DiagnosticsRecord], path: str) -> None:
    if not records:
        raise StructuralError("no records to write")
    lines = ["step,time,centroid_x,centroid_y,diameter,hull_volume,eps_dia,eps_x,eps_V"]
    for r in records:
        row = [str(r.step), _fmt(r.time)]
        row += [_fmt(c) for c in r.centroid]
        row += [_fmt(r.diameter), _fmt(r.hull_volume), _fmt(r.eps_dia), _fmt(r.eps_x), _fmt(r.eps_V)]
        lines.append(",".join(row))
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def write_sweep_csv(cells: list[scenarios.SweepCell], path: str) -> None:
    lines = ["mover,dt,eps_dia,eps_x,eps_V,failed"]
    for c in cells:
        lines.append(
            ",".join([c.mover, _fmt(c.dt), _fmt(c.eps_dia), _fmt(c.eps_x), _fmt(c.eps_V), str(int(c.failed))])
        )
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lagmove", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--scenario", default="rotation", choices=sorted(scenarios.SCENARIOS))
        p.add_argument("--t-end", type=float, default=None)
        p.add_argument("--gradient", default="analytic", choices=("analytic", "numeric"))
        p.add_argument("--terms", type=int, default=5)
        p.add_argument("--radius-factor", type=float, default=1.0)
        p.add_argument("--out", default=None)
        p.add_argument("--summary", default=None)
        p.add_argument("--stride", type=int, default=10)
        p.add_argument("--seed", type=int, default=0,
                       help="accepted and ignored: sampling is deterministic")
        p.add_argument("--n-points", type=int, default=222)

    p_run = sub.add_parser("run", help="run one scenario with one mover")
    common(p_run)
    p_run.add_argument("--mover", default="m1", choices=MOVER_NAMES)
    p_run.add_argument("--dt", type=float, required=True)

    p_sweep = sub.add_parser("sweep", help="cross product of all movers and time steps")
    common(p_sweep)
    p_sweep.add_argument("--dts", required=True, help="comma-separated time steps")

    sub.add_parser("validate", help="run the built-in property checks")
    return parser


def _make_scenario(args) -> scenarios.Scenario:
    kwargs = {"n": args.n_points}
    if args.t_end is not None:
        kwargs["t_end"] = args.t_end
    return scenarios.make_scenario(args.scenario, **kwargs)


def _config(args, mover: str, dt: float) -> scenarios.RunConfig:
    return scenarios.RunConfig(
        mover=MoverKind(mover, args.terms),
        dt=dt,
        gradient_mode=args.gradient,
        radius_factor=args.radius_factor,
        output_stride=args.stride,
    )


def cmd_run(args) -> int:
    scenario = _make_scenario(args)
    records = scenarios.run(scenario, _config(args, args.mover, args.dt))
    if args.out:
        write_csv(records, args.out)
    final = records[-1]
    if args.summary:
        with open(args.summary, "w") as f:
            json.dump(
                {
                    "scenario": scenario.name,
                    "mover": args.mover,
                    "dt": args.dt,
                    "t_end": scenario.t_end,
                    "eps_dia": final.eps_dia,
                    "eps_x": final.eps_x,
                    "eps_V": final.eps_V,
                },
                f,
                indent=2,
            )
            f.write("\n")
    print(
        f"{scenario.name} {args.mover} dt={_fmt(args.dt)}: "
        f"eps_dia={final.eps_dia:.6e} eps_x={final.eps_x:.6e} eps_V={final.eps_V:.6e}"
    )
    return 0


def cmd_sweep(args) -> int:
    try:
        dts = [float(s) for s in args.dts.split(",") if s.strip()]
    except ValueError as exc:
        raise UsageError(f"--dts: {exc}") from exc
    if not dts:
        raise UsageError("--dts must list at least one time step")
    scenario = _make_scenario(args)
    base = _config(args, "m1", dts[0])
    cells = scenarios.convergence_sweep(scenario, base, dts)
    if args.out:
        write_sweep_csv(cells, args.out)
    for c in cells:
        status = f"FAILED ({c.error})" if c.failed else f"eps_dia={c.eps_dia:.6e} eps_V={c.eps_V:.6e}"
        print(f"{c.mover} dt={_fmt(c.dt)}: {status}")
    if args.summary:
        with open(args.summary, "w") as f:
            json.dump(
                [
                    {"mover": c.mover, "dt": c.dt, "eps_dia": c.eps_dia,
                     "eps_x": c.eps_x, "eps_V": c.eps_V, "failed": c.failed, "error": c.error}
                    for c in cells
                ],
                f,
                indent=2,
            )
            f.write("\n")
    return 0


def cmd_validate(_args) -> int:
    results = validate.run_all()
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return 0 if all(ok for _, ok, _ in results) else 3


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand == "run":
            return cmd_run(args)
        if args.subcommand == "sweep":
            return cmd_sweep(args)
        return cmd_validate(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LagmoveError, np.linalg.LinAlgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
