"""Command-line front end: run, sweep and validate subcommands.

Exit codes: 0 success, 1 usage error, 2 runtime/numeric error,
3 validation failure. Reals in CSV output carry 17 significant digits so
written values round-trip exactly. --terms defaults to
``movers.DEFAULT_TERMS``, --gradient and --stride to ``scenarios.RunConfig``'s.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import scenarios, validate
from .diagnostics import DiagnosticsRecord
from .errors import LagmoveError, StructuralError
from .movers import DEFAULT_TERMS, MOVER_NAMES, MoverKind


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
    _write_lines(path, lines)


def write_sweep_csv(cells: list[scenarios.SweepCell], path: str) -> None:
    lines = ["mover,dt,eps_dia,eps_x,eps_V,failed"]
    for c in cells:
        lines.append(
            ",".join([c.mover, _fmt(c.dt), _fmt(c.eps_dia), _fmt(c.eps_x), _fmt(c.eps_V), str(int(c.failed))])
        )
    _write_lines(path, lines)


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def _write_json(path: str, obj) -> None:
    # strict JSON (RFC 8259): a NaN raises here instead of being written bare
    _write_lines(path, [json.dumps(obj, indent=2, allow_nan=False)])


def _summary_cell(cell: scenarios.SweepCell) -> dict:
    """A sweep cell as JSON: a failed cell's NaN errors are null."""
    out = dataclasses.asdict(cell)
    if cell.failed:
        out.update(eps_dia=None, eps_x=None, eps_V=None)
    return out


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
        p.add_argument("--gradient", default=scenarios.RunConfig.gradient_mode, choices=scenarios.GRADIENT_MODES)
        p.add_argument("--terms", type=int, default=DEFAULT_TERMS)
        p.add_argument("--out", default=None)
        p.add_argument("--summary", default=None)
        p.add_argument("--n-points", type=int, default=scenarios.PAPER_N)

    p_run = sub.add_parser("run", help="run one scenario with one mover")
    common(p_run)
    p_run.add_argument("--mover", default="m1", choices=MOVER_NAMES)
    p_run.add_argument("--dt", type=float, required=True)
    p_run.add_argument("--stride", type=int, default=scenarios.RunConfig.output_stride)

    p_sweep = sub.add_parser("sweep", help="cross product of all movers and time steps")
    common(p_sweep)
    p_sweep.add_argument("--dts", required=True, help="comma-separated time steps")

    sub.add_parser("validate", help="run the built-in property checks")
    return parser


def cmd_run(args) -> int:
    scenario = scenarios.make_scenario(args.scenario, args.n_points, args.t_end)
    config = scenarios.RunConfig(MoverKind(args.mover, args.terms), args.dt, args.gradient, args.stride)
    records = scenarios.run(scenario, config)
    if args.out:
        write_csv(records, args.out)
    final = records[-1]
    if args.summary:
        _write_json(args.summary, {
            "scenario": scenario.name,
            "mover": args.mover,
            "dt": args.dt,
            "t_end": scenario.t_end,
            "eps_dia": final.eps_dia,
            "eps_x": final.eps_x,
            "eps_V": final.eps_V,
        })
    print(
        f"{scenario.name} {args.mover} dt={_fmt(args.dt)}: "
        f"eps_dia={final.eps_dia:.6e} eps_x={final.eps_x:.6e} eps_V={final.eps_V:.6e}"
    )
    return 0


def cmd_sweep(args) -> int:
    entries = args.dts.split(",")
    for i, entry in enumerate(entries, 1):
        if not entry.strip():
            raise UsageError(f"--dts: entry {i} of {args.dts!r} is empty")
    try:
        dts = [float(s) for s in entries]
    except ValueError as exc:
        raise UsageError(f"--dts: {exc}") from exc
    scenario = scenarios.make_scenario(args.scenario, args.n_points, args.t_end)
    cells = scenarios.convergence_sweep(scenario, dts, args.terms, args.gradient)
    if args.out:
        write_sweep_csv(cells, args.out)
    for c in cells:
        status = f"FAILED ({c.error})" if c.failed else f"eps_dia={c.eps_dia:.6e} eps_V={c.eps_V:.6e}"
        print(f"{c.mover} dt={_fmt(c.dt)}: {status}")
    if args.summary:
        _write_json(args.summary, [_summary_cell(c) for c in cells])
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
    except (LagmoveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
