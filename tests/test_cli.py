import dataclasses
import inspect
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from lagmove import cli, gfdm, movers, neighbors, scenarios, validate
from lagmove.diagnostics import DiagnosticsRecord
from lagmove.errors import LagmoveError
from lagmove.fields import Lissajous, RigidRotation


def record(step=0, time=0.0):
    return DiagnosticsRecord(
        step=step,
        time=time,
        centroid=np.array([1.0 / 3.0, -2.0 / 7.0]),
        diameter=2.0,
        hull_volume=np.pi,
        eps_dia=0.1,
        eps_x=0.0,
        eps_V=1e-17,
    )


def test_parse_run_args():
    parser = cli.build_parser()
    args = parser.parse_args(["run", "--scenario", "rotation", "--mover", "m3", "--dt", "0.05"])
    assert args.subcommand == "run"
    assert args.scenario == "rotation"
    assert args.mover == "m3"
    assert args.dt == 0.05
    assert args.terms == 5


def test_parser_defaults_are_read_from_their_owners():
    parser = cli.build_parser()
    run_args = parser.parse_args(["run", "--dt", "0.1"])
    sweep_args = parser.parse_args(["sweep", "--dts", "0.1"])
    config = scenarios.RunConfig(movers.MoverKind("m1"), 0.1)
    sweep = inspect.signature(scenarios.convergence_sweep).parameters
    for args in (run_args, sweep_args):
        assert args.terms == movers.DEFAULT_TERMS == config.mover.terms == sweep["terms"].default
        assert args.gradient == config.gradient_mode == sweep["gradient_mode"].default
    assert run_args.stride == config.output_stride


def test_parse_bad_mover_is_usage_error(capsys):
    assert cli.main(["run", "--mover", "m9", "--dt", "0.1"]) == 1
    assert "--mover" in capsys.readouterr().err


def test_seed_is_not_an_option(capsys):
    assert cli.main(["run", "--dt", "0.1", "--seed", "7"]) == 1
    assert "--seed" in capsys.readouterr().err


def test_run_rejects_step_plan_past_the_limit(capsys):
    assert cli.main(["run", "--dt", "5e-324", "--t-end", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_parse_sweep_dts():
    parser = cli.build_parser()
    args = parser.parse_args(["sweep", "--dts", "0.2,0.1,0.05"])
    assert args.dts == "0.2,0.1,0.05"
    assert cli.main(["sweep", "--dts", "abc"]) == 1


@pytest.mark.parametrize(
    "dts, entry",
    [("0.2,,0.1", 2), ("0.2, ,0.1,", 2), ("0.2,0.1,", 3), (",0.1", 1), ("", 1), (" ", 1)],
)
def test_sweep_rejects_an_empty_time_step_entry(dts, entry, tmp_path, capsys):
    # a blank entry is a typo, not a request for fewer cells
    out = tmp_path / "bad.csv"
    assert cli.main(["sweep", "--dts", dts, "--t-end", "0.3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --dts: entry {entry} of {dts!r} is empty\n"
    assert not out.exists()


def test_write_csv_roundtrip(tmp_path):
    path = tmp_path / "out.csv"
    cli.write_csv([record()], str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == "step,time,centroid_x,centroid_y,diameter,hull_volume,eps_dia,eps_x,eps_V"
    vals = lines[1].split(",")
    assert float(vals[2]) == 1.0 / 3.0  # 17 significant digits round-trip
    assert float(vals[5]) == np.pi
    assert float(vals[8]) == 1e-17


def test_write_csv_empty_rejected(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(Exception):
        cli.write_csv([], str(path))
    assert not path.exists()


def test_run_subcommand_writes_outputs(tmp_path, capsys):
    out = tmp_path / "rot.csv"
    summary = tmp_path / "rot.json"
    code = cli.main(
        [
            "run",
            "--scenario",
            "rotation",
            "--mover",
            "m3",
            "--dt",
            "0.05",
            "--t-end",
            "1.0",
            "--out",
            str(out),
            "--summary",
            str(summary),
        ]
    )
    assert code == 0
    assert out.exists()
    payload = json.loads(summary.read_text())
    assert payload["mover"] == "m3"
    assert payload["eps_dia"] < 1e-6
    assert "eps_dia" in capsys.readouterr().out


def test_run_summary_keys_and_values(tmp_path):
    summary = tmp_path / "run.json"
    assert cli.main(["run", "--mover", "m2", "--dt", "0.1", "--t-end", "0.55", "--summary", str(summary)]) == 0
    payload = json.loads(summary.read_text())
    assert list(payload) == ["scenario", "mover", "dt", "t_end", "eps_dia", "eps_x", "eps_V"]
    config = scenarios.RunConfig(mover=movers.MoverKind("m2"), dt=0.1)
    final = scenarios.run(scenarios.make_scenario("rotation", t_end=0.55), config)[-1]
    want = {"scenario": "rotation", "mover": "m2", "dt": 0.1, "t_end": 0.55}
    assert payload == want | {"eps_dia": final.eps_dia, "eps_x": final.eps_x, "eps_V": final.eps_V}


def test_sweep_summary_is_the_cells(tmp_path):
    # 200 terms overflow the series' coefficients, so every m3 and m4 cell fails
    summary = tmp_path / "sweep.json"
    argv = ["sweep", "--terms", "200", "--dts", "0.2,0.1", "--t-end", "1.0", "--n-points", "60"]
    assert cli.main(argv + ["--summary", str(summary)]) == 0
    cells = scenarios.convergence_sweep(scenarios.make_scenario("rotation", 60, 1.0), [0.2, 0.1], terms=200)
    payload = json.loads(summary.read_text())
    names = [f.name for f in dataclasses.fields(scenarios.SweepCell)]
    assert [list(c) for c in payload] == [names] * 8
    assert [c["failed"] for c in payload] == [False] * 4 + [True] * 4
    assert all(c["error"].startswith("NumericInputError: series coefficient") for c in payload[4:])
    for got, cell in zip(payload, cells, strict=True):
        for name in names:
            want = getattr(cell, name)
            assert got[name] == want or (got[name] is None and math.isnan(want)), (name, got, cell)
    # strict JSON: a failed cell's errors are null, never a bare NaN
    assert all(c[e] is None for c in payload[4:] for e in ("eps_dia", "eps_x", "eps_V"))
    json.loads(summary.read_text(), parse_constant=lambda name: pytest.fail(f"bare {name}"))


def test_run_csv_byte_identical(tmp_path):
    argv = ["run", "--scenario", "lissajous", "--mover", "m2", "--dt", "0.05", "--t-end", "1.0"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_subcommand(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = cli.main(
        [
            "sweep",
            "--scenario",
            "rotation",
            "--dts",
            "0.2,0.1",
            "--t-end",
            "1.0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "mover,dt,eps_dia,eps_x,eps_V,failed"
    assert len(lines) == 1 + 4 * 2
    # sorted by (mover, dt)
    keys = [(l.split(",")[0], float(l.split(",")[1])) for l in lines[1:]]
    assert keys == sorted(keys)


def test_validate_subcommand_passes(capsys):
    assert cli.main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def dropping_first_pair(build_index):
    def faulty(positions, radius):
        index = build_index(positions, radius)
        return replace(index, pairs=index.pairs[1:])
    return faulty


def zeroing_first_row(all_gradients):
    def faulty(*args):
        grads = all_gradients(*args)
        grads[0] = 0.0    # what a fallen stencil gets
        return grads
    return faulty


def scaled_by(factor):
    return lambda original: lambda *args, **kwargs: original(*args, **kwargs) * factor


# "check" or "check/variant" -> (owner, attribute, fault wrapped around the
# attribute); the finite-difference check resolves 1e-8, so its planted
# faults are 1e-7. An analytic run reads the Jacobian, the check the
# gradient. A NaN row plants NaN in what the check reads; where the NaN
# reaches a step's new positions, ``advance_history`` raises on it.
PLANTED_FAULTS = {
    "neighbor-search-vs-brute-force": (neighbors, "build_index", dropping_first_pair),
    "wlsq-linear-exactness": (gfdm, "all_gradients", scaled_by(1 + 1e-9)),
    "wlsq-linear-exactness/fallback": (gfdm, "all_gradients", zeroing_first_row),
    "wlsq-linear-exactness/nan": (gfdm, "all_gradients", scaled_by(np.nan)),
    "series-vs-oracle": (movers, "exp_series_apply", scaled_by(1 + 1e-9)),
    "series-vs-oracle/nan": (movers, "exp_series_apply", scaled_by(np.nan)),
    "reduction-identities": (movers, "move_m3", scaled_by(1 + 1e-9)),
    "reduction-identities/nan": (movers, "move_m3", scaled_by(np.nan)),
    "field-gradients-vs-finite-differences": (RigidRotation, "gradient", scaled_by(1 + 1e-7)),
    "field-gradients-vs-finite-differences/jacobian": (RigidRotation, "jacobian", scaled_by(1 + 1e-7)),
    "field-gradients-vs-finite-differences/nan": (Lissajous, "gradient", scaled_by(np.nan)),
    "scheme-recurrence": (movers, "exp_series_apply", scaled_by(1 + 1e-9)),
    "scheme-recurrence/nan": (movers, "exp_series_apply", scaled_by(np.nan)),
}


@pytest.mark.parametrize("case", sorted(PLANTED_FAULTS))
def test_validate_detects_planted_fault(case, monkeypatch, capsys):
    check = case.split("/")[0]
    owner, attribute, fault = PLANTED_FAULTS[case]
    monkeypatch.setattr(owner, attribute, fault(getattr(owner, attribute)))
    # the faulted check alone: test_validate_subcommand_passes runs all six
    monkeypatch.setattr(validate, "ALL_CHECKS", tuple(c for c in validate.ALL_CHECKS if c[0] == check))
    try:
        ok, detail = dict(validate.ALL_CHECKS)[check]()
    except LagmoveError as exc:   # validate reports a raising check as failed
        ok, detail = False, f"raised {type(exc).__name__}: {exc}"
    assert not ok, detail
    assert cli.main(["validate"]) == 3
    assert f"FAIL  {check}: {detail}" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "flags",
    [
        ["--dt", "nan"],
        ["--dt", "inf"],
        ["--dt", "0.05", "--t-end", "nan"],
        ["--dt", "0.05", "--t-end", "inf"],
    ],
    ids=["dt-nan", "dt-inf", "t-end-nan", "t-end-inf"],
)
def test_run_rejects_bad_reals(flags, capsys):
    assert cli.main(["run", "--scenario", "rotation"] + flags) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--mover", "m3", "--terms", "200", "--dt", "0.05", "--t-end", "0.1"], "dt=0.05, terms=200, offset=0"),
        (["--mover", "m4", "--terms", "170", "--dt", "0.05", "--t-end", "0.1"], "dt=0.05, terms=170, offset=1"),
        (["--mover", "m3", "--terms", "50", "--dt", "1e100", "--t-end", "1e100"], "dt=1e+100, terms=50, offset=0"),
    ],
    ids=["m3-terms-200", "m4-terms-170", "m3-dt-1e100"],
)
def test_run_series_coefficient_overflow_is_runtime_error(flags, message, capsys):
    assert cli.main(["run"] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: series coefficient") and message in err


def test_run_smallest_disc(capsys):
    # three points of the disc layout are collinear: one line, not a Qhull dump
    assert cli.main(["run", "--n-points", "4", "--dt", "0.1", "--t-end", "0.2"]) == 0
    capsys.readouterr()
    assert cli.main(["run", "--n-points", "3", "--dt", "0.1", "--t-end", "0.2"]) == 2
    assert capsys.readouterr().err == "error: n_points must be >= 4, got 3\n"


def test_deleted_neighbor_radius_flag_is_a_usage_error(capsys):
    # the neighbor search radius is the smoothing length
    assert cli.main(["run", "--dt", "0.05", "--t-end", "0.1", "--radius-factor", "2"]) == 1
    assert "--radius-factor" in capsys.readouterr().err


SWEEP_ARGV = ["sweep", "--scenario", "rotation", "--dts", "0.1", "--t-end", "0.3"]


def test_sweep_propagates_code_bugs(monkeypatch):
    from lagmove import movers

    def broken(mover, cloud, dt=None):
        raise TypeError("a bug, not a failed cell")

    monkeypatch.setattr(movers, "displacement", broken)
    with pytest.raises(TypeError):
        cli.main(SWEEP_ARGV)


def test_sweep_reports_failed_cell_reason(monkeypatch, tmp_path, capsys):
    from lagmove import movers
    from lagmove.errors import NumericInputError

    original = movers.displacement

    def flaky(mover, cloud, dt=None):
        if mover.name == "m2":
            raise NumericInputError("v_n contains non-finite entries")
        return original(mover, cloud, dt)

    monkeypatch.setattr(movers, "displacement", flaky)
    out, summary = tmp_path / "sweep.csv", tmp_path / "sweep.json"
    assert cli.main(SWEEP_ARGV + ["--out", str(out), "--summary", str(summary)]) == 0
    cells = {c["mover"]: c for c in json.loads(summary.read_text())}
    assert cells["m2"]["failed"]
    assert cells["m2"]["error"] == "NumericInputError: v_n contains non-finite entries"
    assert all(cells[m]["error"] is None and not cells[m]["failed"] for m in ("m1", "m3", "m4"))
    lines = out.read_text().splitlines()
    assert lines[0] == "mover,dt,eps_dia,eps_x,eps_V,failed"
    assert lines[2] == "m2,0.10000000000000001,nan,nan,nan,1"
    assert "FAILED (NumericInputError" in capsys.readouterr().out


def test_stride_is_a_run_flag(tmp_path, capsys):
    assert cli.main(SWEEP_ARGV + ["--stride", "5"]) == 1
    assert "--stride" in capsys.readouterr().err
    out = tmp_path / "run.csv"
    assert cli.main(["run", "--dt", "0.1", "--t-end", "1.0", "--stride", "5", "--out", str(out)]) == 0
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["0", "5", "10"]


def test_final_csv_row_is_the_same_at_any_stride(tmp_path):
    # only the rows before it depend on the stride: the last one reads t_end
    argv = ["run", "--scenario", "rotation", "--mover", "m1", "--dt", "0.1", "--t-end", "0.3"]
    last = set()
    for stride in ("1", "2", "3", "10"):
        out = tmp_path / f"stride-{stride}.csv"
        assert cli.main(argv + ["--stride", stride, "--out", str(out)]) == 0
        last.add(out.read_text().splitlines()[-1])
    (row,) = last
    assert row.split(",")[:2] == ["3", "0.29999999999999999"]


@pytest.mark.parametrize("dts", ["0", "nan", "-0.1", "inf"])
def test_sweep_rejects_bad_time_steps(dts, capsys):
    # the cell's stride is planned from dt, so dt must be checked first
    assert cli.main(["sweep", "--dts", dts, "--t-end", "0.5"]) == 2
    assert capsys.readouterr().err.startswith("error: dt must be")


def test_sweep_checks_every_time_step_before_its_first_cell(monkeypatch, capsys):
    calls = []
    original = scenarios.clouds

    def counted(scenario, config):
        calls.append(config.dt)
        return original(scenario, config)

    monkeypatch.setattr(scenarios, "clouds", counted)
    assert cli.main(["sweep", "--dts", "0.1,inf", "--t-end", "0.3"]) == 2
    assert calls == []
    assert capsys.readouterr().err.startswith("error: dt must be finite, got inf")


def test_sweep_names_a_time_step_past_the_plan_limit(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    assert cli.main(["sweep", "--dts", "0.1,1e-300", "--t-end", "0.3", "--out", str(out)]) == 2
    assert "1e-300" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_a_repeated_time_step(monkeypatch, tmp_path, capsys):
    calls = []
    original = scenarios.clouds

    def counted(scenario, config):
        calls.append(config.dt)
        return original(scenario, config)

    monkeypatch.setattr(scenarios, "clouds", counted)
    out = tmp_path / "bad.csv"
    assert cli.main(["sweep", "--dts", "0.2,0.1,0.2", "--t-end", "0.4", "--out", str(out)]) == 2
    assert calls == [] and not out.exists()
    assert capsys.readouterr().err == "error: dt 0.2 is listed more than once\n"
    # dts that differ as floats are distinct cells
    assert cli.main(["sweep", "--dts", "0.2,0.2000000001", "--t-end", "0.4", "--out", str(out)]) == 0
    assert len(calls) == 8 and len(out.read_text().splitlines()) == 1 + 8
