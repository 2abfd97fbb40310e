import json

import numpy as np
import pytest

from lagmove import cli
from lagmove.diagnostics import DiagnosticsRecord


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


def test_parse_bad_mover_is_usage_error(capsys):
    assert cli.main(["run", "--mover", "m9", "--dt", "0.1"]) == 1
    assert "--mover" in capsys.readouterr().err


def test_parse_sweep_dts():
    parser = cli.build_parser()
    args = parser.parse_args(["sweep", "--dts", "0.2,0.1,0.05"])
    assert args.dts == "0.2,0.1,0.05"
    assert cli.main(["sweep", "--dts", "abc"]) == 1


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


def test_validate_detects_corrupted_series(monkeypatch, capsys):
    from lagmove import movers

    original = movers.exp_series_apply

    def corrupted(grad, v, dt, terms, offset=0):
        return original(grad, v, dt, terms, offset) * (1.0 + 1e-3 * (terms == 5))

    monkeypatch.setattr(movers, "exp_series_apply", corrupted)
    assert cli.main(["validate"]) == 3
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags",
    [
        ["--dt", "nan"],
        ["--dt", "inf"],
        ["--dt", "0.05", "--t-end", "nan"],
        ["--dt", "0.05", "--t-end", "inf"],
        ["--dt", "0.05", "--radius-factor", "-1"],
        ["--dt", "0.05", "--radius-factor", "nan"],
    ],
    ids=["dt-nan", "dt-inf", "t-end-nan", "t-end-inf", "radius-factor-negative", "radius-factor-nan"],
)
def test_run_rejects_bad_reals(flags, capsys):
    assert cli.main(["run", "--scenario", "rotation"] + flags) == 2
    assert capsys.readouterr().err.startswith("error: ")


SWEEP_ARGV = ["sweep", "--scenario", "rotation", "--dts", "0.1", "--t-end", "0.3"]


def test_sweep_propagates_code_bugs(monkeypatch):
    from lagmove import movers

    def broken(mover, ctx):
        raise TypeError("a bug, not a failed cell")

    monkeypatch.setattr(movers, "displacement", broken)
    with pytest.raises(TypeError):
        cli.main(SWEEP_ARGV)


def test_sweep_reports_failed_cell_reason(monkeypatch, tmp_path, capsys):
    from lagmove import movers
    from lagmove.errors import NumericInputError

    original = movers.displacement

    def flaky(mover, ctx):
        if mover.name == "m2":
            raise NumericInputError("v_n contains non-finite entries")
        return original(mover, ctx)

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
