import json

import numpy as np
import pytest

import uavmec
from uavmec import cli, runner
from uavmec.runner import COLUMNS, SweepResult, emit_results, load_results, run_sweep, set_axis
from uavmec.scenario import ScenarioConfig, validate


def test_every_public_name_resolves():
    missing = [name for name in uavmec.__all__ if not hasattr(uavmec, name)]
    assert not missing


def small_cfg(**kw):
    cfg = ScenarioConfig(**kw)
    cfg.horizon = 0.4  # two slots keeps runs quick
    return validate(cfg)


def test_set_axis_antennas_fans_out():
    cfg = small_cfg()
    out = set_axis(cfg, "antennas", 16)
    assert out.antennas_vehicle == out.antennas_uav == out.antennas_rsu == 16
    assert cfg.antennas_uav == 36  # original untouched


def test_set_axis_task_bits_updates_min_bits():
    out = set_axis(small_cfg(), "task_bits", 2e5)
    assert np.allclose(out.task_bits, 2e5)
    assert np.allclose(out.min_bits, 2e5)


def test_vehicle_count_sweep():
    cfg = small_cfg()
    result = run_sweep(cfg, "vehicles", [1, 2, 3], include_baseline=True)
    assert len(result.rows) == 6
    opt_rows = [r for r in result.rows if r["mode"] == "optimized"]
    # more vehicles demand more total energy
    ws = [r["wtec_J"] for r in opt_rows]
    assert ws[0] < ws[1] < ws[2]
    assert all(r["feasible"] for r in opt_rows)


def test_sweep_rows_ordered_and_complete(tmp_path):
    cfg = small_cfg()
    result = run_sweep(cfg, "antennas", [36, 16], include_baseline=True)
    values = [r["sweep_value"] for r in result.rows]
    assert values == sorted(values)
    assert len(result.rows) == 4  # 2 points x (optimized + baseline)
    for row in result.rows:
        assert set(COLUMNS) <= set(row)


def test_sweep_survives_infeasible_point():
    cfg = small_cfg()
    result = run_sweep(cfg, "task_bits", [5e5, 5e7])
    assert len(result.rows) == 2
    bad = [r for r in result.rows if r["sweep_value"] == 5e7][0]
    assert bad["feasible"] is False
    good = [r for r in result.rows if r["sweep_value"] == 5e5][0]
    assert good["feasible"] is True


def test_emit_empty_sweep_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_results(SweepResult(axis="antennas", values=[]), "csv", path)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert lines == [",".join(COLUMNS)]


def test_emit_csv_has_config_echo_and_rows(tmp_path):
    cfg = small_cfg()
    result = run_sweep(cfg, "antennas", [36], include_baseline=True)
    path = tmp_path / "sweep.csv"
    emit_results(result, "csv", path)
    text = path.read_text()
    assert "# [network]" in text
    data_lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert len(data_lines) == 3  # header + 2 rows
    assert data_lines[0] == ",".join(COLUMNS)


def test_json_round_trip_to_last_digit(tmp_path):
    cfg = small_cfg()
    result = run_sweep(cfg, "antennas", [36])
    path = tmp_path / "sweep.json"
    emit_results(result, "json", path)
    loaded = load_results(path)
    emitted = json.loads(path.read_text())
    assert loaded == emitted
    # reload quantizes identically: writing again is byte-stable
    result2 = SweepResult(axis=loaded["axis"], values=loaded["values"], config=cfg)
    result2.rows = loaded["rows"]
    path2 = tmp_path / "sweep2.json"
    emit_results(result2, "json", path2)
    assert json.loads(path2.read_text())["rows"] == loaded["rows"]


def test_propulsion_flag_shifts_reported_energy():
    cfg = small_cfg()
    with_prop = runner.solve_scenario(cfg)
    cfg2 = small_cfg()
    cfg2.include_propulsion = False
    without = runner.solve_scenario(cfg2)
    assert with_prop["wtec_J"] > without["wtec_J"]
    assert np.isclose(
        with_prop["wtec_J"] - without["wtec_J"],
        cfg.weight_uav * with_prop["e_flight_J"],
        rtol=1e-9,
    )


def test_baseline_mode_rows():
    cfg = small_cfg()
    cfg.mode = "baseline"
    row = runner.solve_scenario(cfg)
    assert row["mode"] == "baseline"
    assert row["iterations"] == 0


def test_cli_solve_writes_csv(tmp_path):
    out = tmp_path / "row.csv"
    code = cli.main(["solve", "--out", str(out), "--config",
                     str(_write_cfg(tmp_path))])
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 2


def test_cli_sweep_with_baseline(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--axis", "antennas", "--values", "16,36",
                     "--baseline", "--out", str(out), "--config",
                     str(_write_cfg(tmp_path))])
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
    assert len(lines) == 1 + 4


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_stdout_matches_file_output(tmp_path, capsys, fmt):
    args = ["solve", "--baseline", "--format", fmt, "--config", str(_write_cfg(tmp_path))]
    out = tmp_path / f"row.{fmt}"
    assert cli.main(args + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(args + ["--out", "-"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_cli_rejects_bad_config(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[task]\nslot = 0.3 s\n")
    assert cli.main(["solve", "--config", str(bad), "--out", str(tmp_path / "x.csv")]) == 2


def _write_cfg(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[task]\nhorizon = 0.4 s\n")
    return path
