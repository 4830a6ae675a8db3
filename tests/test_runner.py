import json
from pathlib import Path

import numpy as np
import pytest

import uavmec
from uavmec import acceptance, cli, runner
from uavmec.runner import COLUMNS, SweepResult, emit_results, load_results, run_sweep, set_axis
from uavmec.scenario import MODES, ScenarioConfig, ValidationError, validate


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


def test_set_axis_integer_fields_stay_int():
    cfg = small_cfg()
    for axis, name in (("antennas", "antennas_uav"), ("vehicles", "vehicles"),
                       ("max_iterations", "max_iterations"), ("seed", "seed")):
        assert type(getattr(set_axis(cfg, axis, 2.0), name)) is int


def test_set_axis_rejects_a_fractional_count():
    cfg = small_cfg()
    with pytest.raises(ValidationError) as err:
        set_axis(cfg, "antennas", 16.5)
    assert "radio.antennas_uav: must be a whole number" in err.value.errors
    out = set_axis(cfg, "antennas", 16.0)
    assert out.antennas_uav == 16 and type(out.antennas_uav) is int


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


@pytest.mark.parametrize("mode", MODES)
def test_sweep_with_baselines_builds_its_links_once(built_links, mode):
    values = [2e5, 6e5]
    result = run_sweep(small_cfg(mode=mode), "task_bits", values, include_baseline=True)
    # K + 1 links in total: every later build repeats the geometry
    assert len(built_links) == small_cfg().vehicles + 1
    base_rows = result.rows if mode == "baseline" else result.rows[1::2]
    assert [row["mode"] for row in base_rows] == ["baseline"] * len(values)
    for value, row in zip(values, base_rows):
        base_cfg = set_axis(small_cfg(mode="baseline"), "task_bits", value)
        assert row == runner.solve_scenario(base_cfg, sweep_value=value)


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


def test_cli_verify_exits_1_when_a_criterion_fails(monkeypatch, capsys):
    def stub(passed):
        return lambda *args, **kwargs: acceptance.CriterionResult("stub", passed, 0.0, 0.0)

    monkeypatch.setattr(acceptance.runner, "solve_report", lambda cfg: (None, None))
    for name in dir(acceptance):
        if name.startswith("criterion_"):
            monkeypatch.setattr(acceptance, name, stub(True))
    assert cli.main(["verify"]) == 0
    monkeypatch.setattr(acceptance, "criterion_trends", stub(False))
    assert cli.main(["verify"]) == 1
    assert "FAIL  stub" in capsys.readouterr().out


def _write_cfg(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[task]\nhorizon = 0.4 s\n")
    return path


# The stock scenario's task_bits trend with baselines, as written by
# `uavmec sweep --axis task_bits --values 100000,200000,...,900000 --baseline`
# at commit 865d07f.
GOLDEN_TREND = Path(__file__).parent / "data" / "trend_task_bits.csv"
NON_FLOAT_COLUMNS = ("mode", "feasible", "iterations")


def _csv_rows(text):
    return [line.split(",") for line in text.splitlines() if not line.startswith("#")]


def test_task_bits_trend_rows_match_the_golden_csv():
    values = [float(v) for v in range(100_000, 900_001, 100_000)]
    result = run_sweep(validate(ScenarioConfig()), "task_bits", values, include_baseline=True)
    header, *rows = _csv_rows(runner.format_results(result, "csv"))
    ref_header, *ref_rows = _csv_rows(GOLDEN_TREND.read_text(encoding="utf-8"))
    assert header == ref_header
    assert len(rows) == len(ref_rows) == 18
    for row, ref in zip(rows, ref_rows):
        for column, got, want in zip(header, row, ref):
            if column in NON_FLOAT_COLUMNS:
                assert got == want, (column, ref)
            else:
                # equal to the 9 printed digits
                a, b = float(got), float(want)
                assert (np.isnan(a) and np.isnan(b)) or abs(a - b) <= max(1e-8 * abs(b), 1e-15), (column, ref)


# The stock scenario in baseline mode at each point of the geometry axes, one
# CSV per point, as `run_sweep` and `emit_results` wrote them at commit
# ed866b6: every point builds new links, so these rows pin the channel build.
GOLDEN_GEOMETRY = Path(__file__).parent / "data" / "geometry_sweep"
GEOMETRY_POINTS = [("antennas", v) for v in (9, 16, 25, 36, 49, 64)] + [
    ("uav_altitude", v) for v in (20, 30, 40, 50, 60)
]


@pytest.mark.parametrize("axis, value", GEOMETRY_POINTS, ids=[f"{a}_{v}" for a, v in GEOMETRY_POINTS])
def test_geometry_rows_match_the_golden_csvs(axis, value):
    result = run_sweep(validate(ScenarioConfig(mode="baseline")), axis, [value])
    rows = _csv_rows(runner.format_results(result, "csv"))
    golden = GOLDEN_GEOMETRY / f"{axis}_{value}.csv"
    assert rows == _csv_rows(golden.read_text(encoding="utf-8"))
    assert len(rows) == 2
