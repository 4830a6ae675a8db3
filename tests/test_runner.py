import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import uavmec
from conftest import load_perfbench
from uavmec import acceptance, cli, optimizer, runner
from uavmec.protocol import wtec
from uavmec.runner import COLUMNS, SweepResult, emit_results, run_sweep, set_axis
from uavmec.scenario import MODES, ScenarioConfig, ValidationError, build_instance, load_scenario, validate


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


def test_set_axis_task_bits_sets_every_blocks_min_bits():
    inst = build_instance(set_axis(small_cfg(), "task_bits", 2e5))
    assert inst.min_bits.shape == (3, 2) and np.all(inst.min_bits == 2e5)


def test_vehicle_count_sweep(monkeypatch):
    cfg = small_cfg()
    result = run_sweep(cfg, "vehicles", [1, 2, 3], include_baseline=True)
    assert len(result.rows) == 6
    opt_rows = [r for r in result.rows if r["mode"] == "optimized"]
    # more vehicles demand more total energy
    ws = [r["wtec_J"] for r in opt_rows]
    assert ws[0] < ws[1] < ws[2]
    assert all(r["feasible"] for r in opt_rows)
    # a list of one value per vehicle cycles to each point's count
    weights, solve = [], runner.solve_scenario

    def recording(point, value, inst=None):
        weights.append(point.weight_vehicle)
        return solve(point, value, inst)

    monkeypatch.setattr(runner, "solve_scenario", recording)
    result = run_sweep(small_cfg(weight_vehicle=np.array([1.0, 2.0, 3.0])), "vehicles", [2, 4])
    assert [w.tolist() for w in weights] == [[1, 2], [1, 2, 3, 1]]
    assert all(r["feasible"] for r in result.rows)


def test_one_vehicle_takes_each_lists_first_value():
    stock = validate(ScenarioConfig(weight_vehicle=np.array([1.5, 1.0, 0.5]), task_bits=np.array([2e5, 5e5, 8e5]),
                                    output_ratio=np.array([0.8, 0.6, 0.4])))
    # the hand-sliced single-vehicle scenario that `set_axis` replaces
    sliced = validate(replace(stock, vehicles=1, weight_vehicle=stock.weight_vehicle[:1], task_bits=stock.task_bits[:1],
                              output_ratio=stock.output_ratio[:1], vehicle_elevations=stock.vehicle_elevations[:1]))
    want, got = build_instance(sliced), build_instance(set_axis(stock, "vehicles", 1))
    arrays = [name for name, value in vars(want).items() if isinstance(value, np.ndarray)]
    assert {"gains", "min_bits", "weights_vehicle", "output_ratio"} <= set(arrays)
    for name in arrays:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("count", [0, -1, 2.5])
def test_set_axis_refuses_a_bad_vehicle_count_by_its_key(count):
    with pytest.raises(ValidationError) as err:
        set_axis(small_cfg(), "vehicles", count)
    assert [error.split(":")[0] for error in err.value.errors] == ["network.vehicles"]


def test_deriving_points_leaves_the_input_config_unchanged():
    cfg = small_cfg(weight_vehicle=np.array([1.0, 2.0, 3.0]))
    before = {name: np.copy(value) if isinstance(value, np.ndarray) else value for name, value in vars(cfg).items()}
    for axis, value in (("vehicles", 2), ("vehicles", 4), ("task_bits", 2e5), ("antennas", 16), ("mode", 1.0)):
        try:
            set_axis(cfg, axis, value)
        except ValidationError:
            pass
    run_sweep(cfg, "vehicles", [1, 2], include_baseline=True)
    run_sweep(cfg, "task_bits", [2e5], include_baseline=True)
    after = vars(cfg)
    assert after.keys() == before.keys()
    for name, value in before.items():
        assert type(after[name]) is type(value) and np.array_equal(after[name], value), name


def test_sweep_rows_ordered_and_complete(tmp_path):
    cfg = small_cfg()
    result = run_sweep(cfg, "antennas", [36, 16], include_baseline=True)
    values = [r["sweep_value"] for r in result.rows]
    assert values == sorted(values)
    assert len(result.rows) == 4  # 2 points x (optimized + baseline)
    for row in result.rows:
        assert set(COLUMNS) <= set(row)


@pytest.mark.parametrize("mode", MODES)
def test_sweep_with_baselines_builds_its_links_once(built_links, mode, monkeypatch):
    values = [2e5, 6e5]
    builds, build = [], runner.build_instance
    monkeypatch.setattr(runner, "build_instance", lambda cfg: builds.append(cfg.mode) or build(cfg))
    result = run_sweep(small_cfg(mode=mode), "task_bits", values, include_baseline=True)
    # K + 1 links in total: every later build repeats the geometry
    assert len(built_links) == small_cfg().vehicles + 1
    # a point's baseline row shares its instance unless the point's rate
    # bound shapes the gain table another way
    per_point = [mode, "baseline"] if mode in ("rank1_bound", "fullrank_bound") else [mode]
    assert builds == per_point * len(values)
    base_rows = result.rows if mode == "baseline" else result.rows[1::2]
    assert [row["mode"] for row in base_rows] == ["baseline"] * len(values)
    for value, row in zip(values, base_rows):
        base_cfg = set_axis(small_cfg(mode="baseline"), "task_bits", value)
        assert row == runner.solve_scenario(base_cfg, sweep_value=value)


def test_optimized_row_wtec_is_the_reports_energy_plus_propulsion(monkeypatch):
    # the stock task_bits trend and the 44 locked random draws that certify:
    # an optimized row's wtec_J is its report's WTEC plus the weighted
    # propulsion, bit for bit protocol.wtec of the report's allocation
    solves, solve = [], optimizer.algorithm1

    def recording(inst, **kwargs):
        solves.append((inst, solve(inst, **kwargs)))
        return solves[-1][1]

    monkeypatch.setattr(optimizer, "algorithm1", recording)
    workloads = load_perfbench("workloads")
    cfgs = [set_axis(validate(ScenarioConfig()), "task_bits", tb) for tb in range(100_000, 900_001, 100_000)]
    cfgs += [load_scenario(text) for seed in range(1, 5) for text in workloads.draw_block(np.random.default_rng(seed))]
    rows = 0
    for cfg in cfgs:
        try:
            row = runner.solve_scenario(cfg)
        except optimizer.InfeasibleAllocation:
            continue
        (inst, report), rows = solves[-1], rows + 1
        propulsion = cfg.weight_uav * row["e_flight_J"] if cfg.include_propulsion else 0.0
        assert row["wtec_J"] == wtec(report.allocation, inst) + propulsion
        assert report.wtec == wtec(report.allocation, inst)
    assert rows == 9 + 44


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
    with open(path, encoding="utf-8") as fh:
        loaded = json.load(fh)
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


def test_fixed_wing_flight_energy_is_level_flight_power_over_the_horizon():
    # at uav_climb = 0 the fixed-wing UAV draws c1*V^3 + c2/V in every slot, whatever the mode
    speed = 30.0
    cfg = small_cfg(uav_model="fixed_wing", uav_climb=0.0, uav_speed=speed)
    expected = cfg.horizon * (cfg.c1 * speed**3 + cfg.c2 / speed)
    for mode in ("optimized", "baseline", "rank1_bound", "fullrank_bound"):
        row = runner.solve_scenario(replace(cfg, mode=mode))
        assert row["mode"] == mode
        assert row["e_flight_J"] == pytest.approx(expected, rel=1e-12, abs=0)


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


@pytest.mark.parametrize("text, key", [("[uav]\nblade_power = -3\n", "uav.blade_power"),
                                       ("[uav]\ndisc_area = -1\n", "uav.disc_area"),
                                       ("[task]\nmin_bits = 5e5\n", "task.min_bits"),
                                       ("[geometry]\nslant = pi/0\n", "geometry.slant"),
                                       ("[radio]\nreference_gain = 4000 dB\n", "radio.reference_gain"),
                                       ("[network]\nvehicles = 2\n[task]\ntask_bits = 5e5, no\n",
                                        "task.task_bits")])
def test_cli_solve_refuses_a_config_by_its_key(tmp_path, capsys, text, key):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert f"error: {key}: " in capsys.readouterr().err


@pytest.mark.parametrize("axis, values, key", [("antennas", "16,36,16.5", "radio.antennas_uav"),
                                               ("nosuch", "1", "unknown sweep axis 'nosuch'"),
                                               ("task_bits", "2e5,abc", "task.task_bits: 'abc' is not a number"),
                                               ("antennas", "16,abc", "radio.antennas_rsu: 'abc' is not a number")])
def test_cli_sweep_refuses_a_value_or_axis_before_solving(monkeypatch, capsys, axis, values, key):
    solved = []
    monkeypatch.setattr(runner, "solve_scenario", lambda *args: solved.append(args))
    assert cli.main(["sweep", "--axis", axis, "--values", values]) == 2
    assert key in capsys.readouterr().err and not solved


@pytest.mark.parametrize("command", [["solve"], ["sweep", "--axis", "task_bits", "--values", "2e5"]])
def test_only_verify_takes_a_seed(command):
    # nothing solve or sweep runs reads the seed
    with pytest.raises(SystemExit) as err:
        cli.main(command + ["--seed", "3"])
    assert err.value.code == 2


@pytest.mark.parametrize("source", ["config", "flag"])
def test_cli_rejects_a_negative_seed_by_its_key(tmp_path, capsys, source):
    # the --seed flag is applied before validation, so it meets the same
    # check as the config key and overrides a valid one
    path = tmp_path / "seed.ini"
    path.write_text(f"[solver]\nseed = {-1 if source == 'config' else 3}\n")
    args = ["verify", "--config", str(path)] + (["--seed", "-1"] if source == "flag" else [])
    assert cli.main(args) == 2
    assert "solver.seed: must be non-negative" in capsys.readouterr().err


def test_cli_verify_exits_1_when_a_criterion_fails(monkeypatch, capsys):
    def stub(passed):
        return lambda *args, **kwargs: acceptance.CriterionResult("stub", passed, 0.0, 0.0)

    monkeypatch.setattr(acceptance, "build_instance", lambda cfg: None)
    monkeypatch.setattr(acceptance, "algorithm1", lambda inst, **kwargs: None)
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
TREND_VALUES = [float(v) for v in range(100_000, 900_001, 100_000)]
NON_FLOAT_COLUMNS = ("mode", "feasible", "iterations")


def _csv_rows(text):
    return [line.split(",") for line in text.splitlines() if not line.startswith("#")]


def test_task_bits_trend_rows_match_the_golden_csv():
    result = run_sweep(validate(ScenarioConfig()), "task_bits", TREND_VALUES, include_baseline=True)
    _assert_trend_matches(result, GOLDEN_TREND, 18)


# The same trend in each bound mode, without baselines, as `run_sweep` and
# `emit_results` wrote it at commit 03b395b: these rows pin the per-phase
# breakdown columns of the bound-mode schedules.
@pytest.mark.parametrize("mode", ["rank1_bound", "fullrank_bound"])
def test_bound_mode_trend_rows_match_the_golden_csvs(mode):
    result = run_sweep(validate(ScenarioConfig(mode=mode)), "task_bits", TREND_VALUES)
    _assert_trend_matches(result, GOLDEN_TREND.with_name(f"trend_task_bits_{mode}.csv"), 9)


def _assert_trend_matches(result, golden, n_rows):
    header, *rows = _csv_rows(runner.format_results(result, "csv"))
    ref_header, *ref_rows = _csv_rows(golden.read_text(encoding="utf-8"))
    assert header == ref_header
    assert len(rows) == len(ref_rows) == n_rows
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
