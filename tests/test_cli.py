import json
import math
import os
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import infotraj.cli
import infotraj.hjsolver
import infotraj.trajectories
from infotraj.cli import (
    CHI2_2DOF_95,
    ScenarioError,
    ValidationSuite,
    cmd_extract,
    cmd_plot,
    cmd_solve,
    load_scenario,
    main,
    render_svg,
    run_validation_suite,
    scenario_from_dict,
    suite_from_dict,
)
from infotraj.dynamics import Trajectory, trajectory_to_csv
from infotraj.hjsolver import InstabilityError, hybrid_solve, info_rate_on_grid, load_solution
from infotraj.matrixcore import unvec
from infotraj.trajectories import extract_characteristic, extract_receding

REPO = Path(__file__).resolve().parents[1]
FIG2 = REPO / "scenarios" / "doppler_single_path.json"


def small_scenario_dict(**overrides):
    data = json.loads(FIG2.read_text())
    data["grid"].update({"nx": 9, "ny": 9, "npsi": 8})
    data["grid"]["x_extent_m"] = [-400.0, 400.0]
    data["grid"]["y_extent_m"] = [-400.0, 400.0]
    data["solver"]["horizon_s"] = 4.0
    data["extraction"]["dt_s"] = 0.1
    for key, value in overrides.items():
        data[key] = value
    return data


class TestLoadScenario:
    def test_shipped_fig2_values(self):
        scenario = load_scenario(FIG2)
        assert scenario.turn_rate_limit == 0.05
        assert np.allclose(scenario.prior_covariance, 100.0 * np.eye(2))
        assert scenario.sensors[0]["altitude_m"] == 1000.0
        x0 = scenario.initial_states[0]
        assert (x0.x, x0.y) == (50.0, -36.6)
        assert x0.psi == pytest.approx(-math.pi)

    def test_missing_required_field_names_it(self, tmp_path):
        data = small_scenario_dict()
        del data["vehicle"]["turn_rate_limit_radps"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="turn_rate_limit_radps"):
            load_scenario(path)

    def test_non_spd_prior_rejected(self, tmp_path):
        data = small_scenario_dict()
        data["prior"]["covariance_m2"] = [[100.0, 0.0], [0.0, -1.0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="covariance"):
            load_scenario(path)

    # a misspelled key, and the marching-scheme switches that no longer exist
    @pytest.mark.parametrize(
        "key,value",
        [
            ("horizont_s", 3.0),
            ("integrator", "euler"),
            ("dissipation", "global"),
            ("gradient_transport", "matched"),
        ],
    )
    def test_unknown_field_rejected(self, tmp_path, key, value):
        data = small_scenario_dict()
        data["solver"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match=key):
            load_scenario(path)

    @pytest.mark.parametrize(
        "mean,cov",
        [([0.0], [[100.0]]), ([0.0, 0.0, 0.0], (100.0 * np.eye(3)).tolist())],
        ids=["1d", "3d"],
    )
    def test_prior_must_be_planar(self, tmp_path, capsys, mean, cov):
        data = small_scenario_dict()
        data["prior"] = {"mean_m": mean, "covariance_m2": cov}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "prior.mean_m" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_round_trip_idempotent(self, tmp_path):
        scenario = load_scenario(FIG2)
        once = scenario.to_dict()
        again = scenario_from_dict(once, "scenario").to_dict()
        assert once == again


def numeric_fields(node, path=()):
    """Paths to every numeric leaf of a scenario dict."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_fields(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from numeric_fields(value, path + (i,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


FIG2_NUMERIC_FIELDS = list(numeric_fields(json.loads(FIG2.read_text())))
BAD_NUMBERS = [-1, 0, math.nan, math.inf, "x", None]
# fields an older scenario may still carry; whatever their value, they are
# refused by name
REMOVED_FIELDS = [
    ("seed",), ("solver", "snapshot_stride"), ("solver", "cfl_number"), ("extraction", "mode"),
]


class TestScenarioFieldMutations:
    def test_every_numeric_field_is_swept(self):
        assert len(FIG2_NUMERIC_FIELDS) * len(BAD_NUMBERS) == 156

    @pytest.mark.parametrize("value", BAD_NUMBERS, ids=repr)
    @pytest.mark.parametrize(
        "path",
        FIG2_NUMERIC_FIELDS + REMOVED_FIELDS,
        ids=lambda p: ".".join(str(k) for k in p),
    )
    def test_loads_or_names_the_field(self, path, value):
        data = json.loads(FIG2.read_text())
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        try:
            scenario = scenario_from_dict(data, "scenario")
            scenario.grid()
            scenario.build_system()
        except ScenarioError as exc:
            field = [key for key in path if isinstance(key, str)][-1]
            assert field in str(exc)
        else:
            assert path not in REMOVED_FIELDS, f"{path} was accepted"

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("grid", "x_extent_m", [1700.0, -1700.0]),
            # both ends finite, but hi - lo overflows to inf
            ("grid", "x_extent_m", [-1e308, 1e308]),
            ("grid", "nx", "x"),
            ("vehicle", "speed_mps", math.nan),
            ("extraction", "legs", 2.5),
            # horizon_s / dt_s overflows to inf
            ("extraction", "dt_s", 1e-320),
            # finite, but far more than MAX_RK4_STEPS steps
            ("extraction", "dt_s", 1e-300),
            ("extraction", "dt_s", 1e-6),
            # the sensor in the target plane meets the prior mean at node (0, 0)
            ("sensors[0]", "altitude_m", 0.0),
            # more legs than the 1,200 extraction steps (60 s / 0.05 s),
            # refused before any leg runs
            ("extraction", "legs", 1201),
            ("extraction", "legs", 10**6),
            # 41 x 41 x 595 = 1,000,195 nodes, more than MAX_GRID_NODES
            ("grid", "npsi", 595),
            ("grid", "nx", 10**12),
            # the shipped grid marches in steps of about 0.59 s, so this
            # horizon takes more than MAX_MARCH_STEPS
            ("solver", "horizon_s", 6e4),
            ("solver", "horizon_s", 1e300),
        ],
    )
    def test_solve_exits_2_naming_the_field(self, tmp_path, capsys, section, key, value):
        data = json.loads(FIG2.read_text())
        target = data["sensors"][0] if section == "sensors[0]" else data[section]
        target[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{section}.{key}" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_solve_of_a_non_spd_noise_exits_3_before_any_output(self, tmp_path, capsys):
        # 1e-300 squares to a zero noise variance: building the system reads
        # each sensor's noise information, so the solve fails before --out
        data = json.loads(FIG2.read_text())
        data["sensors"][0]["noise_std_hz"] = 1e-300
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_one_leg_per_extraction_step_loads(self):
        data = json.loads(FIG2.read_text())
        data["extraction"]["legs"] = 1200
        assert scenario_from_dict(data, "scenario").extraction_legs == 1200


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    scen_path = root / "scenario.json"
    scen_path.write_text(json.dumps(small_scenario_dict()))
    scenario = load_scenario(scen_path)
    sol_dir = root / "solution"
    cmd_solve(scenario, sol_dir)
    return root, scenario, sol_dir


class TestSolveExtractPlot:
    def test_solve_writes_manifest_and_fields(self, pipeline):
        _, _, sol_dir = pipeline
        manifest = json.loads((sol_dir / "manifest.json").read_text())
        assert manifest["kind"] == "hybrid_solution"
        assert manifest["snapshots"] == [{"phi": "phi.bin", "phi_z": "phiz.bin"}]
        timings = json.loads((sol_dir / "timings.json").read_text())
        phases = ["field_s", "flow_s", "transport_s", "check_s"]
        assert set(timings) == {"wall_time_s", "steps", *phases}
        assert timings["steps"] > 0
        # cmd_solve leaves the info-rate field to hybrid_solve, which times it
        assert all(timings[key] > 0.0 for key in phases)
        assert sum(timings[key] for key in phases) <= timings["wall_time_s"]

    def test_solve_deterministic_across_runs_and_workers(self, pipeline, tmp_path):
        _, scenario, sol_dir = pipeline
        other = tmp_path / "again"
        cmd_solve(scenario, other)
        assert (other / "manifest.json").read_bytes() == (sol_dir / "manifest.json").read_bytes()
        names = [f for f in os.listdir(sol_dir) if f.endswith(".bin")]
        for name in names:
            assert (other / name).read_bytes() == (sol_dir / name).read_bytes()

    def test_extract_writes_csv_and_summary(self, pipeline):
        root, scenario, sol_dir = pipeline
        out = root / "extraction"
        summary = cmd_extract(sol_dir, out, scenario=scenario)
        assert len(summary["trajectories"]) == 1
        entry = summary["trajectories"][0]
        assert (out / entry["file"]).exists()
        assert "cost" in entry and "net_displacement_misalignment_deg" in entry
        saved = json.loads((out / "extraction_summary.json").read_text())
        assert saved["trajectories"][0]["file"] == entry["file"]

    def test_extract_empty_start_list_warns(self, pipeline):
        root, scenario, sol_dir = pipeline
        scenario2 = scenario_from_dict({**scenario.to_dict(), "initial_states": []}, "scenario")
        with pytest.warns(UserWarning, match="nothing to extract"):
            out = cmd_extract(sol_dir, root / "empty", scenario=scenario2)
        assert out["trajectories"] == []

    def test_plot_svg_structure(self, pipeline):
        root, scenario, sol_dir = pipeline
        out = root / "extraction"
        if not out.exists():
            cmd_extract(sol_dir, out, scenario=scenario)
        svg_path = root / "figure.svg"
        cmd_plot(out, svg_path, scenario=scenario)
        text = svg_path.read_text()
        assert text.count("<polyline") == 1
        assert text.count("<ellipse") == 1
        assert 'stroke="red"' in text and 'stroke="blue"' in text

    def test_fan_extraction_and_plot(self, pipeline, tmp_path):
        root, scenario, sol_dir = pipeline
        fan = scenario_from_dict(
            {
                **scenario.to_dict(),
                "initial_states": [[0.0, -30.0, 0.5], [0.0, 0.0, 0.5], [0.0, 30.0, 0.5]],
            },
            "scenario",
        )
        out = tmp_path / "fan"
        summary = cmd_extract(sol_dir, out, scenario=fan)
        assert len(summary["trajectories"]) == 3
        svg = tmp_path / "fan.svg"
        cmd_plot(out, svg, scenario=fan)
        assert svg.read_text().count("<polyline") == 3

    def test_extract_removes_the_csvs_of_an_earlier_run(self, pipeline, tmp_path):
        root, scenario, sol_dir = pipeline
        fan = scenario_from_dict(
            {**scenario.to_dict(), "initial_states": [[0.0, -30.0, 0.5], [0.0, 0.0, 0.5]] * 2},
            "scenario",
        )
        out = tmp_path / "out"
        assert len(cmd_extract(sol_dir, out, scenario=fan)["trajectories"]) == 4
        summary = cmd_extract(sol_dir, out, scenario=scenario)
        assert len(summary["trajectories"]) == 1
        assert sorted(os.listdir(out)) == ["extraction_summary.json", "trajectory_000.csv"]
        cmd_plot(out, tmp_path / "f.svg", scenario=scenario)
        assert (tmp_path / "f.svg").read_text().count("<polyline") == 1
        # a directory is no earlier run's CSV: it stays
        (out / "trajectory_009.csv").mkdir()
        cmd_extract(sol_dir, out, scenario=scenario)
        assert (out / "trajectory_009.csv").is_dir()

    def test_start_that_leaves_the_grid_is_named(self, pipeline, tmp_path, capsys):
        # the second of three starts heads out of the 800 m grid; the run
        # stops there: the first CSV stays, the third start never runs and
        # no summary is written
        _, _, sol_dir = pipeline
        out = tmp_path / "o"
        argv = ["extract", "--solution", str(sol_dir), "--out", str(out)]
        starts = ["--x0", "0,0,0", "--x0", "390,0,0", "--x0", "0,10,0"]
        assert main(argv + starts) == 2
        err = capsys.readouterr().err
        assert "start 1 at (X, Y, psi) = (390.0, 0.0, 0.0): trajectory left the grid" in err
        assert "Traceback" not in err
        assert sorted(os.listdir(out)) == ["trajectory_000.csv"]

    def test_cli_entrypoint_exit_codes(self, pipeline, tmp_path, capsys):
        root, scenario, sol_dir = pipeline
        assert main(["extract", "--solution", str(sol_dir), "--out", str(tmp_path / "o")]) == 0
        assert main(["solve", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_removed_workers_flag_exits_2_naming_it(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            pytest.fail("an unknown option must be rejected before any solve")

        monkeypatch.setattr(infotraj.cli, "cmd_solve", refuse)
        argv = ["--workers", "2", "solve", "--config", str(FIG2), "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--workers" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("x0", ["a,b,c", "1,2", "1,2,nan"])
    def test_malformed_x0_exits_2_naming_it(self, pipeline, tmp_path, capsys, x0):
        _, _, sol_dir = pipeline
        argv = ["extract", "--solution", str(sol_dir), "--out", str(tmp_path / "o"), "--x0", x0]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--x0" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_x0_outside_grid_exits_2_naming_it(self, pipeline, tmp_path, capsys):
        _, _, sol_dir = pipeline
        argv = ["extract", "--solution", str(sol_dir), "--out", str(tmp_path / "o")]
        assert main(argv + ["--x0", "5000,0,0"]) == 2
        err = capsys.readouterr().err
        assert "--x0 5000.0,0.0,0.0" in err and "x_extent_m" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_initial_state_outside_grid_exits_2_naming_it(self, pipeline, tmp_path, capsys):
        _, scenario, sol_dir = pipeline
        data = scenario.to_dict()
        data["initial_states"].append([0.0, -450.0, 0.0])
        other = tmp_path / "other.json"
        other.write_text(json.dumps(data))
        argv = ["extract", "--solution", str(sol_dir), "--out", str(tmp_path / "o")]
        assert main(argv + ["--scenario", str(other)]) == 2
        err = capsys.readouterr().err
        assert "initial_states[1]" in err and "y_extent_m" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "name,content",
        [
            ("scenario.json", "{bad"),
            ("trajectory_000.csv", "s,X,Y,psi,u\n0,1,oops,0,0\n"),
            ("trajectory_000.csv", "s,X,Y,psi,u\n0,1,2,0,0\n1,2\n"),
            ("trajectory_000.csv", "# units only\n"),
            ("trajectory_000.csv", "s,u,z_1\n0,0,1\n"),
        ],
        ids=["scenario_json", "csv_value", "csv_ragged", "csv_empty", "csv_no_xy"],
    )
    def test_plot_malformed_input_exits_2_naming_it(
        self, pipeline, tmp_path, capsys, name, content
    ):
        root, scenario, sol_dir = pipeline
        extraction = root / "extraction"
        if not extraction.exists():
            cmd_extract(sol_dir, extraction, scenario=scenario)
        in_dir = tmp_path / "in"
        shutil.copytree(extraction, in_dir)
        (in_dir / "scenario.json").write_text(json.dumps(scenario.to_dict()))
        (in_dir / name).write_text(content)
        assert main(["plot", "--in", str(in_dir), "--out", str(tmp_path / "f.svg")]) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err
        assert not (tmp_path / "f.svg").exists()

    def test_truncated_snapshot_exits_2_naming_it(self, pipeline, tmp_path, capsys):
        _, _, sol_dir = pipeline
        broken = tmp_path / "broken"
        shutil.copytree(sol_dir, broken)
        phi = broken / "phi.bin"
        phi.write_bytes(phi.read_bytes()[:-3])
        assert main(["extract", "--solution", str(broken), "--out", str(tmp_path / "o")]) == 2
        assert "phi.bin" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case",
        [
            "empty_snapshots", "two_snapshots", "old_snapshots", "short_z0", "m_not_square",
            "nan_final_phi", "nan_horizon", "absolute_name", "parent_name", "number_name",
            "doubled_z0", "shifted_x_extent", "non_spd_z0", "sensor_suite_hash", "no_grid",
            "no_m", "no_z0", "no_horizon", "no_snapshots", "infinite_m", "infinite_n",
        ],
    )
    def test_corrupt_solution_exits_2_naming_it(self, pipeline, tmp_path, capsys, case):
        _, _, sol_dir = pipeline
        broken = tmp_path / "broken"
        shutil.copytree(sol_dir, broken)
        manifest = json.loads((broken / "manifest.json").read_text())
        snaps = manifest["snapshots"]
        hash_named = "manifest.json: config_hash"
        named = {
            "short_z0": "z0",
            "m_not_square": "m = 5",
            "nan_final_phi": "phi.bin",
            "nan_horizon": "horizon",
            "doubled_z0": hash_named,
            "shifted_x_extent": hash_named,
            "non_spd_z0": hash_named,
            "sensor_suite_hash": "manifest model_hash",
            "infinite_m": "manifest.json: m",
            "infinite_n": "manifest.json: grid",
        }.get(case, "manifest.json: snapshots")
        if case.startswith("no_"):
            named = f"manifest.json: no {case[3:]} entry"
        if case == "empty_snapshots":
            manifest["snapshots"] = []
        elif case == "two_snapshots":
            manifest["snapshots"] = snaps + snaps
        elif case == "old_snapshots":
            # a manifest of the numbered snapshot files solve once wrote
            manifest["snapshots"] = [
                {"s": s, "phi": f"phi_{k:04d}.bin", "phi_z": f"phiz_{k:04d}.bin"}
                for k, s in enumerate((0.0, manifest["horizon"]))
            ]
        elif case == "short_z0":
            manifest["z0"] = manifest["z0"][:3]
        elif case == "m_not_square":
            manifest["m"] = 5
        elif case == "infinite_m":
            manifest["m"] = math.inf
        elif case == "infinite_n":
            manifest["grid"]["axes"][0]["n"] = math.inf
        elif case == "nan_final_phi":
            np.full(9 * 9 * 8, np.nan).astype("<f8").tofile(broken / "phi.bin")
        elif case == "nan_horizon":
            manifest["horizon"] = math.nan
        elif case in ("absolute_name", "parent_name"):
            # another solution's final pair, with the local one gone
            key = "phi" if case == "absolute_name" else "phi_z"
            other = sol_dir / snaps[-1][key]
            (broken / snaps[-1][key]).unlink()
            relative = os.path.relpath(other, broken)
            snaps[-1][key] = str(other) if case == "absolute_name" else relative
        elif case == "number_name":
            snaps[-1]["phi"] = 21
        elif case in ("doubled_z0", "non_spd_z0"):
            doubled = [2.0 * v for v in manifest["z0"]]
            manifest["z0"] = doubled if case == "doubled_z0" else [1.0, 0.0, 0.0, -1.0]
        elif case == "sensor_suite_hash":
            # an older manifest hashed the sensors alone, under another key
            manifest["sensor_suite_hash"] = manifest.pop("model_hash")
        elif case.startswith("no_"):
            del manifest[case[3:]]
        else:
            axis = manifest["grid"]["axes"][0]
            axis["lo"], axis["hi"] = axis["lo"] + 100.0, axis["hi"] + 100.0
        (broken / "manifest.json").write_text(json.dumps(manifest))
        argv = ["extract", "--solution", str(broken), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    # each changes the info rate or the solve, so none may reuse the solution
    @pytest.mark.parametrize(
        "section,key,value,hash_name",
        [
            ("sensors", "noise_std_hz", 5.0, "model_hash"),
            ("solver", "horizon_s", 3.0, "config_hash"),
            ("vehicle", "speed_mps", 40.0, "model_hash"),
            ("vehicle", "turn_rate_limit_radps", 0.5, "model_hash"),
            ("prior", "mean_m", [300.0, -200.0], "model_hash"),
        ],
        ids=["sensors", "config_hash", "speed", "turn_rate_limit", "prior_mean"],
    )
    def test_extract_refuses_another_scenario(
        self, pipeline, tmp_path, capsys, section, key, value, hash_name
    ):
        _, scenario, sol_dir = pipeline
        data = scenario.to_dict()
        target = data["sensors"][0] if section == "sensors" else data[section]
        assert target[key] != value
        target[key] = value
        other = tmp_path / "other.json"
        other.write_text(json.dumps(data))
        argv = ["extract", "--solution", str(sol_dir), "--out", str(tmp_path / "o")]
        assert main(argv + ["--scenario", str(other)]) == 2
        assert hash_name in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_extract_refuses_a_config_object_manifest(self, pipeline, tmp_path, capsys):
        # an older manifest held the horizon in a solver config object
        _, _, sol_dir = pipeline
        old = tmp_path / "old"
        shutil.copytree(sol_dir, old)
        manifest = json.loads((old / "manifest.json").read_text())
        manifest["config"] = {"horizon": manifest.pop("horizon"), "cfl_number": 0.5}
        (old / "manifest.json").write_text(json.dumps(manifest))
        assert main(["extract", "--solution", str(old), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "horizon" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()


class TestOutputPaths:
    """An output path the command cannot use exits 2 naming it, without a
    traceback. A path that is unusable itself is refused before any solve,
    extraction or check runs; one of the command's own files inside it that
    is a directory, when the command writes that file."""

    def test_solve_out_an_existing_file(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("reached the solve")

        monkeypatch.setattr(infotraj.cli, "solve_to_disk", no_solve)
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(small_scenario_dict()))
        taken = tmp_path / "taken"
        taken.write_text("keep")
        assert main(["solve", "--config", str(config), "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert str(taken) in err and "Traceback" not in err
        assert taken.read_text() == "keep"

    def test_extract_out_an_existing_file(self, pipeline, tmp_path, capsys, monkeypatch):
        def no_extract(*args, **kwargs):
            raise AssertionError("reached the extraction")

        monkeypatch.setattr(infotraj.cli, "extract_receding", no_extract)
        _, _, sol_dir = pipeline
        taken = tmp_path / "taken"
        taken.write_text("keep")
        assert main(["extract", "--solution", str(sol_dir), "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert str(taken) in err and "Traceback" not in err
        assert taken.read_text() == "keep"

    @pytest.mark.parametrize(
        "name", ["scenario.json", "manifest.json", "phi.bin", "phiz.bin", "timings.json"]
    )
    def test_solve_out_holding_a_directory_of_its_file_name(
        self, tmp_path, capsys, monkeypatch, name
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("reached the solve")

        monkeypatch.setattr(infotraj.hjsolver, "hybrid_solve", no_solve)
        config = tmp_path / "scenario.json"
        config.write_text(json.dumps(small_scenario_dict()))
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out / name) in err and "Traceback" not in err
        assert not (out / "manifest.json").is_file()

    @pytest.mark.parametrize("name", ["trajectory_000.csv", "extraction_summary.json"])
    def test_extract_out_holding_a_directory_of_its_file_name(
        self, pipeline, tmp_path, capsys, name
    ):
        _, _, sol_dir = pipeline
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        assert main(["extract", "--solution", str(sol_dir), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out / name) in err and "Traceback" not in err
        assert not (out / "extraction_summary.json").is_file()
        assert not [p for p in out.glob("trajectory_*.csv") if p.is_file()]

    @pytest.mark.parametrize("kind", ["missing", "a_file"])
    def test_plot_in_that_is_not_a_directory(self, tmp_path, capsys, kind):
        in_path = tmp_path / "in"
        if kind == "a_file":
            in_path.write_text("s,X,Y,psi,u\n0,1,2,0,0\n")
        figure = tmp_path / "f.svg"
        assert main(["plot", "--in", str(in_path), "--out", str(figure)]) == 2
        err = capsys.readouterr().err
        assert str(in_path) in err and "Traceback" not in err
        assert not figure.exists()

    @pytest.mark.parametrize("where", ["missing_dir", "a_dir"])
    def test_validate_report_path(self, tmp_path, capsys, monkeypatch, where):
        def no_run(suite):
            raise AssertionError("reached the checks")

        monkeypatch.setattr(infotraj.cli, "run_validation_suite", no_run)
        report = tmp_path / "missing" / "report.json" if where == "missing_dir" else tmp_path
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"report": str(report)}))
        assert main(["validate", "--suite", str(suite)]) == 2
        err = capsys.readouterr().err
        assert str(report) in err and "report" in err and "Traceback" not in err

    def test_plot_skips_a_directory_with_a_trajectory_name(self, tmp_path, capsys):
        csv = "s,X,Y,psi,u\n0,1,2,0,0\n1,2,3,0,0\n"
        for name in ("trajectory_000.csv", "trajectory_001.csv"):
            (tmp_path / name).write_text(csv)
        (tmp_path / "trajectory_009.csv").mkdir()
        figure = tmp_path / "f.svg"
        assert main(["plot", "--in", str(tmp_path), "--out", str(figure)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert figure.read_text().count("<polyline") == 2

    def test_plot_out_in_a_missing_directory(self, tmp_path, capsys):
        (tmp_path / "trajectory_000.csv").write_text("s,X,Y,psi,u\n0,1,2,0,0\n1,2,3,0,0\n")
        figure = tmp_path / "missing" / "f.svg"
        assert main(["plot", "--in", str(tmp_path), "--out", str(figure)]) == 2
        err = capsys.readouterr().err
        assert str(figure) in err and "Traceback" not in err


class TestStreamedSolve:
    def test_files_equal_the_in_memory_final_fields(self, pipeline):
        _, scenario, sol_dir = pipeline
        sol = hybrid_solve(
            scenario.build_system(), scenario.grid(),
            scenario.initial_information(), scenario.horizon,
        )
        assert (sol_dir / "phi.bin").read_bytes() == sol.phi.astype("<f8").tobytes()
        assert (sol_dir / "phiz.bin").read_bytes() == sol.phi_z.astype("<f8").tobytes()

    def test_solve_directory_holds_only_the_solution(self, pipeline, tmp_path):
        _, scenario, sol_dir = pipeline
        files = ["manifest.json", "phi.bin", "phiz.bin", "scenario.json", "timings.json"]
        assert sorted(os.listdir(sol_dir)) == files
        out = tmp_path / "solution"
        shutil.copytree(sol_dir, out)
        cmd_solve(scenario, out)
        assert sorted(os.listdir(out)) == files

    def test_resolve_removes_the_manifest_first_and_writes_it_last(
        self, pipeline, tmp_path, monkeypatch
    ):
        _, scenario, sol_dir = pipeline
        out = tmp_path / "solution"
        shutil.copytree(sol_dir, out)
        order, manifest_seen = [], []
        save_array = infotraj.hjsolver.save_array

        def spy_save(path, arr):
            order.append(os.path.basename(path))
            manifest_seen.append((out / "manifest.json").exists())
            save_array(path, arr)

        def spy_writer(write):
            def spy(path, payload):
                order.append(os.path.basename(path))
                write(path, payload)
            return spy

        monkeypatch.setattr(infotraj.hjsolver, "save_array", spy_save)
        for module in (infotraj.hjsolver, infotraj.cli):
            monkeypatch.setattr(module, "write_manifest", spy_writer(module.write_manifest))
        cmd_solve(scenario, out)
        assert manifest_seen and not any(manifest_seen)
        assert order[-1] == "manifest.json" and order.count("manifest.json") == 1
        assert order.index("phi.bin") < order.index("manifest.json")
        for name in os.listdir(sol_dir):
            if name != "timings.json":
                assert (out / name).read_bytes() == (sol_dir / name).read_bytes()

    def test_instability_mid_march_leaves_no_manifest(
        self, pipeline, tmp_path, monkeypatch, capsys
    ):
        root, _, sol_dir = pipeline
        out = tmp_path / "solution"
        shutil.copytree(sol_dir, out)
        fail_at = json.loads((sol_dir / "timings.json").read_text())["steps"] // 2
        check_finite = infotraj.hjsolver._check_finite

        def failing(step, s, *arrays):
            if step == fail_at:
                raise InstabilityError(step, s)
            check_finite(step, s, *arrays)

        monkeypatch.setattr(infotraj.hjsolver, "_check_finite", failing)
        argv = ["solve", "--config", str(root / "scenario.json"), "--out", str(out)]
        assert main(argv) == 3
        assert f"step {fail_at} " in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        assert main(["extract", "--solution", str(out), "--out", str(tmp_path / "o")]) == 2
        assert "manifest.json" in capsys.readouterr().err


class TestExtractionHealth:
    def test_shipped_start(self, tmp_path):
        scenario = load_scenario(FIG2)
        sol_dir = tmp_path / "solution"
        cmd_solve(scenario, sol_dir)
        summary = cmd_extract(sol_dir, tmp_path / "out", scenario=scenario)
        saved = json.loads((tmp_path / "out" / "extraction_summary.json").read_text())
        health = summary["trajectories"][0]["health"]
        assert saved["trajectories"][0]["health"] == health
        assert set(health) == {"control_switches", "hysteresis_steps", "final_info_min_eig"}

        traj = extract_characteristic(
            load_solution(sol_dir, {}), scenario.build_system(),
            scenario.initial_states[0], scenario.extraction_dt,
        )
        u, p = traj.controls, traj.costates
        assert health["control_switches"] == sum(a != b for a, b in zip(u, u[1:])) == 4
        # g = (0, 0, 1): the switching function is the heading costate
        band = infotraj.trajectories.HYSTERESIS_BAND
        assert health["hysteresis_steps"] == sum(abs(row[2]) < band for row in p[:-1])
        eigs = [np.linalg.eigvalsh(unvec(z)) for z in (traj.infos[0], traj.infos[-1])]
        assert health["final_info_min_eig"] == eigs[1][0]
        # the path gains information in its worst-known direction too
        assert health["final_info_min_eig"] > eigs[0][0] == pytest.approx(0.01)


class TestRecedingExtract:
    def test_cropped_resolves_and_csvs_match_direct_calls(self, tmp_path, monkeypatch):
        data = small_scenario_dict()
        data["grid"].update({"nx": 17, "ny": 17, "x_extent_m": [-800.0, 800.0],
                             "y_extent_m": [-800.0, 800.0]})
        data["extraction"]["legs"] = 2
        data["initial_states"] = [[50.0, -36.6, -math.pi], [-200.0, 100.0, 0.5]]
        scenario = scenario_from_dict(data, "scenario")
        sol_dir = tmp_path / "solution"
        cmd_solve(scenario, sol_dir)

        shapes = []

        def recording_solve(system, grid, *args, **kwargs):
            shapes.append(grid.shape)
            return hybrid_solve(system, grid, *args, **kwargs)

        monkeypatch.setattr(infotraj.trajectories, "hybrid_solve", recording_solve)
        summary = cmd_extract(sol_dir, tmp_path / "out", scenario=scenario)
        legs = scenario.extraction_legs
        assert len(shapes) == (legs - 1) * len(scenario.initial_states)
        assert all(nx < 17 and ny < 17 for nx, ny, _ in shapes)
        monkeypatch.undo()

        solution = load_solution(sol_dir, {})
        system = scenario.build_system()
        ell = info_rate_on_grid(system, solution.grid)
        for entry, start in zip(summary["trajectories"], scenario.initial_states):
            traj = extract_receding(
                solution, system, start, legs=legs, dt=scenario.extraction_dt,
                info_rate_field=ell,
            )
            direct = tmp_path / f"direct_{entry['file']}"
            trajectory_to_csv(traj, direct)
            assert (tmp_path / "out" / entry["file"]).read_bytes() == direct.read_bytes()


    def test_one_leg_csv_equals_the_characteristic_extraction(
        self, pipeline, tmp_path, monkeypatch
    ):
        _, scenario, sol_dir = pipeline
        assert scenario.extraction_legs == 1

        def no_field(*args, **kwargs):
            raise AssertionError("one leg re-solves nothing and needs no rate field")

        monkeypatch.setattr(infotraj.cli, "info_rate_on_grid", no_field)
        summary = cmd_extract(sol_dir, tmp_path / "out", scenario=scenario)
        monkeypatch.undo()
        start = scenario.initial_states[0]
        traj = extract_characteristic(
            load_solution(sol_dir, {}), scenario.build_system(), start,
            scenario.extraction_dt,
        )
        direct = tmp_path / "direct.csv"
        trajectory_to_csv(traj, direct)
        entry = summary["trajectories"][0]
        assert (tmp_path / "out" / entry["file"]).read_bytes() == direct.read_bytes()
        assert entry["cost"] == traj.terminal_cost
        assert entry["residuals"] == traj.residuals


class TestRenderSvg:
    def test_prior_ellipse_radius(self):
        # isotropic 10 m prior: 95% radius is 10 * sqrt(chi2 quantile) ~ 24.48 m
        radius = 10.0 * math.sqrt(CHI2_2DOF_95)
        assert radius == pytest.approx(24.477, abs=1e-3)
        traj = Trajectory(
            s=np.array([0.0, 1.0]),
            states=np.array([[0.0, 0.0, 0.0], [30.0, 0.0, 0.0]]),
            controls=np.zeros(2),
            infos=np.ones((2, 4)),
        )
        text = render_svg([traj], np.zeros(2), 100.0 * np.eye(2))
        assert "<ellipse" in text

    def test_polyline_count_matches_input(self):
        trajs = []
        for k in range(4):
            trajs.append(
                Trajectory(
                    s=np.array([0.0, 1.0]),
                    states=np.array([[0.0, k, 0.0], [10.0, k, 0.0]]),
                    controls=np.zeros(2),
                    infos=np.ones((2, 4)),
                )
            )
        text = render_svg(trajs, np.zeros(2), 100.0 * np.eye(2))
        assert text.count("<polyline") == 4

    def test_deterministic_output(self):
        traj = Trajectory(
            s=np.array([0.0, 1.0]),
            states=np.array([[0.0, 0.0, 0.0], [30.0, 20.0, 0.5]]),
            controls=np.zeros(2),
            infos=np.ones((2, 4)),
        )
        a = render_svg([traj], np.zeros(2), 100.0 * np.eye(2))
        b = render_svg([traj], np.zeros(2), 100.0 * np.eye(2))
        assert a == b


class TestValidationSuite:
    def test_toy_only_suite_passes(self):
        report = run_validation_suite(suite_from_dict({}, "suite", "."))
        assert report.passed

    def test_tightened_thresholds_flip_to_failure(self, monkeypatch):
        monkeypatch.setattr(infotraj.cli, "TOY_MAX_DIFF", 1e-6)
        report = run_validation_suite(suite_from_dict({}, "suite", "."))
        assert not report.passed
        assert "toy_hybrid_vs_classic" in report.violations

    def test_validate_exit_codes_via_main(self, tmp_path, monkeypatch):
        good = tmp_path / "suite_ok.json"
        good.write_text(json.dumps({}))
        assert main(["validate", "--suite", str(good)]) == 0
        monkeypatch.setattr(infotraj.cli, "TOY_MAX_DIFF", 1e-6)
        assert main(["validate", "--suite", str(good)]) == 1

    @pytest.mark.parametrize(
        "content,field",
        [
            ({"toy_dx": "abc"}, "toy_dx"),
            ({"toy_gradient_dx": 1e9}, "toy_gradient_dx"),
            ([1, 2], "suite.json: expected an object"),
            ({"thresholds": [1, 2]}, "thresholds"),
            ({"sandwhich": False}, "sandwhich"),
            ({"thresholds": {"toy_ratio_band": 3}}, "unknown field(s) ['thresholds']"),
            ({"scenario": 5}, "scenario"),
            ({"sandwich_segments": 9}, "sandwich_segments"),
            ({"toy_dx": 0}, "toy_dx"),
            ({"sandwich": "yes"}, "sandwich"),
        ],
        ids=repr,
    )
    def test_malformed_suite_exits_2_naming_the_field(
        self, tmp_path, capsys, monkeypatch, content, field
    ):
        def no_run(suite):
            raise AssertionError("a malformed suite reached the checks")

        monkeypatch.setattr(infotraj.cli, "run_validation_suite", no_run)
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(content))
        assert main(["validate", "--suite", str(path)]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    # the run settings and the gates ("thresholds") a suite once carried,
    # with their shipped values: they are constants of infotraj.cli now
    @pytest.mark.parametrize(
        "key,shipped",
        [
            ("toy_dx", 0.05),
            ("toy_gradient_dx", 0.0125),
            ("survey_gradient_horizon_s", 5.0),
            ("sandwich", True),
            ("sandwich_legs", 6),
            ("sandwich_segments", 6),
            ("sandwich_sim_dt", 0.2),
            (
                "thresholds",
                {
                    "toy_max_diff": 0.05, "toy_ratio_band": [0.4, 0.6], "gradient_fraction": 0.9,
                    "sandwich_rel": 0.02, "value_band": 0.6, "costate_terminal_ratio": 1.0,
                    "info_costate_gap_rel": 1.0,
                },
            ),
        ],
    )
    def test_removed_run_setting_exits_2_naming_it(
        self, tmp_path, capsys, monkeypatch, key, shipped
    ):
        def no_run(suite):
            raise AssertionError("a suite with a removed setting reached the checks")

        monkeypatch.setattr(infotraj.cli, "run_validation_suite", no_run)
        path = tmp_path / "suite.json"
        for value in (shipped, 1, False, "x", None):
            path.write_text(json.dumps({key: value}))
            assert main(["validate", "--suite", str(path)]) == 2
            err = capsys.readouterr().err
            assert f"unknown field(s) ['{key}']" in err and "Traceback" not in err

    def test_shipped_suite_parses_to_its_values(self):
        path = REPO / "scenarios" / "validate_suite.json"
        suite = suite_from_dict(
            json.loads(path.read_text()), where=str(path), base_dir=str(path.parent)
        )
        assert suite.scenario.name == "doppler_single_path"
        assert suite == replace(ValidationSuite(), scenario=suite.scenario)
        assert suite_from_dict({}, "suite", ".") == ValidationSuite()

    def test_report_path_resolves_against_the_suite_directory(self, tmp_path, monkeypatch):
        (tmp_path / "sub").mkdir()
        suite = {"report": "r.json"}
        (tmp_path / "sub" / "suite.json").write_text(json.dumps(suite))
        monkeypatch.chdir(tmp_path)
        assert main(["validate", "--suite", "sub/suite.json"]) == 0
        assert json.loads((tmp_path / "sub" / "r.json").read_text())["passed"]
        assert not (tmp_path / "r.json").exists()

    def test_missing_suite_exits_2_naming_it(self, tmp_path, capsys):
        missing = tmp_path / "no_such_suite.json"
        assert main(["validate", "--suite", str(missing)]) == 2
        assert "no_such_suite.json" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_dissipation_sign_mutation_detected(self, monkeypatch):
        # flipping the one-sided biases turns the stabilizing difference term
        # into anti-diffusion; the toy cross-check must blow up or miss badly
        import infotraj.hjsolver as hj
        from infotraj.hjsolver import InstabilityError
        from infotraj.matrixcore import NotPositiveDefiniteError
        original = hj.lf_rate
        # without the mutation the toy-only suite passes
        assert run_validation_suite(ValidationSuite()).passed

        def swapped(minus, plus, *args):
            return original(plus, minus, *args)

        # lf_rate serves the hybrid and the classic march alike
        monkeypatch.setattr(hj, "lf_rate", swapped)
        try:
            report = run_validation_suite(ValidationSuite())
            detected = not report.passed
        except (InstabilityError, NotPositiveDefiniteError, FloatingPointError):
            detected = True
        assert detected
