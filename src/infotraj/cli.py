"""Command-line driver: scenario files, solve / extract / plot / validate.

Exit codes: 0 success, 1 validation failure, 2 input error, 3 numerical
instability. All artifacts are deterministic for a fixed configuration;
wall clock timings are segregated into timings.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from infotraj.dynamics import (
    DubinsCar,
    State,
    ToyCascade,
    rk4_steps,
    trajectory_from_csv,
    trajectory_to_csv,
)
from infotraj.grid import Axis, GridSpec, interpolate, remove_matching, write_manifest
from infotraj.hjsolver import (
    InstabilityError,
    cfl_dt,
    config_fingerprint,
    hybrid_solve,
    info_rate_on_grid,
    load_solution,
    solve_to_disk,
)
from infotraj.matrixcore import LogDetMetric, NotPositiveDefiniteError, vec
from infotraj.sensing import DopplerSensor, GaussianPrior, prior_fim, suite_info_rate
from infotraj.trajectories import (
    BoundaryExitError,
    ValidationReport,
    brute_force_value,
    extract_characteristic,
    extract_receding,
    final_leg_shape,
    gradient_consistency_check,
    toy_hybrid_vs_classic,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2
EXIT_INSTABILITY = 3

# 95% quantile of the chi-square distribution with 2 degrees of freedom:
# the CDF is 1 - exp(-x/2), so the quantile is -2 ln(0.05).
CHI2_2DOF_95 = -2.0 * math.log(0.05)

# the most nodes a scenario's grid holds and the most steps its march takes:
# the shipped solve marches 53,792 nodes of about 350 B each in 102 steps
MAX_GRID_NODES = 10**6
MAX_MARCH_STEPS = 10**5

# side of the square SVG figure, pixels
SVG_WIDTH = 640

# how the validate suite runs its checks: the toy cascade's grid step for the
# hybrid-vs-classic cross-check and for its gradient check; the survey
# gradient check's grid and horizon; and the optimality sandwich, which runs
# whenever the suite names a scenario: its receding legs, brute-force
# segments (3^segments rollouts) and brute-force step
TOY_DX = 0.05
TOY_GRADIENT_DX = 0.0125
SURVEY_GRID = (21, 21, 16)
SURVEY_GRADIENT_HORIZON_S = 5.0
SANDWICH_LEGS = 6
SANDWICH_SEGMENTS = 6
SANDWICH_SIM_DT = 0.2

# the validate suite's gates, in the order run_validation_suite checks them
TOY_MAX_DIFF = 5e-2
TOY_RATIO_BAND = (0.4, 0.6)
GRADIENT_FRACTION = 0.9
SANDWICH_REL = 0.02
VALUE_BAND = 0.6
COSTATE_TERMINAL_RATIO = 1.0
INFO_COSTATE_GAP_REL = 1.0


class ScenarioError(ValueError):
    """An input (scenario or suite file, or option) failed to parse or
    validate; names the offending field, file or option."""


def _require(condition: bool, where: str, message: str) -> None:
    if not condition:
        raise ScenarioError(f"{where}: {message}")


def _take(obj: dict, where: str, known: dict) -> dict:
    """Pull known fields (with defaults, None = required) and reject unknowns."""
    _require(isinstance(obj, dict), where, "expected an object")
    unknown = set(obj) - set(known)
    _require(not unknown, where, f"unknown field(s) {sorted(unknown)}")
    out = {}
    for key, default in known.items():
        if default is None and key not in obj:
            raise ScenarioError(f"{where}.{key}: required field is missing")
        out[key] = obj.get(key, default)
    return out


def _number(value, where: str, integer: bool = False):
    """A finite number as float, or as int when integer; anything else
    (strings, null, booleans, NaN, infinities) names the field."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if isinstance(value, (bool, str)) or not math.isfinite(number):
        raise ScenarioError(f"{where}: expected a finite number, got {value!r}")
    if not integer:
        return number
    _require(number.is_integer(), where, f"expected an integer, got {value!r}")
    return int(value)


def _positive(value, where: str, integer: bool = False):
    number = _number(value, where, integer)
    _require(number > 0, where, "must be positive")
    return number


def _numbers(values, where: str, length: int) -> list:
    """A list of length finite numbers."""
    _require(isinstance(values, list), where, "expected a list of numbers")
    _require(len(values) == length, where, f"expected {length} entries")
    return [_number(v, f"{where}[{i}]") for i, v in enumerate(values)]


def _make_output_dir(path) -> None:
    """Create the output directory path; one that exists as a file or
    cannot be made is an input error naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot create the output directory ({exc.strerror})") from exc


def _require_inside(state: State, x_extent, y_extent, where: str) -> None:
    """A start must lie in the planar extent of the grid (the heading wraps)."""
    for name, value, key, (lo, hi) in (
        ("X", state.x, "x_extent_m", x_extent),
        ("Y", state.y, "y_extent_m", y_extent),
    ):
        _require(
            lo <= value <= hi, where, f"{name} = {value} lies outside grid.{key} [{lo}, {hi}]"
        )


@dataclass
class Scenario:
    """Everything needed to reproduce a run: vehicle, prior, sensor suite,
    grid, horizon, extraction settings, and initial states."""

    name: str
    speed: float
    turn_rate_limit: float
    prior_mean: np.ndarray
    prior_covariance: np.ndarray
    sensors: list
    x_extent: tuple
    y_extent: tuple
    nx: int
    ny: int
    npsi: int
    horizon: float
    extraction_dt: float
    extraction_legs: int
    initial_states: list
    provenance: dict = field(default_factory=dict)

    def grid(self) -> GridSpec:
        return GridSpec.vehicle_plane(self.x_extent, self.y_extent, self.nx, self.ny, self.npsi)

    def prior(self) -> GaussianPrior:
        return GaussianPrior(self.prior_mean, self.prior_covariance)

    def build_sensors(self) -> list:
        built = []
        for spec in self.sensors:
            built.append(
                DopplerSensor(
                    altitude=spec["altitude_m"],
                    noise_std=spec["noise_std_hz"],
                    rate=spec["rate_hz"],
                    speed=self.speed,
                    frequency_scale=spec["frequency_scale_hz_per_mps"],
                )
            )
        return built

    def build_system(self) -> DubinsCar:
        rate_fn = suite_info_rate(self.build_sensors(), self.prior())
        return DubinsCar(
            self.speed, self.turn_rate_limit, info_rate_fn=rate_fn, info_dim=self.prior().dim
        )

    def initial_information(self) -> np.ndarray:
        return vec(prior_fim(self.prior()))

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "name": self.name,
            "vehicle": {
                "speed_mps": self.speed,
                "turn_rate_limit_radps": self.turn_rate_limit,
            },
            "prior": {
                "mean_m": [float(v) for v in self.prior_mean],
                "covariance_m2": [[float(v) for v in row] for row in self.prior_covariance],
            },
            "sensors": [dict(spec) for spec in self.sensors],
            "grid": {
                "x_extent_m": list(self.x_extent),
                "y_extent_m": list(self.y_extent),
                "nx": self.nx,
                "ny": self.ny,
                "npsi": self.npsi,
            },
            "solver": {"horizon_s": self.horizon},
            "extraction": {
                "dt_s": self.extraction_dt,
                "legs": self.extraction_legs,
            },
            "initial_states": [[s.x, s.y, s.psi] for s in self.initial_states],
            "provenance": dict(self.provenance),
        }


def scenario_from_dict(data: dict, where: str) -> Scenario:
    top = _take(
        data,
        where,
        {
            "schema_version": None,
            "name": None,
            "vehicle": None,
            "prior": None,
            "sensors": None,
            "grid": None,
            "solver": None,
            "extraction": {},
            "initial_states": None,
            "provenance": {},
        },
    )
    _require(top["schema_version"] == 1, f"{where}.schema_version", "expected 1")

    veh = _take(top["vehicle"], f"{where}.vehicle", {"speed_mps": None, "turn_rate_limit_radps": None})
    speed = _positive(veh["speed_mps"], f"{where}.vehicle.speed_mps")
    turn_rate_limit = _positive(
        veh["turn_rate_limit_radps"], f"{where}.vehicle.turn_rate_limit_radps"
    )

    pri = _take(top["prior"], f"{where}.prior", {"mean_m": None, "covariance_m2": None})
    # the Doppler sensors estimate a planar (2-d) target position
    mean = np.array(_numbers(pri["mean_m"], f"{where}.prior.mean_m", 2))
    rows = pri["covariance_m2"]
    where_cov = f"{where}.prior.covariance_m2"
    _require(isinstance(rows, list) and len(rows) == mean.size, where_cov, "expected a matrix")
    cov = np.array([_numbers(row, f"{where_cov}[{i}]", mean.size) for i, row in enumerate(rows)])
    try:
        GaussianPrior(mean, cov)
    except (ValueError, NotPositiveDefiniteError) as exc:
        raise ScenarioError(f"{where_cov}: {exc}") from exc

    _require(isinstance(top["sensors"], list) and top["sensors"], f"{where}.sensors", "need at least one sensor")
    sensors = []
    for i, sen in enumerate(top["sensors"]):
        spec = _take(
            sen,
            f"{where}.sensors[{i}]",
            {
                "type": None,
                "altitude_m": None,
                "frequency_scale_hz_per_mps": None,
                "noise_std_hz": None,
                "rate_hz": None,
            },
        )
        _require(spec["type"] == "doppler", f"{where}.sensors[{i}].type", "only 'doppler' is available")
        # checked only: the spec is kept as written, it feeds the suite hash;
        # at altitude 0 the sensor can meet the target's stencil points
        for key in ("altitude_m", "frequency_scale_hz_per_mps", "noise_std_hz", "rate_hz"):
            _positive(spec[key], f"{where}.sensors[{i}].{key}")
        sensors.append(spec)

    gr = _take(
        top["grid"],
        f"{where}.grid",
        {"x_extent_m": None, "y_extent_m": None, "nx": None, "ny": None, "npsi": None},
    )
    extents = {}
    for key in ("x_extent_m", "y_extent_m"):
        lo, hi = _numbers(gr[key], f"{where}.grid.{key}", 2)
        _require(lo < hi, f"{where}.grid.{key}", "expected [lo, hi] with lo < hi")
        extents[key] = (lo, hi)
    counts = {}
    nodes = 1
    for key in ("nx", "ny", "npsi"):
        counts[key] = _number(gr[key], f"{where}.grid.{key}", integer=True)
        _require(counts[key] >= 3, f"{where}.grid.{key}", "needs at least 3 points")
        nodes *= counts[key]
        _require(
            nodes <= MAX_GRID_NODES, f"{where}.grid.{key}",
            f"the grid would hold {nodes} nodes, more than MAX_GRID_NODES = {MAX_GRID_NODES}",
        )

    sv = _take(top["solver"], f"{where}.solver", {"horizon_s": None})
    horizon = _positive(sv["horizon_s"], f"{where}.solver.horizon_s")
    grid = GridSpec.vehicle_plane(
        extents["x_extent_m"], extents["y_extent_m"], counts["nx"], counts["ny"], counts["npsi"]
    )
    # the march takes ceil(horizon / step) steps, at most MAX_MARCH_STEPS
    # exactly when horizon / step is
    step = cfl_dt(grid, DubinsCar(speed, turn_rate_limit).rate_bounds())
    _require(
        horizon / step <= MAX_MARCH_STEPS, f"{where}.solver.horizon_s",
        f"the march would take more than MAX_MARCH_STEPS = {MAX_MARCH_STEPS} steps of {step:.6g} s",
    )

    ex = _take(top["extraction"], f"{where}.extraction", {"dt_s": 0.05, "legs": 1})
    dt = _positive(ex["dt_s"], f"{where}.extraction.dt_s")
    try:
        # extraction cuts spans of up to horizon_s into steps of at most dt_s
        steps, _ = rk4_steps(horizon, dt, "solver.horizon_s")
    except ValueError as exc:
        raise ScenarioError(f"{where}.extraction.dt_s: {exc}") from exc
    legs = _positive(ex["legs"], f"{where}.extraction.legs", integer=True)
    # a leg beyond the extraction's steps would only re-solve for a shorter step
    _require(legs <= steps, f"{where}.extraction.legs", f"more than the {steps} extraction steps")

    _require(isinstance(top["initial_states"], list), f"{where}.initial_states", "expected a list")
    states = [
        State(*_numbers(row, f"{where}.initial_states[{i}]", 3))
        for i, row in enumerate(top["initial_states"])
    ]
    for i, state in enumerate(states):
        _require_inside(
            state, extents["x_extent_m"], extents["y_extent_m"], f"{where}.initial_states[{i}]"
        )
    _require(isinstance(top["provenance"], dict), f"{where}.provenance", "expected an object")

    return Scenario(
        name=str(top["name"]),
        speed=speed,
        turn_rate_limit=turn_rate_limit,
        prior_mean=mean,
        prior_covariance=cov,
        sensors=sensors,
        x_extent=extents["x_extent_m"],
        y_extent=extents["y_extent_m"],
        nx=counts["nx"],
        ny=counts["ny"],
        npsi=counts["npsi"],
        horizon=horizon,
        extraction_dt=dt,
        extraction_legs=legs,
        initial_states=states,
        provenance=dict(top["provenance"]),
    )


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc


def load_scenario(path) -> Scenario:
    return scenario_from_dict(_read_json(path), where=str(path))


def solution_fingerprints(scenario: Scenario) -> dict:
    """The hashes a solution of this scenario carries in its manifest: of the
    sections the info rate depends on, and of the grid, z0 and horizon."""
    data = scenario.to_dict()
    model = json.dumps({key: data[key] for key in ("vehicle", "prior", "sensors")}, sort_keys=True)
    return {
        "model_hash": hashlib.sha256(model.encode()).hexdigest(),
        "config_hash": config_fingerprint(
            scenario.grid(), scenario.initial_information(), scenario.horizon
        ),
    }


def cmd_solve(scenario: Scenario, out_dir) -> None:
    """Solve the scenario and stream the solution artifacts to out_dir; the
    manifest is the last file written."""
    system = scenario.build_system()
    metric = LogDetMetric(scenario.prior().dim)
    _make_output_dir(out_dir)
    write_manifest(os.path.join(out_dir, "scenario.json"), scenario.to_dict())
    solve_to_disk(
        out_dir, system, metric, scenario.grid(), scenario.initial_information(),
        scenario.horizon, extras=solution_fingerprints(scenario),
    )


def cmd_extract(solution_dir, out_dir, x0_list=None, scenario: Optional[Scenario] = None) -> dict:
    """Extract trajectories from a stored solution; one CSV per initial state.

    The scenario (by default the solution's own scenario.json) must carry the
    model and config hashes of the solution's manifest. Each start is
    extracted in the scenario's extraction_legs receding legs; one leg is the
    characteristic extraction from the stored solution.
    The CSVs and summary of an earlier run are removed first, and the
    summary is written last. A start that leaves the grid raises
    BoundaryExitError naming its index and (X, Y, psi); the CSVs before it
    stay, and no later start runs.
    """
    if scenario is None:
        scenario = load_scenario(os.path.join(str(solution_dir), "scenario.json"))
    starts = [State(*row) for row in x0_list] if x0_list else list(scenario.initial_states)
    if not starts:
        warnings.warn("no initial states given; nothing to extract", stacklevel=2)
        return {"trajectories": []}

    try:
        solution = load_solution(solution_dir, extras=solution_fingerprints(scenario))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ScenarioError(f"{solution_dir}: cannot load the solution: {exc}") from exc
    for row in x0_list or ():
        _require_inside(
            State(*row), scenario.x_extent, scenario.y_extent,
            f"--x0 {','.join(repr(v) for v in row)}",
        )
    system = scenario.build_system()
    metric = LogDetMetric(scenario.prior().dim)
    _make_output_dir(out_dir)
    remove_matching(out_dir, re.compile(r"trajectory_.*\.csv|extraction_summary\.json"))

    legs = scenario.extraction_legs
    # the re-solves of every start share one information-rate field
    ell = info_rate_on_grid(system, solution.grid) if legs > 1 else None

    summary = {"trajectories": []}
    for idx, start in enumerate(starts):
        try:
            traj = extract_receding(
                solution, system, metric, start, legs=legs, dt=scenario.extraction_dt,
                info_rate_field=ell,
            )
        except BoundaryExitError as exc:
            where = f"start {idx} at (X, Y, psi) = ({start.x!r}, {start.y!r}, {start.psi!r})"
            raise BoundaryExitError(f"{where}: {exc}", exc.trajectory) from exc
        name = f"trajectory_{idx:03d}.csv"
        trajectory_to_csv(traj, os.path.join(out_dir, name), metric)
        entry = {
            "file": name,
            "initial_state": [start.x, start.y, start.psi],
            "cost": traj.terminal_cost,
            "normalized_gain": metric.normalized_gain(traj.final_info(), solution.z0),
            "residuals": traj.residuals,
        }
        entry.update(final_leg_shape(traj, scenario.prior_mean))
        summary["trajectories"].append(entry)
    write_manifest(os.path.join(out_dir, "extraction_summary.json"), summary)
    return summary


def _svg_path(points, scale, offset) -> str:
    coords = " ".join(
        f"{(x - offset[0]) * scale:.2f},{(offset[1] - y) * scale:.2f}" for x, y in points
    )
    return coords


def render_svg(trajectories, prior_mean, prior_covariance) -> str:
    """Figure-style SVG: trajectories in red, the 95% prior error ellipse dashed
    in blue, square axes in meters."""
    pts = np.concatenate([t.states[:, :2] for t in trajectories]) if trajectories else np.zeros((1, 2))
    eigvals, eigvecs = np.linalg.eigh(prior_covariance)
    radii = np.sqrt(CHI2_2DOF_95 * eigvals)
    lo = np.minimum(pts.min(axis=0), prior_mean - radii.max())
    hi = np.maximum(pts.max(axis=0), prior_mean + radii.max())
    span = float(max(hi[0] - lo[0], hi[1] - lo[1])) * 1.1 + 1e-9
    center = 0.5 * (lo + hi)
    lo = center - span / 2.0
    scale = SVG_WIDTH / span
    offset = (lo[0], lo[1] + span)  # svg y grows downward

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_WIDTH}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_WIDTH}">',
        f'<rect x="0" y="0" width="{SVG_WIDTH}" height="{SVG_WIDTH}" fill="white" '
        'stroke="black"/>',
    ]
    angle = math.degrees(math.atan2(eigvecs[1, 1], eigvecs[0, 1]))
    cx = (prior_mean[0] - offset[0]) * scale
    cy = (offset[1] - prior_mean[1]) * scale
    lines.append(
        f'<ellipse cx="{cx:.2f}" cy="{cy:.2f}" rx="{radii[1] * scale:.2f}" '
        f'ry="{radii[0] * scale:.2f}" transform="rotate({-angle:.2f} {cx:.2f} {cy:.2f})" '
        f'fill="none" stroke="blue" stroke-dasharray="6,4" stroke-width="1.5"/>'
    )
    for traj in trajectories:
        coords = _svg_path(traj.states[:, :2], scale, offset)
        lines.append(
            f'<polyline points="{coords}" fill="none" stroke="red" stroke-width="1.5"/>'
        )
    n_ticks = 5
    for k in range(n_ticks):
        frac = k / (n_ticks - 1)
        value = lo[0] + frac * span
        pos = frac * SVG_WIDTH
        lines.append(
            f'<text x="{pos:.1f}" y="{SVG_WIDTH - 4}" font-size="11" fill="black">'
            f"{value:.0f}</text>"
        )
        value_y = lo[1] + frac * span
        pos_y = SVG_WIDTH - frac * SVG_WIDTH
        lines.append(
            f'<text x="4" y="{pos_y:.1f}" font-size="11" fill="black">{value_y:.0f}</text>'
        )
    lines.append('<text x="300" y="14" font-size="12" fill="black">meters</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def cmd_plot(in_dir, out_file, scenario: Optional[Scenario]) -> None:
    """SVG of in_dir's trajectory CSVs and scenario's prior (None: the one
    in in_dir's scenario.json, if any)."""
    if scenario is None:
        candidate = os.path.join(in_dir, "scenario.json")
        if os.path.exists(candidate):
            scenario = load_scenario(candidate)
    # regular files only, as grid.remove_matching sweeps them: extract keeps
    # a directory with a trajectory CSV's name
    names = sorted(
        f for f in os.listdir(in_dir)
        if f.startswith("trajectory_") and f.endswith(".csv")
        and os.path.isfile(os.path.join(in_dir, f))
    )
    if not names:
        raise ScenarioError(f"{in_dir}: no trajectory CSV files found")
    trajectories = []
    for name in names:
        path = os.path.join(in_dir, name)
        try:
            traj = trajectory_from_csv(path)
        except (OSError, ValueError) as exc:
            raise ScenarioError(f"{path}: cannot read the trajectory: {exc}") from exc
        _require(traj.states.shape[1] >= 2, path, "expected planar X and Y columns")
        trajectories.append(traj)
    mean = scenario.prior_mean if scenario else np.zeros(2)
    cov = scenario.prior_covariance if scenario else 100.0 * np.eye(2)
    try:
        with open(out_file, "w", encoding="utf-8") as fh:
            fh.write(render_svg(trajectories, mean, cov))
    except OSError as exc:
        raise ScenarioError(f"{out_file}: cannot write the figure ({exc.strerror})") from exc


@dataclass(frozen=True)
class ValidationSuite:
    """What the oracle suite checks (suite_from_dict reads it from a suite
    file). scenario, when given, adds the survey gradient check and the
    sandwich. How the checks run and their gates are constants of this
    module."""

    scenario: Optional[Scenario] = None
    report: str = ""  # path the report is written to; empty: not written


def suite_from_dict(data: dict, where: str, base_dir: str) -> ValidationSuite:
    """Parse a validate suite: scenario and report, each optional, paths
    relative to base_dir (the suite file's directory); scenario is loaded
    here. An unknown field (the run settings and the gates, "thresholds",
    are constants of this module) or a bad value raises ScenarioError
    naming it."""
    values = _take(data, where, {"scenario": "", "report": ""})
    for key in ("scenario", "report"):
        _require(isinstance(values[key], str), f"{where}.{key}", "expected a file path")
    path = values["scenario"]
    values["scenario"] = load_scenario(os.path.join(base_dir, path)) if path else None
    if values["report"]:
        values["report"] = os.path.join(base_dir, values["report"])
    return ValidationSuite(**values)


def run_validation_suite(suite: ValidationSuite) -> ValidationReport:
    """Run the oracle suite: toy cross-check, gradient-consistency checks,
    characteristic residuals, and the brute-force optimality sandwich."""
    report = ValidationReport()

    cross = toy_hybrid_vs_classic(TOY_DX)
    report.add(
        "toy_hybrid_vs_classic",
        cross["max_diff"] <= TOY_MAX_DIFF,
        **cross,
        limit=TOY_MAX_DIFF,
    )
    lo, hi = TOY_RATIO_BAND
    report.add("toy_refinement_halves", lo <= cross["ratio"] <= hi, ratio=cross["ratio"], band=[lo, hi])

    toy = ToyCascade()
    metric1 = LogDetMetric(1)
    toy_grid = GridSpec((Axis(-2.0, 2.0, int(round(4.0 / TOY_GRADIENT_DX)) + 1),))
    out = gradient_consistency_check(
        toy, metric1, toy_grid, np.array([1.0]), 1.0,
        interior_margin=int(0.25 * toy_grid.axes[0].n),
    )
    report.add(
        "toy_gradient_consistency",
        out["fraction_within_1e2"] >= GRADIENT_FRACTION,
        **out,
        limit=GRADIENT_FRACTION,
    )

    scenario = suite.scenario
    if scenario is not None:
        system = scenario.build_system()
        metric = LogDetMetric(scenario.prior().dim)
        coarse_grid = GridSpec.vehicle_plane(scenario.x_extent, scenario.y_extent, *SURVEY_GRID)
        out = gradient_consistency_check(
            system, metric, coarse_grid, scenario.initial_information(), SURVEY_GRADIENT_HORIZON_S
        )
        report.add(
            "survey_gradient_consistency",
            out["fraction_within_1e2"] >= GRADIENT_FRACTION,
            **out,
            horizon_s=SURVEY_GRADIENT_HORIZON_S,
            limit=GRADIENT_FRACTION,
        )

        grid = scenario.grid()
        z0 = scenario.initial_information()
        ell = info_rate_on_grid(system, grid)
        solution = hybrid_solve(system, metric, grid, z0, scenario.horizon, info_rate_field=ell)
        x0 = scenario.initial_states[0]
        char = extract_characteristic(solution, system, metric, x0, scenario.extraction_dt)
        best = extract_receding(
            solution, system, metric, x0, legs=SANDWICH_LEGS,
            dt=scenario.extraction_dt, info_rate_field=ell,
        )
        bf_cost, _ = brute_force_value(
            system, metric, x0, z0, scenario.horizon,
            segments=SANDWICH_SEGMENTS, dt=SANDWICH_SIM_DT,
        )
        tol = SANDWICH_REL * abs(bf_cost)
        report.add(
            "optimality_sandwich",
            best.terminal_cost <= bf_cost + tol,
            extracted_cost=best.terminal_cost,
            brute_force_cost=bf_cost,
            tolerance=tol,
        )
        phi_x0 = float(interpolate(solution.phi, grid, x0.as_array()))
        band = VALUE_BAND
        report.add(
            "value_consistency_band",
            abs(best.terminal_cost - phi_x0) <= band and bf_cost >= phi_x0 - band,
            value_at_start=phi_x0,
            extracted_cost=best.terminal_cost,
            brute_force_cost=bf_cost,
            band=band,
        )
        ratio = char.residuals["costate_terminal_norm"] / max(
            char.residuals["costate_initial_norm"], 1e-300
        )
        report.add(
            "characteristic_residuals",
            ratio <= COSTATE_TERMINAL_RATIO
            and char.residuals["info_costate_gap_rel"] <= INFO_COSTATE_GAP_REL,
            costate_ratio=ratio,
            info_costate_gap_rel=char.residuals["info_costate_gap_rel"],
        )
    return report


def cmd_validate(suite_path) -> ValidationReport:
    suite = suite_from_dict(
        _read_json(suite_path), where=str(suite_path), base_dir=os.path.dirname(str(suite_path))
    )
    if suite.report:
        # checked before any check runs, so a bad path costs no suite run
        folder = os.path.dirname(suite.report) or "."
        where = f"{suite_path}.report"
        _require(os.path.isdir(folder), where, f"{suite.report}: no directory {folder}")
        _require(not os.path.isdir(suite.report), where, f"{suite.report} is a directory")
    report = run_validation_suite(suite)
    if suite.report:
        write_manifest(suite.report, report.to_dict())
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infotraj",
        description="Information-optimal vehicle trajectories from a hybrid "
        "method-of-lines Hamilton-Jacobi solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a scenario and store the value fields")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", required=True)

    p_extract = sub.add_parser("extract", help="extract optimal trajectories")
    p_extract.add_argument("--solution", required=True)
    p_extract.add_argument("--out", required=True)
    p_extract.add_argument("--x0", action="append", default=None, metavar="X,Y,PSI")
    p_extract.add_argument("--scenario", default=None)

    p_plot = sub.add_parser("plot", help="render trajectory CSVs as an SVG figure")
    p_plot.add_argument("--in", dest="in_dir", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--scenario", default=None)

    p_val = sub.add_parser("validate", help="run the oracle validation suite")
    p_val.add_argument("--suite", required=True)
    return parser


def _parse_x0(chunk: str) -> list:
    """One --x0 value: three finite numbers X,Y,PSI."""
    try:
        parts = [float(v) for v in chunk.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 3 or not all(math.isfinite(v) for v in parts):
        raise ScenarioError(f"--x0 {chunk!r}: expected three finite numbers X,Y,PSI")
    return parts


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top level takes no option but help; name a stray one before
    # argparse reads its value as the command
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help"):
        parser.error(f"unrecognized arguments: {argv[0]}")
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            scenario = load_scenario(args.config)
            cmd_solve(scenario, args.out)
            print(f"solution written to {args.out}")
            return EXIT_OK
        if args.command == "extract":
            scenario = load_scenario(args.scenario) if args.scenario else None
            x0_list = None
            if args.x0 is not None:
                x0_list = [_parse_x0(chunk) for chunk in args.x0]
            summary = cmd_extract(args.solution, args.out, x0_list=x0_list, scenario=scenario)
            for entry in summary["trajectories"]:
                print(
                    f"{entry['file']}: cost {entry['cost']:.6f}, gain "
                    f"{entry['normalized_gain']:.6f}, final-leg ray misalignment "
                    f"{entry['net_displacement_misalignment_deg']:.2f} deg"
                )
            return EXIT_OK
        if args.command == "plot":
            scenario = load_scenario(args.scenario) if args.scenario else None
            cmd_plot(args.in_dir, args.out, scenario=scenario)
            print(f"figure written to {args.out}")
            return EXIT_OK
        if args.command == "validate":
            report = cmd_validate(args.suite)
            for name, entry in report.checks.items():
                status = "pass" if entry["passed"] else "FAIL"
                detail = {k: v for k, v in entry.items() if k != "passed"}
                print(f"[{status}] {name}: {json.dumps(detail, sort_keys=True, default=float)}")
            if not report.passed:
                print(f"validation failed: {', '.join(report.violations)}")
                return EXIT_VALIDATION
            print("validation passed")
            return EXIT_OK
    except ScenarioError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BoundaryExitError as exc:
        print(f"extraction left the grid: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InstabilityError, NotPositiveDefiniteError) as exc:
        print(f"numerical instability: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
