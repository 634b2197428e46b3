"""Optimal trajectory extraction from a solved value function.

The characteristic extractor integrates the adjoint (costate) system forward
from an initial state, seeding the costates from the gridded value gradient
and the grid-free information gradient. A receding-horizon variant re-solves
the value function as information accumulates. A brute-force piecewise-
constant control search provides the independent optimality oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from infotraj.dynamics import (
    RUN_BLOCK_STEPS,
    CascadeSystem,
    ControlSignal,
    State,
    ToyCascade,
    Trajectory,
    cascade_run,
    held_run,
    info_rate_rows,
    rk4_combine,
    rk4_stages,
    rk4_steps,
    state_array,
)
from infotraj.grid import Axis, GridSpec, interpolate
from infotraj.hjsolver import (
    HybridSolution,
    classic_solve,
    hybrid_solve,
    info_rate_on_grid,
)
from infotraj import hjsolver as _hjsolver
from infotraj.matrixcore import sym_pack, sym_unpack, unvec, vec

HYSTERESIS_BAND = 1e-9
# the z0 perturbation of gradient_consistency_check's central differences
CONSISTENCY_DELTA = 1e-5


class BoundaryExitError(RuntimeError):
    """The extracted trajectory left the gridded domain; carries the partial record."""

    def __init__(self, message: str, trajectory: Trajectory):
        super().__init__(message)
        self.trajectory = trajectory


def _info_rate_and_jacobian(system: CascadeSystem, x: np.ndarray, steps: np.ndarray):
    """vec(Q) at each row of x, shape (n, m), and d vec(Q)/dx by central
    differences, shape (n, m, d), from one n * (1 + 2d)-point rate call on
    every row's centre and 2d probes (info_rate_rows)."""
    n, d = x.shape
    probes = np.repeat(x[:, None, :], 1 + 2 * d, axis=1)
    for i in range(d):
        probes[:, 1 + 2 * i, i] += steps[i]
        probes[:, 2 + 2 * i, i] -= steps[i]
    rates = info_rate_rows(system, probes)
    jac = (rates[:, 1::2] - rates[:, 2::2]) / (2.0 * steps[:, None])
    # contiguous (n, m, d): on a strided view the costate slope's matvecs
    # sum in another order and lose the bits of a per-row Jacobian
    return rates[:, 0], np.ascontiguousarray(np.moveaxis(jac, 1, 2))


def extract_characteristic(
    solution: HybridSolution,
    system: CascadeSystem,
    x0: State,
    dt: float,
    duration: Optional[float] = None,
) -> Trajectory:
    """Integrate the characteristic system forward from x0.

    Seeds: the x-costate from the interpolated central gradient of the final
    value field, the information costate from the interpolated gradient
    field (constant afterwards: the Hamiltonian does not depend on the
    information state). Marches with fixed-step RK4, bang-bang control from
    the switching function with a hysteresis band against chattering, and the
    spatial information-rate Jacobian by central differences at half the grid
    spacing. Reports the terminal costate residual (the transversality
    condition sends it to zero), the gradient-consistency residual, and the
    value-vs-rollout gap.

    The march advances as every driver does: held_run runs the vehicle up
    to RUN_BLOCK_STEPS steps ahead under the control held at the block's
    start, and the block is cut after its first end state outside the
    grid. One info_rate_rows call (28 points per step for d = 3) and one
    drift_jacobian call then take all 4 m stage states of the block's m
    steps. The steps are committed in order, p through rk4_stages; before
    each step after the first the control is re-evaluated, and at the first
    step whose control differs the rest of the block is dropped and a new
    block starts from the committed state. The vehicle rate never reads z
    or p and the rate is computed row by row, so every committed value has
    the bits of a step-at-a-time march. The dropped rows are still
    evaluated: the Taylor fallback warning is emitted once per block call,
    and a GeometryError from a dropped row could surface (it needs a sensor
    at altitude 0 exactly over a stencil target).
    """
    grid = solution.grid
    horizon = solution.horizon if duration is None else float(duration)
    if duration is not None and duration > solution.horizon + 1e-9:
        raise ValueError("requested duration exceeds the solved horizon")
    n_steps, h = rk4_steps(horizon, dt, "duration")

    x = state_array(x0)
    p = interpolate(solution.value_gradient(), grid, x)
    lam = np.asarray(interpolate(solution.phi_z, grid, x), dtype=float)
    phi_at_start = float(interpolate(solution.phi, grid, x))
    z = solution.z0

    d = system.state_dim
    g = system.control_column()
    fd_steps = 0.5 * grid.spacings
    u_prev = 0.0

    def control_from(p_now: np.ndarray) -> float:
        # hysteresis against step-scale chatter; outside the band delegate to
        # the shared bang-bang rule
        sw = float(g @ p_now)
        if abs(sw) < HYSTERESIS_BAND:
            return u_prev
        return float(_hjsolver.bang_bang(sw, system.control_bound))

    ns = n_steps + 1
    states, costates = np.empty((ns, d)), np.empty((ns, d))
    infos, controls = np.empty((ns, system.info_len)), np.empty(ns)
    states[0], infos[0], costates[0] = x, z, p
    k = 0
    while k < n_steps:
        u = u_prev = control_from(p)
        # the vehicle runs ahead under u, cut after its first end state
        # outside the grid; then the rates at all 4 * m stage states
        stages, ends = held_run(system, x, u, h, min(RUN_BLOCK_STEPS, n_steps - k))
        m = next((j + 1 for j, e in enumerate(ends) if grid.outside_axis(e) is not None), len(ends))
        ends, xs = ends[:m], stages[:m].reshape(-1, d)
        kz, ell_jac = _info_rate_and_jacobian(system, xs, fd_steps)
        f_jac = system.drift_jacobian(xs)
        for j, x_end in enumerate(ends):
            if j > 0 and control_from(p) != u:
                break  # a switch: the next block starts from this state
            _, kp = rk4_stages(
                lambda p_i, i: -f_jac[4 * j + i].T @ p_i - ell_jac[4 * j + i].T @ lam, p, h
            )
            x = x_end
            z = rk4_combine(z, kz[4 * j : 4 * j + 4], h)
            p = rk4_combine(p, kp, h)
            controls[k] = u
            k += 1
            states[k], infos[k], costates[k], controls[k] = x, z, p, u
        if grid.outside_axis(x) is not None:
            break
    ns = k + 1

    traj = Trajectory(
        s=h * np.arange(ns),
        states=states[:ns],
        infos=infos[:ns],
        controls=controls[:ns],
        costates=costates[:ns],
        info_costates=np.repeat(lam[None, :], ns, axis=0),
    )
    if grid.outside_axis(x) is not None:
        raise BoundaryExitError(f"trajectory left the grid at s = {traj.s[-1]:.6g}", traj)

    z_final = traj.final_info()
    grad_final = system.metric.gradient(z_final)
    traj.terminal_cost = system.metric.value(z_final)
    traj.residuals = {
        "costate_terminal_norm": float(np.linalg.norm(traj.costates[-1])),
        "costate_initial_norm": float(np.linalg.norm(traj.costates[0])),
        "info_costate_gap": float(np.linalg.norm(lam - grad_final)),
        "info_costate_gap_rel": float(
            np.linalg.norm(lam - grad_final) / max(np.linalg.norm(grad_final), 1e-300)
        ),
        "value_consistency": float(abs(phi_at_start - traj.terminal_cost)),
    }
    return traj


def _join_legs(pieces: list) -> Trajectory:
    """The legs end to end: each leg's s runs on from the sum of the
    durations before it, and each later leg drops its first sample, which
    repeats the last of the leg before."""
    offsets = itertools.accumulate((p.duration for p in pieces[:-1]), initial=0.0)
    shifted = [replace(p, s=p.s + off) for p, off in zip(pieces, offsets)]
    sampled = ("s", "states", "controls", "infos", "costates", "info_costates")
    return Trajectory(**{
        name: np.concatenate([getattr(p, name)[min(i, 1):] for i, p in enumerate(shifted)])
        for name in sampled
    })


def extract_receding(
    solution: HybridSolution,
    system: CascadeSystem,
    x0: State,
    legs: int,
    dt: float,
    info_rate_field: Optional[np.ndarray],
) -> Trajectory:
    """Closed-loop extraction: before each leg, re-solve the value function
    with the information collected so far as the new initial state.

    The gridded solution is valid for one initial information state only, so
    re-solving is what makes long extractions self-consistent. The grid, z0
    and horizon come from solution, the full-horizon solve from the initial
    information state; leg 0 extracts from it directly, so legs = 1 is
    exactly the characteristic extractor.

    A later leg k only reads the value gradient and Phi at its own start x_k
    after the remaining horizon R, and these depend on the box of half-width
    rate_bounds() * R around x_k (the physical domain of dependence; the
    heading axis stays whole). So the leg re-solves on grid.window(x_k,
    rate_bounds() * R), with the information-rate field sliced to it. The
    window's margin of grid.WINDOW_MARGIN_CELLS cells bounds the physical
    cone, not the Lax-Friedrichs numerical cone, which covers the whole grid
    within about 40 steps; the cropped edge therefore moves the fields at
    x_k by the small tail of that cone. On the shipped six-leg sandwich the
    states, information states and controls stay bit-identical to full-grid
    re-solves, and the x and information costates move by 6.3e-4 and 1.6e-4
    of their largest entries (2.5e-3 / 7.6e-4 at a 2-cell margin, 7.6e-7 /
    6.0e-8 at 8 cells). Every re-solve slices info_rate_field, which is
    info_rate_on_grid(system, grid); legs = 1 re-solves nothing and takes None.
    """
    if legs < 1:
        raise ValueError("need at least one leg")
    grid = solution.grid
    horizon = solution.horizon
    bounds = system.rate_bounds()

    leg_span = horizon / legs
    x = x0
    pieces = []
    sol = solution
    for k in range(legs):
        if k > 0:
            remaining = horizon - k * leg_span
            sub, idx = grid.window(x, bounds * remaining)
            sol = hybrid_solve(system, sub, z, remaining, info_rate_field=info_rate_field[idx])
        piece = extract_characteristic(sol, system, x, dt, duration=leg_span)
        pieces.append(piece)
        x = piece.final_state()
        z = piece.final_info()

    traj = _join_legs(pieces)
    traj.terminal_cost = system.metric.value(traj.final_info())
    traj.residuals = dict(pieces[-1].residuals)
    return traj


def _final_leg(traj: Trajectory) -> np.ndarray:
    """The states of the final fifth of the path, which the shape metrics judge."""
    return traj.states[int(0.8 * traj.s.size) :]


def final_leg_ray_misalignment_deg(traj: Trajectory, prior_mean) -> float:
    """Angle in degrees between the net displacement over the final fifth of
    the path and the ray from the prior mean through that leg's midpoint."""
    seg = _final_leg(traj)
    disp = seg[-1][:2] - seg[0][:2]
    mid = 0.5 * (seg[-1][:2] + seg[0][:2]) - prior_mean
    ray = math.atan2(mid[1], mid[0])
    net = abs((math.atan2(disp[1], disp[0]) - ray + math.pi) % (2 * math.pi) - math.pi)
    return float(net * (180.0 / math.pi))


def final_leg_shape(traj: Trajectory, prior_mean) -> dict:
    """Alignment of the final fifth of the path with rays from the prior mean,
    in degrees: final_leg_ray_misalignment_deg, and the mean and max angle
    between a state's heading and the ray through that state."""
    seg = _final_leg(traj)
    rel = seg[:, :2] - prior_mean
    ray = np.arctan2(rel[:, 1], rel[:, 0])
    per = np.abs((seg[:, 2] - ray + math.pi) % (2 * math.pi) - math.pi)
    deg = 180.0 / math.pi
    return {
        "net_displacement_misalignment_deg": final_leg_ray_misalignment_deg(traj, prior_mean),
        "mean_heading_misalignment_deg": float(np.mean(per) * deg),
        "max_heading_misalignment_deg": float(np.max(per) * deg),
    }


def extraction_health(traj: Trajectory, system: CascadeSystem) -> dict:
    """How an extracted path ran, from its record: the number of control
    switches, the steps whose switching function |g . p| lay inside
    HYSTERESIS_BAND (the control was held), and the smallest eigenvalue of
    the final unvec(z), the information of the worst-known direction at the
    end. On a receding path the sample at a later leg's start holds the leg
    before's final control and costate."""
    switching = traj.costates[:-1] @ system.control_column()
    return {
        "control_switches": int(np.count_nonzero(np.diff(traj.controls))),
        "hysteresis_steps": int(np.count_nonzero(np.abs(switching) < HYSTERESIS_BAND)),
        "final_info_min_eig": float(np.linalg.eigvalsh(unvec(traj.final_info()))[0]),
    }


def _simulate_control_batch(
    system: CascadeSystem,
    x0: np.ndarray,
    z0: np.ndarray,
    control_values: np.ndarray,
    horizon: float,
    dt: float,
) -> np.ndarray:
    """Final information states for a batch of equal-segment control sequences.

    control_values has shape (batch, segments); all rollouts share the time
    discretization, so they advance together, each segment in cascade_run
    blocks of at most RUN_BLOCK_STEPS steps under its (batch, 1) control
    column. Rows that share their first k + 1 controls share their state
    after segment k, so segment k advances one row per distinct prefix
    (3^(k+1) for the full bang-bang search, not 3^segments) and each row
    reads its own prefix's state at the end.
    """
    segments = control_values.shape[1]
    n_sub, h = rk4_steps(horizon / segments, dt, "horizon / segments")
    x, z = x0[None, :], z0[None, :]
    # state row of each batch row's prefix so far (all share the empty one)
    row = np.zeros(control_values.shape[0], dtype=int)
    for k in range(segments):
        _, first, inverse = np.unique(
            control_values[:, : k + 1], axis=0, return_index=True, return_inverse=True
        )
        x, z = x[row[first]], z[row[first]]
        u = control_values[first, k][:, None]
        for lo in range(0, n_sub, RUN_BLOCK_STEPS):
            xs, zs = cascade_run(system, x, z, u, h, min(RUN_BLOCK_STEPS, n_sub - lo))
            x, z = xs[-1], zs[-1]
        row = inverse.reshape(-1)
    return z[row]


def brute_force_value(
    system: CascadeSystem,
    x0: State,
    z0: np.ndarray,
    horizon: float,
    segments: int,
    dt: float,
):
    """Exhaustive search over piecewise-constant controls with values in
    {-bound, 0, +bound} on equal segments; the independent optimality oracle.

    Returns (best cost, best ControlSignal); the cost is system.metric's G of
    the final information state.
    """
    if segments < 1:
        raise ValueError("need at least one segment")
    if segments > 8:
        raise ValueError("refusing exhaustive search beyond 8 segments (3^8 rollouts)")
    z0 = np.asarray(z0, dtype=float)
    # the step rule's checks hold even where no step is taken
    rk4_steps(horizon / segments, dt, "horizon / segments")
    if horizon == 0.0:
        return system.metric.value(z0), ControlSignal.constant(0.0, 1.0)
    b = system.control_bound
    # coasting listed first so exact cost ties resolve to the null control
    levels = (0.0, -b, b)
    combos = np.array(list(itertools.product(levels, repeat=segments)))
    finals = _simulate_control_batch(system, state_array(x0), z0, combos, horizon, dt)
    costs = system.metric.value(finals)
    best = int(np.argmin(costs))
    best_cost = float(costs[best])
    best_signal = ControlSignal.from_segments(combos[best], horizon)

    return best_cost, best_signal


@dataclass
class ValidationReport:
    """Structured pass/fail summary of the oracle suite."""

    checks: dict = field(default_factory=dict)

    def add(self, name: str, passed: bool, **details) -> None:
        self.checks[name] = {"passed": bool(passed), **details}

    @property
    def passed(self) -> bool:
        return all(entry["passed"] for entry in self.checks.values())

    @property
    def violations(self) -> list:
        return [name for name, entry in self.checks.items() if not entry["passed"]]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "violations": self.violations,
            "checks": self.checks,
        }


def gradient_consistency_check(
    system: CascadeSystem,
    grid: GridSpec,
    z0: np.ndarray,
    horizon: float,
    interior_margin: int = 2,
) -> dict:
    """Compare the gradient field against central differences of re-solves.

    This is the executable form of the grid-free gradient construction: the
    field co-evolved by the solver must match the sensitivity of the value
    approximation to the initial information state. Every probe keeps Z
    symmetric: one per packed entry (sym_pack order), Z_jj +- CONSISTENCY_DELTA
    or Z_jk and Z_kj +- CONSISTENCY_DELTA / 2 each, so each central
    difference estimates that packed entry of Phi (1 + p (p + 1) solves).
    """
    info_rate_field = info_rate_on_grid(system, grid)

    def final_solve(z):
        return hybrid_solve(system, grid, z, horizon, info_rate_field=info_rate_field)

    phi_z = sym_pack(unvec(final_solve(z0).phi_z))
    fd = np.empty_like(phi_z)
    for j, unit in enumerate(np.eye(phi_z.shape[-1])):
        # 1 at the packed entry and at its mirror, scaled to sum to delta
        step = vec(sym_unpack(unit))
        step *= CONSISTENCY_DELTA / step.sum()
        fd[..., j] = (final_solve(z0 + step).phi - final_solve(z0 - step).phi) / (
            2.0 * CONSISTENCY_DELTA
        )
    rel = np.linalg.norm(phi_z - fd, axis=-1) / np.maximum(
        np.linalg.norm(fd, axis=-1), 1e-300
    )
    interior = np.ones(grid.shape, dtype=bool)
    for i, ax in enumerate(grid.axes):
        if ax.periodic or interior_margin == 0:
            continue
        sl = [slice(None)] * grid.ndim
        sl[i] = slice(0, interior_margin)
        interior[tuple(sl)] = False
        sl[i] = slice(-interior_margin, None)
        interior[tuple(sl)] = False
    rel_int = rel[interior]
    return {
        "fraction_within_1e2": float(np.mean(rel_int <= 1e-2)),
        "median_rel": float(np.median(rel_int)),
        "p90_rel": float(np.quantile(rel_int, 0.9)),
        "max_rel": float(np.max(rel_int)),
        "interior_points": int(rel_int.size),
    }


def toy_hybrid_vs_classic(dx: float) -> dict:
    """Hybrid against classic full-grid solves of the toy cascade (horizon 1,
    z0 = 1) at grid step dx and at dx / 2: the max |phi| gap on |x| <= 1 at
    z = 1 for each, and their ratio (about 0.5 for a first-order scheme)."""
    toy = ToyCascade()

    def gap(step):
        nx = int(round(4.0 / step)) + 1
        nz = int(round(5.2 / step)) + 1
        grid = GridSpec((Axis(-2.0, 2.0, nx),))
        joint = GridSpec((Axis(-2.0, 2.0, nx), Axis(0.4, 5.6, nz)))
        hyb = hybrid_solve(toy, grid, np.array([1.0]), 1.0)
        cls = classic_solve(toy, joint, 1.0)
        zi = int(np.argmin(np.abs(joint.axes[1].nodes - 1.0)))
        inner = np.abs(grid.axes[0].nodes) <= 1.0
        return float(np.max(np.abs(hyb.phi - cls[:, zi])[inner]))

    coarse = gap(dx)
    fine = gap(dx / 2.0)
    return {"max_diff": coarse, "refined_max_diff": fine, "ratio": fine / coarse}
