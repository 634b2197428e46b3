"""Hamilton-Jacobi solvers for the information-collection value function.

Time is parameterized by the horizon s: the value starts at the terminal cost
G(z0) at s = 0 and evolves as the planning window grows. In these coordinates
dynamic programming gives

    phi_s = min_u < grad phi, (f(x) + g u, vec(Q(x))) >,

so the marching rate is the minimized Hamiltonian evaluated at the central
gradient plus Lax-Friedrichs dissipation +  sum_i alpha_i (D+_i - D-_i) / 2
(the sign pairs with the forward-in-horizon march; equivalently the standard
terminal-value form with the upwind biases mirrored). The scheme is fixed:
both solvers evaluate this rate through one kernel, lf_rate, and march it
with forward Euler steps under the CFL limit:

* classic_solve: full grid over the joint state (x, z); tractable only in
  very low dimension and kept as the reference oracle.
* hybrid_solve: grid over x only; the gradient of the value with respect to
  the information state is co-evolved by a pointwise ODE (curvature
  contraction plus advection along the optimal flow by the same LF
  operator, rx_term), with no z grid. Its dissipation is one constant per
  axis, the system's rate bound.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time as _time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from infotraj.dynamics import CascadeSystem
from infotraj.grid import (
    GridSpec,
    backward_difference,
    forward_difference,
    load_array,
    read_manifest,
    save_array,
    upwind_gradients,
    write_manifest,
)
from infotraj.matrixcore import TerminalMetric, unvec

POLICY_TIE_EPS = 1e-12


class InstabilityError(RuntimeError):
    """The marching produced non-finite values."""

    def __init__(self, step: int, s: float):
        super().__init__(f"non-finite field values at step {step} (s = {s:.6g})")
        self.step = step
        self.s = s


@dataclass(frozen=True)
class SolverConfig:
    horizon: float
    cfl_number: float = 0.5
    snapshot_stride: int = 0  # 0: choose automatically (~24 snapshots)

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not 0.0 < self.cfl_number <= 1.0:
            raise ValueError(f"CFL number must lie in (0, 1], got {self.cfl_number}")
        if self.snapshot_stride < 0:
            raise ValueError("snapshot stride must be nonnegative")


def bang_bang(switching, bound: float):
    """Minimizing turn rate -bound * sign(switching); zero inside the tie band
    |switching| <= POLICY_TIE_EPS. Scalars and arrays alike."""
    return np.where(np.abs(switching) <= POLICY_TIE_EPS, 0.0, -bound * np.sign(switching))


def lf_rate(minus, plus, drift, g, bound: float, alpha):
    """Lax-Friedrichs numerical Hamiltonian, forward in horizon.

    Every argument but bound is a per-axis sequence: the left- and
    right-biased one-sided gradients, the drift fields f_i, the control
    column g_i and the dissipation coefficients alpha_i (scalars or fields).
    With the central gradient D0 = (D- + D+) / 2 the rate is

        <f, D0> - bound |<g, D0>| + sum_i alpha_i (D+_i - D-_i) / 2,

    returned with the minimizing bang-bang control at the central gradient.
    A solver over joint (x, z) axes passes the information rates as the drift
    of the z axes, with g = 0 there.
    """
    central = [0.5 * (m + p) for m, p in zip(minus, plus)]
    switching = sum(g_i * c for g_i, c in zip(g, central) if g_i != 0.0)
    ham = sum(f * c for f, c in zip(drift, central))
    ham = ham - bound * np.abs(switching)
    # forward-in-horizon LF: dissipation enters with (D+ - D-)
    diss = sum(0.5 * a * (p - m) for a, m, p in zip(alpha, minus, plus))
    return ham + diss, bang_bang(switching, bound)


def cfl_dt(grid: GridSpec, alpha, cfl_number: float) -> float:
    """Stable explicit step c / sum_i(alpha_i / dx_i)."""
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha < 0.0) or not np.any(alpha > 0.0):
        raise ValueError("dissipation bounds must be nonnegative with at least one positive")
    denom = float(np.sum(alpha / grid.spacings))
    return cfl_number / denom


def rx_term(phi_z_values: np.ndarray, grid: GridSpec, velocity, alpha) -> np.ndarray:
    """Advection of the z-gradient field along the optimal flow.

    velocity is a sequence of per-axis arrays (broadcastable to the grid
    shape) and alpha a sequence of per-axis dissipation constants. The
    operator is central differencing plus Lax-Friedrichs dissipation, i.e.
    exactly the operator the value equation applies to its own
    z0-sensitivity, so Phi tracks the z0-sensitivity of the discrete phi.
    """
    out = np.zeros_like(phi_z_values)
    for axis in range(grid.ndim):
        w = np.asarray(velocity[axis], dtype=float)
        # clamped boundary slopes keep updates convex combinations of nodal
        # matrices, so the gradient field stays a definite matrix everywhere
        dminus = backward_difference(phi_z_values, grid, axis, boundary="clamp")
        dplus = forward_difference(phi_z_values, grid, axis, boundary="clamp")
        a = float(alpha[axis])
        out += w[..., None] * 0.5 * (dminus + dplus) + 0.5 * a * (dplus - dminus)
    return out


def info_rate_on_grid(system: CascadeSystem, grid: GridSpec, workers: int = 1) -> np.ndarray:
    """vec(Q) at every grid node, shape grid.shape + (m,).

    The evaluation is embarrassingly parallel: worker threads fill disjoint
    row blocks, so the result is identical for any worker count. The thread
    count is capped by the node count and the CPU count.
    """
    mesh = grid.mesh().reshape(-1, grid.ndim)
    npts = mesh.shape[0]
    workers = min(workers, npts, os.cpu_count() or 1)
    if workers <= 1:
        flat = system.info_rate(mesh)
    else:
        flat = np.empty((npts, system.info_len))
        bounds = np.linspace(0, npts, workers + 1).astype(int)

        def fill(k):
            lo, hi = bounds[k], bounds[k + 1]
            flat[lo:hi] = system.info_rate(mesh[lo:hi])

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(len(bounds) - 1)))
    return flat.reshape(grid.shape + (system.info_len,))


@dataclass
class HybridSolution:
    """Snapshots of the value approximation phi and the information-gradient
    approximation Phi on the x grid, for the fixed initial information state z0."""

    grid: GridSpec
    times: np.ndarray
    phis: list
    phi_zs: list
    z0: np.ndarray
    config: SolverConfig
    config_hash: str = ""
    wall_time: float = 0.0
    # seconds spent in the info-rate field (0 when it was passed in), the
    # pointwise flow, the spatial transport, the finite checks and the
    # snapshot copies, and the number of march steps; saved to timings.json,
    # not the manifest
    field_time: float = 0.0
    flow_time: float = 0.0
    transport_time: float = 0.0
    check_time: float = 0.0
    snapshot_time: float = 0.0
    steps: int = 0

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def phi_final(self) -> np.ndarray:
        return self.phis[-1]

    def phi_z_final(self) -> np.ndarray:
        return self.phi_zs[-1]

    def value_gradient_final(self) -> np.ndarray:
        """Central-difference gradient of the final phi, shape grid.shape + (d,)."""
        minus, plus = upwind_gradients(self.phis[-1], self.grid)
        return np.stack([0.5 * (m + p) for m, p in zip(minus, plus)], axis=-1)


def config_fingerprint(grid: GridSpec, z0, config: SolverConfig) -> str:
    """SHA-256 of the grid, the initial information state and the solver
    config: the config_hash a solution carries in its manifest."""
    payload = {
        "grid": grid.to_dict(),
        "z0": [float(v) for v in z0],
        "config": asdict(config),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def save_solution(solution: HybridSolution, out_dir, extras: Optional[dict] = None) -> None:
    """Persist a solution: deterministic manifest + flat binary snapshots.

    Binary layout: float64 little-endian, row-major in (iX, iY, ipsi[, j])
    order. Wall-clock timings (total and per-phase seconds) and the step
    count go to a separate timings.json so that repeated runs with the
    same configuration produce byte-identical manifests and fields. extras
    (e.g. a sensor-suite hash) are merged into the manifest.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    snapshots = []
    for k, s in enumerate(solution.times):
        phi_name = f"phi_{k:04d}.bin"
        pz_name = f"phiz_{k:04d}.bin"
        save_array(os.path.join(out_dir, phi_name), solution.phis[k])
        save_array(os.path.join(out_dir, pz_name), solution.phi_zs[k])
        snapshots.append({"s": float(s), "phi": phi_name, "phi_z": pz_name})
    manifest = {
        "schema": 1,
        "kind": "hybrid_solution",
        "axis_order": ["X", "Y", "psi"][: solution.grid.ndim],
        "grid": solution.grid.to_dict(),
        "m": int(solution.phi_zs[0].shape[-1]),
        "z0": [float(v) for v in solution.z0],
        "config": asdict(solution.config),
        "config_hash": solution.config_hash,
        "snapshots": snapshots,
    }
    manifest.update(extras or {})
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    timings = {
        "wall_time_s": solution.wall_time,
        "field_s": solution.field_time,
        "flow_s": solution.flow_time,
        "transport_s": solution.transport_time,
        "check_s": solution.check_time,
        "snapshot_s": solution.snapshot_time,
        "steps": solution.steps,
    }
    write_manifest(os.path.join(out_dir, "timings.json"), timings)


def load_solution(in_dir) -> HybridSolution:
    """Read a solution written by save_solution; a snapshot file of the wrong
    size raises ValueError naming the file."""
    import os

    manifest = read_manifest(os.path.join(in_dir, "manifest.json"))
    grid = GridSpec.from_dict(manifest["grid"])
    m = int(manifest["m"])
    times, phis, phi_zs = [], [], []
    for snap in manifest["snapshots"]:
        times.append(snap["s"])
        phis.append(load_array(os.path.join(in_dir, snap["phi"]), grid.shape))
        phi_zs.append(load_array(os.path.join(in_dir, snap["phi_z"]), grid.shape + (m,)))
    cfg = SolverConfig(**manifest["config"])
    return HybridSolution(
        grid=grid,
        times=np.asarray(times),
        phis=phis,
        phi_zs=phi_zs,
        z0=np.asarray(manifest["z0"], dtype=float),
        config=cfg,
        config_hash=manifest.get("config_hash", ""),
    )


def _check_finite(step: int, s: float, *arrays) -> None:
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise InstabilityError(step, s)


def _explicit_step(rate, fields: list, h: float) -> None:
    """Advance fields (arrays, updated in place) by one forward Euler step of
    d(fields)/ds = rate(fields).

    In place, because a new ~2 MB field per step on the shipped grid lets the
    allocator hand memory back to the OS and fault it in again each step.
    """
    for f, r in zip(fields, rate(fields)):
        f += h * r


def _march(fields: list, step, dt: float, config: SolverConfig, timers: Optional[dict] = None):
    """March fields (a list of arrays) from s = 0 to the horizon in steps of
    at most dt, where step(fields, h) advances the list in place.

    Snapshots (copies) are kept every config.snapshot_stride steps (0: about
    24 in all) and at the horizon. Returns the snapshot times, the snapshots
    and the step count; a non-finite field raises InstabilityError. Seconds
    spent in the finite checks and the snapshot copies are added to
    timers["check"] and timers["snapshot"] when timers is given.
    """
    timers = {"check": 0.0, "snapshot": 0.0} if timers is None else timers
    clock = _time.perf_counter
    n_steps = int(math.ceil(config.horizon / dt - 1e-12))
    stride = config.snapshot_stride or max(1, int(math.ceil(n_steps / 24)))
    times = [0.0]
    t0 = clock()
    snapshots = [tuple(f.copy() for f in fields)]
    timers["snapshot"] += clock() - t0
    s = 0.0
    count = 0
    while s < config.horizon - 1e-12:
        h = min(dt, config.horizon - s)
        step(fields, h)
        s += h
        count += 1
        t0 = clock()
        _check_finite(count, s, *fields)
        t1 = clock()
        timers["check"] += t1 - t0
        if count % stride == 0 or s >= config.horizon - 1e-12:
            times.append(s)
            snapshots.append(tuple(f.copy() for f in fields))
            timers["snapshot"] += clock() - t1
    return np.asarray(times), snapshots, count


def hybrid_solve(
    system: CascadeSystem,
    metric: TerminalMetric,
    grid: GridSpec,
    z0: np.ndarray,
    config: SolverConfig,
    info_rate_field: Optional[np.ndarray] = None,
    workers: int = 1,
) -> HybridSolution:
    """Co-evolve phi (value) and Phi (value gradient in z) on the x grid.

    Each step splits into the pointwise information flow (the metric's
    closed-form accumulation of <vec(Q), Phi> into phi and of the curvature
    contraction into Phi) followed by the explicit spatial transport:
      * phi: the Lax-Friedrichs kernel lf_rate (drift/control Hamiltonian at
        the central gradient plus dissipation);
      * Phi: advection along the locally optimal velocity with the same
        central + LF operator as the value equation (rx_term);
      * initial data phi = G(z0), Phi = G_z(z0), uniformly over the grid.

    The information-rate field vec(Q) is precomputed once (or passed in) and
    reused every step. Every output point of a step depends only on the
    previous snapshot, so per-point updates are schedule independent.
    """
    if grid.ndim != system.state_dim:
        raise ValueError(
            f"grid dimension {grid.ndim} does not match system state dimension "
            f"{system.state_dim}"
        )
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (system.info_len,):
        raise ValueError(f"z0 must have length {system.info_len}")
    # the initial data G(z0), G_z(z0) must exist; the metric enforces
    # positivity (coordinate-wise probes of z0 may be slightly asymmetric)
    metric.value(z0)

    t_start = _time.perf_counter()
    timers = {"field": 0.0, "flow": 0.0, "transport": 0.0, "check": 0.0, "snapshot": 0.0}
    if info_rate_field is None:
        info_rate_field = info_rate_on_grid(system, grid, workers=workers)
        timers["field"] = _time.perf_counter() - t_start
    ell = np.asarray(info_rate_field, dtype=float)
    if ell.shape != grid.shape + (system.info_len,):
        raise ValueError("information-rate field shape does not match the grid")
    q_field = unvec(ell)

    mesh = grid.mesh()
    f_nodes = system.drift(mesh.reshape(-1, grid.ndim)).reshape(grid.shape + (grid.ndim,))
    drift = [f_nodes[..., i] for i in range(grid.ndim)]
    g = system.control_column()
    bound = system.control_bound
    alpha = list(system.rate_bounds())
    dt = cfl_dt(grid, alpha, config.cfl_number)

    def transport_rate(fields):
        """Spatial part of the marching rates (drift, control, dissipation)."""
        phi_now, phi_z_now = fields
        minus, plus = upwind_gradients(phi_now, grid)
        phi_rate, u_star = lf_rate(minus, plus, drift, g, bound, alpha)
        velocity = [f + g_i * u_star for f, g_i in zip(drift, g)]
        return phi_rate, rx_term(phi_z_now, grid, velocity, alpha)

    def step(fields, h):
        # pointwise information flow first (exact for the logdet metric,
        # stiffness-free while the accumulated information is small), then
        # the explicit spatial transport under the CFL step
        t0 = _time.perf_counter()
        fields[:] = metric.flow(*fields, q_field, h)
        t1 = _time.perf_counter()
        _explicit_step(transport_rate, fields, h)
        timers["flow"] += t1 - t0
        timers["transport"] += _time.perf_counter() - t1

    fields = [
        np.full(grid.shape, metric.value(z0)),
        np.broadcast_to(metric.gradient(z0), grid.shape + (system.info_len,)).copy(),
    ]
    times, snapshots, steps = _march(fields, step, dt, config, timers)
    return HybridSolution(
        grid=grid,
        times=times,
        phis=[snap[0] for snap in snapshots],
        phi_zs=[snap[1] for snap in snapshots],
        z0=z0,
        config=config,
        config_hash=config_fingerprint(grid, z0, config),
        wall_time=_time.perf_counter() - t_start,
        field_time=timers["field"],
        flow_time=timers["flow"],
        transport_time=timers["transport"],
        check_time=timers["check"],
        snapshot_time=timers["snapshot"],
        steps=steps,
    )


@dataclass
class ClassicSolution:
    """Value approximation on a joint (x, z) grid (reference use only)."""

    grid: GridSpec
    times: np.ndarray
    phis: list

    def phi_final(self) -> np.ndarray:
        return self.phis[-1]


def classic_solve(
    system: CascadeSystem,
    metric: TerminalMetric,
    joint_grid: GridSpec,
    config: SolverConfig,
) -> ClassicSolution:
    """Full-grid Lax-Friedrichs method of lines over the joint state (x, z).

    The z axes enter the kernel as extra drift axes (drift vec(Q(x)), no
    control). Tractable only in very low dimension; refuses more than 3 total
    axes. Serves as the independent reference for the hybrid solver on toy
    systems.
    """
    d = system.state_dim
    m = system.info_len
    if joint_grid.ndim != d + m:
        raise ValueError(
            f"joint grid must have {d + m} axes (state {d} + information {m})"
        )
    if joint_grid.ndim > 3:
        raise ValueError("classic full-grid solver refuses more than 3 dimensions")

    mesh = joint_grid.mesh()
    x_nodes = mesh[..., :d]
    z_nodes = mesh[..., d:]
    f_nodes = system.drift(x_nodes.reshape(-1, d)).reshape(joint_grid.shape + (d,))
    ell = system.info_rate(x_nodes.reshape(-1, d)).reshape(joint_grid.shape + (m,))
    drift = [f_nodes[..., i] for i in range(d)] + [ell[..., j] for j in range(m)]
    g = np.concatenate([system.control_column(), np.zeros(m)])

    alpha_global = np.empty(joint_grid.ndim)
    alpha_global[:d] = system.rate_bounds()
    alpha_global[d:] = np.max(np.abs(ell.reshape(-1, m)), axis=0)
    # the z-axis Hamiltonian slope is exactly |ell_j(x)|: dissipate with the
    # pointwise value (the global bound over-smooths wherever the rate is small)
    alpha = [alpha_global[i] for i in range(d)] + [np.abs(ell[..., j]) for j in range(m)]
    dt = cfl_dt(joint_grid, alpha_global, config.cfl_number)

    def rate(fields):
        minus, plus = upwind_gradients(fields[0], joint_grid)
        return (lf_rate(minus, plus, drift, g, system.control_bound, alpha)[0],)

    def step(fields, h):
        _explicit_step(rate, fields, h)

    times, snapshots, _ = _march([metric.value(z_nodes)], step, dt, config)
    return ClassicSolution(
        grid=joint_grid, times=times, phis=[snap[0] for snap in snapshots]
    )
