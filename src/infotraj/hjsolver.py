"""Hamilton-Jacobi solvers for the information-collection value function.

Time is parameterized by the horizon s: the value starts at the terminal cost
G(z0) at s = 0 and evolves as the planning window grows. In these coordinates
dynamic programming gives

    phi_s = min_u < grad phi, (f(x) + g u, vec(Q(x))) >,

so the marching rate is the minimized Hamiltonian evaluated at the central
gradient plus Lax-Friedrichs dissipation +  sum_i alpha_i (D+_i - D-_i) / 2
(the sign pairs with the forward-in-horizon march; equivalently the standard
terminal-value form with the upwind biases mirrored). Two solvers share this
kernel:

* classic_solve: full grid over the joint state (x, z); tractable only in
  very low dimension and kept as the reference oracle.
* hybrid_solve: grid over x only; the gradient of the value with respect to
  the information state is co-evolved by a pointwise ODE (curvature
  contraction plus advection along the optimal flow), with no z grid.
"""

from __future__ import annotations

import hashlib
import json
import math
import time as _time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
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
from infotraj.matrixcore import TerminalMetric, unvec, vec

POLICY_TIE_EPS = 1e-12


class InstabilityError(RuntimeError):
    """The marching produced non-finite values."""

    def __init__(self, step: int, s: float):
        super().__init__(f"non-finite field values at step {step} (s = {s:.6g})")
        self.step = step
        self.s = s


@dataclass(frozen=True)
class Adjoint:
    """Costate of the augmented system: p pairs with x, lam with z."""

    p: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float))


@dataclass(frozen=True)
class SolverConfig:
    horizon: float
    cfl_number: float = 0.5
    integrator: str = "euler"  # "euler" | "rk2" (two-stage TVD)
    dissipation: str = "global"  # "global" | "local"
    # gradient transport: "matched" advects Phi with the same central + LF
    # operator as the value equation, so Phi tracks the z0-sensitivity of the
    # discrete phi; "upwind" is plain donor-cell along the optimal flow
    gradient_transport: str = "matched"
    snapshot_stride: int = 0  # 0: choose automatically (~24 snapshots)

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not 0.0 < self.cfl_number <= 1.0:
            raise ValueError(f"CFL number must lie in (0, 1], got {self.cfl_number}")
        if self.integrator not in ("euler", "rk2"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.dissipation not in ("global", "local"):
            raise ValueError(f"unknown dissipation mode {self.dissipation!r}")
        if self.gradient_transport not in ("matched", "upwind"):
            raise ValueError(f"unknown gradient transport {self.gradient_transport!r}")
        if self.snapshot_stride < 0:
            raise ValueError("snapshot stride must be nonnegative")


def hamiltonian(system: CascadeSystem, x, u: float, adjoint: Adjoint, rate_matrix) -> float:
    """<f, p> + <g u, p> + <vec(Q), lam> at a single point."""
    x = np.asarray(x, dtype=float)
    f = system.drift(x)
    g = system.control_column()
    ell = vec(np.asarray(rate_matrix, dtype=float))
    return float(f @ adjoint.p + u * (g @ adjoint.p) + ell @ adjoint.lam)


def optimal_hamiltonian(system: CascadeSystem, x, adjoint: Adjoint, rate_matrix) -> float:
    """Hamiltonian minimized over the admissible turn rates.

    min_{|u| <= bound} u * (g . p) = -bound * |g . p|, so the closed form is
    <f, p> - bound |g . p| + <vec(Q), lam>.
    """
    x = np.asarray(x, dtype=float)
    f = system.drift(x)
    g = system.control_column()
    ell = vec(np.asarray(rate_matrix, dtype=float))
    return float(
        f @ adjoint.p - system.control_bound * abs(g @ adjoint.p) + ell @ adjoint.lam
    )


def policy(system: CascadeSystem, x, adjoint: Adjoint, tie_eps: float = POLICY_TIE_EPS) -> float:
    """Minimizing bang-bang control -bound * sign(g . p); zero on ties."""
    switching = float(system.control_column() @ adjoint.p)
    if abs(switching) <= tie_eps:
        return 0.0
    return -system.control_bound * math.copysign(1.0, switching)


def dissipation_coeffs(system: CascadeSystem, mode: str, x=None) -> np.ndarray:
    """Per-axis bounds on |dH/dp|: global sup or the local value at x."""
    if mode == "global":
        return system.rate_bounds()
    if mode == "local":
        if x is None:
            raise ValueError("local dissipation requires a state")
        f = np.abs(system.drift(np.asarray(x, dtype=float)))
        return f + system.control_bound * np.abs(system.control_column())
    raise ValueError(f"unknown dissipation mode {mode!r}")


def lf_hamiltonian(
    system: CascadeSystem,
    x,
    adjoint_plus: Adjoint,
    adjoint_minus: Adjoint,
    rate_matrix,
    alpha,
) -> float:
    """Lax-Friedrichs numerical Hamiltonian on the x components:

        H(x, (sigma+ + sigma-)/2) - sum_i alpha_i (p_i+ - p_i-) / 2.

    The information costate carries no grid differencing, so only the p
    components are dissipated. Marching forward in horizon uses this operator
    with the one-sided biases mirrored (see the module docstring).
    """
    mean = Adjoint(
        0.5 * (adjoint_plus.p + adjoint_minus.p),
        0.5 * (adjoint_plus.lam + adjoint_minus.lam),
    )
    alpha = np.asarray(alpha, dtype=float)
    dissipation = 0.5 * float(alpha @ (adjoint_plus.p - adjoint_minus.p))
    return optimal_hamiltonian(system, x, mean, rate_matrix) - dissipation


def cfl_dt(grid: GridSpec, alpha, cfl_number: float) -> float:
    """Stable explicit step c / sum_i(alpha_i / dx_i)."""
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha < 0.0) or not np.any(alpha > 0.0):
        raise ValueError("dissipation bounds must be nonnegative with at least one positive")
    denom = float(np.sum(alpha / grid.spacings))
    return cfl_number / denom


def rx_term(phi_z_values: np.ndarray, grid: GridSpec, velocity, alpha=None) -> np.ndarray:
    """Advection of the z-gradient field along the optimal flow.

    velocity is a sequence of per-axis arrays (broadcastable to the grid
    shape). Without alpha: donor-cell upwinding in the marching direction
    (the trajectory ahead of x determines the value at x, so a positive
    velocity component pulls from the right-biased difference). With alpha:
    central differencing plus Lax-Friedrichs dissipation with the given
    per-axis coefficients, i.e. exactly the operator the value equation
    applies to its own z0-sensitivity.
    """
    out = np.zeros_like(phi_z_values)
    for axis in range(grid.ndim):
        w = np.asarray(velocity[axis], dtype=float)
        # clamped boundary slopes keep updates convex combinations of nodal
        # matrices, so the gradient field stays a definite matrix everywhere
        dminus = backward_difference(phi_z_values, grid, axis, boundary="clamp")
        dplus = forward_difference(phi_z_values, grid, axis, boundary="clamp")
        if alpha is None:
            if not np.any(w):
                continue
            w_c = w[..., None]
            out += w_c * np.where(w_c >= 0.0, dplus, dminus)
        else:
            a = np.asarray(alpha[axis], dtype=float)
            if a.ndim:
                a = a[..., None]
            out += w[..., None] * 0.5 * (dminus + dplus) + 0.5 * a * (dplus - dminus)
    return out


def info_rate_on_grid(system: CascadeSystem, grid: GridSpec, workers: int = 1) -> np.ndarray:
    """vec(Q) at every grid node, shape grid.shape + (m,).

    The evaluation is embarrassingly parallel: worker threads fill disjoint
    row blocks, so the result is identical for any worker count.
    """
    mesh = grid.mesh().reshape(-1, grid.ndim)
    npts = mesh.shape[0]
    if workers <= 1:
        flat = system.info_rate(mesh)
    else:
        flat = np.empty((npts, system.info_len))
        bounds = np.linspace(0, npts, min(workers, npts) + 1).astype(int)

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
    # seconds spent in the pointwise flow and in the spatial transport, and
    # the number of march steps; saved to timings.json, not the manifest
    flow_time: float = 0.0
    transport_time: float = 0.0
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

    def save(self, out_dir) -> None:
        save_solution(self, out_dir)


def _config_fingerprint(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def save_solution(solution: HybridSolution, out_dir, extras: Optional[dict] = None) -> None:
    """Persist a solution: deterministic manifest + flat binary snapshots.

    Binary layout: float64 little-endian, row-major in (iX, iY, ipsi[, j])
    order. Wall-clock timings (total, flow and transport seconds) and the
    step count go to a separate timings.json so that repeated runs with the
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
        "flow_s": solution.flow_time,
        "transport_s": solution.transport_time,
        "steps": solution.steps,
    }
    write_manifest(os.path.join(out_dir, "timings.json"), timings)


def load_solution(in_dir) -> HybridSolution:
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
      * phi: drift/control Hamiltonian at the central gradient plus LF
        dissipation;
      * Phi: advection along the locally optimal velocity, by default with
        the same central + LF operator as the value equation ("matched"),
        optionally donor-cell upwind;
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
    if info_rate_field is None:
        info_rate_field = info_rate_on_grid(system, grid, workers=workers)
    ell = np.asarray(info_rate_field, dtype=float)
    if ell.shape != grid.shape + (system.info_len,):
        raise ValueError("information-rate field shape does not match the grid")
    q_field = unvec(ell)

    mesh = grid.mesh()
    f_nodes = system.drift(mesh.reshape(-1, grid.ndim)).reshape(grid.shape + (grid.ndim,))
    g = system.control_column()
    bound = system.control_bound

    alpha_global = system.rate_bounds()
    if config.dissipation == "local":
        alpha = [
            np.abs(f_nodes[..., i]) + bound * abs(g[i]) for i in range(grid.ndim)
        ]
    else:
        alpha = [alpha_global[i] for i in range(grid.ndim)]

    dt = cfl_dt(grid, alpha_global, config.cfl_number)
    n_steps = int(math.ceil(config.horizon / dt - 1e-12))
    stride = config.snapshot_stride or max(1, int(math.ceil(n_steps / 24)))

    phi = np.full(grid.shape, metric.value(z0))
    phi_z = np.broadcast_to(metric.gradient(z0), grid.shape + (system.info_len,)).copy()

    def transport_rate(phi_now, phi_z_now):
        """Spatial part of the marching rates (drift, control, dissipation)."""
        minus, plus = upwind_gradients(phi_now, grid)
        central = [0.5 * (m + p) for m, p in zip(minus, plus)]
        switching = sum(g[i] * central[i] for i in range(grid.ndim) if g[i] != 0.0)
        u_star = np.where(
            np.abs(switching) <= POLICY_TIE_EPS, 0.0, -bound * np.sign(switching)
        )
        ham = sum(f_nodes[..., i] * central[i] for i in range(grid.ndim))
        ham = ham - bound * np.abs(switching)
        # forward-in-horizon LF: dissipation enters with (D+ - D-)
        diss = sum(0.5 * alpha[i] * (plus[i] - minus[i]) for i in range(grid.ndim))
        phi_rate = ham + diss
        velocity = [f_nodes[..., i] + g[i] * u_star for i in range(grid.ndim)]
        transport_alpha = alpha if config.gradient_transport == "matched" else None
        phi_z_rate = rx_term(phi_z_now, grid, velocity, alpha=transport_alpha)
        return phi_rate, phi_z_rate

    times = [0.0]
    phis = [phi.copy()]
    phi_zs = [phi_z.copy()]
    s = 0.0
    step = 0
    flow_time = transport_time = 0.0
    while s < config.horizon - 1e-12:
        h = min(dt, config.horizon - s)
        # pointwise information flow first (exact for the logdet metric,
        # stiffness-free while the accumulated information is small), then
        # the explicit spatial transport under the CFL step
        t0 = _time.perf_counter()
        phi, phi_z = metric.flow(phi, phi_z, q_field, h)
        t1 = _time.perf_counter()
        if config.integrator == "euler":
            rp, rz = transport_rate(phi, phi_z)
            phi = phi + h * rp
            phi_z = phi_z + h * rz
        else:
            rp1, rz1 = transport_rate(phi, phi_z)
            phi1 = phi + h * rp1
            phi_z1 = phi_z + h * rz1
            rp2, rz2 = transport_rate(phi1, phi_z1)
            phi = 0.5 * (phi + phi1 + h * rp2)
            phi_z = 0.5 * (phi_z + phi_z1 + h * rz2)
        flow_time += t1 - t0
        transport_time += _time.perf_counter() - t1
        s += h
        step += 1
        _check_finite(step, s, phi, phi_z)
        if step % stride == 0 or s >= config.horizon - 1e-12:
            times.append(s)
            phis.append(phi.copy())
            phi_zs.append(phi_z.copy())

    payload = {
        "grid": grid.to_dict(),
        "z0": [float(v) for v in z0],
        "config": asdict(config),
    }
    return HybridSolution(
        grid=grid,
        times=np.asarray(times),
        phis=phis,
        phi_zs=phi_zs,
        z0=z0,
        config=config,
        config_hash=_config_fingerprint(payload),
        wall_time=_time.perf_counter() - t_start,
        flow_time=flow_time,
        transport_time=transport_time,
        steps=step,
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

    Tractable only in very low dimension; refuses more than 3 total axes.
    Serves as the independent reference for the hybrid solver on toy systems.
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
    g = system.control_column()
    bound = system.control_bound

    alpha_global = np.empty(joint_grid.ndim)
    alpha_global[:d] = system.rate_bounds()
    alpha_global[d:] = np.max(np.abs(ell.reshape(-1, m)), axis=0)
    # the z-axis Hamiltonian slope is exactly |ell_j(x)|: dissipate with the
    # pointwise value (the global bound over-smooths wherever the rate is small)
    alpha = [alpha_global[i] for i in range(d)] + [np.abs(ell[..., j]) for j in range(m)]

    dt = cfl_dt(joint_grid, alpha_global, config.cfl_number)
    n_steps = int(math.ceil(config.horizon / dt - 1e-12))
    stride = config.snapshot_stride or max(1, int(math.ceil(n_steps / 24)))

    phi = metric.value(z_nodes)

    def rate(phi_now):
        minus, plus = upwind_gradients(phi_now, joint_grid)
        central = [0.5 * (mi + pi) for mi, pi in zip(minus, plus)]
        switching = sum(g[i] * central[i] for i in range(d) if g[i] != 0.0)
        ham = sum(f_nodes[..., i] * central[i] for i in range(d))
        ham = ham - bound * np.abs(switching)
        ham = ham + sum(ell[..., j] * central[d + j] for j in range(m))
        diss = sum(
            0.5 * alpha[i] * (plus[i] - minus[i]) for i in range(joint_grid.ndim)
        )
        return ham + diss

    times = [0.0]
    phis = [phi.copy()]
    s = 0.0
    for step in range(n_steps):
        h = min(dt, config.horizon - s)
        if config.integrator == "euler":
            phi = phi + h * rate(phi)
        else:
            phi1 = phi + h * rate(phi)
            phi = 0.5 * (phi + phi1 + h * rate(phi1))
        s += h
        _check_finite(step, s, phi)
        if (step + 1) % stride == 0 or step == n_steps - 1:
            times.append(s)
            phis.append(phi.copy())
    return ClassicSolution(grid=joint_grid, times=np.asarray(times), phis=phis)
