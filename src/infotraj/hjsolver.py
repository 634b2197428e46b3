"""Hamilton-Jacobi solvers for the information-collection value function.

Time is parameterized by the horizon s: the value starts at the terminal cost
G(z0) at s = 0 and evolves as the planning window grows. In these coordinates
dynamic programming gives

    phi_s = min_u < grad phi, (f(x) + g u, vec(Q(x))) >,

so the marching rate is the minimized Hamiltonian evaluated at the central
gradient plus Lax-Friedrichs dissipation +  sum_i alpha_i (D+_i - D-_i) / 2
(the sign pairs with the forward-in-horizon march; equivalently the standard
terminal-value form with the upwind biases mirrored). The scheme is fixed:
both solvers march through one loop, _march, which evaluates this rate with
one kernel, lf_rate, and takes forward Euler steps under the CFL limit:

* classic_solve: full grid over the joint state (x, z); tractable only in
  very low dimension and kept as the reference oracle.
* hybrid_solve: grid over x only; the gradient of the value with respect to
  the information state is co-evolved by a pointwise ODE (curvature
  contraction plus advection along the optimal flow by the same LF scheme),
  with no z grid. Phi is the gradient with respect to the vectorized
  information matrix, a symmetric matrix itself, so the march carries its
  p (p + 1) / 2 distinct entries (matrixcore.sym_pack), not its p**2 vec
  entries. phi and those entries march as one component-major stack: the
  flow updates them in place, and one lf_rate call returns every rate from
  one set of ghost-row differences per axis. Its dissipation is one
  constant per axis, the system's rate bound, and each drift field is kept
  in the shape it varies on, as are the sensitivity coefficients lf_rate
  forms from it on the control-free axes. The solution carries Phi in the
  (..., p**2) vec layout.

A step's transport runs over slabs of grid axis 0, one per CPU the process
may run on (slab_edges), on the calling thread and plain worker threads;
the pointwise flow runs on the calling thread over the whole grid. Every
node's update reads only its neighbours in the step before, so the result
has the same bits for any number of CPUs.

A solve returns its final fields alone, and solve_to_disk stores just that
pair.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time as _time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from infotraj.dynamics import CascadeSystem
from infotraj.grid import (
    GridSpec,
    as_integer,
    load_array,
    read_manifest,
    save_array,
    write_manifest,
)
from infotraj.matrixcore import FLOW_WORK, sym_pack, sym_unpack, unvec

POLICY_TIE_EPS = 1e-12
# the Courant number of every march: the monotone Lax-Friedrichs scheme is
# stable for any value in (0, 1], which is a property of the scheme, not of
# the problem (Crandall and Lions, Math. Comp. 1984)
CFL_NUMBER = 0.5
# nodes per info_rate call when info_rate_on_grid evaluates a field
FIELD_CHUNK_ROWS = 4096
# the fewest nodes a march slab holds (slab_edges): below that, a thread's
# wake-up and the Python between its numpy calls cost more than it saves
SLAB_MIN_NODES = 4096
# the files of a stored solution's final fields, the one entry of its
# manifest's "snapshots" list
FINAL_FILES = {"phi": "phi.bin", "phi_z": "phiz.bin"}


class InstabilityError(RuntimeError):
    """The marching produced non-finite values."""

    def __init__(self, step: int, s: float):
        super().__init__(f"non-finite field values at step {step} (s = {s:.6g})")
        self.step = step
        self.s = s


def check_horizon(horizon) -> float:
    """horizon as a float; ValueError unless it is positive and finite."""
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    return float(horizon)


def bang_bang(switching, bound: float):
    """Minimizing turn rate -bound * sign(switching); zero inside the tie band
    |switching| <= POLICY_TIE_EPS. Scalars and arrays alike."""
    return np.where(np.abs(switching) <= POLICY_TIE_EPS, 0.0, -bound * np.sign(switching))


@dataclass
class LFPlan:
    """The scratch arrays lf_rate writes over a stack of shape (k, *nodes).

    lf_rate keeps nothing in work between calls, so it has FLOW_WORK rows
    (at least the 5 lf_rate uses) and the march's flow computes in it too.
    rows(lo, hi) is the plan of a slab of the nodes: views of these arrays."""

    out: np.ndarray  # (k, *nodes): the rate lf_rate returns
    work: np.ndarray  # (max(5, FLOW_WORK), *nodes)
    prod: np.ndarray  # (k - 1, *nodes)

    def rows(self, lo: int, hi: int) -> "LFPlan":
        """The plan of the nodes lo..hi-1 along grid axis 0."""
        return LFPlan(self.out[:, lo:hi], self.work[:, lo:hi], self.prod[:, lo:hi])


def _slab_rows(field, lo: int, hi: int):
    """Rows lo..hi-1 along grid axis 0 of a per-axis field (a drift or a
    dissipation); a scalar, or a field with one row along axis 0, serves
    every slab whole."""
    if np.ndim(field) == 0 or np.shape(field)[0] == 1:
        return field
    return field[lo:hi]


def _least_shape(field) -> np.ndarray:
    """A copy of field with one row along every axis on which all its
    entries have the same bits: it broadcasts back to field exactly, so an
    operation with it gives field's bits."""
    least = np.asarray(field, dtype=float)
    for axis in range(least.ndim):
        first = least[(slice(None),) * axis + (slice(0, 1),)]
        if np.array_equal(least.view(np.int64), np.broadcast_to(first, least.shape).view(np.int64)):
            least = first
    return least.copy()


def lf_plan(shape) -> LFPlan:
    """LFPlan for lf_rate over a stack of shape (k, *nodes)."""
    k, nodes = shape[0], tuple(shape[1:])
    return LFPlan(
        np.empty((k,) + nodes), np.empty((max(5, FLOW_WORK),) + nodes), np.empty((k - 1,) + nodes)
    )


def lf_rate(minus, plus, drift, g, bound: float, alpha, plan: LFPlan):
    """Lax-Friedrichs numerical Hamiltonian, forward in horizon, over a
    component-major stack.

    minus[i] and plus[i] are the left- and right-biased one-sided
    differences along axis i of a stack of shape (k, *nodes): component 0 is
    the value phi, components 1.. its sensitivities (k = 1 for the value
    alone). The drift fields f_i, the control column g_i and the dissipation
    coefficients alpha_i (scalars or fields) are per-axis sequences too. With
    the central gradient D0 = (D- + D+) / 2 of component 0 the value rate is

        <f, D0> - bound |<g, D0>| + sum_i alpha_i (D+_i - D-_i) / 2,

    and, with the minimizing bang-bang control u* at D0 and w = f + g u*,
    components 1.. get the same scheme at that fixed control,

        sum_i (w_i - alpha_i) / 2 D-_i + (w_i + alpha_i) / 2 D+_i.

    On an axis with g_i = 0, w_i = f_i, and its coefficients are formed in
    f_i's own shape (heading-only, (1, 1, npsi), for the Dubins car's X and
    Y). plan (lf_plan of the stack's shape) holds the scratch arrays.
    Returns the (k, *nodes) rate, which is plan.out and is overwritten by
    the next call with the same plan, and u*. _march passes the (D-, D+)
    views of its ghost-row difference buffers and one plan for its whole
    march; a solver over joint (x, z) axes marches the value alone (k = 1),
    with the information rates as the drift of the z axes and g = 0 there.
    """
    out = plan.out
    # scratch written with out=: the central gradient of one axis, the
    # switching function, the Hamiltonian, the dissipation and a temporary;
    # each sum runs from 0 in axis order, as Python's sum() would
    # (indexed with ... so that one node still gives writable 0-d views)
    central, switching, ham, diss, tmp = (plan.work[j, ...] for j in range(5))
    plan.work[1:4] = 0.0
    for m, p, f, g_i, a in zip(minus, plus, drift, g, alpha):
        np.add(m[0], p[0], out=central)
        central *= 0.5
        if g_i != 0.0:
            switching += np.multiply(central, g_i, out=tmp)
        ham += np.multiply(central, f, out=tmp)
        # forward-in-horizon LF: dissipation enters with (D+ - D-)
        diss += np.multiply(np.subtract(p[0], m[0], out=tmp), 0.5 * a, out=tmp)
    ham -= np.multiply(np.abs(switching, out=tmp), bound, out=tmp)
    np.add(ham, diss, out=out[0, ...])
    u_star = bang_bang(switching, bound)
    if len(out) > 1:
        sens, prod = out[1:], plan.prod
        # coefficients (w -+ alpha) / 2 = w / 2 -+ alpha / 2, exactly
        for i, (m, p, f, g_i, a) in enumerate(zip(minus, plus, drift, g, alpha)):
            if g_i != 0.0:
                # w depends on the control: w / 2 and the coefficients fill
                # the scratch
                half_w, lower, upper = central, ham, diss
                np.add(f, np.multiply(u_star, g_i, out=half_w), out=half_w)
                half_w *= 0.5
            else:
                half_w, lower, upper = np.multiply(f, 0.5), None, None
            lower = np.subtract(half_w, 0.5 * a, out=lower)
            upper = np.add(half_w, 0.5 * a, out=upper)
            if i == 0:
                np.multiply(m[1:], lower, out=sens)
            else:
                sens += np.multiply(m[1:], lower, out=prod)
            sens += np.multiply(p[1:], upper, out=prod)
    return out, u_star


def cfl_dt(grid: GridSpec, alpha) -> float:
    """Stable explicit step CFL_NUMBER / sum_i(alpha_i / dx_i)."""
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha < 0.0) or not np.any(alpha > 0.0):
        raise ValueError("dissipation bounds must be nonnegative with at least one positive")
    denom = float(np.sum(alpha / grid.spacings))
    return CFL_NUMBER / denom


def info_rate_on_grid(system: CascadeSystem, grid: GridSpec) -> np.ndarray:
    """vec(Q) at every grid node, shape grid.shape + (m,).

    The flattened mesh goes through system.info_rate in chunks of
    FIELD_CHUNK_ROWS nodes, each written into one preallocated result, so
    the rate's per-node temporaries stay the size of a chunk. Every node's
    rate is computed row by row, so the chunks give the bits of one call.
    """
    points = grid.mesh().reshape(-1, grid.ndim)
    flat = np.empty((points.shape[0], system.info_len))
    for lo in range(0, points.shape[0], FIELD_CHUNK_ROWS):
        flat[lo : lo + FIELD_CHUNK_ROWS] = system.info_rate(points[lo : lo + FIELD_CHUNK_ROWS])
    return flat.reshape(grid.shape + (system.info_len,))


@dataclass
class HybridSolution:
    """The final fields of a solve for the fixed initial information state
    z0 at the given horizon: the value approximation phi on the x grid,
    shape grid.shape, and the information-gradient approximation Phi,
    phi_z, in the vec layout, shape grid.shape + (p**2,), with equal
    off-diagonal pairs (the march carries the distinct entries). A stored
    solution (load_solution) holds read-only memory maps of the pair.

    timings (solves only; saved to timings.json, not the manifest):
    wall_time_s, then the seconds spent in the info-rate field (0 when it
    was passed in), the pointwise flow, the spatial transport and the finite
    checks (field_s, flow_s, transport_s, check_s), and the number of march
    steps (steps)."""

    grid: GridSpec
    phi: np.ndarray
    phi_z: np.ndarray
    z0: np.ndarray
    horizon: float
    timings: dict = field(default_factory=dict)

    def value_gradient(self) -> np.ndarray:
        """Central-difference gradient of phi, shape grid.shape + (d,): the
        mean of its one-sided differences (_ghost_differences on phi as a
        one-component stack, its edge slopes extrapolated)."""
        stack = np.asarray(self.phi)[None]
        rows = (0, self.grid.axes[0].n)
        bufs, minus, plus = _ghost_difference_buffers(stack, self.grid, rows)
        _ghost_differences(stack, self.grid, bufs, rows)
        return np.stack([0.5 * (m[0] + p[0]) for m, p in zip(minus, plus)], axis=-1)


def config_fingerprint(grid: GridSpec, z0, horizon: float) -> str:
    """SHA-256 of the grid, the initial information state and the horizon:
    the config_hash a solution carries in its manifest."""
    payload = {"grid": grid.to_dict(), "z0": [float(v) for v in z0], "horizon": float(horizon)}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def solve_to_disk(
    out_dir,
    system: CascadeSystem,
    grid: GridSpec,
    z0: np.ndarray,
    horizon: float,
    extras: dict,
) -> HybridSolution:
    """Solve and persist the solution's final fields.

    The pair goes to phi.bin / phiz.bin (FINAL_FILES, the one entry of the
    manifest's "snapshots" list). Binary layout: float64 little-endian,
    row-major in (iX, iY, ipsi[, j]) order. Any manifest.json already in
    out_dir is removed before the solve and the new one is written last, so
    a failed or half-overwritten directory never loads as a solution. Wall-clock
    timings (total and per-phase seconds) and the step count go to a
    separate timings.json so that repeated runs with the same configuration
    produce byte-identical manifests and fields. The manifest's config_hash
    is config_fingerprint(grid, z0, horizon), which load_solution checks.
    extras (e.g. a model hash; {} for none) are merged into the manifest.
    Returns the solution.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.json")
    if os.path.lexists(manifest_path):
        os.remove(manifest_path)
    solution = hybrid_solve(system, grid, z0, horizon)
    save_array(os.path.join(out_dir, FINAL_FILES["phi"]), solution.phi)
    save_array(os.path.join(out_dir, FINAL_FILES["phi_z"]), solution.phi_z)
    write_manifest(os.path.join(out_dir, "timings.json"), solution.timings)
    manifest = {
        "schema": 1,
        "kind": "hybrid_solution",
        "axis_order": ["X", "Y", "psi"][: grid.ndim],
        "grid": grid.to_dict(),
        "m": int(system.info_len),
        "z0": [float(v) for v in solution.z0],
        "horizon": solution.horizon,
        "config_hash": config_fingerprint(grid, solution.z0, solution.horizon),
        "snapshots": [FINAL_FILES],
    }
    manifest.update(extras)
    write_manifest(manifest_path, manifest)
    return solution


def load_solution(in_dir, extras: dict) -> HybridSolution:
    """Open a solution written by solve_to_disk: its final pair of fields,
    mapped read-only (grid.load_array).

    ValueError, naming the file and field, for: a manifest without one of
    the entries grid, m, z0, horizon and snapshots, a grid axis n or an m
    that is not a finite integer, an m that is not a square p**2 >= 1, a z0
    without m entries, a horizon check_horizon refuses, a snapshots list
    other than [FINAL_FILES] (so both files lie in in_dir), a file of the
    wrong size, a config_hash other than config_fingerprint of the
    manifest's grid, z0 and horizon, a manifest entry other than the value
    extras gives for it (the model_hash and config_hash that solve_to_disk's
    extras wrote; {} checks none), and a field with a NaN or an infinity
    (the march never writes one). A directory without manifest.json is not
    a solution.
    """
    manifest_path = os.path.join(in_dir, "manifest.json")
    manifest = read_manifest(manifest_path)
    for key in ("grid", "m", "z0", "horizon", "snapshots"):
        if key not in manifest:
            raise ValueError(f"{manifest_path}: no {key} entry")
    try:
        grid = GridSpec.from_dict(manifest["grid"])
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: grid {exc}") from exc
    m = as_integer(manifest["m"], f"{manifest_path}: m")
    if m < 1 or math.isqrt(m) ** 2 != m:
        raise ValueError(f"{manifest_path}: m = {m} is not the square of a matrix side")
    z0 = np.asarray(manifest["z0"], dtype=float)
    if z0.shape != (m,):
        raise ValueError(f"{manifest_path}: z0 has shape {z0.shape}, expected ({m},)")
    try:
        horizon = check_horizon(manifest["horizon"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{manifest_path}: {exc}") from exc
    if manifest["snapshots"] != [FINAL_FILES]:
        raise ValueError(f"{manifest_path}: snapshots is not {[FINAL_FILES]}")
    paths = {key: os.path.join(in_dir, name) for key, name in FINAL_FILES.items()}
    phi = load_array(paths["phi"], grid.shape)
    phi_z = load_array(paths["phi_z"], grid.shape + (m,))
    if manifest.get("config_hash") != config_fingerprint(grid, z0, horizon):
        raise ValueError(f"{manifest_path}: config_hash does not match its grid, z0 and horizon")
    for key, value in extras.items():
        if manifest.get(key) != value:
            raise ValueError(
                f"{manifest_path}: manifest {key} does not match the scenario; extract "
                "with the scenario that was solved"
            )
    for key, values in (("phi", phi), ("phi_z", phi_z)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{paths[key]}: holds non-finite values")
    return HybridSolution(grid, phi, phi_z, z0, horizon)


def _check_finite(step: int, s: float, *arrays) -> None:
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise InstabilityError(step, s)


def _rows(axis: int, lo, hi) -> tuple:
    """Index of rows lo..hi-1 along grid axis `axis` of a component-major stack."""
    return (slice(None),) * (axis + 1) + (slice(lo, hi),)


def slab_edges(grid: GridSpec) -> list:
    """Axis-0 row edges of a march's slabs: slab j holds the nodes of rows
    edges[j]..edges[j + 1] - 1. There is one slab per CPU the process may
    run on (os.sched_getaffinity), fewer while the smallest slab would hold
    under SLAB_MIN_NODES nodes, and at least one; the rows split as evenly
    as they can."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # a platform without affinity masks
        cpus = os.cpu_count() or 1
    n0 = grid.axes[0].n
    min_rows = -(-SLAB_MIN_NODES // math.prod(grid.shape[1:]))
    count = max(1, min(cpus, n0 // min_rows))
    return [n0 * j // count for j in range(count + 1)]


def _ghost_difference_buffers(stack: np.ndarray, grid: GridSpec, rows):
    """Per-axis difference buffers for the slab of the nodes in axis-0 rows
    rows[0]..rows[1] - 1 of a component-major stack ((0, n_0) for the whole
    grid), with their (D-, D+) views.

    The buffer of axis i has one row more than the slab along that axis:
    its row j holds difference row lo + j, (v[lo + j] - v[lo + j - 1]) / h_i,
    where the slab starts at row lo (rows[0] on axis 0, 0 on the others).
    Difference rows 0 and n_i are the ghost rows, which hold the boundary
    differences, so D- is the buffer's rows but the last and D+ its rows
    but the first, both without a copy. The buffers start at zero, which is
    the clamped boundary of the sensitivity components on a non-periodic axis.
    """
    lo, hi = rows
    bufs, minus, plus = [], [], []
    for axis in range(grid.ndim):
        shape = [stack.shape[0], hi - lo, *stack.shape[2:]]
        shape[axis + 1] += 1
        buf = np.zeros(shape)
        bufs.append(buf)
        minus.append(buf[_rows(axis, 0, -1)])
        plus.append(buf[_rows(axis, 1, None)])
    return bufs, minus, plus


def _ghost_differences(stack: np.ndarray, grid: GridSpec, bufs, rows) -> None:
    """Fill the buffers of _ghost_difference_buffers(stack, grid, rows) from
    stack: one subtraction per axis serves D- and D+ of every component.
    Axis 0's differences at a slab's edges read the neighbouring slabs' rows
    of stack, so every slab's buffers hold the bits of the whole grid's.

    A periodic axis wraps. On a non-periodic axis the value (component 0)
    extrapolates its edge slope and the sensitivities keep a zero ghost
    difference (clamped: every update stays a combination of stored nodal
    matrices, so the gradient field remains a definite matrix). Both rules
    apply at the grid's ends only.
    """
    part = stack[:, rows[0] : rows[1]]
    for axis, (ax, buf) in enumerate(zip(grid.axes, bufs)):
        n, h = ax.n, ax.spacing
        # the slab's difference rows lo..hi, of the rows of src
        (lo, hi), src = (rows, stack) if axis == 0 else ((0, n), part)
        first, last = max(lo, 1), min(hi, n - 1)
        np.subtract(
            src[_rows(axis, first, last + 1)], src[_rows(axis, first - 1, last)],
            out=buf[_rows(axis, first - lo, last + 1 - lo)],
        )
        if ax.periodic:
            # difference rows 0 and n are both the wrap v[0] - v[n - 1]
            for end in (0, n):
                if lo <= end <= hi:
                    np.subtract(
                        src[_rows(axis, 0, 1)], src[_rows(axis, n - 1, n)],
                        out=buf[_rows(axis, end - lo, end + 1 - lo)],
                    )
            first, last = lo, hi
        filled = buf[_rows(axis, first - lo, last + 1 - lo)]
        # the value divides by h exactly as a one-sided gradient does (its
        # switching function decides policy ties); the sensitivities
        # multiply by the reciprocal, which is faster and off by an ulp
        np.divide(filled[0], h, out=filled[0])
        filled[1:] *= 1.0 / h
        if not ax.periodic:
            value = buf[0, ...]
            edge = (slice(None),) * axis
            if lo == 0:
                value[edge + (0,)] = value[edge + (1,)]
            if hi == n:
                value[edge + (n - lo,)] = value[edge + (n - 1 - lo,)]


class _SlabTeam:
    """The threads of a march's slabs: the calling thread runs slab 0 and
    one worker thread (start) each other slab, until close.

    run() calls each phase, phase(j), on every slab j, and a phase on all of
    them before the next; then it raises the error of the first slab, in
    slab order, whose phase raised. A slab skips its phases after one that
    raised."""

    def __init__(self, count: int, phases):
        self.phases = phases
        self.errors = [None] * count
        self.barrier = threading.Barrier(count)
        self.workers = []

    def start(self) -> None:
        for j in range(1, len(self.errors)):
            worker = threading.Thread(target=self._serve, args=(j,), daemon=True)
            worker.start()
            self.workers.append(worker)

    def run(self) -> None:
        self.barrier.wait()  # the workers start
        self._phases(0)
        for exc in self.errors:
            if exc is not None:
                raise exc

    def close(self) -> None:
        self.barrier.abort()
        for worker in self.workers:
            worker.join()

    def _phases(self, j: int) -> None:
        for phase in self.phases:
            if self.errors[j] is None:
                try:
                    phase(j)
                except Exception as exc:
                    self.errors[j] = exc
            self.barrier.wait()

    def _serve(self, j: int) -> None:
        try:
            while True:
                self.barrier.wait()
                self._phases(j)
        except threading.BrokenBarrierError:
            pass  # close() ended the march


def _march(
    stack: np.ndarray, grid: GridSpec, drift, g, bound: float, alpha, dt: float,
    horizon: float, edges, flow=None,
) -> dict:
    """March a component-major stack (lf_rate's layout) in place from s = 0
    to horizon in forward Euler steps of at most dt.

    Each step applies the pointwise flow(h, work) first, when given, to the
    whole grid on the calling thread (it updates the stack in place and may
    compute in work, the scratch of lf_rate's plan). Then comes the spatial
    transport, over the slabs of axis-0 rows that edges bounds (slab_edges):
    each slab fills its _ghost_differences and makes one lf_rate call, and
    once every slab has its rate, each adds h * rate to its rows of the
    stack and checks them finite. The calling thread runs slab 0 and one
    worker thread each other slab (_SlabTeam). A node's rate reads only
    the stack of the step before, so any slab layout gives the bits of one
    slab over the whole grid (the monotone scheme's locality). The
    difference buffers and the plans are built once, and every slab's plan
    is a view of one whole-grid plan, so the differences and the rates of
    the whole stack reuse their memory every step (a new array per step
    lets the allocator hand memory back to the OS and fault it in again).
    Each lf_rate call still allocates bang_bang's u* and its temporaries,
    a few arrays of one component's size. A non-finite entry raises
    InstabilityError; of the slabs that raise, the first one's error
    reaches the caller, and no worker thread outlives the march.

    The march ends once s is within 1e-12 of horizon. Returns its record:
    the step count (steps) and the seconds spent in the flow, the transport
    and the calling thread's finite checks (flow_s, transport_s, check_s).
    """
    clock = _time.perf_counter
    plan = lf_plan(stack.shape)
    slabs = []
    for rows in zip(edges[:-1], edges[1:]):
        cut = [[_slab_rows(field, *rows) for field in fields] for fields in (drift, alpha)]
        slabs.append((rows, *_ghost_difference_buffers(stack, grid, rows), *cut, plan.rows(*rows)))
    checks = [0.0] * len(slabs)
    h = s = flow_s = transport = 0.0
    count = 0

    def rates(j):
        rows, bufs, minus, plus, slab_drift, slab_alpha, slab_plan = slabs[j]
        _ghost_differences(stack, grid, bufs, rows)
        lf_rate(minus, plus, slab_drift, g, bound, slab_alpha, slab_plan)

    def update(j):
        (lo, hi), *_, slab_plan = slabs[j]
        part, rate = stack[:, lo:hi], slab_plan.out
        rate *= h
        part += rate
        t = clock()
        _check_finite(count, s, part)
        checks[j] += clock() - t

    team = _SlabTeam(len(slabs), (rates, update))
    try:
        team.start()
        while s < horizon - 1e-12:
            h = min(dt, horizon - s)
            t0 = clock()
            if flow is not None:
                flow(h, plan.work)
            t1 = clock()
            s += h
            count += 1
            team.run()
            flow_s += t1 - t0
            transport += clock() - t1
    finally:
        team.close()
    return {
        "steps": count, "flow_s": flow_s, "transport_s": transport - checks[0],
        "check_s": checks[0],
    }


def hybrid_solve(
    system: CascadeSystem,
    grid: GridSpec,
    z0: np.ndarray,
    horizon: float,
    info_rate_field: Optional[np.ndarray] = None,
) -> HybridSolution:
    """Co-evolve phi (value) and Phi (value gradient in z) on the x grid.

    The march (_march) steps the pointwise information flow (the closed-form
    flow of system.metric, which accumulates <vec(Q), Phi> into phi and the
    curvature contraction into Phi), then the explicit spatial transport:
      * Phi = G_z is a symmetric p x p matrix, so the march carries its
        k = p (p + 1) / 2 distinct entries in packed order (sym_pack: for
        p = 2, Phi_00, Phi_10, Phi_11). The march state is one
        component-major stack of shape (1 + k, *grid.shape): stack[0] is
        phi, stack[1:] the packed Phi, so each component is contiguous;
      * the metric's flow reads the packed entries of Phi and of Q (packed
        once per solve) and writes phi and Phi back into the stack;
      * one subtraction per axis fills a difference buffer with a ghost row
        at each end, whose (D-, D+) views are shifted by one row; phi
        extrapolates its edge slope, Phi is clamped (zero ghost
        difference) and the periodic heading wraps;
      * one lf_rate call returns phi's rate (drift/control Hamiltonian at
        the central gradient plus dissipation) and Phi's rate (the same LF
        scheme along the locally optimal velocity w = f + g u*). Each drift
        field is kept in the shape it varies on (_least_shape; heading-only,
        (1, 1, npsi), for the Dubins car), and so are the coefficients
        lf_rate forms from it on the control-free axes;
      * the differences, rates and updates run over the slabs of axis 0
        that slab_edges gives, the flow over the whole grid (_march);
      * initial data phi = G(z0) and the packed G_z(z0), uniformly over the
        grid. Each off-diagonal pair of G_z(z0) is averaged, which is exact
        when the pair is equal (a diagonal z0; the inverse of another
        symmetric z0 may differ in its last bit).

    The solution holds the final fields at the horizon, and nothing of
    the march before it: phi uncopied, and Phi in the (..., p**2) vec
    layout, row-major (iX, iY, ipsi, j), expanded once from the packed
    entries. The information-rate field vec(Q) is precomputed once (or
    passed in) and reused every step. Every output point of a step depends
    only on the fields of the step before, so per-point updates are
    schedule independent. A horizon that is not positive and finite raises
    ValueError.
    """
    horizon = check_horizon(horizon)
    if grid.ndim != system.state_dim:
        raise ValueError(
            f"grid dimension {grid.ndim} does not match system state dimension "
            f"{system.state_dim}"
        )
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (system.info_len,):
        raise ValueError(f"z0 must have length {system.info_len}")
    # the initial data G(z0), G_z(z0) must exist: the metric refuses a z0
    # that is not symmetric positive definite
    metric = system.metric
    value0 = metric.value(z0)

    t_start = _time.perf_counter()
    field_s = 0.0
    if info_rate_field is None:
        info_rate_field = info_rate_on_grid(system, grid)
        field_s = _time.perf_counter() - t_start
    ell = np.asarray(info_rate_field, dtype=float)
    if ell.shape != grid.shape + (system.info_len,):
        raise ValueError("information-rate field shape does not match the grid")
    k = system.info_dim * (system.info_dim + 1) // 2

    def packed_view(components):
        """(..., k) view of k component-major fields."""
        return np.moveaxis(components, 0, -1)

    q_packed = sym_pack(unvec(ell), out=packed_view(np.empty((k,) + grid.shape)))
    del ell, info_rate_field  # the march reads the packed copy

    f_nodes = system.drift(grid.mesh().reshape(-1, grid.ndim)).reshape(
        grid.shape + (grid.ndim,)
    )
    # each drift field in the shape it varies on (heading-only for the
    # Dubins car); the march keeps no (nodes, d) copy
    drift = [_least_shape(f_nodes[..., i]) for i in range(grid.ndim)]
    del f_nodes
    alpha = list(system.rate_bounds())
    dt = cfl_dt(grid, alpha)

    # component-major march state: stack[0] is phi, stack[1:] the packed
    # Phi; phi_z is the (..., k) view that the flow reads and writes
    stack = np.empty((1 + k,) + grid.shape)
    stack[0] = value0
    phi, phi_z = stack[0], packed_view(stack[1:])
    phi_z[...] = sym_pack(unvec(metric.gradient(z0)))

    def flow(h, work):
        # exact for the logdet metric, stiffness-free while the accumulated
        # information is small
        metric.flow(phi, phi_z, q_packed, h, work)

    record = _march(
        stack, grid, drift, system.control_column(), system.control_bound, alpha, dt, horizon,
        slab_edges(grid), flow,
    )
    timings = {"wall_time_s": _time.perf_counter() - t_start, "field_s": field_s, **record}
    # sym_unpack gives new C-contiguous symmetric matrices, whose row-major
    # entries are their vec
    phi_z_vec = sym_unpack(phi_z).reshape(grid.shape + (system.info_len,))
    return HybridSolution(grid, phi, phi_z_vec, z0, horizon, timings)


def classic_solve(
    system: CascadeSystem,
    joint_grid: GridSpec,
    horizon: float,
) -> np.ndarray:
    """Full-grid Lax-Friedrichs method of lines over the joint state (x, z);
    returns the final value approximation, shape joint_grid.shape.

    The z axes enter the kernel as extra drift axes (drift vec(Q(x)), no
    control); the value starts at system.metric's G(z) at every node.
    Tractable only in very low dimension; refuses more than 3 total axes.
    Serves as the independent reference for the hybrid solver on toy
    systems. The value marches as a one-component stack through hybrid_solve's
    march, with no pointwise flow. A horizon that is not positive and finite
    raises ValueError.
    """
    horizon = check_horizon(horizon)
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
    dt = cfl_dt(joint_grid, alpha_global)

    stack = system.metric.value(z_nodes)[None]
    _march(
        stack, joint_grid, drift, g, system.control_bound, alpha, dt, horizon,
        slab_edges(joint_grid),
    )
    return stack[0]
