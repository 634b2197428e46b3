"""Vehicle models in cascade form (controlled state + integrated information
state), the cascade's RK4 step (cascade_step) and step rule (rk4_steps),
open-loop simulation, and trajectory records."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from infotraj.matrixcore import LogDetMetric

TWO_PI = 2.0 * math.pi


def wrap_angle(psi):
    """Wrap an angle (or array of angles) into [-pi, pi)."""
    return (psi + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class State:
    """Vehicle state: planar position in meters, heading in radians.

    The heading is always stored wrapped into [-pi, pi).
    """

    x: float
    y: float
    psi: float

    def __post_init__(self):
        object.__setattr__(self, "psi", float(wrap_angle(self.psi)))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.psi], dtype=float)


def state_array(x) -> np.ndarray:
    """A vehicle state as a float array: a State's (X, Y, psi), or x as given."""
    return x.as_array() if isinstance(x, State) else np.asarray(x, dtype=float)


@dataclass(frozen=True)
class AugmentedState:
    """Cascade state: vehicle state plus vectorized information state."""

    x: State
    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float))


class CascadeSystem(ABC):
    """Dynamics dx/ds = f(x) + g u with scalar control |u| <= control_bound,
    driving an integrated information state dz/ds = vec(Q(x)).

    The control column g is state independent for every shipped system; the
    information rate never depends on z.
    """

    state_dim: int
    info_dim: int  # side length p of the information matrix
    control_bound: float

    @property
    def info_len(self) -> int:
        return self.info_dim * self.info_dim

    @property
    def metric(self) -> LogDetMetric:
        """The terminal cost G(z) = -log det(unvec z) on this system's information."""
        return LogDetMetric(self.info_dim)

    @abstractmethod
    def drift(self, x: np.ndarray) -> np.ndarray:
        """f(x); accepts batched states of shape (..., state_dim)."""

    @abstractmethod
    def drift_jacobian(self, x: np.ndarray) -> np.ndarray:
        """df/dx of shape (..., state_dim, state_dim)."""

    @abstractmethod
    def control_column(self) -> np.ndarray:
        """The constant control column g, shape (state_dim,)."""

    @abstractmethod
    def info_rate(self, x: np.ndarray) -> np.ndarray:
        """vec(Q(x)) per second, shape (..., info_len)."""

    @abstractmethod
    def rate_bounds(self) -> np.ndarray:
        """Global per-axis bounds sup_x |f_i(x)| + control_bound * |g_i|."""

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """Wrap periodic state components (heading) in place-free fashion."""
        return x


class DubinsCar(CascadeSystem):
    """Constant-speed planar vehicle with bounded turn rate.

    State (X, Y, psi); the control is the turn rate. The information rate is
    supplied by a callable built from the sensor suite (zero if absent, which
    models a vehicle that collects nothing).
    """

    state_dim = 3

    def __init__(
        self,
        speed: float,
        turn_rate_limit: float,
        info_rate_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        info_dim: int = 2,
    ):
        if speed <= 0.0:
            raise ValueError(f"speed must be positive, got {speed}")
        if turn_rate_limit <= 0.0:
            raise ValueError(f"turn rate limit must be positive, got {turn_rate_limit}")
        self.speed = float(speed)
        self.control_bound = float(turn_rate_limit)
        self.info_dim = int(info_dim)
        self._info_rate_fn = info_rate_fn

    def drift(self, x):
        x = np.asarray(x, dtype=float)
        psi = x[..., 2]
        out = np.zeros_like(x)
        out[..., 0] = self.speed * np.cos(psi)
        out[..., 1] = self.speed * np.sin(psi)
        return out

    def drift_jacobian(self, x):
        x = np.asarray(x, dtype=float)
        psi = x[..., 2]
        jac = np.zeros(x.shape[:-1] + (3, 3), dtype=float)
        jac[..., 0, 2] = -self.speed * np.sin(psi)
        jac[..., 1, 2] = self.speed * np.cos(psi)
        return jac

    def control_column(self):
        return np.array([0.0, 0.0, 1.0])

    def info_rate(self, x):
        x = np.asarray(x, dtype=float)
        if self._info_rate_fn is None:
            return np.zeros(x.shape[:-1] + (self.info_len,), dtype=float)
        return np.asarray(self._info_rate_fn(x), dtype=float)

    def rate_bounds(self):
        return np.array([self.speed, self.speed, self.control_bound])

    def wrap(self, x):
        out = np.array(x, dtype=float)
        out[..., 2] = wrap_angle(out[..., 2])
        return out


class ToyCascade(CascadeSystem):
    """One-dimensional cascade used as a cross-check problem: dx = u with
    |u| <= 1, information rate x**2 (a 1x1 information matrix), so the value
    improves by driving |x| as large as possible.
    """

    state_dim = 1
    info_dim = 1

    def __init__(self, control_bound: float = 1.0):
        if control_bound <= 0.0:
            raise ValueError("control bound must be positive")
        self.control_bound = float(control_bound)

    def drift(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def drift_jacobian(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (1, 1), dtype=float)

    def control_column(self):
        return np.array([1.0])

    def info_rate(self, x):
        x = np.asarray(x, dtype=float)
        return x**2

    def rate_bounds(self):
        return np.array([self.control_bound])


@dataclass(frozen=True)
class ControlSignal:
    """Piecewise-constant control: values[k] applies on [times[k], times[k+1])."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or values.ndim != 1 or times.size != values.size + 1:
            raise ValueError("need len(times) == len(values) + 1 breakpoints")
        if times[0] != 0.0:
            raise ValueError("control must start at time 0")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, value: float, duration: float) -> "ControlSignal":
        return cls(np.array([0.0, duration]), np.array([value]))

    @classmethod
    def from_segments(cls, values, duration: float) -> "ControlSignal":
        values = np.asarray(values, dtype=float)
        times = np.linspace(0.0, duration, values.size + 1)
        return cls(times, values)

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    def value_at(self, s: float) -> float:
        idx = int(np.searchsorted(self.times, s, side="right")) - 1
        idx = min(max(idx, 0), self.values.size - 1)
        return float(self.values[idx])


@dataclass
class Trajectory:
    """Time-sampled record of a rollout or an extracted optimal path.

    Adjoint samples and residuals are populated by the extractors only.
    """

    s: np.ndarray                      # (n,) seconds, increasing from 0
    states: np.ndarray                 # (n, state_dim)
    controls: np.ndarray               # (n,)
    infos: np.ndarray                  # (n, info_len)
    costates: Optional[np.ndarray] = None       # (n, state_dim)
    info_costates: Optional[np.ndarray] = None  # (n, info_len)
    terminal_cost: Optional[float] = None
    residuals: dict = field(default_factory=dict)

    def final_info(self) -> np.ndarray:
        return self.infos[-1]

    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def duration(self) -> float:
        return float(self.s[-1])


# the most steps rk4_steps cuts one span into (the shipped extraction takes
# 1,200); a smaller dt would allocate or run for hours
MAX_RK4_STEPS = 10**6


def rk4_steps(span: float, dt: float, name: str) -> tuple:
    """(n, h): the n = ceil(span / dt) equal steps of size h = span / n that
    every integrator in the package cuts a span into; a zero span is one step
    of size 0. A dt or a span (named `name`) out of range, or a dt so small
    that span / dt exceeds MAX_RK4_STEPS (or overflows), raises ValueError."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be a finite positive number, got {dt}")
    if not (math.isfinite(span) and span >= 0.0):
        raise ValueError(f"{name} must be a finite nonnegative number, got {span}")
    if not span / dt <= MAX_RK4_STEPS:
        raise ValueError(
            f"dt must be a finite positive number with {name} / dt at most "
            f"{MAX_RK4_STEPS}, got {dt}"
        )
    n = max(1, int(math.ceil(span / dt - 1e-12)))
    return n, span / n


def _segment_nodes(control: ControlSignal, horizon: float, dt: float) -> np.ndarray:
    """Sample times on [0, horizon]: uniform substeps of at most dt within each
    control segment, so integration never straddles a control switch."""
    edges = [0.0]
    for t in control.times[1:]:
        if t < horizon - 1e-12:
            edges.append(float(t))
    edges.append(horizon)
    nodes = [0.0]
    for a, b in zip(edges[:-1], edges[1:]):
        # a bad horizon is the only way a segment's span can be bad
        n_sub, _ = rk4_steps(b - a, dt, "horizon")
        nodes.extend(np.linspace(a, b, n_sub + 1)[1:].tolist())
    return np.asarray(nodes, dtype=float)


# stage nodes of the classical RK4 scheme: stage i is taken at
# y + (RK4_NODES[i] * h) * k_{i-1}, stage 0 at y itself
RK4_NODES = (0.0, 0.5, 0.5, 1.0)


def rk4_stages(slope, y: np.ndarray, h: float):
    """The four stage states y_i of an RK4 step of size h from y and their
    slopes k_i = slope(y_i, i), as lists."""
    ys, ks = [], []
    for i, c in enumerate(RK4_NODES):
        ys.append(y if i == 0 else y + (c * h) * ks[-1])
        ks.append(slope(ys[-1], i))
    return ys, ks


def rk4_combine(y: np.ndarray, k, h: float) -> np.ndarray:
    """The end of an RK4 step of size h from y with the stage slopes k."""
    return y + h / 6.0 * (k[0] + 2 * k[1] + 2 * k[2] + k[3])


def vehicle_stages(system: CascadeSystem, x: np.ndarray, u, h: float):
    """The four RK4 stage states of the vehicle part dx/ds = f(x) + g u of a
    step of size h from x, shape (4, *x.shape), and their slopes. The vehicle
    rate never reads z or the costates, so the rates at every stage can come
    from one call."""
    g = system.control_column()
    xs, ks = rk4_stages(lambda x_i, i: system.drift(x_i) + g * u, x, h)
    return np.stack(xs), np.stack(ks)


def cascade_step(system: CascadeSystem, x: np.ndarray, z: np.ndarray, u, h: float):
    """One RK4 step of size h of d[x, z]/ds = [f(x) + g u, vec(Q(x))] from
    the rows x (batch, d) and z (batch, m) at a scalar u or a (batch, 1)
    column; vec(Q) at all four vehicle stages comes from one info_rate call.
    Returns (x', z'), the heading wrapped after the step only."""
    xs, kx = vehicle_stages(system, x, u, h)
    kz = system.info_rate(xs.reshape(-1, x.shape[-1])).reshape(xs.shape[:2] + (-1,))
    return system.wrap(rk4_combine(x, kx, h)), rk4_combine(z, kz, h)


def simulate_open_loop(
    system: CascadeSystem,
    initial: AugmentedState,
    control: ControlSignal,
    horizon: float,
    dt: float,
) -> Trajectory:
    """Integrate the cascade dynamics under a piecewise-constant control.

    Fixed-step RK4 within each control segment; the information state is
    integrated jointly so the whole record is 4th-order accurate.
    """
    if control.duration < horizon - 1e-12:
        raise ValueError("control signal does not cover the horizon")
    bound = system.control_bound + 1e-12
    if np.any(np.abs(control.values) > bound):
        raise ValueError(
            f"control values exceed the admissible set [-{system.control_bound}, "
            f"{system.control_bound}]"
        )

    x = state_array(initial.x)
    z = np.asarray(initial.z, dtype=float)
    nodes = _segment_nodes(control, horizon, dt)
    n = nodes.size
    states = np.empty((n, system.state_dim))
    infos = np.empty((n, z.size))
    controls = np.empty(n)
    states[0], infos[0] = x, z
    controls[0] = control.value_at(0.0) if horizon > 0.0 else 0.0
    x, z = x[None, :], z[None, :]
    for k in range(n - 1):
        u = control.value_at(nodes[k])
        x, z = cascade_step(system, x, z, u, nodes[k + 1] - nodes[k])
        states[k + 1] = x[0]
        infos[k + 1] = z[0]
        controls[k + 1] = u
    return Trajectory(s=nodes, states=states, controls=controls, infos=infos)


_STATE_HEADERS = {3: ("X", "Y", "psi"), 1: ("x",)}
_STATE_UNITS = {3: ("m", "m", "rad"), 1: ("m",)}


def trajectory_to_csv(trajectory: Trajectory, path) -> None:
    """Write a trajectory as CSV: s, state, u, z components, running cost, and
    (when present) the adjoint samples. Units are given on comment lines. The
    cost is the logdet metric on the trajectory's own p x p information."""
    d = trajectory.states.shape[1]
    m = trajectory.infos.shape[1]
    names = _STATE_HEADERS.get(d, tuple(f"x{i + 1}" for i in range(d)))
    units = _STATE_UNITS.get(d, tuple("-" for _ in range(d)))
    cols = ["s"] + list(names) + ["u"] + [f"z_{j + 1}" for j in range(m)] + ["cost_so_far"]
    has_adjoint = trajectory.costates is not None and trajectory.info_costates is not None
    if has_adjoint:
        cols += [f"p_{i + 1}" for i in range(d)] + [f"lambda_{j + 1}" for j in range(m)]

    lines = []
    lines.append(
        "# units: s [s], "
        + ", ".join(f"{n} [{u}]" for n, u in zip(names, units))
        + ", u [rad/s], z_* [information], cost_so_far [-]"
    )
    for key, val in trajectory.residuals.items():
        lines.append(f"# residual {key} = {val:.17g}")
    lines.append(",".join(cols))
    costs = LogDetMetric(math.isqrt(m)).value(trajectory.infos)
    for k in range(trajectory.s.size):
        row = [trajectory.s[k], *trajectory.states[k], trajectory.controls[k]]
        row += list(trajectory.infos[k])
        row.append(costs[k])
        if has_adjoint:
            row += list(trajectory.costates[k]) + list(trajectory.info_costates[k])
        lines.append(",".join(format(float(v), ".17g") for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def trajectory_from_csv(path) -> Trajectory:
    """Read back a trajectory CSV written by :func:`trajectory_to_csv`; a
    malformed file raises ValueError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.strip() for line in fh if line.strip()]
    data_rows = [r for r in rows if not r.startswith("#")]
    if len(data_rows) < 2:
        raise ValueError(f"{path}: expected a header and at least one data row")
    header = data_rows[0].split(",")
    try:
        body = np.array([[float(v) for v in r.split(",")] for r in data_rows[1:]])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if body.shape[1] != len(header):
        raise ValueError(f"{path}: rows have {body.shape[1]} columns, the header {len(header)}")
    try:
        u_idx = header.index("u")
    except ValueError as exc:
        raise ValueError(f"{path}: missing 'u' column") from exc
    z_cols = [i for i, h in enumerate(header) if h.startswith("z_")]
    p_cols = [i for i, h in enumerate(header) if h.startswith("p_")]
    lam_cols = [i for i, h in enumerate(header) if h.startswith("lambda_")]
    traj = Trajectory(
        s=body[:, 0],
        states=body[:, 1:u_idx],
        controls=body[:, u_idx],
        infos=body[:, z_cols],
        costates=body[:, p_cols] if p_cols else None,
        info_costates=body[:, lam_cols] if lam_cols else None,
    )
    return traj
