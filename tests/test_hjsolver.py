import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

from infotraj import hjsolver
from infotraj.cli import load_scenario
from infotraj.dynamics import DubinsCar, ToyCascade
from infotraj.grid import Axis, GridSpec, load_array
from infotraj.hjsolver import (
    InstabilityError,
    bang_bang,
    cfl_dt,
    classic_solve,
    hybrid_solve,
    info_rate_on_grid,
    lf_plan,
    lf_rate,
    load_solution,
    solve_to_disk,
)
from infotraj.matrixcore import (
    FLOW_WORK,
    LogDetMetric,
    NotPositiveDefiniteError,
    sym_pack,
    unvec,
    vec,
)
from infotraj.trajectories import toy_hybrid_vs_classic

SHIPPED = os.path.join(os.path.dirname(__file__), "..", "scenarios", "doppler_single_path.json")

# costate of the augmented system: p pairs with x, lam with z
Adjoint = namedtuple("Adjoint", "p lam")


def hamiltonian(system, x, u: float, adjoint, rate_matrix) -> float:
    """<f, p> + <g u, p> + <vec(Q), lam> at a single point."""
    x = np.asarray(x, dtype=float)
    f = system.drift(x)
    g = system.control_column()
    ell = vec(np.asarray(rate_matrix, dtype=float))
    return float(f @ adjoint.p + u * (g @ adjoint.p) + ell @ adjoint.lam)


def kernel_at(system, x, minus, plus, rate_matrix, alpha):
    """lf_rate at one node, as (rate, control): the x axes carry the one-sided
    costates minus.p / plus.p and dissipation alpha; the z axes enter with
    drift vec(Q), g = 0 and no dissipation, as in classic_solve."""
    m = len(minus.lam)
    drift = np.concatenate(
        [system.drift(np.asarray(x, dtype=float)), vec(np.asarray(rate_matrix))]
    )
    g = np.concatenate([system.control_column(), np.zeros(m)])
    alpha = np.concatenate([np.asarray(alpha, dtype=float), np.zeros(m)])
    rate, u = lf_rate(
        np.concatenate([minus.p, minus.lam])[:, None],
        np.concatenate([plus.p, plus.lam])[:, None],
        drift, g, system.control_bound, alpha, lf_plan((1,)),
    )
    return float(rate[0]), float(u)


def optimal_hamiltonian(system, x, adjoint, rate_matrix) -> float:
    """Hamiltonian minimized over the admissible turn rates: the kernel with
    equal one-sided costates."""
    return kernel_at(system, x, adjoint, adjoint, rate_matrix, np.zeros(system.state_dim))[0]


def lf_hamiltonian(system, x, adjoint_plus, adjoint_minus, rate_matrix, alpha) -> float:
    """H(x, (sigma+ + sigma-)/2) - sum_i alpha_i (p_i+ - p_i-) / 2: the
    forward-in-horizon kernel with the one-sided biases mirrored."""
    return kernel_at(system, x, adjoint_plus, adjoint_minus, rate_matrix, alpha)[0]


def policy(system, x, adjoint) -> float:
    """The kernel's bang-bang control at one node."""
    zero_q = np.zeros((system.info_dim, system.info_dim))
    return kernel_at(system, x, adjoint, adjoint, zero_q, np.zeros(system.state_dim))[1]


def one_sided(values, grid, axis: int, boundary: str):
    """(D-, D+) of values along a grid axis, as the former difference
    routine formed them: (v[j] - v[j-1]) / h, wrapped on a periodic axis;
    on a non-periodic edge the missing difference is the interior one
    ("extrapolate") or zero ("clamp")."""
    h = grid.axes[axis].spacing
    if grid.axes[axis].periodic:
        return (
            (values - np.roll(values, 1, axis=axis)) / h,
            (np.roll(values, -1, axis=axis) - values) / h,
        )
    src = np.diff(values, axis=axis) / h
    lead, tail = np.take(src, [0], axis=axis), np.take(src, [-1], axis=axis)
    if boundary == "clamp":
        lead, tail = np.zeros_like(lead), np.zeros_like(tail)
    return np.concatenate([lead, src], axis=axis), np.concatenate([src, tail], axis=axis)


def reference_transport_rate(phi, phi_z, grid, drift, g, bound: float, alpha):
    """The transport step the stacked kernel replaced, kept as its oracle.

    One-sided gradients of phi (edge slopes extrapolated), the per-array LF
    rate and control, then the central + LF advection of Phi, shape
    (..., m), along w = f + g u* with clamped boundary slopes (the former
    rx_term).
    """
    minus, plus = zip(*(one_sided(phi, grid, axis, "extrapolate") for axis in range(grid.ndim)))
    central = [0.5 * (m + p) for m, p in zip(minus, plus)]
    switching = sum(g_i * c for g_i, c in zip(g, central) if g_i != 0.0)
    ham = sum(f * c for f, c in zip(drift, central))
    ham = ham - bound * np.abs(switching)
    diss = sum(0.5 * a * (p - m) for a, m, p in zip(alpha, minus, plus))
    u_star = bang_bang(switching, bound)
    velocity = [f + g_i * u_star for f, g_i in zip(drift, g)]
    phi_z_rate = np.zeros_like(phi_z)
    for axis in range(grid.ndim):
        w = np.asarray(velocity[axis], dtype=float)
        dminus, dplus = one_sided(phi_z, grid, axis, "clamp")
        a = float(alpha[axis])
        phi_z_rate += w[..., None] * 0.5 * (dminus + dplus) + 0.5 * a * (dplus - dminus)
    return ham + diss, phi_z_rate, u_star


def transport_rate(phi, phi_z, grid, drift, g, bound: float, alpha):
    """hybrid_solve's transport on (phi, Phi): stack component-major, fill
    the ghost-row differences, one lf_rate call; rates back in (..., m)."""
    stack = np.concatenate([phi[None], np.moveaxis(phi_z, -1, 0)])
    bufs, minus, plus = hjsolver._ghost_difference_buffers(stack, grid, (0, grid.shape[0]))
    hjsolver._ghost_differences(stack, grid, bufs, (0, grid.shape[0]))
    plan = lf_plan(stack.shape)
    rate, u_star = lf_rate(minus, plus, drift, g, bound, alpha, plan)
    return rate[0], np.moveaxis(rate[1:], 0, -1), u_star


def sensitivity_rate(values, grid, velocity, alpha):
    """The kernel's Phi rate for a fixed velocity field: with g = 0 the
    control is 0 and w is the drift."""
    zeros = np.zeros(grid.ndim)
    return transport_rate(np.zeros(grid.shape), values, grid, velocity, zeros, 1.0, alpha)[1]


def transport_inputs(system, grid):
    """Per-axis drift fields, control column, bound and dissipation."""
    f_nodes = system.drift(grid.mesh())
    drift = [f_nodes[..., i] for i in range(grid.ndim)]
    return drift, system.control_column(), system.control_bound, list(system.rate_bounds())


def vec_flow(value, grad, rate_matrix, h):
    """LogDetMetric.flow on all p**2 vec entries of Phi, as it ran before the
    march carried Phi's distinct entries: the closed form for p = 2, LAPACK
    otherwise. Returns new (value, grad); rate_matrix is (..., p, p)."""
    if grad.shape[-1] != 4:
        acc = -np.linalg.inv(unvec(grad))
        acc_new = acc + h * rate_matrix
        value_new = value + (np.linalg.slogdet(acc)[1] - np.linalg.slogdet(acc_new)[1])
        return value_new, -vec(np.linalg.inv(acc_new))
    l00, l10, l01, l11 = grad[..., 0], grad[..., 1], grad[..., 2], grad[..., 3]
    det_old = 1.0 / (l00 * l11 - l01 * l10)
    a00 = -l11 * det_old + h * rate_matrix[..., 0, 0]
    a10 = l10 * det_old + h * rate_matrix[..., 1, 0]
    a01 = l01 * det_old + h * rate_matrix[..., 0, 1]
    a11 = -l00 * det_old + h * rate_matrix[..., 1, 1]
    det_new = a00 * a11 - a01 * a10
    value_new = value + (np.log(det_old) - np.log(det_new))
    scale = 1.0 / det_new
    grad_new = np.stack([a11 * -scale, a10 * scale, a01 * scale, a00 * -scale], axis=-1)
    return value_new, grad_new


def vec_lf_rate(minus, plus, drift, g, bound: float, alpha):
    """lf_rate as it ran over the (1 + p**2) stack: every coefficient of
    every axis formed each call, scratch allocated each call."""
    k = len(minus[0])
    nodes = np.broadcast_shapes(
        *(np.shape(m)[1:] for m in minus), *(np.shape(f) for f in drift),
        *(np.shape(a) for a in alpha),
    )
    out = np.empty((k,) + nodes)
    work = np.empty((5,) + nodes)
    central, switching, ham, diss, tmp = (work[j, ...] for j in range(5))
    work[1:4] = 0.0
    for m, p, f, g_i, a in zip(minus, plus, drift, g, alpha):
        np.add(m[0], p[0], out=central)
        central *= 0.5
        if g_i != 0.0:
            switching += np.multiply(central, g_i, out=tmp)
        ham += np.multiply(central, f, out=tmp)
        diss += np.multiply(np.subtract(p[0], m[0], out=tmp), 0.5 * a, out=tmp)
    ham -= np.multiply(np.abs(switching, out=tmp), bound, out=tmp)
    np.add(ham, diss, out=out[0, ...])
    u_star = bang_bang(switching, bound)
    sens, prod = out[1:], np.empty((k - 1,) + nodes)
    half_w, lower, upper = central, ham, diss
    for i, (m, p, f, g_i, a) in enumerate(zip(minus, plus, drift, g, alpha)):
        if g_i != 0.0:
            np.add(f, np.multiply(u_star, g_i, out=half_w), out=half_w)
            half_w *= 0.5
        else:
            np.multiply(f, 0.5, out=half_w)
        np.subtract(half_w, 0.5 * a, out=lower)
        np.add(half_w, 0.5 * a, out=upper)
        if i == 0:
            np.multiply(m[1:], lower, out=sens)
        else:
            sens += np.multiply(m[1:], lower, out=prod)
        sens += np.multiply(p[1:], upper, out=prod)
    return out, u_star


def euler_march(step, dt: float, horizon: float) -> None:
    """The march loop the oracles below run on, a copy of the solver's loop
    as it stood before both solvers shared one: step(h) advances the
    fields in place, in steps of at most dt, until s is within 1e-12 of
    horizon."""
    s = 0.0
    while s < horizon - 1e-12:
        h = min(dt, horizon - s)
        step(h)
        s += h


def vec_march(system, grid, z0, horizon):
    """hybrid_solve's march over the (1 + p**2) stack of phi and all vec
    entries of Phi (vec_flow, then the ghost-row differences and vec_lf_rate),
    as it ran before the march carried Phi's distinct entries; the oracle of
    the packed march. Returns the final (phi, Phi)."""
    q_field = unvec(info_rate_on_grid(system, grid))
    drift, g, bound, alpha = transport_inputs(system, grid)
    stack = np.empty((1 + system.info_len,) + grid.shape)
    stack[0] = system.metric.value(z0)
    phi, phi_z = stack[0], np.moveaxis(stack[1:], 0, -1)
    phi_z[...] = system.metric.gradient(z0)
    bufs, minus, plus = hjsolver._ghost_difference_buffers(stack, grid, (0, grid.shape[0]))

    def step(h):
        phi[...], phi_z[...] = vec_flow(phi, phi_z, q_field, h)
        hjsolver._ghost_differences(stack, grid, bufs, (0, grid.shape[0]))
        rate = vec_lf_rate(minus, plus, drift, g, bound, alpha)[0]
        rate *= h
        stack[...] += rate

    euler_march(step, cfl_dt(grid, alpha), horizon)
    return phi, phi_z


def reference_march(system, grid, z0, horizon):
    """hybrid_solve's march (same flow and steps) with
    reference_transport_rate: the final (phi, Phi) of the former kernel."""
    q_field = unvec(info_rate_on_grid(system, grid))
    drift, g, bound, alpha = transport_inputs(system, grid)

    def step(h):
        fields[:] = vec_flow(*fields, q_field, h)
        rates = reference_transport_rate(*fields, grid, drift, g, bound, alpha)[:2]
        for f, r in zip(fields, rates):
            f += h * r

    fields = [
        np.full(grid.shape, system.metric.value(z0)),
        np.broadcast_to(system.metric.gradient(z0), grid.shape + (system.info_len,)).copy(),
    ]
    euler_march(step, cfl_dt(grid, alpha), horizon)
    return fields


def max_rel(got, ref) -> float:
    """Largest deviation relative to the largest reference entry."""
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def toy_truth(t, x, z):
    ax = np.abs(x)
    return -np.log(z + ((ax + t) ** 3 - ax**3) / 3.0)


def dubins(speed=50.0, limit=0.05, rate_fn=None):
    return DubinsCar(speed, limit, info_rate_fn=rate_fn, info_dim=2)


def toy_grid(dx=0.05, extent=2.0):
    n = int(round(2.0 * extent / dx)) + 1
    return GridSpec((Axis(-extent, extent, n),))


class TestHamiltonian:
    def test_zero_adjoint(self):
        car = dubins()
        adj = Adjoint(np.zeros(3), np.zeros(4))
        assert hamiltonian(car, np.zeros(3), 0.03, adj, np.zeros((2, 2))) == 0.0

    def test_drift_channel(self):
        car = dubins(speed=50.0)
        adj = Adjoint(np.array([1.0, 0.0, 0.0]), np.zeros(4))
        x = np.zeros(3)
        for u in (-0.05, 0.0, 0.05):
            assert hamiltonian(car, x, u, adj, np.zeros((2, 2))) == pytest.approx(50.0)

    def test_control_channel(self):
        car = dubins()
        adj = Adjoint(np.array([0.0, 0.0, 1.0]), np.zeros(4))
        got = hamiltonian(car, np.zeros(3), 0.05, adj, np.zeros((2, 2)))
        assert got == pytest.approx(0.05)

    def test_information_channel(self):
        car = dubins()
        q = np.array([[2.0, 0.5], [0.5, 1.0]])
        adj = Adjoint(np.zeros(3), vec(np.eye(2)))
        assert hamiltonian(car, np.zeros(3), 0.0, adj, q) == pytest.approx(3.0)


class TestOptimalHamiltonian:
    def test_matches_control_grid_minimum(self):
        rng = np.random.default_rng(31)
        car = dubins()
        us = np.linspace(-car.control_bound, car.control_bound, 101)
        for _ in range(200):
            x = np.array([rng.uniform(-100, 100), rng.uniform(-100, 100), rng.uniform(-3, 3)])
            adj = Adjoint(rng.normal(size=3), rng.normal(size=4))
            q = np.abs(rng.normal()) * np.eye(2)
            grid_min = min(hamiltonian(car, x, u, adj, q) for u in us)
            assert optimal_hamiltonian(car, x, adj, q) == pytest.approx(grid_min, abs=1e-12)

    def test_independent_of_bound_when_switching_vanishes(self):
        adj = Adjoint(np.array([0.3, -0.2, 0.0]), np.zeros(4))
        x = np.array([1.0, 2.0, 0.4])
        a = optimal_hamiltonian(dubins(limit=0.05), x, adj, np.zeros((2, 2)))
        b = optimal_hamiltonian(dubins(limit=5.0), x, adj, np.zeros((2, 2)))
        assert a == pytest.approx(b)

    def test_aligned_drift(self):
        car = dubins(speed=50.0)
        psi = 0.7
        adj = Adjoint(np.array([math.cos(psi), math.sin(psi), 0.0]), np.zeros(4))
        got = optimal_hamiltonian(car, np.array([0.0, 0.0, psi]), adj, np.zeros((2, 2)))
        assert got == pytest.approx(50.0)


class TestPolicy:
    def test_positive_switching_turns_negative(self):
        car = dubins()
        assert policy(car, np.zeros(3), Adjoint(np.array([0.0, 0.0, 2.0]), np.zeros(4))) == -0.05

    def test_tie_break_zero(self):
        car = dubins()
        assert policy(car, np.zeros(3), Adjoint(np.zeros(3), np.zeros(4))) == 0.0

    def test_attains_optimal_hamiltonian(self):
        rng = np.random.default_rng(32)
        car = dubins()
        for _ in range(100):
            x = np.array([rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-3, 3)])
            adj = Adjoint(rng.normal(size=3), rng.normal(size=4))
            q = np.abs(rng.normal()) * np.eye(2)
            u = policy(car, x, adj)
            assert hamiltonian(car, x, u, adj, q) == pytest.approx(
                optimal_hamiltonian(car, x, adj, q), abs=1e-12
            )


class TestDissipation:
    def test_global(self):
        got = dubins(50.0, 0.05).rate_bounds()
        assert np.allclose(got, [50.0, 50.0, 0.05])


class TestLfHamiltonian:
    def test_equal_biases_reduce_to_optimal(self):
        rng = np.random.default_rng(34)
        car = dubins()
        for _ in range(20):
            x = np.array([rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-3, 3)])
            adj = Adjoint(rng.normal(size=3), rng.normal(size=4))
            q = np.abs(rng.normal()) * np.eye(2)
            got = lf_hamiltonian(car, x, adj, adj, q, np.array([50.0, 50.0, 0.05]))
            assert got == pytest.approx(optimal_hamiltonian(car, x, adj, q), rel=1e-12)

    def test_zero_alpha_is_central(self):
        car = dubins()
        plus = Adjoint(np.array([1.0, 0.0, 0.5]), np.zeros(4))
        minus = Adjoint(np.array([0.0, 1.0, -0.5]), np.zeros(4))
        mean = Adjoint(0.5 * (plus.p + minus.p), np.zeros(4))
        x = np.array([0.0, 0.0, 0.3])
        got = lf_hamiltonian(car, x, plus, minus, np.zeros((2, 2)), np.zeros(3))
        assert got == pytest.approx(optimal_hamiltonian(car, x, mean, np.zeros((2, 2))))

    def test_dissipation_vanishes_with_bias_gap(self):
        # on a smooth field the one-sided gap is O(dx), so the dissipation term is too
        car = dubins()
        x = np.array([0.0, 0.0, 0.3])
        q = np.zeros((2, 2))
        alpha = np.array([50.0, 50.0, 0.05])
        gaps = []
        for dx in (0.1, 0.05, 0.025):
            plus = Adjoint(np.array([1.0 + dx, 2.0 - dx, 0.5 + dx]), np.zeros(4))
            minus = Adjoint(np.array([1.0 - dx, 2.0 + dx, 0.5 - dx]), np.zeros(4))
            mean = Adjoint(0.5 * (plus.p + minus.p), np.zeros(4))
            diss = lf_hamiltonian(car, x, plus, minus, q, alpha) - optimal_hamiltonian(
                car, x, mean, q
            )
            gaps.append(abs(diss))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[1] / gaps[0] == pytest.approx(0.5, rel=1e-9)


class TestCflDt:
    def test_single_axis(self):
        grid = GridSpec((Axis(0.0, 1.0, 11),))
        assert cfl_dt(grid, np.array([1.0])) == pytest.approx(0.05)

    def test_homogeneous_in_spacing(self):
        g1 = GridSpec((Axis(0.0, 1.0, 11), Axis(0.0, 2.0, 11)))
        g2 = GridSpec((Axis(0.0, 2.0, 11), Axis(0.0, 4.0, 11)))
        alpha = np.array([1.0, 3.0])
        assert cfl_dt(g2, alpha) == pytest.approx(2.0 * cfl_dt(g1, alpha))

    def test_survey_scale_grid(self):
        # dX = dY = 10 m, 32 heading cells, speed 50, turn limit 0.05
        grid = GridSpec.vehicle_plane((0.0, 800.0), (0.0, 800.0), 81, 81, 32)
        alpha = np.array([50.0, 50.0, 0.05])
        expected = 0.5 / (50.0 / 10.0 + 50.0 / 10.0 + 0.05 / (2.0 * math.pi / 32.0))
        got = cfl_dt(grid, alpha)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.0488, abs=5e-4)

    def test_all_zero_alpha_rejected(self):
        grid = GridSpec((Axis(0.0, 1.0, 11),))
        with pytest.raises(ValueError):
            cfl_dt(grid, np.array([0.0]))


class TestSensitivityTransport:
    """The kernel's Phi rate (components 1..) as an operator."""

    def test_constant_field_gives_zero(self):
        grid = GridSpec.vehicle_plane((-1.0, 1.0), (-1.0, 1.0), 5, 5, 8)
        values = np.ones(grid.shape + (4,))
        vel = [np.full(grid.shape, 2.0), np.zeros(grid.shape), np.zeros(grid.shape)]
        assert np.allclose(sensitivity_rate(values, grid, vel, alpha=[2.0, 0.0, 0.0]), 0.0)

    def test_linear_advection(self):
        grid = GridSpec.vehicle_plane((-1.0, 1.0), (-1.0, 1.0), 9, 9, 8)
        mesh = grid.mesh()
        a = 3.0
        values = np.repeat((a * mesh[..., 0])[..., None], 4, axis=-1)
        vel = [np.full(grid.shape, 50.0), np.zeros(grid.shape), np.zeros(grid.shape)]
        got = sensitivity_rate(values, grid, vel, alpha=[50.0, 50.0, 0.05])
        assert np.allclose(got[1:-1], a * 50.0)

    def test_smooth_field_first_order(self):
        def error_at(n):
            grid = GridSpec((Axis(0.0, 1.0, n),))
            xs = grid.axes[0].nodes
            values = np.sin(3.0 * xs)[:, None]
            vel = [np.full(grid.shape, -2.0)]
            got = sensitivity_rate(values, grid, vel, alpha=[2.0])[:, 0]
            truth = -2.0 * 3.0 * np.cos(3.0 * xs)
            return np.max(np.abs(got - truth)[2:-2])

        assert error_at(81) / error_at(161) == pytest.approx(2.0, rel=0.2)

    def test_matched_mode_adds_lf_dissipation(self):
        grid = GridSpec((Axis(0.0, 1.0, 11),))
        xs = grid.axes[0].nodes
        values = (xs**2)[:, None]
        vel = [np.zeros(grid.shape)]
        got = sensitivity_rate(values, grid, vel, alpha=[1.0])
        # pure dissipation of a convex field: (D+ - D-)/2 = dx * phi'' / 2 > 0
        assert np.all(got[1:-1, 0] > 0.0)


SHIPPED_GRID = GridSpec.vehicle_plane((-1700.0, 1700.0), (-1700.0, 1700.0), 41, 41, 32)
SURVEY_GRID = GridSpec.vehicle_plane((-1700.0, 1700.0), (-1700.0, 1700.0), 21, 21, 16)


class TestKernelAgainstReference:
    """The stacked kernel against reference_transport_rate."""

    @pytest.mark.parametrize(
        "system,grid,m",
        [
            (dubins(speed=25.0), SHIPPED_GRID, 4),
            (dubins(speed=25.0), SURVEY_GRID, 4),
            (ToyCascade(), toy_grid(0.05), 1),
        ],
        ids=["shipped", "survey", "toy"],
    )
    def test_one_step_rates_agree(self, system, grid, m):
        rng = np.random.default_rng(71)
        phi = rng.normal(size=grid.shape)
        phi_z = rng.normal(size=grid.shape + (m,))
        inputs = transport_inputs(system, grid)
        got_phi, got_phi_z, got_u = transport_rate(phi, phi_z, grid, *inputs)
        ref_phi, ref_phi_z, ref_u = reference_transport_rate(phi, phi_z, grid, *inputs)
        # the value rate and the control are computed exactly as before
        assert np.array_equal(got_phi, ref_phi)
        assert np.array_equal(got_u, ref_u)
        assert max_rel(got_phi_z, ref_phi_z) <= 1e-12

    def test_shipped_march_stays_at_roundoff(self):
        # measured: phi 1.4e-14 and Phi 1.0e-15 of their largest entries; a
        # policy-tie flip would move phi by ~3e-6
        scenario = load_scenario(SHIPPED)
        system = scenario.build_system()
        grid, z0 = scenario.grid(), scenario.initial_information()
        sol = hybrid_solve(system, grid, z0, scenario.horizon)
        ref_phi, ref_phi_z = reference_march(system, grid, z0, scenario.horizon)
        assert max_rel(sol.phi, ref_phi) <= 1e-12
        assert max_rel(sol.phi_z, ref_phi_z) <= 1e-12


class TestPackedMarch:
    """hybrid_solve over Phi's distinct entries against vec_march, the
    (1 + p**2) march it replaced."""

    @pytest.mark.parametrize("grid", [SHIPPED_GRID, SURVEY_GRID], ids=["shipped", "survey"])
    def test_diagonal_prior_gives_the_bits_of_the_vec_march(self, grid):
        scenario = load_scenario(SHIPPED)
        system = scenario.build_system()
        z0 = scenario.initial_information()
        sol = hybrid_solve(system, grid, z0, 10.0)
        ref_phi, ref_phi_z = vec_march(system, grid, z0, 10.0)
        assert np.array_equal(sol.phi, ref_phi)
        assert np.array_equal(sol.phi_z, ref_phi_z)

    def test_toy_gives_the_bits_of_the_vec_march(self):
        toy, grid = ToyCascade(), toy_grid(0.05)
        sol = hybrid_solve(toy, grid, np.array([1.0]), 1.0)
        ref_phi, ref_phi_z = vec_march(toy, grid, np.array([1.0]), 1.0)
        assert np.array_equal(sol.phi, ref_phi)
        assert np.array_equal(sol.phi_z, ref_phi_z)

    def test_final_fields_keep_the_vec_layout(self):
        # the solution's Phi is a C-contiguous (..., p**2) array with equal
        # off-diagonal entries
        scenario = load_scenario(SHIPPED)
        system = scenario.build_system()
        z0 = scenario.initial_information()
        sol = hybrid_solve(system, SURVEY_GRID, z0, 5.0)
        assert sol.phi_z.shape == SURVEY_GRID.shape + (4,) and sol.phi_z.flags.c_contiguous
        assert np.array_equal(sol.phi_z[..., 1], sol.phi_z[..., 2])

    def test_packed_flow_gives_the_bits_of_the_vec_flow(self):
        rng = np.random.default_rng(34)
        a = rng.normal(size=(400, 2, 2))
        acc = a @ np.swapaxes(a, -1, -2) + 0.05 * np.eye(2)
        b = rng.normal(size=(400, 2, 1))
        q = b @ np.swapaxes(b, -1, -2)
        metric = LogDetMetric(2)
        values = metric.value(vec(acc))
        grads = -np.linalg.inv(acc)
        grads = 0.5 * (grads + np.swapaxes(grads, -1, -2))
        ref_value, ref_grad = vec_flow(values, vec(grads), q, 0.37)
        assert np.array_equal(ref_grad[:, 1], ref_grad[:, 2])
        work = np.empty((FLOW_WORK,) + values.shape)
        new_value, new_grad = metric.flow(values.copy(), sym_pack(grads), sym_pack(q), 0.37, work)
        assert np.array_equal(new_value, ref_value)
        assert np.array_equal(new_grad, ref_grad[:, [0, 1, 3]])



def forced_slabs(monkeypatch, edges) -> None:
    """Make the solvers march over the slabs of the given axis-0 edges."""
    monkeypatch.setattr(hjsolver, "slab_edges", lambda grid: list(edges))


def shipped_solve(grid, horizon: float):
    """hybrid_solve of the shipped scenario's model on grid."""
    scenario = load_scenario(SHIPPED)
    return hybrid_solve(
        scenario.build_system(), grid, scenario.initial_information(), horizon
    )


# the shipped grid's extent with a periodic X axis, so that axis 0 wraps
PERIODIC_X_GRID = GridSpec(
    (Axis(-1700.0, 1700.0, 24, periodic=True),) + SURVEY_GRID.axes[1:]
)


class TestSlabMarch:
    """_march over any slab layout of grid axis 0 against one slab over the
    whole grid: the same bits."""

    @pytest.mark.parametrize(
        "grid,layouts",
        [
            (SHIPPED_GRID, [[0, 20, 41], [0, 1, 40, 41], [0, 7, 8, 41]]),
            (SURVEY_GRID, [[0, 10, 21], [0, 1, 2, 21], [0, 13, 20, 21]]),
            (PERIODIC_X_GRID, [[0, 12, 24], [0, 1, 23, 24], [0, 5, 6, 24]]),
        ],
        ids=["shipped", "survey", "periodic_x"],
    )
    def test_hybrid_layouts_give_the_bits_of_one_slab(self, monkeypatch, grid, layouts):
        forced_slabs(monkeypatch, [0, grid.shape[0]])
        one = shipped_solve(grid, 5.0)
        for edges in layouts:
            forced_slabs(monkeypatch, edges)
            sol = shipped_solve(grid, 5.0)
            assert np.array_equal(sol.phi, one.phi)
            assert np.array_equal(sol.phi_z, one.phi_z)

    def test_classic_layouts_give_the_bits_of_one_slab(self, monkeypatch):
        # the z axis's drift and dissipation are fields that vary along x
        toy = ToyCascade()
        joint = GridSpec((Axis(-2.0, 2.0, 21), Axis(0.4, 5.6, 27)))
        forced_slabs(monkeypatch, [0, 21])
        one = classic_solve(toy, joint, 1.0)
        for edges in ([0, 10, 21], [0, 1, 20, 21], [0, 4, 5, 21]):
            forced_slabs(monkeypatch, edges)
            assert np.array_equal(classic_solve(toy, joint, 1.0), one)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_one_cpu_gives_the_bytes_of_every_cpu(self, tmp_path):
        child = (
            "import os, sys\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from infotraj.cli import load_scenario\n"
            "from infotraj.hjsolver import hybrid_solve, slab_edges\n"
            "sc = load_scenario(sys.argv[1])\n"
            "sol = hybrid_solve(sc.build_system(), sc.grid(),\n"
            "                   sc.initial_information(), 5.0)\n"
            "sol.phi.tofile(sys.argv[2] + '/phi.bin')\n"
            "sol.phi_z.tofile(sys.argv[2] + '/phiz.bin')\n"
            "print(len(slab_edges(sc.grid())) - 1)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-c", child, SHIPPED, str(tmp_path)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            check=True,
        )
        assert done.stdout.strip() == "1"
        sol = shipped_solve(SHIPPED_GRID, 5.0)
        assert (tmp_path / "phi.bin").read_bytes() == sol.phi.tobytes()
        assert (tmp_path / "phiz.bin").read_bytes() == sol.phi_z.tobytes()

    def test_more_slabs_than_cpus_under_fast_switching(self, monkeypatch):
        # five slabs, four worker threads, a thread switch every 10 us; the
        # solve runs in a thread of its own so that a hang fails in time
        forced_slabs(monkeypatch, [0, 21])
        one = shipped_solve(SURVEY_GRID, 2.0)
        forced_slabs(monkeypatch, [0, 4, 8, 12, 16, 21])
        solves = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner = threading.Thread(
                target=lambda: solves.append(shipped_solve(SURVEY_GRID, 2.0)), daemon=True
            )
            runner.start()
            runner.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert np.array_equal(solves[0].phi, one.phi)
        assert np.array_equal(solves[0].phi_z, one.phi_z)

    def test_slabs_follow_the_cpus_and_hold_enough_nodes(self, monkeypatch):
        # edges only: no thread is started
        row_nodes = 41 * 32
        for cpus, count in ((1, 1), (2, 2), (8, 8), (16, 10)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            edges = hjsolver.slab_edges(SHIPPED_GRID)
            assert edges[0] == 0 and edges[-1] == 41 and len(edges) == count + 1
            assert min(np.diff(edges)) * row_nodes >= hjsolver.SLAB_MIN_NODES
        assert hjsolver.slab_edges(SURVEY_GRID) == [0, 21]
        assert hjsolver.slab_edges(toy_grid(0.05)) == [0, 81]


class TestSlabFailures:
    """A failure on any slab or in the flow reaches the caller, and no
    worker thread outlives the march."""

    def test_worker_instability_reaches_the_caller_with_its_step(self):
        # a NaN put into the last slab before step 4's transport: only the
        # worker threads' slabs see it in that step
        grid = toy_grid(0.05)
        stack = np.zeros((1,) + grid.shape)
        threads = []

        def flow(h, work):
            threads.append(threading.active_count())
            if len(threads) == 4:
                stack[0, 65] = np.nan

        before = threading.active_count()
        with pytest.raises(InstabilityError) as raised:
            hjsolver._march(
                stack, grid, [np.zeros(grid.shape)], [1.0], 1.0, [1.0], 0.01, 1.0,
                [0, 20, 50, 81], flow,
            )
        assert raised.value.step == 4
        assert threads == [before + 2] * 4
        assert threading.active_count() == before

    def test_flow_error_reaches_the_caller(self, monkeypatch):
        def indefinite(x):
            out = np.zeros(x.shape[:-1] + (4,))
            out[..., 0] = np.where(x[..., 0] > 5.0, -1e6, 0.0)
            return out

        grid = GridSpec.vehicle_plane((-10.0, 10.0), (-10.0, 10.0), 5, 5, 8)
        forced_slabs(monkeypatch, [0, 1, 3, 5])
        before = threading.active_count()
        with pytest.raises(NotPositiveDefiniteError):
            hybrid_solve(dubins(rate_fn=indefinite), grid, vec(np.eye(2)), 1.0)
        assert threading.active_count() == before

    def test_a_solve_leaves_no_thread(self, monkeypatch):
        forced_slabs(monkeypatch, [0, 10, 20, 21])
        before = threading.active_count()
        shipped_solve(SURVEY_GRID, 2.0)
        assert threading.active_count() == before


class TestMarchMemory:
    def test_planar_drift_fields_are_heading_only(self, monkeypatch):
        # lf_rate forms the X and Y coefficients in their drift's shape
        drifts = []
        march = hjsolver._march

        def recording_march(stack, grid, drift, *args):
            drifts.append(drift)
            return march(stack, grid, drift, *args)

        monkeypatch.setattr(hjsolver, "_march", recording_march)
        shipped_solve(SHIPPED_GRID, 1.0)
        ((x_drift, y_drift, _),) = drifts
        npsi = SHIPPED_GRID.shape[2]
        assert x_drift.shape == y_drift.shape == (1, 1, npsi)

    def test_traced_peak_of_a_shipped_solve(self):
        # measured 14.2 MiB, and 17.0 MiB with the drift fields and the
        # control-free coefficients stored whole; the first step reaches it
        scenario = load_scenario(SHIPPED)
        system, grid = scenario.build_system(), scenario.grid()
        tracemalloc.start()
        try:
            hybrid_solve(system, grid, scenario.initial_information(), 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15 * 2**20


class TestInfoRateField:
    def test_chunks_give_the_bits_of_one_call(self, monkeypatch):
        # 21 x 21 x 16 = 7,056 nodes: one full chunk and a partial one
        system = load_scenario(SHIPPED).build_system()
        sizes = []
        original = system.info_rate

        def recording(x):
            sizes.append(len(x))
            return original(x)

        monkeypatch.setattr(system, "info_rate", recording)
        field = info_rate_on_grid(system, SURVEY_GRID)
        nodes = math.prod(SURVEY_GRID.shape)
        assert sizes == [hjsolver.FIELD_CHUNK_ROWS, nodes - hjsolver.FIELD_CHUNK_ROWS]
        one_call = original(SURVEY_GRID.mesh().reshape(-1, 3)).reshape(SURVEY_GRID.shape + (4,))
        assert np.array_equal(field, one_call)


class TestHybridSolve:
    def test_zero_information_keeps_initial_fields(self):
        car = dubins(rate_fn=None)
        metric = LogDetMetric(2)
        grid = GridSpec.vehicle_plane((-100.0, 100.0), (-100.0, 100.0), 5, 5, 8)
        z0 = vec(np.eye(2))
        sol = hybrid_solve(car, grid, z0, 2.0)
        assert np.allclose(sol.phi, metric.value(z0), atol=1e-12)
        assert np.allclose(sol.phi_z, metric.gradient(z0), atol=1e-12)

    def test_timings_keep_their_six_keys(self):
        toy, grid = ToyCascade(), toy_grid(0.05)
        field = info_rate_on_grid(toy, grid)
        sol = hybrid_solve(toy, grid, np.array([1.0]), 1.0, field)
        phases = ["field_s", "flow_s", "transport_s", "check_s"]
        assert set(sol.timings) == {"wall_time_s", "steps", *phases}
        assert sol.timings["field_s"] == 0.0 and sol.timings["steps"] > 0
        assert sum(sol.timings[key] for key in phases) <= sol.timings["wall_time_s"]

    def test_terminal_cost_is_evaluated_once(self, monkeypatch):
        calls, value = [], LogDetMetric.value

        def counted(self, z):
            calls.append(z)
            return value(self, z)

        monkeypatch.setattr(LogDetMetric, "value", counted)
        hybrid_solve(ToyCascade(), toy_grid(0.1), np.array([1.0]), 0.5)
        assert len(calls) == 1

    def test_toy_matches_closed_form(self):
        toy = ToyCascade()
        grid = toy_grid(0.05)
        sol = hybrid_solve(toy, grid, np.array([1.0]), 1.0)
        x = grid.axes[0].nodes
        inner = np.abs(x) <= 1.0
        err = np.abs(sol.phi - toy_truth(1.0, x, 1.0))
        assert np.max(err[inner]) < 0.05

    def test_toy_matches_classic_and_halves_under_refinement(self):
        cross = toy_hybrid_vs_classic(0.05)
        assert cross["max_diff"] <= 5e-2
        assert 0.4 <= cross["ratio"] <= 0.6

    def test_gradient_field_tracks_resolve_sensitivity(self):
        toy = ToyCascade()
        grid = toy_grid(0.0125)
        sol = hybrid_solve(toy, grid, np.array([1.0]), 1.0)
        d = 1e-5
        plus = hybrid_solve(toy, grid, np.array([1.0 + d]), 1.0)
        minus = hybrid_solve(toy, grid, np.array([1.0 - d]), 1.0)
        fd = (plus.phi - minus.phi) / (2.0 * d)
        x = grid.axes[0].nodes
        inner = np.abs(x) <= 1.0
        rel = np.abs(sol.phi_z[:, 0] - fd) / np.maximum(np.abs(fd), 1e-300)
        assert np.mean(rel[inner] <= 1e-2) >= 0.9

    def test_value_monotone_in_horizon(self):
        # the terminal cost, then solves to growing horizons
        toy = ToyCascade()
        metric = LogDetMetric(1)
        grid = toy_grid(0.05)
        z0 = np.array([1.0])
        phis = [np.full(grid.shape, metric.value(z0))] + [
            hybrid_solve(toy, grid, z0, horizon).phi
            for horizon in (0.25, 0.5, 0.75, 1.0)
        ]
        x = grid.axes[0].nodes
        inner = np.abs(x) <= 1.0
        for shorter, longer in zip(phis, phis[1:]):
            assert np.all(longer[inner] <= shorter[inner] + 1e-9)

    def test_gradient_matrices_stay_symmetric_and_definite(self):
        def rate(x):
            j = np.stack([0.01 + 0.0 * x[..., 0], 0.02 * np.sin(x[..., 2])], axis=-1)
            outer = j[..., :, None] * j[..., None, :]
            return np.swapaxes(outer, -1, -2).reshape(x.shape[:-1] + (4,))

        car = dubins(rate_fn=rate)
        grid = GridSpec.vehicle_plane((-100.0, 100.0), (-100.0, 100.0), 7, 7, 8)
        for horizon in (1.0, 2.0, 3.0):
            sol = hybrid_solve(car, grid, vec(np.eye(2)), horizon)
            mats = unvec(sol.phi_z)
            assert np.allclose(mats, np.swapaxes(mats, -1, -2), atol=1e-10)
            assert np.min(np.linalg.eigvalsh(-mats)) > 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_instability_detected(self):
        def bad_rate(x):
            out = np.zeros(x.shape[:-1] + (4,))
            out[..., 0] = np.inf
            return out

        car = dubins(rate_fn=bad_rate)
        grid = GridSpec.vehicle_plane((-10.0, 10.0), (-10.0, 10.0), 5, 5, 8)
        with pytest.raises((InstabilityError, ValueError)):
            hybrid_solve(car, grid, vec(np.eye(2)), 1.0)


class TestClassicSolve:
    def test_refuses_high_dimension(self):
        car = dubins()
        grid = GridSpec.vehicle_plane((-1.0, 1.0), (-1.0, 1.0), 5, 5, 8)
        joint = GridSpec(grid.axes + (Axis(0.0, 1.0, 5),) * 4)
        with pytest.raises(ValueError, match="refuses"):
            classic_solve(car, joint, 1.0)

    def test_zero_dynamics_keeps_terminal_cost(self):
        class Null(ToyCascade):
            def info_rate(self, x):
                return np.zeros(np.asarray(x).shape[:-1] + (1,))

        joint = GridSpec((Axis(-1.0, 1.0, 11), Axis(0.5, 2.5, 21)))
        sys = Null(control_bound=1e-12)
        phi = classic_solve(sys, joint, 1.0)
        assert phi.shape == joint.shape
        z = joint.axes[1].nodes
        expected = -np.log(z)[None, :]
        assert np.allclose(phi, np.broadcast_to(expected, joint.shape), atol=1e-6)

    def test_constant_rate_transport(self):
        # with zero vehicle dynamics and a constant information rate the value
        # is the terminal cost advanced along z: phi(s, z) = G(z + s * rate)
        class Drifting(ToyCascade):
            def info_rate(self, x):
                return np.full(np.asarray(x).shape[:-1] + (1,), 0.5)

        joint = GridSpec((Axis(-1.0, 1.0, 11), Axis(0.5, 4.0, 71)))
        sys = Drifting(control_bound=1e-12)
        phi = classic_solve(sys, joint, 1.0)
        z = joint.axes[1].nodes
        expected = -np.log(z + 0.5)
        mid = phi[5]
        interior = (z > 0.8) & (z < 3.0)
        assert np.max(np.abs(mid - expected)[interior]) < 2e-2


BAD_HORIZONS = [0.0, -1.0, math.nan, math.inf]


class TestHorizonRefused:
    """A horizon that is not positive and finite is refused by both solvers
    and by load_solution."""

    @pytest.mark.parametrize("horizon", BAD_HORIZONS, ids=repr)
    def test_solvers_refuse(self, horizon):
        toy = ToyCascade()
        joint = GridSpec((Axis(-1.0, 1.0, 11), Axis(0.5, 2.5, 11)))
        with pytest.raises(ValueError, match="horizon"):
            hybrid_solve(toy, toy_grid(0.1), np.array([1.0]), horizon)
        with pytest.raises(ValueError, match="horizon"):
            classic_solve(toy, joint, horizon)

    @pytest.mark.parametrize("horizon", BAD_HORIZONS, ids=repr)
    def test_load_solution_refuses(self, tmp_path, horizon):
        solve_to_disk(
            tmp_path, ToyCascade(), toy_grid(0.1), np.array([1.0]), 0.5, {}
        )
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["horizon"] = horizon
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="manifest.json: horizon must be positive"):
            load_solution(tmp_path, {})


class TestFinalHorizon:
    def test_toy_and_streamed_solves_end_at_the_configured_horizon(self, tmp_path):
        # 241 nodes: the 120 summed steps fall an ulp short of 1.0, which
        # must not cost a 121st step
        toy = ToyCascade()
        grid = GridSpec((Axis(-2.0, 2.0, 241),))
        sol = solve_to_disk(tmp_path, toy, grid, np.array([1.0]), 1.0, {})
        assert sol.timings["steps"] == 120
        assert load_solution(tmp_path, {}).horizon == 1.0


class TestSolutionIO:
    def test_round_trip(self, tmp_path):
        toy = ToyCascade()
        # integer extents: the manifest's grid reads back as floats and must
        # still give its config_hash
        grid = GridSpec((Axis(-2, 2, 41),))
        sol = hybrid_solve(toy, grid, np.array([1.0]), 0.5)
        out = tmp_path / "sol"
        streamed = solve_to_disk(out, toy, grid, np.array([1.0]), 0.5, {})
        assert np.array_equal(streamed.phi, sol.phi)
        assert np.array_equal(streamed.phi_z, sol.phi_z)
        snaps = json.loads((out / "manifest.json").read_text())["snapshots"]
        assert snaps == [{"phi": "phi.bin", "phi_z": "phiz.bin"}]
        assert np.array_equal(load_array(out / "phi.bin", grid.shape), sol.phi)
        assert np.array_equal(load_array(out / "phiz.bin", grid.shape + (1,)), sol.phi_z)
        back = load_solution(out, {})
        assert np.array_equal(back.phi, sol.phi) and np.array_equal(back.phi_z, sol.phi_z)
        assert back.grid == sol.grid and back.horizon == sol.horizon == 0.5
        assert np.array_equal(back.z0, sol.z0)

    def test_reruns_byte_identical(self, tmp_path):
        toy = ToyCascade()
        grid = toy_grid(0.1)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            solve_to_disk(out, toy, grid, np.array([1.0]), 0.5, {})
            outs.append(out)
        for fname in ("manifest.json", "phi.bin", "phiz.bin"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_load_maps_read_only_and_names_a_wrong_size_file(self, tmp_path):
        toy = ToyCascade()
        out = tmp_path / "sol"
        solve_to_disk(out, toy, toy_grid(0.1), np.array([1.0]), 0.5, {})
        back = load_solution(out, {})
        for arr in (back.phi, back.phi_z):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        del back
        longer = out / "phiz.bin"
        longer.write_bytes(longer.read_bytes() + b"\0" * 8)
        with pytest.raises(ValueError, match="phiz.bin"):
            load_solution(out, {})
