import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import infotraj.hjsolver
import infotraj.trajectories
from infotraj.cli import load_scenario
from infotraj.dynamics import (
    AugmentedState,
    ControlSignal,
    DubinsCar,
    State,
    ToyCascade,
    Trajectory,
    _segment_nodes,
    simulate_open_loop,
)
from infotraj.grid import Axis, GridSpec, interpolate
from infotraj.hjsolver import hybrid_solve, info_rate_on_grid
from infotraj.matrixcore import vec
from infotraj.sensing import suite_info_rate
from infotraj.trajectories import (
    EXTRACTION_BLOCK_STEPS,
    BoundaryExitError,
    ValidationReport,
    _info_rate_and_jacobian,
    _simulate_control_batch,
    brute_force_value,
    extract_characteristic,
    extract_receding,
    gradient_consistency_check,
)


REPO = Path(__file__).resolve().parents[1]


def count_info_rate_calls(system, monkeypatch) -> list:
    """Wrap system.info_rate to record the number of points of each call."""
    calls = []
    rate = system.info_rate

    def counting(x):
        calls.append(int(np.prod(np.shape(x)[:-1])))
        return rate(x)

    monkeypatch.setattr(system, "info_rate", counting)
    return calls


def reference_rk4_step(system, deriv, y, h):
    """The former RK4 step: four sequential deriv(y) calls."""
    k1 = deriv(y)
    k2 = deriv(y + 0.5 * h * k1)
    k3 = deriv(y + 0.5 * h * k2)
    k4 = deriv(y + h * k3)
    y_new = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    d = system.state_dim
    y_new[:, :d] = system.wrap(y_new[:, :d])
    return y_new


def reference_cascade_deriv(system, u):
    """The former cascade deriv: one info-rate call per stage."""
    d = system.state_dim
    g = system.control_column()

    def deriv(y):
        x = y[:, :d]
        return np.concatenate([system.drift(x) + g * u, system.info_rate(x)], axis=1)

    return deriv


def reference_extract(solution, system, x0, dt, duration=None):
    """The former characteristic extractor, kept as the oracle of the
    block-batched one: every RK4 stage makes its own 7-point info-rate call
    and its own drift_jacobian call."""
    grid = solution.grid
    horizon = solution.horizon if duration is None else duration
    x = x0.as_array() if isinstance(x0, State) else np.asarray(x0, dtype=float)
    p = interpolate(solution.value_gradient(), grid, x)
    lam_row = np.asarray(interpolate(solution.phi_z, grid, x), dtype=float)
    phi_at_start = float(interpolate(solution.phi, grid, x))
    d, m = system.state_dim, system.info_len
    g = system.control_column()
    fd_steps = 0.5 * grid.spacings
    n_steps = max(1, int(math.ceil(horizon / dt - 1e-12)))
    h = horizon / n_steps
    ns = n_steps + 1
    path = np.empty((ns, 2 * d + m))
    controls = np.empty(ns)
    s_axis = h * np.arange(ns)
    u_prev = 0.0

    def control_from(p_now):
        sw = float(g @ p_now)
        if abs(sw) < infotraj.trajectories.HYSTERESIS_BAND:
            return u_prev
        return float(infotraj.hjsolver.bang_bang(sw, system.control_bound))

    def rate_and_jacobian(x_now):
        probes = np.repeat(x_now[None, :], 1 + 2 * d, axis=0)
        for i in range(d):
            probes[1 + 2 * i, i] += fd_steps[i]
            probes[2 + 2 * i, i] -= fd_steps[i]
        rates = system.info_rate(probes)
        jac = np.stack(
            [(rates[1 + 2 * i] - rates[2 + 2 * i]) / (2.0 * fd_steps[i]) for i in range(d)],
            axis=-1,
        )
        return rates[0], jac

    def derivs(y, u_now):
        x_now, p_now = y[0, :d], y[0, d + m :]
        dx = system.drift(x_now) + g * u_now
        dz, ell_jac = rate_and_jacobian(x_now)
        dp = -system.drift_jacobian(x_now).T @ p_now - ell_jac.T @ lam_row
        return np.concatenate([dx, dz, dp])[None, :]

    y = np.concatenate([x, solution.z0, p])[None, :]
    path[0] = y[0]
    controls[0] = control_from(p)
    partial = None
    for k in range(n_steps):
        u = control_from(y[0, d + m :])
        u_prev = u
        controls[k] = u
        y = reference_rk4_step(system, lambda y_now: derivs(y_now, u), y, h)
        path[k + 1] = y[0]
        controls[k + 1] = u
        if grid.outside_axis(y[0, :d]) is not None:
            partial = k + 2
            break
    n_kept = partial or ns
    traj = Trajectory(
        s=s_axis[:n_kept],
        states=path[:n_kept, :d],
        infos=path[:n_kept, d : d + m],
        controls=controls[:n_kept],
        costates=path[:n_kept, d + m :],
        info_costates=np.repeat(lam_row[None, :], n_kept, axis=0),
    )
    if partial is not None:
        raise BoundaryExitError(
            f"trajectory left the grid at s = {s_axis[n_kept - 1]:.6g}", traj
        )
    grad_final = system.metric.gradient(traj.final_info())
    traj.terminal_cost = system.metric.value(traj.final_info())
    gap = float(np.linalg.norm(lam_row - grad_final))
    traj.residuals = {
        "costate_terminal_norm": float(np.linalg.norm(traj.costates[-1])),
        "costate_initial_norm": float(np.linalg.norm(traj.costates[0])),
        "info_costate_gap": gap,
        "info_costate_gap_rel": gap / max(np.linalg.norm(grad_final), 1e-300),
        "value_consistency": float(abs(phi_at_start - traj.terminal_cost)),
    }
    return traj


def assert_same_trajectory(got, want):
    for name in ("s", "states", "infos", "controls", "costates", "info_costates"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.residuals == want.residuals
    assert got.terminal_cost == want.terminal_cost


def block_rule_calls(traj, points_per_step):
    """The info-rate call sizes of the block rule on a path that stays on the
    grid: each block evaluates min(EXTRACTION_BLOCK_STEPS, steps left) steps
    under the control at its start and commits them up to the first step
    whose control differs, where the next block starts."""
    step_controls = traj.controls[:-1]
    calls, k = [], 0
    while k < step_controls.size:
        m = min(EXTRACTION_BLOCK_STEPS, step_controls.size - k)
        held = step_controls[k : k + m] == step_controls[k]
        calls.append(points_per_step * m)
        k += m if held.all() else int(np.argmin(held))
    return calls


def toy_truth(t, x, z):
    ax = np.abs(x)
    return -np.log(z + ((ax + t) ** 3 - ax**3) / 3.0)


@pytest.fixture(scope="module")
def toy_setup():
    toy = ToyCascade()
    grid = GridSpec((Axis(-3.0, 3.0, 241),))
    sol = hybrid_solve(toy, grid, np.array([1.0]), 1.0)
    return toy, grid, sol


class TestCharacteristicExtraction:
    def test_matches_brute_force_and_closed_form(self, toy_setup):
        toy, grid, sol = toy_setup
        for x0 in (0.5, -0.8, 0.1):
            traj = extract_characteristic(sol, toy, np.array([x0]), dt=0.01)
            bf_cost, bf_sig = brute_force_value(
                toy, np.array([x0]), np.array([1.0]), 1.0, segments=4, dt=0.01
            )
            assert traj.terminal_cost == pytest.approx(bf_cost, abs=5e-3)
            assert traj.terminal_cost == pytest.approx(toy_truth(1.0, x0, 1.0), abs=5e-3)
            # the optimal toy control pushes away from the origin with no switches
            assert np.all(traj.controls == math.copysign(1.0, x0))
            assert np.all(bf_sig.values == math.copysign(1.0, x0))

    def test_costate_terminal_residual_small_and_refining(self):
        toy = ToyCascade()
        ratios = []
        for n in (241, 481):
            grid = GridSpec((Axis(-3.0, 3.0, n),))
            sol = hybrid_solve(toy, grid, np.array([1.0]), 1.0)
            traj = extract_characteristic(sol, toy, np.array([0.5]), dt=0.005)
            r = traj.residuals
            ratios.append(r["costate_terminal_norm"] / r["costate_initial_norm"])
        assert ratios[0] <= 0.1
        assert ratios[1] < ratios[0]

    def test_info_costate_consistency(self, toy_setup):
        toy, grid, sol = toy_setup
        traj = extract_characteristic(sol, toy, np.array([0.5]), dt=0.01)
        assert traj.residuals["info_costate_gap_rel"] <= 0.05

    def test_value_agrees_with_rollout_cost(self, toy_setup):
        toy, grid, sol = toy_setup
        traj = extract_characteristic(sol, toy, np.array([0.5]), dt=0.01)
        assert traj.residuals["value_consistency"] <= 0.02

    def test_zero_information_gives_straight_line(self):
        car = DubinsCar(10.0, 0.1, info_rate_fn=None, info_dim=2)
        grid = GridSpec.vehicle_plane((-500.0, 500.0), (-500.0, 500.0), 9, 9, 8)
        sol = hybrid_solve(car, grid, vec(np.eye(2)), 10.0)
        traj = extract_characteristic(sol, car, State(0.0, 0.0, 0.0), dt=0.05)
        assert np.all(traj.controls == 0.0)
        assert np.allclose(traj.states[-1], [100.0, 0.0, 0.0], atol=1e-6)

    def test_boundary_exit_carries_partial_record(self):
        car = DubinsCar(10.0, 0.1, info_rate_fn=None, info_dim=2)
        grid = GridSpec.vehicle_plane((-50.0, 50.0), (-50.0, 50.0), 9, 9, 8)
        sol = hybrid_solve(car, grid, vec(np.eye(2)), 20.0)
        with pytest.raises(BoundaryExitError) as err:
            extract_characteristic(sol, car, State(0.0, 0.0, 0.0), dt=0.05)
        partial = err.value.trajectory
        assert partial.s.size > 2
        assert partial.states[-1, 0] > 50.0

    def test_policy_mutation_breaks_toy_agreement(self, toy_setup, monkeypatch):
        toy, grid, sol = toy_setup

        def flipped(switching, bound):
            return np.where(np.abs(switching) <= 1e-12, 0.0, bound * np.sign(switching))

        monkeypatch.setattr(infotraj.hjsolver, "bang_bang", flipped)
        traj = extract_characteristic(sol, toy, np.array([0.5]), dt=0.01)
        bf_cost, _ = brute_force_value(
            toy, np.array([0.5]), np.array([1.0]), 1.0, segments=4, dt=0.01
        )
        gap = traj.terminal_cost - bf_cost
        assert gap > 0.05  # flipped sign drives toward the origin and loses information


class TestInfoRateAndJacobian:
    def test_equals_separate_rate_and_difference_calls(self, scenario):
        system = scenario.build_system()
        steps = 0.5 * scenario.grid().spacings
        xs = np.array([[50.0, -36.6, -math.pi], [0.0, 0.0, 0.0], [-310.5, 122.25, 2.0]])
        rate, jac = _info_rate_and_jacobian(system, xs, steps)
        assert rate.shape == (3, 4) and jac.shape == (3, 4, 3)
        for x, rate_x, jac_x in zip(xs, rate, jac):
            probes = np.repeat(x[None, :], 6, axis=0)
            for i in range(3):
                probes[2 * i, i] += steps[i]
                probes[2 * i + 1, i] -= steps[i]
            rates = system.info_rate(probes)
            expected = np.stack(
                [(rates[2 * i] - rates[2 * i + 1]) / (2.0 * steps[i]) for i in range(3)],
                axis=-1,
            )
            assert np.array_equal(rate_x, system.info_rate(x))
            assert np.array_equal(jac_x, expected)

    def test_one_rate_call_for_all_rows(self, scenario, monkeypatch):
        system = scenario.build_system()
        calls = count_info_rate_calls(system, monkeypatch)
        rate, jac = _info_rate_and_jacobian(system, np.zeros((4, 3)), np.ones(3))
        assert calls == [28]


class TestConcurrentExtraction:
    def test_fan_extraction_matches_sequential(self, toy_setup):
        # many extractions share one immutable solution snapshot
        from concurrent.futures import ThreadPoolExecutor

        toy, grid, sol = toy_setup
        starts = [np.array([x0]) for x0 in (-0.9, -0.3, 0.2, 0.8)]
        sequential = [
            extract_characteristic(sol, toy, x0, dt=0.02) for x0 in starts
        ]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(
                pool.map(lambda x0: extract_characteristic(sol, toy, x0, dt=0.02), starts)
            )
        for a, b in zip(sequential, parallel):
            assert np.array_equal(a.states, b.states)
            assert np.array_equal(a.infos, b.infos)
            assert a.terminal_cost == b.terminal_cost


def reference_extract_receding(
    system, grid, x0, z0, horizon, legs, dt=0.05, info_rate_field=None,
):
    """The former receding extractor: every leg, leg 0 included, re-solves
    the value function on the full grid."""
    if legs < 1:
        raise ValueError("need at least one leg")
    if info_rate_field is None:
        info_rate_field = info_rate_on_grid(system, grid)

    leg_span = horizon / legs
    z = np.asarray(z0, dtype=float).copy()
    x = x0
    pieces = []
    for k in range(legs):
        remaining = horizon - k * leg_span
        sol = hybrid_solve(system, grid, z, remaining, info_rate_field=info_rate_field)
        piece = extract_characteristic(sol, system, x, dt, duration=leg_span)
        pieces.append(piece)
        x = piece.final_state()
        z = piece.final_info()

    s_off = 0.0
    s_all, st_all, u_all, z_all, p_all, lam_all = [], [], [], [], [], []
    for i, piece in enumerate(pieces):
        sl = slice(None) if i == 0 else slice(1, None)
        s_all.append(piece.s[sl] + s_off)
        st_all.append(piece.states[sl])
        u_all.append(piece.controls[sl])
        z_all.append(piece.infos[sl])
        p_all.append(piece.costates[sl])
        lam_all.append(piece.info_costates[sl])
        s_off += piece.duration
    traj = Trajectory(
        s=np.concatenate(s_all),
        states=np.concatenate(st_all),
        controls=np.concatenate(u_all),
        infos=np.concatenate(z_all),
        costates=np.concatenate(p_all),
        info_costates=np.concatenate(lam_all),
    )
    traj.terminal_cost = system.metric.value(traj.final_info())
    traj.residuals = dict(pieces[-1].residuals)
    return traj


class TestRecedingExtraction:
    def test_single_leg_equals_characteristic(self, toy_setup):
        toy, grid, sol = toy_setup
        a = extract_characteristic(sol, toy, np.array([0.5]), dt=0.01)
        b = extract_receding(
            sol, toy, np.array([0.5]), legs=1, dt=0.01, info_rate_field=None
        )
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.infos, b.infos)

    def test_four_legs_near_brute_force(self, toy_setup):
        toy, grid, sol = toy_setup
        traj = extract_receding(
            sol, toy, np.array([0.5]), legs=4, dt=0.01,
            info_rate_field=info_rate_on_grid(toy, grid),
        )
        bf_cost, _ = brute_force_value(
            toy, np.array([0.5]), np.array([1.0]), 1.0, segments=4, dt=0.01
        )
        assert traj.terminal_cost <= bf_cost + 0.02 * abs(bf_cost)

    def test_zero_information_all_legs_coast(self):
        car = DubinsCar(10.0, 0.1, info_rate_fn=None, info_dim=2)
        grid = GridSpec.vehicle_plane((-500.0, 500.0), (-500.0, 500.0), 9, 9, 8)
        sol = hybrid_solve(car, grid, vec(np.eye(2)), 9.0)
        traj = extract_receding(
            sol, car, State(0.0, 0.0, 0.0), legs=3, dt=0.05,
            info_rate_field=info_rate_on_grid(car, grid),
        )
        assert np.all(traj.controls == 0.0)


@pytest.fixture(scope="module")
def shipped_characteristic(survey):
    """The validate sandwich's characteristic extraction of the shipped solve."""
    scenario, system, grid, z0, ell, solution = survey
    x0 = scenario.initial_states[0]
    return extract_characteristic(solution, system, x0, scenario.extraction_dt)


class TestRecedingCropAgainstReference:
    # largest |cropped - full| over the largest full-grid entry, measured on
    # the shipped six-leg sandwich at a 4-cell margin: 6.3e-4 for the x
    # costates, 1.6e-4 for the information costates
    COSTATE_REL_TOL = 1e-3
    INFO_COSTATE_REL_TOL = 3e-4

    def test_cropped_legs_match_full_grid_resolves(self, survey, monkeypatch):
        scenario, system, grid, z0, ell, solution = survey
        x0 = scenario.initial_states[0]
        legs = 6
        shapes = []

        def recording_solve(system, grid, *args, **kwargs):
            shapes.append(grid.shape)
            return hybrid_solve(system, grid, *args, **kwargs)

        monkeypatch.setattr(infotraj.trajectories, "hybrid_solve", recording_solve)
        got = extract_receding(
            solution, system, x0, legs=legs, dt=scenario.extraction_dt,
            info_rate_field=ell,
        )
        monkeypatch.undo()
        want = reference_extract_receding(
            system, grid, x0, z0, scenario.horizon, legs=legs,
            dt=scenario.extraction_dt, info_rate_field=ell,
        )
        # leg 0 reuses the solution; every later leg runs on a cropped plane
        assert len(shapes) == legs - 1
        nx, ny, npsi = grid.shape
        assert all(a < nx and b < ny and c == npsi for a, b, c in shapes)
        assert np.array_equal(got.s, want.s)
        assert np.array_equal(got.states, want.states)
        assert np.array_equal(got.infos, want.infos)
        assert np.array_equal(got.controls, want.controls)
        assert got.terminal_cost == want.terminal_cost
        for a, b, tol in (
            (got.costates, want.costates, self.COSTATE_REL_TOL),
            (got.info_costates, want.info_costates, self.INFO_COSTATE_REL_TOL),
        ):
            assert np.max(np.abs(a - b)) <= tol * np.max(np.abs(b))


def reference_simulate_control_batch(system, x0, z0, control_values, horizon, dt):
    """The former brute-force batch: every row advances through every
    segment, shared prefixes included, one info-rate call per RK4 stage."""
    batch, segments = control_values.shape
    seg_span = horizon / segments
    n_sub = max(1, int(math.ceil(seg_span / dt - 1e-12)))
    h = seg_span / n_sub
    y = np.repeat(np.concatenate([x0, z0])[None, :], batch, axis=0)
    for k in range(segments):
        deriv = reference_cascade_deriv(system, control_values[:, k][:, None])
        for _ in range(n_sub):
            y = reference_rk4_step(system, deriv, y, h)
    return y[:, system.state_dim :]


class TestBruteForce:
    def test_shared_prefixes_match_the_flat_batch(self, scenario):
        system = scenario.build_system()
        x0 = scenario.initial_states[0].as_array()
        z0 = scenario.initial_information()
        b = system.control_bound
        combos = np.array(list(itertools.product((0.0, -b, b), repeat=6)))
        # every sequence of the shipped sandwich search, shuffled, 40 twice
        rng = np.random.default_rng(9)
        vals = np.concatenate([combos, combos[rng.choice(len(combos), 40)]])
        vals = vals[rng.permutation(len(vals))]
        got = _simulate_control_batch(system, x0, z0, vals, scenario.horizon, 0.2)
        want = reference_simulate_control_batch(
            system, x0, z0, vals, scenario.horizon, 0.2
        )
        assert np.array_equal(got, want)

    def test_zero_information_returns_coast(self):
        car = DubinsCar(10.0, 0.1, info_rate_fn=None, info_dim=2)
        cost, sig = brute_force_value(
            car, State(0.0, 0.0, 0.0), vec(np.eye(2)), 4.0, segments=3, dt=0.1
        )
        assert cost == pytest.approx(0.0, abs=1e-12)
        assert np.all(sig.values == 0.0)

    def test_zero_horizon(self):
        toy = ToyCascade()
        cost, sig = brute_force_value(
            toy, np.array([0.5]), np.array([2.0]), 0.0, segments=3, dt=0.1
        )
        assert cost == pytest.approx(-math.log(2.0))

    def test_refuses_large_exhaustive_search(self):
        toy = ToyCascade()
        with pytest.raises(ValueError, match="refus"):
            brute_force_value(
                toy, np.array([0.0]), np.array([1.0]), 1.0, segments=9, dt=0.1
            )

    def test_batch_simulator_matches_single(self):
        car = DubinsCar(5.0, 0.5, info_rate_fn=None, info_dim=2)
        vals = np.array([[0.5, -0.5, 0.0], [0.0, 0.5, 0.5]])
        batch = _simulate_control_batch(
            car, np.array([1.0, 2.0, 0.3]), vec(np.eye(2)), vals, 3.0, 0.05
        )
        for row in range(2):
            sig = ControlSignal.from_segments(vals[row], 3.0)
            traj = simulate_open_loop(
                car, AugmentedState(State(1.0, 2.0, 0.3), vec(np.eye(2))), sig, 3.0, 0.05
            )
            assert np.allclose(batch[row], traj.final_info(), atol=1e-12)


class TestStageBatchedRK4:
    """Brute force and open-loop simulation make one info-rate call per RK4
    step and extraction one per block of steps under a held control, with
    the bits of the former integrator, which made one per stage
    (reference_rk4_step, reference_cascade_deriv and reference_extract)."""

    def test_shipped_start(self, survey, shipped_characteristic):
        scenario, system, grid, z0, ell, solution = survey
        want = reference_extract(
            solution, system, scenario.initial_states[0], scenario.extraction_dt
        )
        assert_same_trajectory(shipped_characteristic, want)

    def test_fan_starts_with_one_call_per_block(self, survey, monkeypatch):
        scenario, system, grid, z0, ell, solution = survey
        fan = load_scenario(REPO / "scenarios" / "doppler_fan.json")
        # the fan scenario is the shipped one with other starts: one solve serves
        same = replace(
            fan, name=scenario.name, initial_states=scenario.initial_states,
            provenance=scenario.provenance,
        )
        assert same.to_dict() == scenario.to_dict()
        calls = count_info_rate_calls(system, monkeypatch)
        for x0 in fan.initial_states:
            del calls[:]
            got = extract_characteristic(solution, system, x0, fan.extraction_dt)
            steps = got.s.size - 1
            assert steps == 1200 and calls == block_rule_calls(got, 4 * 7)
            # a switch inside a block: the steps after it are evaluated, then dropped
            assert sum(calls) > 4 * 7 * steps
            del calls[:]
            want = reference_extract(solution, system, x0, fan.extraction_dt)
            assert calls == [7] * (4 * steps)
            assert_same_trajectory(got, want)

    def test_toy(self, toy_setup, monkeypatch):
        toy, grid, sol = toy_setup
        calls = count_info_rate_calls(toy, monkeypatch)
        for x0 in (0.5, -0.8, 0.1):
            del calls[:]
            got = extract_characteristic(sol, toy, np.array([x0]), dt=0.01)
            # d = 1: 3 points per stage; 100 steps are blocks of 32, 32, 32, 4
            assert calls == block_rule_calls(got, 4 * 3) == [12 * 32] * 3 + [12 * 4]
            want = reference_extract(sol, toy, np.array([x0]), dt=0.01)
            assert_same_trajectory(got, want)

    def test_two_step_duration(self, survey, monkeypatch):
        scenario, system, grid, z0, ell, solution = survey
        x0, dt = scenario.initial_states[0], scenario.extraction_dt
        calls = count_info_rate_calls(system, monkeypatch)
        got = extract_characteristic(solution, system, x0, dt, duration=2 * dt)
        assert got.s.size == 3 and calls == [4 * 7 * 2]
        want = reference_extract(solution, system, x0, dt, duration=2 * dt)
        assert_same_trajectory(got, want)

    @pytest.mark.parametrize(
        "start, blocks",
        [
            # no switch: the fourth block runs ahead 5 steps, up to the exit
            ((0.0, 0.0, 0.0), [32, 32, 32, 5]),
            # the first block runs ahead to an exit at step 21, a switch at
            # step 19 drops its last 2 steps, and the next block exits
            ((-40.0, 0.0, 3.0), [21, 2]),
            # a switch at step 94; the block from there exits on its 32nd step
            ((-10.0, -15.0, 0.0), [32, 32, 32, 32]),
        ],
        ids=["straight", "switch_then_exit", "exit_on_last_step"],
    )
    def test_boundary_exit_keeps_the_partial_record(self, scenario, monkeypatch, start, blocks):
        rate_fn = suite_info_rate(scenario.build_sensors(), scenario.prior())
        car = DubinsCar(10.0, 0.1, info_rate_fn=rate_fn, info_dim=2)
        grid = GridSpec.vehicle_plane((-50.0, 50.0), (-50.0, 50.0), 9, 9, 8)
        sol = hybrid_solve(
            car, grid, scenario.initial_information(), 20.0
        )
        calls = count_info_rate_calls(car, monkeypatch)
        with pytest.raises(BoundaryExitError) as got:
            extract_characteristic(sol, car, State(*start), dt=0.05)
        assert calls == [4 * 7 * m for m in blocks]
        with pytest.raises(BoundaryExitError) as want:
            reference_extract(sol, car, State(*start), dt=0.05)
        assert str(got.value) == str(want.value)
        assert got.value.trajectory.s.size > 2
        assert_same_trajectory(got.value.trajectory, want.value.trajectory)

    def test_six_leg_sandwich(self, survey, monkeypatch):
        scenario, system, grid, z0, ell, solution = survey
        x0 = scenario.initial_states[0]

        def sandwich():
            return extract_receding(
                solution, system, x0, legs=6, dt=scenario.extraction_dt,
                info_rate_field=ell,
            )

        got = sandwich()
        # the same cropped re-solves, each leg extracted by the reference
        monkeypatch.setattr(infotraj.trajectories, "extract_characteristic", reference_extract)
        assert_same_trajectory(got, sandwich())

    @pytest.mark.parametrize(
        "cascade",
        [
            lambda sc: (sc.build_system(), sc.initial_states[0].as_array(), sc.initial_information()),
            # d = 1 and no heading to wrap
            lambda sc: (ToyCascade(), np.array([0.5]), np.array([1.0])),
        ],
        ids=["dubins", "toy"],
    )
    def test_brute_force_batch_with_one_call_per_step(self, scenario, monkeypatch, cascade):
        system, x0, z0 = cascade(scenario)
        b = system.control_bound
        combos = np.array(list(itertools.product((0.0, -b, b), repeat=3)))
        calls = count_info_rate_calls(system, monkeypatch)
        got = _simulate_control_batch(system, x0, z0, combos, 12.0, 0.2)
        # 20 steps per segment, on one row per distinct prefix of each segment
        assert calls == [4 * 3] * 20 + [4 * 9] * 20 + [4 * 27] * 20
        want = reference_simulate_control_batch(system, x0, z0, combos, 12.0, 0.2)
        assert np.array_equal(got, want)

    def test_open_loop_with_one_call_per_step(self, scenario, monkeypatch):
        system = scenario.build_system()
        start = AugmentedState(scenario.initial_states[0], scenario.initial_information())
        control = ControlSignal.from_segments([0.05, -0.05, 0.0, 0.02], 60.0)
        calls = count_info_rate_calls(system, monkeypatch)
        got = simulate_open_loop(system, start, control, 60.0, 0.13)
        nodes = _segment_nodes(control, 60.0, 0.13)
        assert calls == [4] * (nodes.size - 1)
        y = np.concatenate([start.x.as_array(), start.z])[None, :]
        for k in range(nodes.size - 1):
            deriv = reference_cascade_deriv(system, control.value_at(nodes[k]))
            y = reference_rk4_step(system, deriv, y, nodes[k + 1] - nodes[k])
            assert np.array_equal(got.states[k + 1], y[0, :3])
            assert np.array_equal(got.infos[k + 1], y[0, 3:])


def run_with_bad_step(name, overrides, toy_setup):
    """Call one integrating entry point on the toy cascade with valid
    arguments except the overridden dt, horizon or duration."""
    toy, grid, sol = toy_setup
    x0, z0 = np.array([0.5]), np.array([1.0])
    kw = {"dt": 0.01, "horizon": 1.0, "duration": 0.5} | overrides
    calls = {
        "brute_force_value": lambda: brute_force_value(
            toy, x0, z0, kw["horizon"], segments=3, dt=kw["dt"]
        ),
        "extract_characteristic": lambda: extract_characteristic(
            sol, toy, x0, kw["dt"], duration=kw["duration"]
        ),
        "extract_receding": lambda: extract_receding(sol, toy, x0, 1, kw["dt"], None),
        "simulate_open_loop": lambda: simulate_open_loop(
            toy, AugmentedState(x0, z0), ControlSignal.constant(0.5, 1.0), kw["horizon"], kw["dt"]
        ),
    }
    calls[name]()


class TestStepRule:
    """Every integrator cuts its spans with rk4_steps, which refuses a dt
    that is not a finite positive number or that makes span / dt overflow or
    exceed MAX_RK4_STEPS, and a
    negative or non-finite span, naming the argument; brute force checks dt
    at zero horizon too."""

    @pytest.mark.parametrize(
        "name, overrides, named",
        [
            ("brute_force_value", {"dt": -0.1}, "dt"),
            ("brute_force_value", {"dt": 0.0}, "dt"),
            ("brute_force_value", {"dt": math.nan}, "dt"),
            ("brute_force_value", {"horizon": -1.0}, "horizon / segments"),
            ("brute_force_value", {"horizon": math.inf}, "horizon / segments"),
            ("extract_characteristic", {"duration": -0.5}, "duration"),
            ("extract_characteristic", {"duration": math.nan}, "duration"),
            ("extract_characteristic", {"dt": math.nan}, "dt"),
            ("extract_characteristic", {"dt": math.inf}, "dt"),
            ("extract_characteristic", {"dt": 0.0}, "dt"),
            ("extract_receding", {"dt": -0.1}, "dt"),
            ("simulate_open_loop", {"dt": 0.0}, "dt"),
            ("simulate_open_loop", {"dt": -0.1}, "dt"),
            ("simulate_open_loop", {"horizon": -1.0}, "horizon"),
            ("simulate_open_loop", {"horizon": math.nan}, "horizon"),
            # span / dt overflows
            ("brute_force_value", {"dt": 1e-320}, "dt"),
            ("extract_characteristic", {"dt": 1e-320}, "dt"),
            # finite, but more than MAX_RK4_STEPS steps: refused before any
            # record is allocated
            ("extract_characteristic", {"dt": 1e-300}, "dt"),
            # no step is taken at zero horizon, but dt is still checked
            ("brute_force_value", {"horizon": 0.0, "dt": -1.0}, "dt"),
        ],
    )
    def test_refuses_bad_steps_and_spans(self, toy_setup, name, overrides, named):
        with pytest.raises(ValueError) as err:
            run_with_bad_step(name, overrides, toy_setup)
        assert str(err.value).split(" must be a finite ")[0] == named


class TestSandwich:
    def test_toy_optimality_sandwich(self, toy_setup):
        toy, grid, sol = toy_setup
        x0 = np.array([0.5])
        traj = extract_characteristic(sol, toy, x0, dt=0.01)
        bf_cost, _ = brute_force_value(
            toy, x0, np.array([1.0]), 1.0, segments=6, dt=0.01
        )
        phi0 = float(interpolate(sol.phi, grid, x0))
        band = 0.05
        assert bf_cost >= traj.terminal_cost - 0.02 * abs(bf_cost)
        assert traj.terminal_cost >= phi0 - band
        assert bf_cost >= phi0 - band


class TestValidationReport:
    def test_all_pass(self, toy_setup):
        toy, grid, sol = toy_setup
        traj = extract_characteristic(sol, toy, np.array([0.5]), dt=0.01)
        res = traj.residuals
        ratio = res["costate_terminal_norm"] / res["costate_initial_norm"]
        assert ratio <= 0.1
        assert res["info_costate_gap_rel"] <= 0.05
        report = ValidationReport()
        report.add("costate_terminal_residual", ratio <= 0.1, ratio=ratio, limit=0.1)
        report.add("info_costate_consistency", True, gap_rel=res["info_costate_gap_rel"])
        assert report.passed
        assert report.violations == []

    def test_threshold_flags_failures(self):
        report = ValidationReport()
        report.add("residual", True, ratio=0.01, limit=0.1)
        report.add("gap", 0.5 <= 0.1, measured=0.5, limit=0.1)
        assert not report.passed
        assert report.violations == ["gap"]

    def test_serializable(self):
        import json

        report = ValidationReport()
        report.add("costate_terminal_residual", True, ratio=np.float64(0.01), limit=0.1)
        report.add("gap", False, measured=0.5)
        back = json.loads(json.dumps(report.to_dict()))
        assert back == {
            "passed": False,
            "violations": ["gap"],
            "checks": {
                "costate_terminal_residual": {"passed": True, "ratio": 0.01, "limit": 0.1},
                "gap": {"passed": False, "measured": 0.5},
            },
        }


class TestGradientConsistencyCheck:
    def test_toy_fraction(self):
        toy = ToyCascade()
        grid = GridSpec((Axis(-2.0, 2.0, 161),))
        out = gradient_consistency_check(
            toy, grid, np.array([1.0]), 1.0, interior_margin=40
        )
        assert out["fraction_within_1e2"] >= 0.9
        assert out["interior_points"] == 81
