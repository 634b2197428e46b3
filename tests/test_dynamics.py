import math

import numpy as np
import pytest

from infotraj.dynamics import (
    AugmentedState,
    ControlSignal,
    DubinsCar,
    State,
    ToyCascade,
    Trajectory,
    simulate_open_loop,
    trajectory_from_csv,
    trajectory_to_csv,
    wrap_angle,
)
from infotraj.matrixcore import LogDetMetric, unvec, vec


def constant_rate(rate_vec):
    rate_vec = np.asarray(rate_vec, dtype=float)

    def fn(x):
        return np.broadcast_to(rate_vec, x.shape[:-1] + rate_vec.shape).copy()

    return fn


def rank_one_rate(x):
    # vec(J^T J) with J = (X, Y): a PSD rate that varies over the plane
    j = x[..., :2]
    outer = j[..., :, None] * j[..., None, :]
    return np.swapaxes(outer, -1, -2).reshape(x.shape[:-1] + (4,))


class TestState:
    def test_wraps_heading(self):
        assert State(0.0, 0.0, 3.0 * math.pi / 2.0).psi == pytest.approx(-math.pi / 2.0)

    def test_minus_pi_is_kept(self):
        assert State(0.0, 0.0, -math.pi).psi == -math.pi

    def test_plus_pi_wraps_to_minus_pi(self):
        assert State(0.0, 0.0, math.pi).psi == -math.pi

    def test_wrap_angle_array(self):
        angles = np.array([0.0, math.pi, -math.pi, 2.0 * math.pi])
        wrapped = wrap_angle(angles)
        assert np.all(wrapped >= -math.pi) and np.all(wrapped < math.pi)


class TestDrift:
    def test_heading_zero(self):
        car = DubinsCar(speed=1.0, turn_rate_limit=0.1)
        assert np.allclose(car.drift(np.array([0.0, 0.0, 0.0])), [1.0, 0.0, 0.0])

    def test_heading_quarter_turn(self):
        car = DubinsCar(speed=2.0, turn_rate_limit=0.1)
        got = car.drift(np.array([5.0, -1.0, math.pi / 2.0]))
        assert np.allclose(got, [0.0, 2.0, 0.0], atol=1e-15)

    def test_heading_minus_pi(self):
        car = DubinsCar(speed=50.0, turn_rate_limit=0.1)
        got = car.drift(np.array([0.0, 0.0, -math.pi]))
        assert np.allclose(got, [-50.0, 0.0, 0.0], atol=1e-12)

    def test_jacobian_matches_finite_differences(self):
        car = DubinsCar(speed=7.0, turn_rate_limit=0.1)
        x = np.array([1.0, 2.0, 0.7])
        jac = car.drift_jacobian(x)
        eps = 1e-7
        for i in range(3):
            dx = np.zeros(3)
            dx[i] = eps
            fd = (car.drift(x + dx) - car.drift(x - dx)) / (2.0 * eps)
            assert np.allclose(jac[:, i], fd, atol=1e-6)


class TestSimulate:
    def test_straight_line(self):
        car = DubinsCar(speed=3.0, turn_rate_limit=0.2)
        z0 = vec(np.eye(2))
        traj = simulate_open_loop(
            car,
            AugmentedState(State(1.0, 2.0, 0.0), z0),
            ControlSignal.constant(0.0, 10.0),
            horizon=10.0,
            dt=0.01,
        )
        assert traj.states[-1, 0] == pytest.approx(1.0 + 3.0 * 10.0, abs=1e-8)
        assert traj.states[-1, 1] == pytest.approx(2.0, abs=1e-8)

    def test_constant_turn_matches_closed_form(self):
        v, omega = 2.0, 0.5
        car = DubinsCar(speed=v, turn_rate_limit=omega)
        t = math.pi / omega
        traj = simulate_open_loop(
            car,
            AugmentedState(State(0.0, 0.0, 0.0), vec(np.eye(2))),
            ControlSignal.constant(omega, t),
            horizon=t,
            dt=1e-3,
        )
        r = v / omega
        x_true = r * math.sin(omega * t)
        y_true = r * (1.0 - math.cos(omega * t))
        assert traj.states[-1, 0] == pytest.approx(x_true, abs=1e-6)
        assert traj.states[-1, 1] == pytest.approx(y_true, abs=1e-6)
        # heading flipped by pi (compare on the circle: the wrap seam sits here)
        assert abs(wrap_angle(traj.states[-1, 2] - omega * t)) < 1e-9
        assert -math.pi <= traj.states[-1, 2] < math.pi

    def test_constant_info_rate_integrates_exactly(self):
        rate = vec(np.diag([1.0, 0.0]))
        car = DubinsCar(speed=1.0, turn_rate_limit=0.1, info_rate_fn=constant_rate(rate))
        z0 = vec(np.diag([2.0, 3.0]))
        traj = simulate_open_loop(
            car,
            AugmentedState(State(0.0, 0.0, 0.3), z0),
            ControlSignal.constant(0.05, 4.0),
            horizon=4.0,
            dt=0.1,
        )
        assert np.allclose(traj.final_info(), z0 + 4.0 * rate, atol=1e-12)

    def test_control_out_of_bounds_rejected(self):
        car = DubinsCar(speed=1.0, turn_rate_limit=0.1)
        with pytest.raises(ValueError, match="admissible"):
            simulate_open_loop(
                car,
                AugmentedState(State(0.0, 0.0, 0.0), vec(np.eye(2))),
                ControlSignal.constant(0.2, 1.0),
                horizon=1.0,
                dt=0.1,
            )

    def test_info_shift_property(self):
        # shifting z0 by delta shifts the final information state by exactly delta
        rng = np.random.default_rng(3)
        car = DubinsCar(speed=2.0, turn_rate_limit=0.3, info_rate_fn=rank_one_rate)
        control = ControlSignal.from_segments(rng.uniform(-0.3, 0.3, size=5), 5.0)
        z0 = vec(np.eye(2))
        for _ in range(20):
            delta = rng.normal(size=4)
            base = simulate_open_loop(
                car, AugmentedState(State(1.0, -2.0, 0.5), z0), control, 5.0, 0.05
            )
            shifted = simulate_open_loop(
                car, AugmentedState(State(1.0, -2.0, 0.5), z0 + delta), control, 5.0, 0.05
            )
            gap = shifted.final_info() - base.final_info()
            assert np.allclose(gap, delta, rtol=0.0, atol=1e-12)

    def test_heading_wrap_is_continuous_in_cos_sin(self):
        car = DubinsCar(speed=1.0, turn_rate_limit=0.5)
        traj = simulate_open_loop(
            car,
            AugmentedState(State(0.0, 0.0, 3.0), vec(np.eye(2))),
            ControlSignal.constant(0.5, 2.0),
            horizon=2.0,
            dt=0.01,
        )
        cos_jump = np.max(np.abs(np.diff(np.cos(traj.states[:, 2]))))
        sin_jump = np.max(np.abs(np.diff(np.sin(traj.states[:, 2]))))
        assert cos_jump < 0.02 and sin_jump < 0.02
        # the raw angle did cross the seam
        assert np.max(np.abs(np.diff(traj.states[:, 2]))) > 1.0

    def test_info_increments_are_psd(self):
        car = DubinsCar(speed=2.0, turn_rate_limit=0.3, info_rate_fn=rank_one_rate)
        traj = simulate_open_loop(
            car,
            AugmentedState(State(1.0, 1.0, 0.2), vec(np.eye(2))),
            ControlSignal.constant(0.3, 6.0),
            horizon=6.0,
            dt=0.05,
        )
        for k in range(0, traj.s.size - 1, 7):
            inc = unvec(traj.infos[k + 1] - traj.infos[k])
            assert np.min(np.linalg.eigvalsh(0.5 * (inc + inc.T))) >= -1e-12

    def test_fourth_order_convergence(self):
        v, omega, t = 2.0, 0.5, 3.0
        car = DubinsCar(speed=v, turn_rate_limit=omega)
        r = v / omega
        truth = np.array(
            [r * math.sin(omega * t), r * (1.0 - math.cos(omega * t)), wrap_angle(omega * t)]
        )

        def endpoint_error(dt):
            traj = simulate_open_loop(
                car,
                AugmentedState(State(0.0, 0.0, 0.0), vec(np.eye(2))),
                ControlSignal.constant(omega, t),
                horizon=t,
                dt=dt,
            )
            return np.linalg.norm(traj.states[-1, :2] - truth[:2])

        e1 = endpoint_error(0.1)
        e2 = endpoint_error(0.05)
        assert e1 / e2 >= 8.0

    def test_segment_nodes_hit_switch_times(self):
        car = DubinsCar(speed=1.0, turn_rate_limit=1.0)
        control = ControlSignal(np.array([0.0, 0.37, 1.0]), np.array([1.0, -1.0]))
        traj = simulate_open_loop(
            car,
            AugmentedState(State(0.0, 0.0, 0.0), vec(np.eye(2))),
            control,
            horizon=1.0,
            dt=0.1,
        )
        assert np.any(np.isclose(traj.s, 0.37))


class TestCost:
    def test_zero_duration_identity_prior(self):
        metric = LogDetMetric(2)
        car = DubinsCar(speed=1.0, turn_rate_limit=0.1)
        traj = simulate_open_loop(
            car,
            AugmentedState(State(0.0, 0.0, 0.0), vec(np.eye(2))),
            ControlSignal.constant(0.0, 1.0),
            horizon=0.0,
            dt=0.1,
        )
        assert metric.value(traj.final_info()) == 0.0

    def test_known_final_state(self):
        metric = LogDetMetric(2)
        rate = vec(np.diag([math.e - 1.0, math.e - 1.0]))
        car = DubinsCar(speed=1.0, turn_rate_limit=0.1, info_rate_fn=constant_rate(rate))
        traj = simulate_open_loop(
            car,
            AugmentedState(State(0.0, 0.0, 0.0), vec(np.eye(2))),
            ControlSignal.constant(0.0, 1.0),
            horizon=1.0,
            dt=0.05,
        )
        assert metric.value(traj.final_info()) == pytest.approx(-2.0, abs=1e-12)

    def test_equals_metric_value(self):
        metric = LogDetMetric(2)
        car = DubinsCar(speed=2.0, turn_rate_limit=0.3, info_rate_fn=rank_one_rate)
        traj = simulate_open_loop(
            car,
            AugmentedState(State(1.0, 1.0, 0.2), vec(np.eye(2))),
            ControlSignal.constant(0.1, 2.0),
            horizon=2.0,
            dt=0.05,
        )
        _, logdet = np.linalg.slogdet(unvec(traj.final_info()))
        assert metric.value(traj.final_info()) == pytest.approx(-logdet, rel=1e-12)


class TestControlSignal:
    def test_value_lookup(self):
        sig = ControlSignal(np.array([0.0, 1.0, 2.0]), np.array([0.5, -0.5]))
        assert sig.value_at(0.0) == 0.5
        assert sig.value_at(0.999) == 0.5
        assert sig.value_at(1.0) == -0.5
        assert sig.value_at(2.5) == -0.5

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            ControlSignal(np.array([0.0, 1.0, 1.0]), np.array([0.1, 0.2]))

    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError):
            ControlSignal(np.array([0.5, 1.0]), np.array([0.1]))


class TestCsv:
    def test_round_trip(self, tmp_path):
        car = DubinsCar(speed=2.0, turn_rate_limit=0.3, info_rate_fn=rank_one_rate)
        traj = simulate_open_loop(
            car,
            AugmentedState(State(1.0, 1.0, 0.2), vec(np.eye(2))),
            ControlSignal.constant(0.1, 2.0),
            horizon=2.0,
            dt=0.1,
        )
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, path)
        text = path.read_text()
        assert text.splitlines()[0].startswith("#")
        assert "s,X,Y,psi,u,z_1" in text
        back = trajectory_from_csv(path)
        assert np.allclose(back.states, traj.states)
        assert np.allclose(back.infos, traj.infos)
        assert np.allclose(back.s, traj.s)

    @pytest.mark.parametrize("p", [1, 2])
    def test_cost_column_is_the_logdet_of_the_own_information(self, tmp_path, p):
        infos = np.stack([vec(k * np.eye(p)) for k in (1.0, 2.0, 4.0)])
        traj = Trajectory(np.arange(3.0), np.zeros((3, 1)), np.zeros(3), infos)
        trajectory_to_csv(traj, tmp_path / "traj.csv")
        rows = [r for r in (tmp_path / "traj.csv").read_text().splitlines() if r[0] != "#"]
        costs = [float(r.split(",")[-1]) for r in rows[1:]]
        assert costs == list(LogDetMetric(p).value(infos))


class TestToyCascade:
    def test_info_rate_is_square(self):
        toy = ToyCascade()
        x = np.array([[2.0], [-3.0]])
        assert np.allclose(toy.info_rate(x), [[4.0], [9.0]])

    def test_drift_zero(self):
        toy = ToyCascade()
        assert np.all(toy.drift(np.array([1.5])) == 0.0)


class TestTerminalMetric:
    def test_a_system_names_its_metric(self):
        # the logdet metric on the system's own p x p information matrix
        assert DubinsCar(speed=2.0, turn_rate_limit=0.3).metric.dim == 2
        assert ToyCascade().metric.dim == 1
