import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from infotraj import sensing
from infotraj.cli import load_scenario
from infotraj.matrixcore import DimensionError, cholesky_spd, vec
from infotraj.sensing import (
    DopplerSensor,
    GaussianPrior,
    GeometryError,
    Sensor,
    conditional_fim,
    doppler_jacobian,
    doppler_mean,
    expected_fim,
    prior_fim,
    suite_fim,
    suite_info_rate,
)

SPEED = 50.0
SINGLE_PATH = Path(__file__).resolve().parents[1] / "scenarios" / "doppler_single_path.json"
FALLBACK_WARNING = "Taylor-corrected information matrix indefinite"


def reference_conditional_fim(sensor, x, theta):
    """The per-call Cholesky check and noise solve of the earlier kernel."""
    jac = sensor.jacobian(x, theta)
    cov = np.asarray(sensor.noise_cov, dtype=float)
    cholesky_spd(cov)
    weighted = np.linalg.solve(cov, jac)
    out = np.swapaxes(jac, -1, -2) @ weighted
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def reference_expected_fim(sensor, x, prior, hessian_step=1e-2, indefinite_tol=1e-8):
    """The earlier expected_fim: the stencil built per call and eigh on every row."""
    if prior.dim != sensor.theta_dim:
        raise DimensionError(
            f"prior dimension {prior.dim} does not match sensor theta dimension "
            f"{sensor.theta_dim}"
        )
    x = np.asarray(x, dtype=float)
    theta0 = prior.mean
    sigma = prior.covariance
    if not np.any(sigma):
        return reference_conditional_fim(sensor, x, theta0)

    h = hessian_step
    p = prior.dim
    # one batched stencil evaluation: center, +-h e_k, and the four corners
    # per covariance cross term
    stencil = [theta0]
    for k in range(p):
        ek = np.zeros(p)
        ek[k] = h
        stencil.append(theta0 + ek)
        stencil.append(theta0 - ek)
    cross_pairs = [
        (k, l) for k in range(p) for l in range(k + 1, p) if sigma[k, l] != 0.0
    ]
    for k, l in cross_pairs:
        ek = np.zeros(p)
        el = np.zeros(p)
        ek[k] = h
        el[l] = h
        stencil.append(theta0 + ek + el)
        stencil.append(theta0 + ek - el)
        stencil.append(theta0 - ek + el)
        stencil.append(theta0 - ek - el)
    q_all = reference_conditional_fim(sensor, x[..., None, :], np.asarray(stencil))
    center = q_all[..., 0, :, :]
    correction = np.zeros_like(center)
    for k in range(p):
        plus_k = q_all[..., 1 + 2 * k, :, :]
        minus_k = q_all[..., 2 + 2 * k, :, :]
        correction = correction + 0.5 * sigma[k, k] * (plus_k - 2.0 * center + minus_k) / h**2
    base = 1 + 2 * p
    for idx, (k, l) in enumerate(cross_pairs):
        qpp = q_all[..., base + 4 * idx, :, :]
        qpm = q_all[..., base + 4 * idx + 1, :, :]
        qmp = q_all[..., base + 4 * idx + 2, :, :]
        qmm = q_all[..., base + 4 * idx + 3, :, :]
        cross = (qpp - qpm - qmp + qmm) / (4.0 * h**2)
        correction = correction + sigma[k, l] * cross  # k<l counted twice in the trace
    out = center + correction
    out = 0.5 * (out + np.swapaxes(out, -1, -2))

    eigvals, eigvecs = np.linalg.eigh(out)
    broken = eigvals[..., 0] < -indefinite_tol
    if np.any(broken):
        count = int(np.count_nonzero(broken))
        warnings.warn(
            f"Taylor-corrected information matrix indefinite at {count} state(s); "
            "falling back to the conditional value at the prior mean there",
            RuntimeWarning,
            stacklevel=2,
        )
    negative = eigvals[..., 0] < 0.0
    if np.any(negative):
        # repair strictly per element: results must not depend on what else
        # shares the batch (parallel field evaluation chunks arbitrarily)
        clipped = np.clip(eigvals, 0.0, None)
        rebuilt = (eigvecs * clipped[..., None, :]) @ np.swapaxes(eigvecs, -1, -2)
        rebuilt = 0.5 * (rebuilt + np.swapaxes(rebuilt, -1, -2))
        out = np.where(negative[..., None, None], rebuilt, out)
    if np.any(broken):
        out = np.where(broken[..., None, None], center, out)
    return out


def reference_quiet(sensor, x, prior):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return reference_expected_fim(sensor, x, prior)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def make_sensor(altitude=1000.0, noise_std=1.0, rate=1.0, scale=3.33, speed=SPEED):
    return DopplerSensor(
        altitude=altitude, noise_std=noise_std, rate=rate, speed=speed, frequency_scale=scale
    )


class ConstJacobianSensor(Sensor):
    """Linear measurement mean: constant Jacobian, constant information."""

    theta_dim = 2

    def __init__(self, row, noise_std=1.0, rate=1.0):
        self.row = np.asarray(row, dtype=float)
        self.noise_std = float(noise_std)
        self.rate = float(rate)

    @property
    def noise_cov(self):
        return np.array([[self.noise_std**2]])

    def mean(self, x, theta):
        return (np.asarray(theta, dtype=float) @ self.row)[..., None]

    def jacobian(self, x, theta):
        shape = np.broadcast_shapes(np.asarray(x).shape[:-1], np.asarray(theta).shape[:-1])
        return np.broadcast_to(self.row, shape + (1, 2)).copy()


class QuadraticMeanSensor(Sensor):
    """Mean 0.5 theta^T A theta + b^T theta: the information matrix is exactly
    quadratic in theta, so the second-order Taylor expectation is exact."""

    theta_dim = 2

    def __init__(self, a, b, noise_std=1.0, rate=1.0):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.noise_std = float(noise_std)
        self.rate = float(rate)

    @property
    def noise_cov(self):
        return np.array([[self.noise_std**2]])

    def mean(self, x, theta):
        theta = np.asarray(theta, dtype=float)
        quad = 0.5 * np.einsum("...i,ij,...j->...", theta, self.a, theta)
        return (quad + theta @ self.b)[..., None]

    def jacobian(self, x, theta):
        theta = np.asarray(theta, dtype=float)
        return (theta @ self.a.T + self.b)[..., None, :]


class ShrinkingJacobianSensor(Sensor):
    """Jacobian b (1 - |theta|^2 / c) with c = X: the information falls off
    from the prior mean, so the Taylor correction is -4 sigma^2 / c times the
    centre value and drives it indefinite wherever c < 4 sigma^2."""

    theta_dim = 2

    def __init__(self, b, rate=1.0):
        self.b = np.asarray(b, dtype=float)
        self.rate = float(rate)

    @property
    def noise_cov(self):
        return np.array([[1.0]])

    def mean(self, x, theta):
        raise NotImplementedError

    def jacobian(self, x, theta):
        x = np.asarray(x, dtype=float)
        theta = np.asarray(theta, dtype=float)
        shrink = 1.0 - np.sum(theta * theta, axis=-1) / x[..., 0]
        return (shrink[..., None] * self.b)[..., None, :]


class TestDopplerMean:
    def test_directly_above_reads_zero(self):
        sen = make_sensor(altitude=1000.0)
        x = np.array([10.0, -5.0, 0.7])
        theta = np.array([10.0, -5.0])
        assert doppler_mean(sen, x, theta) == pytest.approx(0.0, abs=1e-12)

    def test_receding_target_reads_minus_kappa_v(self):
        # flying along +X with the target directly behind at ground level
        sen = make_sensor(altitude=0.0, scale=3.33)
        x = np.array([100.0, 20.0, 0.0])
        theta = np.array([100.0 - 40.0, 20.0])
        assert doppler_mean(sen, x, theta) == pytest.approx(-3.33 * SPEED, rel=1e-12)

    def test_bounded_and_matches_range_rate(self):
        rng = np.random.default_rng(21)
        sen = make_sensor()
        for _ in range(50):
            x = np.array([rng.uniform(-500, 500), rng.uniform(-500, 500), rng.uniform(-3, 3)])
            theta = rng.uniform(-50, 50, size=2)
            shift = doppler_mean(sen, x, theta)
            assert abs(shift) <= sen.frequency_scale * SPEED + 1e-9
            # central finite difference of the range along the motion
            dt = 1e-4
            vel = SPEED * np.array([math.cos(x[2]), math.sin(x[2]), 0.0])
            rel = np.array([x[0] - theta[0], x[1] - theta[1], sen.altitude])
            r_plus = np.linalg.norm(rel + vel * dt)
            r_minus = np.linalg.norm(rel - vel * dt)
            range_rate = (r_plus - r_minus) / (2.0 * dt)
            assert shift == pytest.approx(-sen.frequency_scale * range_rate, rel=1e-6)

    def test_reads_the_sensor_speed(self):
        x = np.array([120.0, -80.0, 0.9])
        theta = np.array([10.0, -5.0])
        fast = make_sensor(speed=2.0 * SPEED)
        assert doppler_mean(fast, x, theta) == 2.0 * doppler_mean(make_sensor(), x, theta)
        assert np.array_equal(
            doppler_jacobian(fast, x, theta), 2.0 * doppler_jacobian(make_sensor(), x, theta)
        )

    def test_coincident_geometry_raises(self):
        sen = make_sensor(altitude=0.0)
        with pytest.raises(GeometryError):
            doppler_mean(sen, np.array([1.0, 2.0, 0.0]), np.array([1.0, 2.0]))


class TestDopplerJacobian:
    def test_cross_track_component_vanishes_above_target(self):
        sen = make_sensor(altitude=1000.0)
        x = np.array([3.0, 4.0, 0.0])  # velocity along +X
        jac = doppler_jacobian(sen, x, np.array([3.0, 4.0]))
        assert jac.shape == (1, 2)
        assert jac[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        sen = make_sensor()
        step = 1e-3
        for _ in range(50):
            x = np.array([rng.uniform(-500, 500), rng.uniform(-500, 500), rng.uniform(-3, 3)])
            theta = rng.uniform(-50, 50, size=2)
            jac = doppler_jacobian(sen, x, theta)
            for j in range(2):
                dt = np.zeros(2)
                dt[j] = step
                fd = (
                    doppler_mean(sen, x, theta + dt)
                    - doppler_mean(sen, x, theta - dt)
                ) / (2.0 * step)
                assert jac[0, j] == pytest.approx(fd, rel=1e-6, abs=1e-12)

    def test_linear_in_frequency_scale(self):
        x = np.array([30.0, -20.0, 1.0])
        theta = np.array([5.0, 5.0])
        j1 = doppler_jacobian(make_sensor(scale=3.33), x, theta)
        j2 = doppler_jacobian(make_sensor(scale=6.66), x, theta)
        assert np.allclose(j2, 2.0 * j1, rtol=1e-15)


class TestConditionalFim:
    def test_rank_one_scalar_sensor(self):
        sen = ConstJacobianSensor([2.0, 0.0], noise_std=1.0)
        q = conditional_fim(sen, np.zeros(3), np.zeros(2))
        assert np.allclose(q, np.diag([4.0, 0.0]))

    def test_correlated_jacobian(self):
        sen = ConstJacobianSensor([1.0, 1.0], noise_std=math.sqrt(2.0))
        q = conditional_fim(sen, np.zeros(3), np.zeros(2))
        assert np.allclose(q, [[0.5, 0.5], [0.5, 0.5]])

    def test_matches_monte_carlo_score_outer_product(self):
        # draws of y ~ N(mu, sigma^2); score outer products average to the FIM
        rng = np.random.default_rng(23)
        sen = make_sensor()
        x = np.array([120.0, -80.0, 0.9])
        theta = np.array([10.0, -5.0])
        mu = doppler_mean(sen, x, theta)
        jac = doppler_jacobian(sen, x, theta)[0]
        n = 100_000
        y = mu + sen.noise_std * rng.standard_normal(n)
        scores = ((y - mu) / sen.noise_std**2)[:, None] * jac
        fim_mc = scores.T @ scores / n
        fim = conditional_fim(sen, x, theta)
        rel = np.linalg.norm(fim - fim_mc) / np.linalg.norm(fim)
        assert rel < 0.05

    def test_psd_at_random_poses(self):
        rng = np.random.default_rng(24)
        sen = make_sensor()
        x = np.column_stack(
            [
                rng.uniform(-1000, 1000, size=1000),
                rng.uniform(-1000, 1000, size=1000),
                rng.uniform(-math.pi, math.pi, size=1000),
            ]
        )
        q = conditional_fim(sen, x, np.zeros(2))
        assert q.shape == (1000, 2, 2)
        assert np.min(np.linalg.eigvalsh(q)) >= -1e-12

    def test_rotation_invariance_of_eigenvalues(self):
        rng = np.random.default_rng(25)
        sen = make_sensor()
        for _ in range(20):
            x = np.array([rng.uniform(-300, 300), rng.uniform(-300, 300), rng.uniform(-3, 3)])
            theta = rng.uniform(-40, 40, size=2)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
            x_rot = np.array([*(rot @ x[:2]), x[2] + phi])
            q = conditional_fim(sen, x, theta)
            q_rot = conditional_fim(sen, x_rot, rot @ theta)
            assert np.allclose(
                np.linalg.eigvalsh(q), np.linalg.eigvalsh(q_rot), rtol=0.0, atol=1e-10
            )


class TestExpectedFim:
    def test_exact_for_quadratic_information(self):
        a = np.array([[0.08, 0.02], [0.02, 0.05]])
        b = np.array([0.7, -0.4])
        sigma_theta = np.array([[9.0, 2.0], [2.0, 16.0]])
        sen = QuadraticMeanSensor(a, b, noise_std=1.3)
        prior = GaussianPrior(np.array([1.0, -2.0]), sigma_theta)
        j_mean = a @ prior.mean + b
        closed = (np.outer(j_mean, j_mean) + a @ sigma_theta @ a.T) / sen.noise_std**2
        got = expected_fim(sen, np.zeros(3), prior)
        assert np.allclose(got, closed, atol=1e-8)

    def test_matches_monte_carlo_over_prior(self):
        rng = np.random.default_rng(26)
        sen = make_sensor()
        prior = GaussianPrior.isotropic(10.0)
        x = np.array([50.0, -36.6, -math.pi])
        draws = rng.multivariate_normal(prior.mean, prior.covariance, size=100_000)
        q_mc = conditional_fim(sen, x, draws).mean(axis=0)
        q_taylor = expected_fim(sen, x, prior)
        rel = np.linalg.norm(q_taylor - q_mc) / np.linalg.norm(q_mc)
        assert rel < 0.05

    def test_continuity_as_covariance_shrinks(self):
        sen = make_sensor()
        x = np.array([80.0, 10.0, 1.2])
        base = conditional_fim(sen, x, np.zeros(2))
        gaps = []
        for std in (10.0, 1.0, 0.1):
            prior = GaussianPrior.isotropic(std)
            gaps.append(np.linalg.norm(expected_fim(sen, x, prior) - base))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-6 * np.linalg.norm(base) + 1e-12

    def test_batched_over_states(self):
        sen = make_sensor()
        prior = GaussianPrior.isotropic(10.0)
        xs = np.array([[50.0, 0.0, 0.0], [0.0, 50.0, 1.0], [-30.0, -30.0, -2.0]])
        batch = expected_fim(sen, xs, prior)
        for k in range(3):
            assert np.allclose(batch[k], expected_fim(sen, xs[k], prior))


class TestKernelAgainstReference:
    """The kernel (stencil and noise information built once, 2x2 screen in
    front of the eigh repair) against the earlier per-call kernel."""

    @pytest.fixture(scope="class")
    def shipped(self):
        scenario = load_scenario(SINGLE_PATH)
        return scenario.build_sensors(), scenario.prior(), scenario.grid()

    def test_bit_identical_on_shipped_grid(self, shipped):
        sensors, prior, grid = shipped
        mesh = grid.mesh().reshape(-1, 3)
        ref = reference_quiet(sensors[0], mesh, prior)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert same_bits(expected_fim(sensors[0], mesh, prior), ref)
            assert same_bits(suite_info_rate(sensors, prior)(mesh), vec(sensors[0].rate * ref))

    def test_bit_identical_at_random_states(self, shipped):
        sensors, prior, _ = shipped
        rng = np.random.default_rng(31)
        n = 20_000
        x = np.column_stack(
            [
                rng.uniform(-1700.0, 1700.0, n),
                rng.uniform(-1700.0, 1700.0, n),
                rng.uniform(-math.pi, math.pi, n),
            ]
        )
        ref = reference_quiet(sensors[0], x, prior)
        got = suite_fim(sensors, x, prior)
        assert same_bits(got, sensors[0].rate * ref)
        for k in range(0, n, 2857):  # one state at a time: the same bits
            assert same_bits(expected_fim(sensors[0], x[k], prior), ref[k])

    def test_bit_identical_where_the_repair_runs(self, shipped, monkeypatch):
        # directly above the prior mean the correction leaves roundoff-level
        # negative eigenvalues, which the eigh repair clips
        sensors, prior, grid = shipped
        mesh = grid.mesh()
        x = mesh[20, 20]  # X = Y = 0, every heading
        assert np.all(x[:, :2] == 0.0)
        repaired = []
        repair = sensing._clip_or_fall_back

        def spy(out, center):
            fixed = repair(out, center)
            repaired.append(int(np.count_nonzero(np.any(fixed != out, axis=(-2, -1)))))
            return fixed

        monkeypatch.setattr(sensing, "_clip_or_fall_back", spy)
        got = expected_fim(sensors[0], x, prior)
        assert len(repaired) == 1 and repaired[0] > 0
        assert same_bits(got, reference_quiet(sensors[0], x, prior))

    def test_quadratic_sensor_with_cross_terms(self):
        a = np.array([[0.08, 0.02], [0.02, 0.05]])
        b = np.array([0.7, -0.4])
        sen = QuadraticMeanSensor(a, b, noise_std=1.3)
        prior = GaussianPrior(np.array([1.0, -2.0]), np.array([[9.0, 2.0], [2.0, 16.0]]))
        x = np.zeros((5, 3))
        ref = reference_quiet(sen, x, prior)
        got = expected_fim(sen, x, prior)
        assert np.allclose(got, ref, rtol=1e-12, atol=0.0)
        total = suite_fim([sen], x, prior)
        assert np.allclose(total, ref, rtol=1e-12, atol=0.0)

    def test_three_parameter_prior_without_the_screen(self):
        a = np.array([[0.08, 0.02, 0.01], [0.02, 0.05, 0.0], [0.01, 0.0, 0.03]])
        sen = QuadraticMeanSensor(a, np.array([0.7, -0.4, 0.2]), noise_std=1.3)
        sen.theta_dim = 3
        cov = np.array([[9.0, 2.0, 0.0], [2.0, 16.0, 1.0], [0.0, 1.0, 4.0]])
        prior = GaussianPrior(np.array([1.0, -2.0, 0.5]), cov)
        x = np.zeros((4, 3))
        assert np.allclose(expected_fim(sen, x, prior), reference_quiet(sen, x, prior),
                           rtol=1e-12, atol=0.0)

    def test_breakdown_warns_once_and_falls_back(self):
        # c = X = 1, 2 break down (c < 4 sigma^2 with sigma = 1); 10, 100 do not
        sen = ShrinkingJacobianSensor([1.0, 2.0])
        prior = GaussianPrior.isotropic(1.0)
        x = np.array([[1.0, 0.0, 0.0], [10.0, 0.0, 0.0], [2.0, 0.0, 0.0], [100.0, 0.0, 0.0]])
        with pytest.warns(RuntimeWarning) as record:
            got = expected_fim(sen, x, prior)
        messages = [str(w.message) for w in record]
        assert len(messages) == 1
        assert messages[0].startswith(FALLBACK_WARNING)
        assert "indefinite at 2 state(s)" in messages[0]
        assert same_bits(got, reference_quiet(sen, x, prior))
        center = conditional_fim(sen, x, prior.mean)
        assert same_bits(got[[0, 2]], center[[0, 2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no breakdown, no warning
            expected_fim(sen, x[[1, 3]], prior)

    def test_breakdown_warning_points_at_the_caller(self):
        sen = ShrinkingJacobianSensor([1.0, 2.0])
        with pytest.warns(RuntimeWarning, match=FALLBACK_WARNING) as record:
            expected_fim(sen, np.array([1.0, 0.0, 0.0]), GaussianPrior.isotropic(1.0))
        assert Path(record[0].filename).name == Path(__file__).name

    def test_suite_fallbacks_warn_per_call(self):
        sen = ShrinkingJacobianSensor([1.0, 2.0])
        prior = GaussianPrior.isotropic(1.0)
        rate = suite_info_rate([sen], prior)
        x = np.array([[1.0, 0.0, 0.0], [10.0, 0.0, 0.0]])
        with pytest.warns(RuntimeWarning, match=FALLBACK_WARNING) as record:
            rate(x)
            rate(x[0])
        assert len(record) == 2


class TestPriorFim:
    def test_isotropic(self):
        prior = GaussianPrior.isotropic(10.0)
        assert np.allclose(prior_fim(prior), np.eye(2) / 100.0)

    def test_diagonal(self):
        prior = GaussianPrior(np.zeros(2), np.diag([4.0, 9.0]))
        assert np.allclose(prior_fim(prior), np.diag([0.25, 1.0 / 9.0]))

    def test_matches_monte_carlo_score(self):
        rng = np.random.default_rng(27)
        cov = np.array([[4.0, 1.2], [1.2, 3.0]])
        prior = GaussianPrior(np.array([1.0, -1.0]), cov)
        draws = rng.multivariate_normal(prior.mean, cov, size=100_000)
        scores = np.linalg.solve(cov, (prior.mean - draws).T).T
        mc = scores.T @ scores / draws.shape[0]
        assert np.linalg.norm(mc - prior_fim(prior)) / np.linalg.norm(mc) < 0.02


class TestSuiteFim:
    def test_single_unit_rate(self):
        sen = make_sensor(rate=1.0)
        prior = GaussianPrior.isotropic(10.0)
        x = np.array([50.0, -36.6, 0.0])
        total = suite_fim([sen], x, prior)
        assert np.allclose(total, expected_fim(sen, x, prior))

    def test_rate_linearity(self):
        prior = GaussianPrior.isotropic(10.0)
        x = np.array([50.0, -36.6, 0.0])
        single = [make_sensor(rate=1.0)]
        pair = [make_sensor(rate=1.0), make_sensor(rate=2.0)]
        one = suite_fim(single, x, prior)
        combo = suite_fim(pair, x, prior)
        assert np.allclose(combo, 3.0 * one, rtol=1e-12)

    def test_orthogonal_rank_one_sensors(self):
        prior = GaussianPrior.isotropic(10.0)
        sensors = [
            ConstJacobianSensor([2.0, 0.0], rate=1.0),
            ConstJacobianSensor([0.0, 3.0], rate=2.0),
        ]
        q = suite_fim(sensors, np.zeros(3), prior)
        assert np.allclose(np.sort(np.linalg.eigvalsh(q)), [4.0, 18.0])

    def test_calls_reuse_the_noise_information(self, monkeypatch):
        sensors = [make_sensor(), make_sensor(noise_std=2.0, rate=2.0)]
        prior = GaussianPrior.isotropic(10.0)
        rate = suite_info_rate(sensors, prior)
        factored = []

        def spy(matrix):
            factored.append(matrix)
            return cholesky_spd(matrix)

        monkeypatch.setattr(sensing, "cholesky_spd", spy)
        x = np.array([[50.0, -36.6, 0.0], [0.0, 50.0, 1.0]])
        rate(x)
        rate(x[0])
        assert factored == []
        assert prior.taylor_stencil is prior.taylor_stencil

    def test_dimension_mismatch(self):
        bad = ConstJacobianSensor([1.0, 0.0])
        bad.theta_dim = 3
        with pytest.raises(DimensionError):
            suite_info_rate([make_sensor(), bad], GaussianPrior.isotropic(10.0))
