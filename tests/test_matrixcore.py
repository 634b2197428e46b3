from pathlib import Path

import numpy as np
import pytest

from infotraj.matrixcore import (
    FLOW_WORK,
    DimensionError,
    LogDetMetric,
    NotPositiveDefiniteError,
    _flow_lapack,
    curvature_contraction,
    logdet_spd,
    sym_pack,
    sym_unpack,
    unvec,
    vec,
)

REPO = Path(__file__).resolve().parents[1]


def random_spd(rng, p, jitter=0.5):
    a = rng.normal(size=(p, p))
    return a @ a.T + jitter * np.eye(p)


def random_psd(rng, p):
    a = rng.normal(size=(p, max(1, p - 1)))
    return a @ a.T


def packed_gradient(metric, z):
    """The packed entries of G_z(z) = -vec(Z^-T) for a (..., p*p) batch of
    states."""
    return sym_pack(unvec(metric.gradient(z)))


def scratch(values):
    """The flow's work array for values, the shape a march passes."""
    return np.empty((FLOW_WORK,) + np.shape(values))


def cofactor_det(mat):
    """Brute-force determinant by cofactor expansion along the first row."""
    n = mat.shape[0]
    if n == 1:
        return mat[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(mat, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * mat[0, j] * cofactor_det(minor)
    return total


class TestVec:
    def test_identity_2x2(self):
        assert np.array_equal(vec(np.eye(2)), [1.0, 0.0, 0.0, 1.0])

    def test_column_major_stacking(self):
        assert np.array_equal(vec([[1.0, 2.0], [2.0, 3.0]]), [1.0, 2.0, 2.0, 3.0])

    def test_column_major_on_asymmetric(self):
        # columns (1, 3) then (2, 4)
        assert np.array_equal(vec([[1.0, 2.0], [3.0, 4.0]]), [1.0, 3.0, 2.0, 4.0])

    def test_round_trip_random_symmetric(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(3, 3))
        z = 0.5 * (a + a.T)
        assert np.array_equal(unvec(vec(z)), z)

    def test_round_trip_all_dims(self):
        rng = np.random.default_rng(8)
        for p in range(1, 6):
            z = rng.normal(size=(p, p))
            assert np.array_equal(unvec(vec(z)), z)
            v = rng.normal(size=p * p)
            assert np.array_equal(vec(unvec(v)), v)

    def test_batched(self):
        rng = np.random.default_rng(9)
        z = rng.normal(size=(4, 5, 3, 3))
        assert np.array_equal(unvec(vec(z)), z)


class TestUnvec:
    def test_identity(self):
        assert np.array_equal(unvec([1.0, 0.0, 0.0, 1.0]), np.eye(2))

    def test_symmetric_example(self):
        assert np.array_equal(unvec([1.0, 2.0, 2.0, 3.0]), [[1.0, 2.0], [2.0, 3.0]])

    def test_non_square_length_raises(self):
        with pytest.raises(DimensionError):
            unvec(np.zeros(5))


class TestLogDetSpd:
    def test_identity(self):
        assert logdet_spd(np.eye(2)) == 0.0

    def test_diagonal(self):
        assert logdet_spd(np.diag([2.0, 3.0])) == pytest.approx(np.log(6.0), rel=1e-14)

    def test_matches_cofactor_determinant(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            z = random_spd(rng, 4)
            assert logdet_spd(z) == pytest.approx(np.log(cofactor_det(z)), rel=1e-10)

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            logdet_spd(np.diag([1.0, -1.0]))

    def test_asymmetric_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            logdet_spd(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_monotone_under_psd_increment(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            z = random_spd(rng, 3)
            d = random_psd(rng, 3)
            assert logdet_spd(z + d) >= logdet_spd(z) - 1e-12


class TestLogDetMetric:
    def test_value_identity(self):
        metric = LogDetMetric(2)
        assert metric.value(vec(np.eye(2))) == 0.0

    def test_value_diagonal(self):
        metric = LogDetMetric(2)
        assert metric.value(vec(np.diag([2.0, 3.0]))) == pytest.approx(-np.log(6.0))

    def test_normalized_gain_zero_at_reference(self):
        metric = LogDetMetric(2)
        z0 = vec(np.diag([0.01, 0.01]))
        assert metric.normalized_gain(z0, z0) == 0.0

    def test_normalized_gain_offsets_prior(self):
        metric = LogDetMetric(2)
        z0 = vec(np.diag([0.25, 4.0]))
        z = vec(np.diag([1.0, 8.0]))
        expected = -np.log(8.0) + np.log(1.0)  # -logdet(Z) + logdet(Z0)
        assert metric.normalized_gain(z, z0) == pytest.approx(expected, rel=1e-12)

    def test_gradient_identity(self):
        metric = LogDetMetric(2)
        assert np.array_equal(metric.gradient(vec(np.eye(2))), -vec(np.eye(2)))

    def test_gradient_diagonal(self):
        metric = LogDetMetric(2)
        got = metric.gradient(vec(np.diag([2.0, 4.0])))
        assert np.allclose(got, -vec(np.diag([0.5, 0.25])), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("p", [2, 3])
    def test_gradient_matches_finite_differences(self, p):
        rng = np.random.default_rng(12)
        metric = LogDetMetric(p)
        step = 1e-6
        for _ in range(100):
            z = vec(random_spd(rng, p))
            grad = unvec(metric.gradient(z))
            # symmetric probes: Z_jj + step, or Z_jk and Z_kj + step / 2
            for j, k in zip(*np.triu_indices(p)):
                probe = np.zeros((p, p))
                probe[j, k] = probe[k, j] = step if j == k else 0.5 * step
                zp, zm = z + vec(probe), z - vec(probe)
                fd = (metric.value(zp) - metric.value(zm)) / (2.0 * step)
                assert fd == pytest.approx(grad[j, k], rel=1e-5, abs=1e-8)

    def test_gradient_is_symmetric_matrix(self):
        rng = np.random.default_rng(13)
        metric = LogDetMetric(3)
        z = vec(random_spd(rng, 3))
        gmat = unvec(metric.gradient(z))
        assert np.allclose(gmat, gmat.T, atol=1e-12)

    def test_value_refuses_asymmetric_state(self):
        # an information state is symmetric: Z_10 + 1e-3 alone is refused
        metric = LogDetMetric(2)
        z = vec(np.diag([1.0, 1.0]))
        z[1] += 1e-3
        with pytest.raises(NotPositiveDefiniteError, match="not symmetric"):
            metric.value(z)

    def test_value_rejects_nonpositive_state(self):
        metric = LogDetMetric(2)
        with pytest.raises(NotPositiveDefiniteError):
            metric.value(vec(np.diag([1.0, -2.0])))

    def test_value_batch_equals_loop(self):
        rng = np.random.default_rng(14)
        metric = LogDetMetric(2)
        zs = np.stack([vec(random_spd(rng, 2)) for _ in range(6)]).reshape(2, 3, 4)
        batch = metric.value(zs)
        assert batch.shape == (2, 3)
        loop = np.array([[metric.value(z) for z in row] for row in zs])
        assert np.array_equal(batch, loop)

    @pytest.mark.parametrize("p", [2, 3])
    def test_gradient_batch_equals_loop(self, p):
        rng = np.random.default_rng(15)
        metric = LogDetMetric(p)
        zs = np.stack([vec(random_spd(rng, p)) for _ in range(12)]).reshape(3, 4, p * p)
        zs[1, 2, 1] += 1e-3  # an asymmetric probe: its gradient is no longer symmetric
        batch = metric.gradient(zs)
        assert batch.shape == (3, 4, p * p)
        loop = np.array([[metric.gradient(z) for z in row] for row in zs])
        assert np.array_equal(batch, loop)

    def test_value_batch_rejects_one_nonpositive_state(self):
        metric = LogDetMetric(2)
        zs = np.stack([vec(np.eye(2)), vec(np.diag([1.0, -2.0])), vec(np.eye(2))])
        with pytest.raises(NotPositiveDefiniteError):
            metric.value(zs)
        zs[1, 1] = 1e-3  # asymmetric and with a negative determinant
        with pytest.raises(NotPositiveDefiniteError):
            metric.value(zs)


class TestCurvatureContraction:
    def test_identity_case(self):
        got = curvature_contraction(np.eye(2), -vec(np.eye(2)))
        assert np.array_equal(got, vec(np.eye(2)))

    def test_diagonal_case(self):
        grad = -vec(np.diag([0.5, 1.0]))  # -inv(diag(2, 1))
        got = curvature_contraction(np.diag([4.0, 0.0]), grad)
        assert np.allclose(got, vec(np.diag([1.0, 0.0])), atol=1e-15)

    def test_matches_finite_differences(self):
        # d/dz of <gradient(z), vec(Q)> against nested central differences
        rng = np.random.default_rng(14)
        metric = LogDetMetric(3)
        step = 1e-6
        for _ in range(100):
            z = vec(random_spd(rng, 3))
            q = random_psd(rng, 3)
            analytic = curvature_contraction(q, metric.gradient(z))
            vq = vec(q)
            for j in range(9):
                zp, zm = z.copy(), z.copy()
                zp[j] += step
                zm[j] -= step
                fd = (metric.gradient(zp) @ vq - metric.gradient(zm) @ vq) / (2.0 * step)
                assert fd == pytest.approx(analytic[j], rel=1e-5, abs=1e-7)

    def test_output_symmetric_psd_for_psd_rate(self):
        rng = np.random.default_rng(15)
        metric = LogDetMetric(3)
        for _ in range(50):
            z = vec(random_spd(rng, 3))
            q = random_psd(rng, 3)
            out = unvec(curvature_contraction(q, metric.gradient(z)))
            assert np.allclose(out, out.T, atol=1e-10)
            assert np.min(np.linalg.eigvalsh(0.5 * (out + out.T))) >= -1e-10

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionError):
            curvature_contraction(np.eye(3), -vec(np.eye(2)))

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(16)
        qs = np.stack([random_psd(rng, 2) for _ in range(6)])
        grads = rng.normal(size=(6, 4))
        batched = curvature_contraction(qs, grads)
        for k in range(6):
            assert np.allclose(batched[k], curvature_contraction(qs[k], grads[k]))


class TestSymPack:
    def test_order_and_round_trip(self):
        mat = np.array([[1.0, 2.0, 4.0], [2.0, 3.0, 5.0], [4.0, 5.0, 6.0]])
        packed = sym_pack(mat)
        # column by column from the diagonal down
        assert np.array_equal(packed, [1.0, 2.0, 4.0, 3.0, 5.0, 6.0])
        assert np.array_equal(sym_unpack(packed), mat)
        assert np.array_equal(sym_pack(np.array([[1.0, 2.0], [2.0, 3.0]])), [1.0, 2.0, 3.0])

    def test_equal_pairs_exact_and_unequal_pairs_averaged(self):
        rng = np.random.default_rng(41)
        a = rng.normal(size=(50, 3, 3))
        sym = a + np.swapaxes(a, -1, -2)
        assert np.array_equal(sym_unpack(sym_pack(sym)), sym)
        assert np.allclose(sym_unpack(sym_pack(a)), 0.5 * sym, rtol=0.0, atol=1e-15)

    def test_unpack_is_contiguous_vec(self):
        rng = np.random.default_rng(42)
        packed = rng.normal(size=(4, 5, 3))
        mats = sym_unpack(packed)
        assert mats.flags.c_contiguous and mats.shape == (4, 5, 2, 2)
        assert np.array_equal(mats.reshape(4, 5, 4), vec(mats))

    def test_writes_into_component_major_view(self):
        rng = np.random.default_rng(43)
        mats = rng.normal(size=(6, 7, 2, 2))
        stack = np.empty((3, 6, 7))
        sym_pack(mats, out=np.moveaxis(stack, 0, -1))
        assert np.array_equal(np.moveaxis(stack, 0, -1), sym_pack(mats))

    def test_bad_lengths_raise(self):
        with pytest.raises(DimensionError):
            sym_unpack(np.zeros(4))
        with pytest.raises(DimensionError):
            sym_pack(np.zeros((2, 3)))


class TestMetricFlow:
    def test_logdet_flow_is_exact(self):
        rng = np.random.default_rng(17)
        metric = LogDetMetric(2)
        z = random_spd(rng, 2, jitter=0.1)
        q = random_psd(rng, 2)
        value = np.array(metric.value(vec(z)))
        grad = packed_gradient(metric, vec(z))
        h = 7.0
        out = metric.flow(value, grad, sym_pack(q), h, scratch(value))
        # written in place and returned
        assert out[0] is value and out[1] is grad
        assert value == pytest.approx(metric.value(vec(z + h * q)), abs=1e-12)
        assert np.allclose(grad, packed_gradient(metric, vec(z + h * q)), atol=1e-12)

    def test_flow_batched(self):
        rng = np.random.default_rng(19)
        metric = LogDetMetric(2)
        zs = np.stack([random_spd(rng, 2) for _ in range(5)])
        qs = sym_pack(np.stack([random_psd(rng, 2) for _ in range(5)]))
        values = np.array([metric.value(vec(z)) for z in zs])
        grads = packed_gradient(metric, vec(zs))
        v_new, g_new = metric.flow(
            values.copy(), grads.copy(), qs, 0.5, scratch(values)
        )
        for k in range(5):
            v_k, g_k = metric.flow(
                values[k].copy(), grads[k].copy(), qs[k], 0.5, scratch(values[k])
            )
            assert v_new[k] == v_k
            assert np.array_equal(g_new[k], g_k)


class TestClosedFormFlow:
    """The packed p = 2 closed form against the general LAPACK branch (and,
    in test_hjsolver, against the closed form on four vec entries)."""

    @staticmethod
    def random_state(rng, n):
        zs = np.stack([random_spd(rng, 2, jitter=0.05) for _ in range(n)])
        qs = np.stack([random_psd(rng, 2) for _ in range(n)])
        metric = LogDetMetric(2)
        return metric.value(vec(zs)), packed_gradient(metric, vec(zs)), sym_pack(qs)

    @pytest.mark.parametrize("h", [1e-3, 0.37, 25.0])
    def test_matches_lapack_branch(self, h):
        rng = np.random.default_rng(31)
        values, grads, qs = self.random_state(rng, 400)
        v_closed, g_closed = LogDetMetric(2).flow(
            values.copy(), grads.copy(), qs, h, scratch(values)
        )
        v_lapack, g_lapack = _flow_lapack(values.copy(), grads.copy(), qs, h)
        np.testing.assert_allclose(v_closed, v_lapack, rtol=1e-12, atol=1e-12)
        scale = np.max(np.abs(g_lapack), axis=-1, keepdims=True)
        assert np.all(np.abs(g_closed - g_lapack) <= 1e-12 * scale)

    def test_component_major_view_gives_same_bits(self):
        # hybrid_solve passes Phi as an (..., k) view of a component-major
        # stack, and its own scratch
        rng = np.random.default_rng(32)
        values, grads, qs = self.random_state(rng, 400)
        stacked = np.ascontiguousarray(grads.T)
        work = np.full((6, 400), np.nan)
        v_view, g_view = LogDetMetric(2).flow(
            values.copy(), np.moveaxis(stacked, 0, -1), qs, 0.37, work
        )
        v_flat, g_flat = LogDetMetric(2).flow(
            values.copy(), grads.copy(), qs, 0.37, scratch(values)
        )
        assert np.array_equal(v_view, v_flat) and np.array_equal(g_view, g_flat)
        assert np.array_equal(stacked.T, g_flat)

    def test_one_indefinite_node_raises_and_writes_nothing(self):
        rng = np.random.default_rng(33)
        values, grads, qs = self.random_state(rng, 8)
        metric = LogDetMetric(2)
        bad_grad = grads.copy()
        bad_grad[5] = sym_pack(-np.linalg.inv(np.diag([1.0, -2.0])))
        before = (values.copy(), bad_grad.copy())
        with pytest.raises(NotPositiveDefiniteError):
            metric.flow(values, bad_grad, qs, 0.1, scratch(values))
        assert np.array_equal(values, before[0]) and np.array_equal(bad_grad, before[1])
        bad_rate = qs.copy()
        bad_rate[2] = sym_pack(np.diag([-1e6, 0.0]))  # one negative eigenvalue after the step
        with pytest.raises(NotPositiveDefiniteError):
            metric.flow(values, grads, bad_rate, 0.1, scratch(values))

    @pytest.mark.parametrize("kernel", ["closed_form", "lapack"])
    def test_negative_definite_state_raises(self, kernel):
        def flow(value, grad, rate, h):
            if kernel == "lapack":
                return _flow_lapack(value, grad, rate, h)
            return LogDetMetric(2).flow(value, grad, rate, h, scratch(value))

        # A = -I has det(A) = +1, so a determinant-sign check alone lets it pass
        minus_identity = sym_pack(np.eye(2))[None, :]  # grad = -A^-1 with A = -I
        with pytest.raises(NotPositiveDefiniteError):
            flow(np.zeros(1), minus_identity, np.zeros((1, 3)), 0.1)
        # A = I is fine, but A' = A + h Q = -2 I is not
        identity = sym_pack(-np.eye(2))[None, :]
        flow(np.zeros(1), identity.copy(), np.zeros((1, 3)), 0.1)
        with pytest.raises(NotPositiveDefiniteError):
            flow(np.zeros(1), identity, sym_pack(-30.0 * np.eye(2))[None], 0.1)

    def test_survey_solve_matches_lapack_kernel(self, monkeypatch):
        from infotraj.cli import load_scenario
        from infotraj.grid import GridSpec
        from infotraj.hjsolver import hybrid_solve, info_rate_on_grid

        def lapack_flow(self, value, grad, rate, h, work):
            return _flow_lapack(value, grad, rate, h)

        scenario = load_scenario(REPO / "scenarios" / "doppler_single_path.json")
        system = scenario.build_system()
        grid = GridSpec.vehicle_plane(scenario.x_extent, scenario.y_extent, 21, 21, 16)
        z0 = scenario.initial_information()
        ell = info_rate_on_grid(system, grid)
        horizon = scenario.horizon
        closed = hybrid_solve(system, grid, z0, horizon, info_rate_field=ell)
        monkeypatch.setattr(LogDetMetric, "flow", lapack_flow)
        lapack = hybrid_solve(system, grid, z0, horizon, info_rate_field=ell)
        assert closed.timings["steps"] == lapack.timings["steps"]
        d_phi = np.abs(closed.phi - lapack.phi)
        d_phi_z = np.linalg.norm(closed.phi_z - lapack.phi_z, axis=-1)
        rel_phi_z = d_phi_z / np.linalg.norm(lapack.phi_z, axis=-1)
        assert np.max(d_phi) <= 1e-9
        assert np.max(rel_phi_z) <= 1e-7
