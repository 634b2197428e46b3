import math

import numpy as np
import pytest

from infotraj.grid import (
    Axis,
    ExtrapolationError,
    GridSpec,
    backward_difference,
    forward_difference,
    interpolate,
    load_array,
    save_array,
    upwind_gradients,
)


def line_grid(lo=-1.0, hi=1.0, n=21, periodic=False):
    return GridSpec((Axis(lo, hi, n, periodic),))


class TestAxis:
    def test_non_periodic_spacing_includes_endpoints(self):
        ax = Axis(0.0, 1.0, 11)
        assert ax.spacing == pytest.approx(0.1)
        assert ax.nodes[-1] == pytest.approx(1.0)

    def test_periodic_spacing_drops_seam(self):
        ax = Axis(-math.pi, math.pi, 32, periodic=True)
        assert ax.spacing == pytest.approx(2.0 * math.pi / 32)
        assert ax.nodes[-1] < math.pi  # no duplicated seam point

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            Axis(0.0, 1.0, 2)


class TestDifferences:
    def test_linear_field_exact_everywhere(self):
        grid = line_grid()
        a = 2.5
        phi = a * grid.axes[0].nodes
        dm = backward_difference(phi, grid, 0)
        dp = forward_difference(phi, grid, 0)
        assert np.allclose(dm, a, atol=1e-12)
        assert np.allclose(dp, a, atol=1e-12)

    def test_periodic_sine_taylor_bound(self):
        grid = GridSpec((Axis(-math.pi, math.pi, 64, periodic=True),))
        psi = grid.axes[0].nodes
        phi = np.sin(psi)
        h = grid.axes[0].spacing
        for diff in (backward_difference(phi, grid, 0), forward_difference(phi, grid, 0)):
            assert np.max(np.abs(diff - np.cos(psi))) <= 0.5 * h + 1e-12

    def test_kink_one_sided_slopes(self):
        grid = line_grid(-1.0, 1.0, 21)
        phi = np.abs(grid.axes[0].nodes)
        k = 10  # the node at x = 0
        assert backward_difference(phi, grid, 0)[k] == pytest.approx(-1.0)
        assert forward_difference(phi, grid, 0)[k] == pytest.approx(1.0)

    def test_one_sided_agreement_on_smooth_fields(self):
        grid = line_grid(0.0, 1.0, 101)
        x = grid.axes[0].nodes
        phi = np.exp(x)
        dm = backward_difference(phi, grid, 0)
        dp = forward_difference(phi, grid, 0)
        assert np.max(np.abs(dp - dm)) < 0.05  # O(h) with h = 0.01, |phi''| <= e

    def test_bracket_derivative_for_convex_section(self):
        grid = line_grid(-1.0, 1.0, 41)
        x = grid.axes[0].nodes
        phi = x**2
        dm = backward_difference(phi, grid, 0)
        dp = forward_difference(phi, grid, 0)
        inner = slice(1, -1)
        assert np.all(dm[inner] <= 2.0 * x[inner] + 1e-12)
        assert np.all(dp[inner] >= 2.0 * x[inner] - 1e-12)

    def test_periodic_shift_permutes_gradients(self):
        grid = GridSpec((Axis(-math.pi, math.pi, 16, periodic=True),))
        rng = np.random.default_rng(5)
        phi = rng.normal(size=16)
        dm = backward_difference(phi, grid, 0)
        dm_shifted = backward_difference(np.roll(phi, 3), grid, 0)
        assert np.allclose(dm_shifted, np.roll(dm, 3))

    def test_trailing_component_axes(self):
        grid = GridSpec((Axis(0.0, 1.0, 5), Axis(0.0, 1.0, 4)))
        values = np.arange(5 * 4 * 3, dtype=float).reshape(5, 4, 3)
        out = forward_difference(values, grid, 0)
        assert out.shape == values.shape

    def test_upwind_gradients_returns_both_sides_per_axis(self):
        grid = GridSpec.vehicle_plane((-1.0, 1.0), (-1.0, 1.0), 5, 5, 8)
        phi = np.zeros(grid.shape)
        minus, plus = upwind_gradients(phi, grid)
        assert len(minus) == 3 and len(plus) == 3


class TestInterpolate:
    def test_nodal_values_exact(self):
        grid = GridSpec.vehicle_plane((-2.0, 2.0), (-2.0, 2.0), 5, 5, 8)
        rng = np.random.default_rng(6)
        values = rng.normal(size=grid.shape)
        mesh = grid.mesh()
        for idx in [(0, 0, 0), (2, 3, 5), (4, 4, 7)]:
            assert interpolate(values, grid, mesh[idx]) == pytest.approx(values[idx])

    def test_multilinear_field_exact(self):
        grid = GridSpec((Axis(0.0, 1.0, 5), Axis(0.0, 2.0, 7)))
        mesh = grid.mesh()
        values = 2.0 + 3.0 * mesh[..., 0] - mesh[..., 1] + 0.5 * mesh[..., 0] * mesh[..., 1]
        rng = np.random.default_rng(7)
        for _ in range(20):
            pt = np.array([rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0)])
            truth = 2.0 + 3.0 * pt[0] - pt[1] + 0.5 * pt[0] * pt[1]
            assert interpolate(values, grid, pt) == pytest.approx(truth, abs=1e-12)

    def test_smooth_field_second_order(self):
        def error_at(n):
            grid = GridSpec((Axis(0.0, 1.0, n),))
            values = np.sin(3.0 * grid.axes[0].nodes)
            pts = np.linspace(0.05, 0.95, 17)
            return max(
                abs(interpolate(values, grid, np.array([p])) - math.sin(3.0 * p)) for p in pts
            )

        ratio = error_at(41) / error_at(81)
        assert 3.0 < ratio < 5.0  # O(h^2)

    def test_heading_interpolation_wraps(self):
        grid = GridSpec((Axis(-math.pi, math.pi, 8, periodic=True),))
        values = np.cos(grid.axes[0].nodes)
        # query between the last node and the seam
        q = math.pi - 0.1
        got = interpolate(values, grid, np.array([q]))
        h = grid.axes[0].spacing
        last = grid.axes[0].nodes[-1]
        frac = (q - last) / h
        expected = (1.0 - frac) * values[-1] + frac * values[0]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_no_overshoot(self):
        grid = GridSpec((Axis(0.0, 1.0, 4), Axis(0.0, 1.0, 4)))
        rng = np.random.default_rng(8)
        values = rng.normal(size=grid.shape)
        for _ in range(50):
            pt = rng.uniform(0.0, 1.0, size=2)
            got = interpolate(values, grid, pt)
            assert values.min() - 1e-12 <= got <= values.max() + 1e-12

    def test_out_of_bounds_raises(self):
        grid = GridSpec.vehicle_plane((-1.0, 1.0), (-1.0, 1.0), 5, 5, 8)
        values = np.zeros(grid.shape)
        with pytest.raises(ExtrapolationError):
            interpolate(values, grid, np.array([1.5, 0.0, 0.0]))

    def test_vector_components_carried(self):
        grid = GridSpec((Axis(0.0, 1.0, 5),))
        values = np.stack([grid.axes[0].nodes, 2.0 * grid.axes[0].nodes], axis=-1)
        got = interpolate(values, grid, np.array([0.25]))
        assert np.allclose(got, [0.25, 0.5])


class TestGridIO:
    def test_spec_round_trip(self):
        grid = GridSpec.vehicle_plane((-400.0, 400.0), (-300.0, 300.0), 41, 31, 32)
        assert GridSpec.from_dict(grid.to_dict()) == grid

    def test_array_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        arr = rng.normal(size=(4, 5, 6))
        path = tmp_path / "field.bin"
        save_array(path, arr)
        assert np.array_equal(load_array(path, (4, 5, 6)), arr)
