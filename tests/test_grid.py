import math

import numpy as np
import pytest

import infotraj.grid as grid_module
from infotraj import hjsolver
from infotraj.grid import (
    Axis,
    ExtrapolationError,
    GridSpec,
    interpolate,
    load_array,
    save_array,
)


def line_grid(lo=-1.0, hi=1.0, n=21, periodic=False):
    return GridSpec((Axis(lo, hi, n, periodic),))


def one_sided(values, grid, axis=0):
    """(D-, D+) of one field along a grid axis from the march's ghost-row
    differences (hjsolver._ghost_differences on a one-component stack)."""
    stack = np.asarray(values, dtype=float)[None]
    bufs, minus, plus = hjsolver._ghost_difference_buffers(stack, grid, (0, grid.shape[0]))
    hjsolver._ghost_differences(stack, grid, bufs, (0, grid.shape[0]))
    return minus[axis][0], plus[axis][0]


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
        dm, dp = one_sided(phi, grid)
        assert np.allclose(dm, a, atol=1e-12)
        assert np.allclose(dp, a, atol=1e-12)

    def test_periodic_sine_taylor_bound(self):
        grid = GridSpec((Axis(-math.pi, math.pi, 64, periodic=True),))
        psi = grid.axes[0].nodes
        phi = np.sin(psi)
        h = grid.axes[0].spacing
        for diff in one_sided(phi, grid):
            assert np.max(np.abs(diff - np.cos(psi))) <= 0.5 * h + 1e-12

    def test_kink_one_sided_slopes(self):
        grid = line_grid(-1.0, 1.0, 21)
        phi = np.abs(grid.axes[0].nodes)
        k = 10  # the node at x = 0
        dm, dp = one_sided(phi, grid)
        assert dm[k] == pytest.approx(-1.0)
        assert dp[k] == pytest.approx(1.0)

    def test_one_sided_agreement_on_smooth_fields(self):
        grid = line_grid(0.0, 1.0, 101)
        x = grid.axes[0].nodes
        phi = np.exp(x)
        dm, dp = one_sided(phi, grid)
        assert np.max(np.abs(dp - dm)) < 0.05  # O(h) with h = 0.01, |phi''| <= e

    def test_bracket_derivative_for_convex_section(self):
        grid = line_grid(-1.0, 1.0, 41)
        x = grid.axes[0].nodes
        phi = x**2
        dm, dp = one_sided(phi, grid)
        inner = slice(1, -1)
        assert np.all(dm[inner] <= 2.0 * x[inner] + 1e-12)
        assert np.all(dp[inner] >= 2.0 * x[inner] - 1e-12)

    def test_periodic_shift_permutes_gradients(self):
        grid = GridSpec((Axis(-math.pi, math.pi, 16, periodic=True),))
        rng = np.random.default_rng(5)
        phi = rng.normal(size=16)
        dm = one_sided(phi, grid)[0]
        dm_shifted = one_sided(np.roll(phi, 3), grid)[0]
        assert np.allclose(dm_shifted, np.roll(dm, 3))

    def test_edge_slopes_extrapolate_value_and_clamp_sensitivities(self):
        grid = line_grid(0.0, 1.0, 5)
        x = grid.axes[0].nodes
        stack = np.stack([x**2, x**3])  # the value, then one sensitivity
        bufs, minus, plus = hjsolver._ghost_difference_buffers(stack, grid, (0, grid.shape[0]))
        hjsolver._ghost_differences(stack, grid, bufs, (0, grid.shape[0]))
        dm, dp = minus[0], plus[0]
        inner = np.diff(stack, axis=1) / grid.axes[0].spacing
        assert np.array_equal(dm[0], np.concatenate([inner[0, :1], inner[0]]))
        assert np.array_equal(dp[0], np.concatenate([inner[0], inner[0, -1:]]))
        assert dm[1, 0] == 0.0 and dp[1, -1] == 0.0
        assert np.allclose(dm[1, 1:], inner[1], rtol=1e-15, atol=0.0)

    def test_buffers_give_both_sides_per_axis(self):
        grid = GridSpec.vehicle_plane((-1.0, 1.0), (-1.0, 1.0), 5, 5, 8)
        stack = np.zeros((1,) + grid.shape)
        bufs, minus, plus = hjsolver._ghost_difference_buffers(stack, grid, (0, grid.shape[0]))
        assert len(minus) == 3 and len(plus) == 3
        assert all(m.shape == p.shape == stack.shape for m, p in zip(minus, plus))


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


def shipped_plane():
    return GridSpec.vehicle_plane((-1700.0, 1700.0), (-1700.0, 1700.0), 41, 41, 32)


class TestWindow:
    def test_interior_keeps_half_width_plus_margin(self):
        grid = shipped_plane()
        # 200 m is 2.35 cells of 85 m: nodes 18..22 around node 20, plus the margin
        sub, idx = grid.window([0.0, 0.0, 0.0], [200.0, 200.0, 0.1])
        m = grid_module.WINDOW_MARGIN_CELLS
        assert idx[:2] == (slice(18 - m, 23 + m), slice(18 - m, 23 + m))
        assert sub.shape == (5 + 2 * m, 5 + 2 * m, 32)
        field = np.arange(math.prod(grid.shape), dtype=float).reshape(grid.shape)
        assert field[idx].shape == sub.shape

    def test_periodic_axis_stays_whole(self):
        grid = shipped_plane()
        sub, idx = grid.window([0.0, 0.0, 1.0], [100.0, 100.0, 0.0])
        assert sub.axes[2] == grid.axes[2]
        assert idx[2] == slice(0, 32)

    def test_clipped_at_each_edge(self):
        grid = shipped_plane()
        m = grid_module.WINDOW_MARGIN_CELLS
        sub, idx = grid.window([-1700.0, 1700.0, 0.0], [200.0, 200.0, 0.0])
        assert idx[0] == slice(0, 3 + m) and idx[1] == slice(38 - m, 41)
        assert sub.axes[0].lo == -1700.0 and sub.axes[1].hi == 1700.0
        sub, idx = grid.window([1690.0, -1690.0, 0.0], [200.0, 200.0, 0.0])
        assert idx[0] == slice(38 - m, 41) and idx[1] == slice(0, 3 + m)
        assert sub.axes[0].hi == 1700.0 and sub.axes[1].lo == -1700.0

    def test_floor_of_three_nodes(self, monkeypatch):
        grid = shipped_plane()
        # a centre outside the grid keeps the 3 nodes nearest to it
        sub, idx = grid.window([-5000.0, 5000.0, 0.0], [0.0, 0.0, 0.0])
        assert idx[:2] == (slice(0, 3), slice(38, 41))
        monkeypatch.setattr(grid_module, "WINDOW_MARGIN_CELLS", 0)
        sub, idx = grid.window([0.0, 10.0, 0.0], [0.0, 0.0, 0.0])
        assert idx[:2] == (slice(19, 22), slice(19, 22))
        assert sub.shape == (3, 3, 32)

    def test_nodes_and_spacing_equal_the_parent_slice(self):
        grid = shipped_plane()
        sub, idx = grid.window([310.0, -1020.0, 0.0], [600.0, 450.0, 0.0])
        assert sub.shape[:2] != grid.shape[:2]
        for ax, parent, sl in zip(sub.axes, grid.axes, idx):
            assert np.array_equal(ax.nodes, parent.nodes[sl])
            assert ax.spacing == parent.spacing
        # nodes that are not exact binary numbers agree to rounding
        odd = GridSpec((Axis(-1.0, 2.3, 29), Axis(0.1, 0.7, 13)))
        sub, idx = odd.window([0.4, 0.3], [0.5, 0.1])
        assert sub.shape != odd.shape
        for ax, parent, sl in zip(sub.axes, odd.axes, idx):
            assert np.allclose(ax.nodes, parent.nodes[sl], rtol=0.0, atol=1e-14)
            assert ax.spacing == pytest.approx(parent.spacing, rel=1e-14)

    def test_wider_than_the_grid_returns_it(self):
        grid = shipped_plane()
        # leg 0 of the shipped sandwich: 60 s at 25 m/s from the shipped start
        sub, idx = grid.window([50.0, -36.6, -math.pi], np.array([25.0, 25.0, 0.05]) * 60.0)
        assert sub == grid
        assert idx == (slice(0, 41), slice(0, 41), slice(0, 32))
