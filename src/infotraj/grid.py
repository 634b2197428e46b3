"""Cartesian grid over the vehicle state (periodic heading axis), multilinear
interpolation, and flat-binary fields (written whole, mapped on read)."""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np


# cells kept beyond the requested half-width on each side of a window
WINDOW_MARGIN_CELLS = 4


class ExtrapolationError(ValueError):
    """A query point lies outside the non-periodic extent of the grid."""


def as_integer(value, name: str) -> int:
    """value as an int when it is an int or a float without a fraction; any
    other value (an infinity, a NaN, a string) raises ValueError naming name."""
    if not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} = {value!r} is not a finite integer")
    return int(value)


@dataclass(frozen=True)
class Axis:
    lo: float
    hi: float
    n: int
    periodic: bool = False

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"axis needs at least 3 points, got {self.n}")
        if not self.hi > self.lo:
            raise ValueError(f"axis extent [{self.lo}, {self.hi}] is empty")

    @property
    def spacing(self) -> float:
        # a periodic axis covers [lo, hi) with n cells and no duplicated seam
        span = self.hi - self.lo
        return span / self.n if self.periodic else span / (self.n - 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.lo + self.spacing * np.arange(self.n)


@dataclass(frozen=True)
class GridSpec:
    axes: tuple

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(ax.n for ax in self.axes)

    @property
    def spacings(self) -> np.ndarray:
        return np.array([ax.spacing for ax in self.axes])

    def mesh(self) -> np.ndarray:
        """Node coordinates, shape grid.shape + (ndim,)."""
        grids = np.meshgrid(*[ax.nodes for ax in self.axes], indexing="ij")
        return np.stack(grids, axis=-1)

    def outside_axis(self, point):
        """Index of the first non-periodic axis whose extent [lo, hi] point
        lies outside (a NaN coordinate lies outside), or None when point is
        on the grid; a periodic axis wraps."""
        for i, ax in enumerate(self.axes):
            if not (ax.periodic or ax.lo <= point[i] <= ax.hi):
                return i
        return None

    def window(self, center, half_widths):
        """Sub-grid around center and its index tuple (one slice per axis).

        On each non-periodic axis the window keeps the nodes within
        half_widths[i] of center[i], plus WINDOW_MARGIN_CELLS nodes on each
        side, clipped to the grid and widened to at least 3 nodes; periodic
        axes stay whole. field[idx] is a field on the sub-grid, whose spacing
        and node coordinates are those of the parent's slice (exactly when the
        parent's nodes are exact binary numbers, up to rounding otherwise). A
        window that covers the whole grid returns the grid itself.
        """
        axes, idx = [], []
        for ax, c, half in zip(self.axes, center, half_widths):
            if ax.periodic:
                axes.append(ax)
                idx.append(slice(0, ax.n))
                continue
            h = ax.spacing
            first = math.ceil((c - half - ax.lo) / h - 1e-9) - WINDOW_MARGIN_CELLS
            last = math.floor((c + half - ax.lo) / h + 1e-9) + WINDOW_MARGIN_CELLS
            first, last = max(first, 0), min(last, ax.n - 1)
            if last - first < 2:
                mid = min(max((first + last) // 2, 1), ax.n - 2)
                first, last = mid - 1, mid + 1
            if (first, last) != (0, ax.n - 1):
                nodes = ax.nodes
                ax = Axis(float(nodes[first]), float(nodes[last]), last - first + 1)
            axes.append(ax)
            idx.append(slice(first, last + 1))
        sub = self if axes == list(self.axes) else GridSpec(tuple(axes))
        return sub, tuple(idx)

    @classmethod
    def vehicle_plane(cls, x_extent, y_extent, nx: int, ny: int, npsi: int) -> "GridSpec":
        """Grid over (X, Y, psi) with the heading axis spanning exactly [-pi, pi)."""
        return cls(
            (
                Axis(float(x_extent[0]), float(x_extent[1]), nx),
                Axis(float(y_extent[0]), float(y_extent[1]), ny),
                Axis(-math.pi, math.pi, npsi, periodic=True),
            )
        )

    def to_dict(self) -> dict:
        """In from_dict's types: a grid read back hashes the same (config_fingerprint)."""
        return {
            "axes": [
                {"lo": float(ax.lo), "hi": float(ax.hi), "n": int(ax.n),
                 "periodic": bool(ax.periodic)}
                for ax in self.axes
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GridSpec":
        return cls(
            tuple(
                Axis(
                    float(a["lo"]), float(a["hi"]), as_integer(a["n"], "axis n"),
                    bool(a["periodic"]),
                )
                for a in data["axes"]
            )
        )


def _locate(ax: Axis, coord: float):
    """Cell index and fraction along one axis; wraps periodic coordinates."""
    h = ax.spacing
    if ax.periodic:
        u = (coord - ax.lo) / h
        base = math.floor(u)
        frac = u - base
        i0 = base % ax.n
        i1 = (i0 + 1) % ax.n
        return i0, i1, frac
    tol = 1e-9 * max(1.0, abs(ax.hi - ax.lo))
    if coord < ax.lo - tol or coord > ax.hi + tol:
        raise ExtrapolationError(
            f"coordinate {coord} outside grid extent [{ax.lo}, {ax.hi}]"
        )
    u = min(max((coord - ax.lo) / h, 0.0), ax.n - 1.0)
    i0 = min(int(math.floor(u)), ax.n - 2)
    return i0, i0 + 1, u - i0


def interpolate(values: np.ndarray, grid: GridSpec, point) -> np.ndarray:
    """Multilinear interpolation at one point; exact on multilinear fields.

    Trailing component axes of values are carried through. The heading axis
    wraps; leaving the planar extent raises ExtrapolationError.
    """
    point = np.asarray(point, dtype=float)
    if point.shape != (grid.ndim,):
        raise ValueError(f"expected a point of dimension {grid.ndim}, got {point.shape}")
    cells = [_locate(ax, float(point[i])) for i, ax in enumerate(grid.axes)]
    out = 0.0
    for corner in itertools.product((0, 1), repeat=grid.ndim):
        weight = 1.0
        idx = []
        for (i0, i1, frac), side in zip(cells, corner):
            weight *= frac if side else 1.0 - frac
            idx.append(i1 if side else i0)
        if weight:
            out = out + weight * values[tuple(idx)]
    return out


def save_array(path, arr: np.ndarray) -> None:
    """Write row-major float64 little-endian flat binary."""
    np.ascontiguousarray(arr, dtype="<f8").tofile(path)


def remove_matching(folder, pattern) -> None:
    """Remove the regular files in folder whose names pattern fully matches."""
    for name in os.listdir(folder):
        path = os.path.join(folder, name)
        if pattern.fullmatch(name) and os.path.isfile(path):
            os.remove(path)


def load_array(path, shape) -> np.ndarray:
    """Map a flat binary written by save_array read-only, without reading
    it; a file of the wrong size raises ValueError naming it."""
    count = math.prod(shape)
    size = os.stat(path).st_size
    if size != 8 * count:
        raise ValueError(
            f"{path}: holds {size} bytes, expected {8 * count} ({count} float64 values)"
        )
    return np.memmap(path, dtype="<f8", mode="r", shape=tuple(shape))


def write_manifest(path, payload: dict) -> None:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_manifest(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
