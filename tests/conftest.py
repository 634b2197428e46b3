"""Fixtures shared across test modules."""

from pathlib import Path

import pytest

from infotraj.cli import load_scenario
from infotraj.hjsolver import hybrid_solve, info_rate_on_grid
from infotraj.matrixcore import LogDetMetric

REPO = Path(__file__).resolve().parents[1]


class Snapshots:
    """hybrid_solve on_snapshot observer that keeps a copy of every snapshot
    it sees: times[k], phis[k] and phi_zs[k] (Phi in the vec layout)."""

    def __init__(self):
        self.times, self.phis, self.phi_zs = [], [], []

    def __call__(self, s, phi, phi_z):
        self.times.append(s)
        self.phis.append(phi.copy())
        self.phi_zs.append(phi_z.copy())


@pytest.fixture
def snapshots():
    """A fresh Snapshots collector."""
    return Snapshots()


@pytest.fixture(scope="session")
def scenario():
    return load_scenario(REPO / "scenarios" / "doppler_single_path.json")


@pytest.fixture(scope="session")
def survey(scenario):
    """Shared production-scale solve of the shipped survey scenario."""
    system = scenario.build_system()
    metric = LogDetMetric(2)
    grid = scenario.grid()
    z0 = scenario.initial_information()
    ell = info_rate_on_grid(system, grid)
    solution = hybrid_solve(
        system, metric, grid, z0, scenario.solver, info_rate_field=ell
    )
    return scenario, system, metric, grid, z0, ell, solution
