"""Fixtures shared across test modules."""

from pathlib import Path

import pytest

from infotraj.cli import load_scenario
from infotraj.hjsolver import hybrid_solve, info_rate_on_grid

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def scenario():
    return load_scenario(REPO / "scenarios" / "doppler_single_path.json")


@pytest.fixture(scope="session")
def survey(scenario):
    """Shared production-scale solve of the shipped survey scenario."""
    system = scenario.build_system()
    grid = scenario.grid()
    z0 = scenario.initial_information()
    ell = info_rate_on_grid(system, grid)
    solution = hybrid_solve(
        system, grid, z0, scenario.horizon, info_rate_field=ell
    )
    return scenario, system, grid, z0, ell, solution
