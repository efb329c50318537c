import numpy as np
import pytest

from nlslab import EvolutionConfig, Trajectory, evolve, gaussian_field, make_spectral_grid
from nlslab.functionals import _energy_rows, _mass_series


@pytest.fixture(scope="session")
def g3():
    """Small n=3 spectral grid shared across tests."""
    return make_spectral_grid(3, 256, 16.0)


@pytest.fixture(scope="session")
def g3_mid():
    return make_spectral_grid(3, 384, 16.0)


@pytest.fixture(scope="session")
def traj_defocusing(g3_mid):
    """Moderate defocusing Gaussian, half a time unit."""
    u0 = gaussian_field(g3_mid)
    cfg = EvolutionConfig(dimension=3, mu=1, dt=1e-3, snapshot_stride=10)
    return evolve(u0, 0.0, 0.5, cfg)


@pytest.fixture(scope="session")
def traj_free(g3_mid):
    """Free (mu = 0) twin of the defocusing run."""
    u0 = gaussian_field(g3_mid)
    cfg = EvolutionConfig(dimension=3, mu=0, dt=1e-3, snapshot_stride=10)
    return evolve(u0, 0.0, 0.5, cfg)


def make_synthetic_trajectory(grid, times, profiles, mu=0):
    """Trajectory assembled directly from given snapshots (no evolution).

    Conserved-quantity series are computed honestly from the snapshots so
    downstream diagnostics (which read the series) stay consistent.
    """
    times = np.asarray(times, dtype=float)
    values = np.array([p.values for p in profiles], dtype=complex)
    total, kinetic, potential = _energy_rows(grid, values, mu)
    cfg = EvolutionConfig(dimension=grid.dimension, mu=mu, dt=float(times[1] - times[0]))
    return Trajectory(
        config=cfg,
        grid=grid,
        times=times,
        values=values,
        mass_series=_mass_series(grid, values),
        energy_series=total,
        kinetic_series=kinetic,
        potential_series=potential,
        provenance={"synthetic": True},
    )


@pytest.fixture(scope="session")
def synth_factory():
    return make_synthetic_trajectory
