import ctypes
import itertools
import os
from pathlib import Path

# the pinned values and byte-identity checks were recorded at one BLAS
# thread, and the tests that force a process budget of 2 fork workers
# that must not share their CPUs with OpenBLAS threads; OpenBLAS reads
# the pin once, when numpy loads it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from nlslab import (  # noqa: E402
    EvolutionConfig,
    IntervalDecomposition,
    Trajectory,
    evolve,
    gaussian_field,
    get_propagator,
    make_spectral_grid,
)
from nlslab.functionals import energy, mass  # noqa: E402


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """The OpenBLAS that numpy's wheel bundles runs one thread (a numpy
    linked against another BLAS has no such library to ask)."""
    for lib in (Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"):
        threads = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_()
        assert threads == 1, f"numpy's OpenBLAS runs {threads} threads, not 1"


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
    total, kinetic, potential = energy(grid, values, mu)
    cfg = EvolutionConfig(dimension=grid.dimension, mu=mu, dt=float(times[1] - times[0]))
    return Trajectory(
        config=cfg,
        grid=grid,
        times=times,
        values=values,
        mass_series=mass(grid, values),
        energy_series=total,
        kinetic_series=kinetic,
        potential_series=potential,
        provenance={"synthetic": True},
    )


def synthetic_decomposition(lengths, exceptional=None):
    """Unit-mass intervals of the given lengths from t = 0, flagged when
    ``exceptional`` is given (combinatorial work needs no trajectory)."""
    b = tuple(itertools.accumulate(map(float, lengths), initial=0.0))
    d = IntervalDecomposition(b, (1.0,) * (len(b) - 1), 1.0, tail_flag=False)
    return d if exceptional is None else d.with_flags(exceptional)


def free_evolve(u, t):
    """e^{i t lap} u by the certified free flow of the field's grid."""
    tr = get_propagator(u.grid)
    return u.grid.field(tr.backward(tr.evolve_coeffs(tr.forward(u), t)))


@pytest.fixture(scope="session")
def synth_factory():
    return make_synthetic_trajectory
