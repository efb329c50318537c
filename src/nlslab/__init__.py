"""nlslab: a desk-scale laboratory for the radial energy-critical NLS.

Evolves  i u_t + lap u = mu |u|^{4/(n-2)} u  for spherically symmetric data
on R^n (n >= 3) with a spectrally exact free propagator, computes the
standard conserved quantities, localized-mass and virial-weight inequality
ratios, admissible-pair spacetime norms, and runs the interval-subdivision
concentration diagnostics, all behind a scenario-driven CLI with
deterministic, verifiable reports.
"""

from types import ModuleType as _ModuleType

from .concentration import (
    BubbleReport,
    IntervalDecomposition,
    NestResult,
    bourgain_nest,
    classify_exceptional,
    find_bubble,
    greedy_subdivide,
    half_norm_ratio,
    largest_fraction,
    linear_flow_check,
)
from .dynamics import (
    EvolutionConfig,
    Trajectory,
    duhamel_residual,
    evolve,
)
from .functionals import (
    AdmissiblePair,
    MorawetzWeight,
    critical_density,
    default_admissible_pairs,
    energy,
    gradient_values,
    hardy_ratio,
    is_admissible,
    local_mass,
    mass,
    mass_flux_check,
    momentum_flux_identity_check,
    morawetz_check,
    spacetime_norm,
)
from .grid import RadialField, RadialGrid, lp_norm
from .persist import load_trajectory, save_trajectory
from .scenario import normalize_scenario, run_scenario, verify_report
from .transform import (
    gaussian_field,
    gaussian_free_evolution,
    get_propagator,
    get_transform,
    make_spectral_grid,
)

__version__ = "0.1.0"

# the public names are exactly the names imported above
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
