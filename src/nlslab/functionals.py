"""Scalar functionals, mixed spacetime norms, and inequality monitors.

Covers the conserved energy with its kinetic/potential split, the mass,
localized mass with its flux and growth bounds, the critical density,
admissible-pair spacetime norms of u and of |grad| u, and the virial-weight
(Morawetz) apparatus: closed-form weight derivatives, the weighted
spacetime bound, and the momentum-flux identity checked term by term
along trajectories.

Each spatial quantity (``energy``, ``mass``, ``local_mass``,
``critical_density``, ``grid.lp_norm``) is one function of node samples:
a float for one row (N,), one value per row for a stack (S, N), with the
bits of that row's own call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .grid import RadialGrid, _row_sums, lp_norm
from .transform import get_transform

if TYPE_CHECKING:  # dynamics imports this module for the energy
    from .dynamics import Trajectory

# ---------------------------------------------------------------------------
# admissible pairs


def is_admissible(q: float, r: float, n: int) -> bool:
    """Schrodinger admissibility:  2 <= q, r <= inf  and  1/q + n/(2r) = n/4,
    the identity to a 1e-12 tolerance."""
    if q < 2 or r < 2:
        return False
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    inv_r = 0.0 if math.isinf(r) else 1.0 / r
    return abs(inv_q + n / 2.0 * inv_r - n / 4.0) < 1e-12


@dataclass(frozen=True)
class AdmissiblePair:
    """Exponent pair (q, r) satisfying the admissibility identity."""

    q: float
    r: float
    dimension: int

    def __post_init__(self):
        if not is_admissible(self.q, self.r, self.dimension):
            raise ValueError(
                f"({self.q}, {self.r}) is not admissible in dimension {self.dimension}"
            )


def default_admissible_pairs(n: int) -> tuple[AdmissiblePair, ...]:
    """The standard finite pair set used for the supremum norm.

    (inf, 2), the symmetric pair, the critical-gradient pair, and the
    endpoint pair (2, 2n/(n-2)).
    """
    sym = 2.0 * (n + 2) / n
    return (
        AdmissiblePair(math.inf, 2.0, n),
        AdmissiblePair(sym, sym, n),
        AdmissiblePair(2.0 * (n + 2) / (n - 2), 2.0 * n * (n + 2) / (n * n + 4), n),
        AdmissiblePair(2.0, 2.0 * n / (n - 2), n),
    )


# ---------------------------------------------------------------------------
# energy


class EnergyBreakdown(NamedTuple):
    total: float | np.ndarray
    kinetic: float | np.ndarray
    potential: float | np.ndarray


def energy(grid: RadialGrid, values, mu: int = 1, coeffs=None) -> EnergyBreakdown:
    """Conserved energy  int (1/2)|grad u|^2 + mu (n-2)/(2n) |u|^{2n/(n-2)}
    of node samples: floats for one row (N,), one value per row for a
    stack (S, N).

    The kinetic part is evaluated spectrally (exact in the discrete mode
    basis) from the mode coefficients ``coeffs``, computed here unless
    given; the potential part by grid quadrature and signed by mu.
    """
    n = grid.dimension
    tr = get_transform(grid)
    kin = tr.kinetic_energy(tr.coefficients(values) if coeffs is None else coeffs)
    expo = 2.0 * n / (n - 2)
    pot = mu * (n - 2) / (2.0 * n) * _row_sums(lambda v: grid.weights * np.abs(v) ** expo, values)
    return EnergyBreakdown(kin + pot, kin, pot)


def energy_scale(e0) -> float:
    """The scale of a relative energy drift |E - E_0| / scale: |E_0|,
    floored at 1e-30 so that a zero initial energy divides safely."""
    return max(abs(float(e0)), 1e-30)


def mass(grid: RadialGrid, values):
    """Discrete L^2 mass  int |u|^2 dx  of node samples: a float for one
    row (N,), one value per row for a stack (S, N)."""
    return _row_sums(lambda v: grid.weights * np.abs(v) ** 2, values)


# ---------------------------------------------------------------------------
# cutoff bump and localized mass


def bump(s) -> np.ndarray:
    """Radial cutoff: 1 on [0, 1/2], quintic C^2 descent to 0 at 1.

    Monotone non-increasing; the transition is the standard quintic
    smoothstep, so two derivatives vanish at both ends of the ramp.
    """
    s = np.asarray(s, dtype=float)
    x = np.clip(2.0 * s - 1.0, 0.0, 1.0)
    return 1.0 - x**3 * (10.0 - 15.0 * x + 6.0 * x * x)


#: sup |d bump / ds|, attained at the ramp midpoint s = 3/4
BUMP_SLOPE_MAX = 2.0 * 30.0 / 16.0  # = 3.75

#: Cauchy-Schwarz constant in the localized-mass flux bound, derived from
#: the cutoff:  |d Mass/dt| <= 2 sqrt(2) sup|bump'| E^{1/2} / R
MASS_FLUX_CONSTANT = 2.0 * math.sqrt(2.0) * BUMP_SLOPE_MAX


def local_mass(grid: RadialGrid, values, radius: float):
    """Cutoff L^2 mass  ( int bump^2(r/R) |u|^2 dx )^{1/2}  centred at 0 of
    node samples: a float for one row (N,), one value per row for a stack
    (S, N).

    Non-decreasing in R because the cutoff is pointwise non-decreasing
    in R at every radius.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    chi = bump(grid.nodes / radius)
    return np.sqrt(_row_sums(lambda v: grid.weights * chi**2 * np.abs(v) ** 2, values))


@dataclass(frozen=True)
class FluxReport:
    """A row of the report's ``mass_flux`` table, without its tolerance."""

    radius: float
    max_rate: float          # max |d Mass / dt| over interior snapshot times
    bound: float             # MASS_FLUX_CONSTANT * sqrt(E) / R
    ratio: float


def mass_flux_check(traj: Trajectory, radius: float) -> FluxReport:
    """Check |d/dt Mass(u(t), B(0, R))| against the derived flux bound.

    The bound follows from the continuity equation for |u|^2 and
    Cauchy-Schwarz over the cutoff ramp, and requires the gradient term
    to be controlled by the energy; it therefore applies to the free and
    defocusing flows (for the focusing sign the kinetic term is not
    dominated by E and no bound is asserted).
    """
    if traj.times.size < 3:
        raise ValueError("need at least 3 snapshots for a time derivative")
    if traj.config.mu < 0:
        raise ValueError("flux bound applies to free or defocusing runs only")
    masses = local_mass(traj.grid, traj.values, radius)
    rates = (masses[2:] - masses[:-2]) / (traj.times[2:] - traj.times[:-2])
    bound = MASS_FLUX_CONSTANT * math.sqrt(max(float(traj.energy_series[0]), 0.0)) / radius
    max_rate = float(np.abs(rates).max(initial=0.0))
    ratio = max_rate / bound if bound > 0 else math.inf if max_rate > 0 else 0.0
    return FluxReport(radius, max_rate, bound, ratio)


#: Calibrated ceiling for the mass-growth ratio Mass / (E^{1/2} R); frozen
#: from reference-resolution sweeps of the shipped scenario families.
HARDY_RATIO_BOUND = 0.75

#: Calibrated ceiling for the weighted-spacetime concentration ratio
#: LHS / (A |I|^{1/2} E); frozen from certified reference runs of the
#: shipped initial-data families at A in {1, 2, 4} (worst measured 0.274,
#: ring data at A = 1).
MORAWETZ_RATIO_BOUND = 0.5


def hardy_ratio(grid: RadialGrid, row, radius: float, e: float) -> float:
    """Ratio  Mass(u, B(0,R)) / (E^{1/2} R)  for the growth bound, of one
    row (N,) of node samples whose energy ``e`` is known.

    Zero energy forces u = 0 (the kinetic term is positive definite), in
    which case the ratio is 0 by convention.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if e <= 0:
        if np.any(row != 0):
            raise ValueError("nonzero field with nonpositive energy")
        return 0.0
    return float(local_mass(grid, row, radius) / (math.sqrt(e) * radius))


# ---------------------------------------------------------------------------
# spacetime norms


def spacetime_norm(traj: Trajectory, q: float, r: float, values=None) -> float:
    """Mixed norm ( int ||u(t)||_{L^r}^q dt )^{1/q} over the trajectory's
    span, of its snapshots or of the (S, N) ``values`` at its times (such
    as ``gradient_values(traj)``).

    The time integral treats the sampled r-norm density as piecewise
    linear; q = inf takes the supremum over the snapshots.
    """
    if q < 1 or r < 1:
        raise ValueError("exponents must be >= 1")
    norms = lp_norm(traj.grid, traj.values if values is None else values, r)
    if math.isinf(q):
        return float(norms.max())
    return float(np.trapezoid(norms**q, traj.times)) ** (1.0 / q)


def gradient_values(traj: Trajectory) -> np.ndarray:
    """(S, N) samples of |grad| u at every snapshot: the multiplier k on
    the trajectory's coefficients, transformed back."""
    tr = get_transform(traj.grid)
    return tr.backward(traj.coefficients * tr.frequencies)


def critical_density(grid: RadialGrid, values):
    """int |u|^{2(n+2)/(n-2)} dx of node samples: a float for one row (N,),
    one value per row for a stack (S, N) such as a trajectory's snapshots.

    This is the density whose spacetime integral is the critical norm
    raised to its own exponent; the interval machinery subdivides its
    cumulative integral.
    """
    n = grid.dimension
    expo = 2.0 * (n + 2) / (n - 2)
    return _row_sums(lambda v: grid.weights * np.abs(v) ** expo, values)


# ---------------------------------------------------------------------------
# virial weight and its identities


@dataclass(frozen=True)
class MorawetzWeight:
    """Closed-form derivatives of the virial weight a = (eps^2 + r^2)^{1/2}.

    The closed forms hold where the outer cutoff of the compactly
    supported weight equals one, i.e. on |x| <= 1 after the usual
    rescaling; evaluation is refused outside that region.
    """

    epsilon: float
    dimension: int

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    def evaluate(self, radius) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        r = np.asarray(radius, dtype=float)
        if np.any(r > 1.0 + 1e-12):
            raise ValueError("closed forms are valid on |x| <= 1 only")
        return _weight_derivs(self.epsilon, self.dimension, r)


def _weight_derivs(eps: float, n: int, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, lap a, -lap lap a) for the uncut hyperboloid weight."""
    s2 = eps * eps + np.asarray(r, dtype=float) ** 2
    a = np.sqrt(s2)
    lap_a = (n - 1) / np.sqrt(s2) + eps * eps / s2**1.5
    neg_bilap = (
        (n - 1) * (n - 3) / s2**1.5
        + 6.0 * (n - 3) * eps * eps / s2**2.5
        + 15.0 * eps**4 / s2**3.5
    )
    return a, lap_a, neg_bilap


@dataclass(frozen=True)
class MorawetzReport:
    """A row of the report's ``morawetz`` table, before null replaces inf."""

    A: float
    lhs: float                # weighted spacetime integral of |u|^{2n/(n-2)} / |x|
    rhs_without_constant: float   # A |I|^{1/2} E
    ratio: float
    bound: float              # MORAWETZ_RATIO_BOUND
    regularized: dict         # eps -> LHS with 1/(eps^2+|x|^2)^{1/2}, and "richardson"


def _morawetz_densities(traj: Trajectory, radius: float, denominator) -> np.ndarray:
    """int_{|x| <= radius}  |u(t)|^{2n/(n-2)} / denominator(|x|)  dx at each
    snapshot time."""
    n = traj.grid.dimension
    mask = traj.grid.nodes <= radius
    wq = traj.grid.weights[mask] / denominator(traj.grid.nodes[mask])
    expo = 2.0 * n / (n - 2)
    # numpy lays a boolean column selection out in Fortran order; the row
    # sums repeat the per-snapshot sums bit for bit only on C-ordered rows
    return _row_sums(lambda v: wq * np.abs(np.ascontiguousarray(v[:, mask])) ** expo, traj.values)


def morawetz_check(traj: Trajectory, A: float = 1.0, eps=()) -> MorawetzReport:
    """Weighted spacetime concentration integral against  A |I|^{1/2} E
    over the trajectory's span I.

    LHS = int_I int_{|x| <= A |I|^{1/2}}  |u|^{2n/(n-2)} / |x|  dx dt.
    The 1/|x| singularity is absorbed by the volume factor (the radial
    integrand carries r^{n-2}, finite for n >= 3).

    The same integral with the regularized weight 1/(eps^2+|x|^2)^{1/2} is
    reported at each epsilon of ``eps``; with two or more, together with
    the linear-in-epsilon Richardson value, which converges monotonically
    from below to the sharp 1/|x| integral as eps -> 0.
    """
    if A < 1.0:
        raise ValueError("A must be >= 1")
    rad = A * math.sqrt(traj.span)

    def lhs_of(denominator) -> float:
        return float(np.trapezoid(_morawetz_densities(traj, rad, denominator), traj.times))

    lhs = lhs_of(lambda r: r)
    e = float(traj.energy_series[0])
    rhs = rad * e
    ratio = lhs / rhs if rhs > 0 else math.inf if lhs > 0 else 0.0
    reg = {ep: lhs_of(lambda r, ep=ep: np.sqrt(ep**2 + r**2)) for ep in eps}
    eps_sorted = sorted(reg)
    if len(eps_sorted) >= 2:
        e1, e0 = eps_sorted[-1], eps_sorted[0]  # largest, smallest
        v1, v0 = reg[e1], reg[e0]
        reg["richardson"] = v0 + (v0 - v1) * e0 / (e1 - e0)
    return MorawetzReport(A, lhs, rhs, ratio, MORAWETZ_RATIO_BOUND, reg)


@dataclass(frozen=True)
class FluxIdentityReport:
    max_defect: float        # normalized by the largest term magnitude
    epsilon: float
    lhs_rates: tuple
    rhs_values: tuple


def momentum_flux_identity_check(traj: Trajectory, eps: float) -> FluxIdentityReport:
    """Term-by-term check of the weighted momentum-flux identity.

    With the radial weight a(r) = (eps^2 + r^2)^{1/2} the identity reads

        d/dt int a'(r) Im(u_r conj u) dx
            = 2 int a''(r) |u_r|^2 dx
            + (1/2) int (-lap lap a) |u|^2 dx
            + mu (2/n) int (lap a) |u|^{2n/(n-2)} dx.

    The left side is formed by central time differences over snapshots,
    the right side by spatial quadrature with the spectral radial
    derivative.  The returned defect is the largest absolute mismatch at
    interior snapshot times, normalized by the largest term magnitude.

    eps must be resolved by the grid: for eps much below the node spacing
    the curvature term concentrates in an unresolved spike at the origin
    (its eps -> 0 limit contains a point mass there) and the quadrature
    is meaningless.
    """
    if traj.times.size < 3:
        raise ValueError("need at least 3 snapshots")
    g = traj.grid
    spacing = float(np.median(np.diff(g.nodes)))
    if eps < 3.0 * spacing:
        raise ValueError(
            f"eps={eps:.3g} unresolved by node spacing {spacing:.3g}; use eps >= {3*spacing:.3g}"
        )
    n = g.dimension
    r, w = g.nodes, g.weights
    s2 = eps * eps + r * r
    a_r = r / np.sqrt(s2)
    a_rr = eps * eps / s2**1.5
    _, lap_a, neg_bilap = _weight_derivs(eps, n, r)
    tr = get_transform(g)
    mu = traj.config.mu
    expo = 2.0 * n / (n - 2)

    u = traj.values
    ur = tr.derivative(traj.coefficients)

    # np.multiply, not "*": the operator would reuse the large conjugate
    # temporary as its output with the factors swapped, and the complex
    # product is not bitwise commutative
    lhs_density = _row_sums(lambda d, v: w * a_r * np.imag(np.multiply(d, np.conj(v))), ur, u)
    rhs = 2.0 * _row_sums(lambda d: w * a_rr * np.abs(d) ** 2, ur)
    rhs += 0.5 * _row_sums(lambda v: w * neg_bilap * np.abs(v) ** 2, u)
    if mu != 0:
        rhs += mu * (2.0 / n) * _row_sums(lambda v: w * lap_a * np.abs(v) ** expo, u)
    rates = (lhs_density[2:] - lhs_density[:-2]) / (traj.times[2:] - traj.times[:-2])
    defects = np.abs(rates - rhs[1:-1])
    scale = max(np.abs(rates).max(initial=0.0), np.abs(rhs).max(initial=0.0), 1e-300)
    return FluxIdentityReport(
        max_defect=float(defects.max(initial=0.0) / scale),
        epsilon=eps,
        lhs_rates=tuple(rates),
        rhs_values=tuple(rhs),
    )
