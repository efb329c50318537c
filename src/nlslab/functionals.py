"""Scalar functionals, mixed spacetime norms, and inequality monitors.

Covers the conserved energy with its kinetic/potential split, localized
mass with its flux and growth bounds, admissible-pair spacetime norms with
the gradient-level supremum norm, and the virial-weight (Morawetz)
apparatus: closed-form weight derivatives, the weighted spacetime bound,
and the momentum-flux identity checked term by term along trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import timegrid
from .grid import RadialField, RadialGrid, _lp_norms, _row_sums
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


@dataclass(frozen=True)
class EnergyBreakdown:
    total: float
    kinetic: float
    potential: float


def energy(u: RadialField, mu: int = 1) -> EnergyBreakdown:
    """Conserved energy  int (1/2)|grad u|^2 + mu (n-2)/(2n) |u|^{2n/(n-2)}.

    The kinetic part is evaluated spectrally (exact in the discrete mode
    basis); the potential part by grid quadrature and signed by mu.
    """
    return EnergyBreakdown(*(float(x[0]) for x in _energy_rows(u.grid, u.values[None, :], mu)))


def _energy_rows(grid: RadialGrid, values: np.ndarray, mu: int, coeffs=None):
    """(total, kinetic, potential) energy of each row of ``values``, whose
    mode coefficients ``coeffs`` are computed here unless given."""
    n = grid.dimension
    tr = get_transform(grid)
    kin = tr.kinetic_energy(tr.coefficients(values) if coeffs is None else coeffs)
    expo = 2.0 * n / (n - 2)
    pot = mu * (n - 2) / (2.0 * n) * _row_sums(lambda v: grid.weights * np.abs(v) ** expo, values)
    return kin + pot, kin, pot


def energy_scale(e0) -> float:
    """The scale of a relative energy drift |E - E_0| / scale: |E_0|,
    floored at 1e-30 so that a zero initial energy divides safely."""
    return max(abs(float(e0)), 1e-30)


def _mass_series(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """Discrete L^2 mass  int |u|^2 dx  of each row of ``values``."""
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


def local_mass(u: RadialField, radius: float) -> float:
    """Cutoff L^2 mass  ( int bump^2(r/R) |u|^2 dx )^{1/2}  centred at 0.

    Non-decreasing in R because the cutoff is pointwise non-decreasing
    in R at every radius.
    """
    return float(_local_masses(u.grid, u.values[None, :], radius)[0])


def _local_masses(grid: RadialGrid, values: np.ndarray, radius: float) -> np.ndarray:
    """``local_mass`` of each row of ``values``."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    chi = bump(grid.nodes / radius)
    return np.sqrt(_row_sums(lambda v: grid.weights * chi**2 * np.abs(v) ** 2, values))


@dataclass(frozen=True)
class FluxReport:
    radius: float
    max_rate: float          # max |d Mass / dt| over interior snapshot times
    bound: float             # MASS_FLUX_CONSTANT * sqrt(E) / R
    ratio: float
    energy_used: float


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
    masses = _local_masses(traj.grid, traj.values, radius)
    rates = (masses[2:] - masses[:-2]) / (traj.times[2:] - traj.times[:-2])
    e_used = float(traj.energy_series[0])
    bound = MASS_FLUX_CONSTANT * math.sqrt(max(e_used, 0.0)) / radius
    max_rate = float(np.abs(rates).max(initial=0.0))
    ratio = max_rate / bound if bound > 0 else math.inf if max_rate > 0 else 0.0
    return FluxReport(radius, max_rate, bound, ratio, e_used)


#: Calibrated ceiling for the mass-growth ratio Mass / (E^{1/2} R); frozen
#: from reference-resolution sweeps of the shipped scenario families.
HARDY_RATIO_BOUND = 0.75

#: Calibrated ceiling for the weighted-spacetime concentration ratio
#: LHS / (A |I|^{1/2} E); frozen from certified reference runs of the
#: shipped initial-data families at A in {1, 2, 4} (worst measured 0.274,
#: ring data at A = 1).
MORAWETZ_RATIO_BOUND = 0.5


def hardy_bound_check(u: RadialField, radius: float, mu: int = 1) -> float:
    """Ratio  Mass(u, B(0,R)) / (E^{1/2} R)  for the growth bound.

    Zero energy forces u = 0 (the kinetic term is positive definite), in
    which case the ratio is 0 by convention.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    return _hardy_ratio(u, radius, energy(u, mu).total)


def _hardy_ratio(u: RadialField, radius: float, e: float) -> float:
    """``hardy_bound_check`` of a field whose energy ``e`` is known."""
    if e <= 0:
        if np.any(u.values != 0):
            raise ValueError("nonzero field with nonpositive energy")
        return 0.0
    return local_mass(u, radius) / (math.sqrt(e) * radius)


# ---------------------------------------------------------------------------
# spacetime norms


def spacetime_norm(traj: Trajectory, q: float, r: float, interval=None) -> float:
    """Mixed norm ( int_I ||u(t)||_{L^r}^q dt )^{1/q} over snapshots.

    The time integral treats the sampled r-norm density as piecewise
    linear; q = inf takes the supremum over the interval.
    """
    return _mixed_norm(traj, traj.values, q, r, interval)


def _mixed_norm(traj: Trajectory, values: np.ndarray, q: float, r: float, interval) -> float:
    """``spacetime_norm`` of the (S, N) ``values`` at the trajectory's times."""
    if q < 1 or r < 1:
        raise ValueError("exponents must be >= 1")
    a, b = _resolve_interval(traj, interval)
    norms = _lp_norms(traj.grid, values, r)
    if math.isinf(q):
        return timegrid.pl_maximum(traj.times, norms, a, b)
    dens = norms**q
    return float(timegrid.pl_integral(traj.times, dens, a, b) ** (1.0 / q))


def _resolve_interval(traj: Trajectory, interval) -> tuple[float, float]:
    if interval is None:
        return traj.t_minus, traj.t_plus
    a, b = float(interval[0]), float(interval[1])
    if b <= a:
        raise ValueError("empty interval")
    if a < traj.t_minus - 1e-9 or b > traj.t_plus + 1e-9:
        raise ValueError("interval outside trajectory span")
    return max(a, traj.t_minus), min(b, traj.t_plus)


def strichartz_norm(
    traj: Trajectory,
    interval=None,
    k: int = 0,
    pairs: tuple[AdmissiblePair, ...] | None = None,
) -> float:
    """Supremum over a finite admissible-pair set of the mixed norm of
    |grad|^k u.

    The continuum norm takes a supremum over all admissible pairs; the
    finite configured set (default: the four standard pairs) is the
    declared computable approximation.
    """
    if k not in (0, 1):
        raise ValueError("k must be 0 or 1")
    n = traj.grid.dimension
    pairs = default_admissible_pairs(n) if pairs is None else pairs
    for pr in pairs:
        if not is_admissible(pr.q, pr.r, n):
            raise ValueError(f"pair ({pr.q},{pr.r}) fails admissibility")
    values = traj.values if k == 0 else _gradient_values(traj)
    return max(_mixed_norm(traj, values, pr.q, pr.r, interval) for pr in pairs)


def _gradient_values(traj: Trajectory) -> np.ndarray:
    """(S, N) samples of |grad| u at every snapshot: the multiplier k on
    the trajectory's coefficients, transformed back."""
    tr = get_transform(traj.grid)
    return tr.backward(traj.coefficients * tr.frequencies)


def critical_density(traj: Trajectory) -> np.ndarray:
    """int |u(t)|^{2(n+2)/(n-2)} dx at each snapshot time.

    This is the density whose spacetime integral is the critical norm
    raised to its own exponent; the interval machinery subdivides its
    cumulative integral.
    """
    return _critical_densities(traj.grid, traj.values)


def _critical_densities(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """``critical_density`` of each row of ``values``."""
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


def morawetz_weight_eval(eps: float, x: float, n: int) -> tuple[float, float, float]:
    """(a, lap a, -lap lap a) at radius |x| <= 1; both curvature
    quantities are positive there for every n >= 3."""
    a, la, nb = MorawetzWeight(eps, n).evaluate(x)
    return float(a), float(la), float(nb)


@dataclass(frozen=True)
class MorawetzReport:
    lhs: float                # weighted spacetime integral of |u|^{2n/(n-2)} / |x|
    rhs_without_constant: float   # A |I|^{1/2} E
    ratio: float
    window_radius: float
    A: float
    interval: tuple[float, float]
    regularized: dict         # eps -> LHS with 1/(eps^2+|x|^2)^{1/2}, and "richardson"


def _morawetz_lhs(traj: Trajectory, a: float, b: float, A: float, denominator) -> float:
    """int_a^b int_{|x| <= A (b-a)^{1/2}}  |u|^{2n/(n-2)} / denominator(|x|)  dx dt."""
    n = traj.grid.dimension
    mask = traj.grid.nodes <= A * math.sqrt(b - a)
    wq = traj.grid.weights[mask] / denominator(traj.grid.nodes[mask])
    expo = 2.0 * n / (n - 2)
    # numpy lays a boolean column selection out in Fortran order; the row
    # sums repeat the per-snapshot sums bit for bit only on C-ordered rows
    dens = _row_sums(lambda v: wq * np.abs(np.ascontiguousarray(v[:, mask])) ** expo, traj.values)
    return timegrid.pl_integral(traj.times, dens, a, b)


def morawetz_check(traj: Trajectory, interval=None, A: float = 1.0, eps=()) -> MorawetzReport:
    """Weighted spacetime concentration integral against  A |I|^{1/2} E.

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
    a, b = _resolve_interval(traj, interval)
    length = b - a
    rad = A * math.sqrt(length)
    lhs = _morawetz_lhs(traj, a, b, A, lambda r: r)
    e = float(traj.energy_series[0])
    rhs = A * math.sqrt(length) * e
    ratio = lhs / rhs if rhs > 0 else math.inf if lhs > 0 else 0.0
    reg = {
        ep: _morawetz_lhs(traj, a, b, A, lambda r, ep=ep: np.sqrt(ep**2 + r**2))
        for ep in eps
    }
    eps_sorted = sorted(reg)
    if len(eps_sorted) >= 2:
        e1, e0 = eps_sorted[-1], eps_sorted[0]  # largest, smallest
        v1, v0 = reg[e1], reg[e0]
        reg["richardson"] = v0 + (v0 - v1) * e0 / (e1 - e0)
    return MorawetzReport(lhs, rhs, ratio, rad, A, (a, b), reg)


@dataclass(frozen=True)
class FluxIdentityReport:
    max_defect: float        # normalized by the largest term magnitude
    epsilon: float
    times: tuple
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
        times=tuple(traj.times[1:-1]),
        lhs_rates=tuple(rates),
        rhs_values=tuple(rhs),
    )
