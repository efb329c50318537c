"""Interval subdivision and concentration diagnostics.

A trajectory's critical-norm density is greedily subdivided into
consecutive intervals of equal spacetime mass; the intervals are then
classified by how much mass the endpoint linear flows carry on them,
searched for mass-concentration bubbles at the origin, and fed to a
nesting algorithm that extracts a dyadically shrinking interval chain
accumulating at a single time.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from . import timegrid
from .dynamics import Trajectory
from .functionals import _critical_densities, _local_masses, critical_density
from .propagator import get_propagator
from .transform import get_transform


class ResolutionError(RuntimeError):
    """Snapshot resolution too coarse to resolve the requested mass scale."""


@dataclass(frozen=True)
class IntervalDecomposition:
    """Consecutive intervals covering [t_minus, t_plus] with their
    critical-norm masses.

    Interval j is [boundaries[j], boundaries[j+1]); the final interval is
    closed.  Every non-tail interval carries mass in [eta, 2 eta]; a
    trailing interval below eta is permitted but flagged as the tail.
    Exceptional flags are attached by ``classify_exceptional``.
    """

    boundaries: tuple          # J+1 increasing floats
    masses: tuple              # J masses
    eta: float
    tail_flag: bool            # last interval has mass < eta
    exceptional: tuple = ()    # per-interval booleans, empty until classified

    def __post_init__(self):
        b = np.asarray(self.boundaries)
        if b.size < 2 or np.any(np.diff(b) <= 0):
            raise ValueError("boundaries must be strictly increasing")
        if len(self.masses) != b.size - 1:
            raise ValueError("one mass per interval required")
        if self.exceptional and len(self.exceptional) != len(self.masses):
            raise ValueError("one exceptional flag per interval required")

    @property
    def count(self) -> int:
        return len(self.masses)

    def interval(self, j: int) -> tuple[float, float]:
        return (self.boundaries[j], self.boundaries[j + 1])

    def lengths(self) -> np.ndarray:
        return np.diff(np.asarray(self.boundaries))

    def non_tail_indices(self) -> list[int]:
        out = list(range(self.count))
        if self.tail_flag:
            out = out[:-1]
        return out

    def with_flags(self, flags) -> "IntervalDecomposition":
        return replace(self, exceptional=tuple(bool(f) for f in flags))


def greedy_subdivide(traj: Trajectory, eta: float) -> IntervalDecomposition:
    """Left-to-right subdivision of the critical-norm spacetime mass.

    Sweeping the cumulative integral of the snapshot-sampled density,
    an interval closes as soon as its mass reaches eta; if the remainder
    past a prospective boundary is below eta the current interval absorbs
    it (mass below 2 eta), so every non-tail interval lands in [eta, 2 eta].
    A trajectory whose total mass is below eta yields a single tail
    interval, flagged rather than rejected.
    """
    if eta <= 0:
        raise ValueError("eta must be positive")
    ts = traj.times
    dens = critical_density(traj)
    panel_masses = 0.5 * (dens[1:] + dens[:-1]) * np.diff(ts)
    if np.any(panel_masses > 2.0 * eta):
        raise ResolutionError(
            f"a single snapshot step carries mass {panel_masses.max():.3g} > 2 eta; "
            "decrease the snapshot stride or increase eta"
        )
    cum = timegrid.cumulative_panels(ts, dens)
    total = float(cum[-1])
    t_end = float(ts[-1])
    if total < eta:
        return IntervalDecomposition(
            (float(ts[0]), t_end), (total,), eta, tail_flag=True
        )
    boundaries = [float(ts[0])]
    masses = []
    consumed = 0.0
    while total - consumed >= eta:
        target = consumed + eta
        remainder = total - target
        if remainder < eta:
            # absorb the sub-eta remainder into this final interval
            boundaries.append(t_end)
            masses.append(total - consumed)
            consumed = total
            break
        t_cut = timegrid.invert_cumulative(ts, dens, cum, target)
        boundaries.append(t_cut)
        masses.append(eta)
        consumed = target
    tail = False
    if consumed < total:
        boundaries.append(t_end)
        masses.append(total - consumed)
        tail = True
    return IntervalDecomposition(tuple(boundaries), tuple(masses), eta, tail)


# ---------------------------------------------------------------------------
# exceptional intervals


@dataclass(frozen=True)
class ExceptionalReport:
    flags: tuple
    minus_masses: tuple
    plus_masses: tuple
    threshold: float
    total_linear_mass: float   # both flows over the whole span
    count: int
    count_bound: float         # total_linear_mass / threshold

def _linear_flow_density(traj: Trajectory, anchor_index: int, times) -> np.ndarray:
    """Critical-norm density, at ``times``, of the free flow launched from
    the snapshot at ``anchor_index``."""
    tr = get_transform(traj.grid)
    prop = get_propagator(traj.grid)
    coeffs = traj.coefficients[anchor_index]
    offsets = (np.asarray(times) - traj.times[anchor_index])[:, None]
    return _critical_densities(traj.grid, tr.backward(prop.evolve_coeffs(coeffs, offsets)))


def classify_exceptional(
    decomp: IntervalDecomposition, traj: Trajectory, threshold: float
) -> ExceptionalReport:
    """Flag intervals where either endpoint linear flow carries more than
    ``threshold`` critical-norm mass.

    Also reports the counting bound: the number of exceptional intervals
    cannot exceed the total linear-flow mass divided by the threshold,
    an exact pigeonhole statement checked on every run.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    ts = traj.times
    dens_minus = _linear_flow_density(traj, 0, ts)
    dens_plus = _linear_flow_density(traj, ts.size - 1, ts)
    minus_masses, plus_masses, flags = [], [], []
    for j in range(decomp.count):
        a, b = decomp.interval(j)
        m_minus = timegrid.pl_integral(ts, dens_minus, a, b)
        m_plus = timegrid.pl_integral(ts, dens_plus, a, b)
        minus_masses.append(m_minus)
        plus_masses.append(m_plus)
        flags.append(m_minus > threshold or m_plus > threshold)
    total = timegrid.pl_integral(ts, dens_minus, ts[0], ts[-1]) + timegrid.pl_integral(
        ts, dens_plus, ts[0], ts[-1]
    )
    return ExceptionalReport(
        flags=tuple(flags),
        minus_masses=tuple(minus_masses),
        plus_masses=tuple(plus_masses),
        threshold=threshold,
        total_linear_mass=total,
        count=int(sum(flags)),
        count_bound=total / threshold,
    )


# ---------------------------------------------------------------------------
# interval-local linear flow comparison


@dataclass(frozen=True)
class FlowComparison:
    """Nonlinear versus endpoint-linear critical-norm masses on one interval.

    For the free equation both ratios are exactly one; for genuinely
    nonlinear runs the measured ratios quantify how far the interval's
    dynamics is from its linear endpoint approximations.
    """

    interval: tuple[float, float]
    nonlinear_mass: float
    linear_masses: tuple[float, float]
    ratios: tuple[float, float]


def linear_flow_check(
    traj: Trajectory, interval, eta: float | None = None
) -> FlowComparison:
    """Compare interval critical-norm mass against flows launched from the
    interval's own endpoints.

    When ``eta`` is given, the interval mass must lie in [eta/2, 2 eta]
    (the hypothesis under which the comparison is meaningful); violations
    are rejected with the measured mass.
    """
    a, b = float(interval[0]), float(interval[1])
    ts = traj.times
    # every density is only needed on the snapshot panels overlapping [a, b]
    i0 = max(0, int(np.searchsorted(ts, a, side="right")) - 1)
    i1 = min(ts.size - 1, int(np.searchsorted(ts, b, side="left")))
    sub = ts[i0 : i1 + 1]
    dens = _critical_densities(traj.grid, traj.values[i0 : i1 + 1])
    mass = timegrid.pl_integral(sub, dens, a, b)
    if eta is not None and not (eta / 2.0 <= mass <= 2.0 * eta):
        raise ValueError(
            f"interval mass {mass:.4g} outside [eta/2, 2 eta] = "
            f"[{eta / 2:.4g}, {2 * eta:.4g}]"
        )
    lin = []
    for t_anchor_req in (a, b):
        idx = int(np.argmin(np.abs(ts - t_anchor_req)))
        lin.append(timegrid.pl_integral(sub, _linear_flow_density(traj, idx, sub), a, b))
    ratios = tuple(m / mass if mass > 0 else math.inf for m in lin)
    return FlowComparison((a, b), mass, (lin[0], lin[1]), ratios)


# ---------------------------------------------------------------------------
# bubbles


#: ratio of consecutive radii on find_bubble's ladder
_LADDER_RATIO = math.sqrt(2.0)


@dataclass(frozen=True)
class BubbleReport:
    """An entry of the report's ``bubbles`` list: its keys, in order."""

    interval: int
    witness_time: float       # snapshot time attaining the minimal localized mass
    radius: float
    inverse_scale: float      # N = 1/R
    attained_mass: float
    threshold: float


def find_bubble(
    traj: Trajectory,
    decomp: IntervalDecomposition,
    j: int,
    mass_fraction: float,
) -> BubbleReport | None:
    """Search for origin-centred mass concentration on interval j.

    Walks a geometric radius ladder and returns the smallest radius R such
    that every snapshot in the interval keeps localized mass at least
    mass_fraction * sqrt(E) * |I_j|^{1/2} inside B(0, R); absent when even
    the full ball fails.  The inverse scale 1/R is the bubble frequency.
    """
    if not (0.0 < mass_fraction < 1.0):
        raise ValueError("mass_fraction must lie in (0, 1)")
    a, b = decomp.interval(j)
    sel = np.nonzero((traj.times >= a - 1e-12) & (traj.times <= b + 1e-12))[0]
    if not sel.size:
        raise ValueError("interval contains no snapshot")
    e = float(traj.energy_series[0])
    threshold = mass_fraction * math.sqrt(max(e, 0.0)) * math.sqrt(b - a)
    if threshold <= 0.0:
        # zero energy forces the zero field: nothing can concentrate
        return None
    g = traj.grid
    r_floor = 4.0 * float(g.nodes[0] if g.nodes[0] > 0 else g.nodes[1])
    ladder = []
    radius = r_floor
    while radius < g.r_max:
        ladder.append(radius)
        radius *= _LADDER_RATIO
    ladder.append(float(g.r_max))
    values = traj.values[sel]
    for radius in ladder:
        masses = _local_masses(g, values, radius)
        k = int(np.argmin(masses))   # the earliest snapshot on ties
        m_min = masses[k]
        if m_min >= threshold:
            return BubbleReport(
                interval=j,
                witness_time=float(traj.times[sel[k]]),
                radius=float(radius),
                inverse_scale=1.0 / float(radius),
                attained_mass=float(m_min),
                threshold=float(threshold),
            )
    return None


# ---------------------------------------------------------------------------
# window statistics


def half_norm_ratio(decomp: IntervalDecomposition, window) -> float:
    """sum of |I_j|^{1/2} over intervals contained in the window, divided
    by |window|^{1/2}."""
    a, b = float(window[0]), float(window[1])
    if b <= a:
        raise ValueError("empty window")
    total = 0.0
    for j in range(decomp.count):
        ja, jb = decomp.interval(j)
        if ja >= a - 1e-12 and jb <= b + 1e-12:
            total += math.sqrt(jb - ja)
    return total / math.sqrt(b - a)


def largest_fraction(decomp: IntervalDecomposition, window) -> float:
    """max |I_j| / |window| over intervals contained in the window."""
    a, b = float(window[0]), float(window[1])
    if b <= a:
        raise ValueError("empty window")
    best = 0.0
    for j in range(decomp.count):
        ja, jb = decomp.interval(j)
        if ja >= a - 1e-12 and jb <= b + 1e-12:
            best = max(best, jb - ja)
    return best / (b - a)


def window_statistics(decomp: IntervalDecomposition) -> dict:
    """Supremum of the half-norm ratio and the matching largest-fraction
    value over all windows whose endpoints are decomposition boundaries."""
    b = decomp.boundaries
    roots = [math.sqrt(hi - lo) for lo, hi in zip(b[:-1], b[1:])]
    # with half_norm_ratio's 1e-12 slack, the window from b[i] to b[j]
    # contains intervals first[i] <= k < stop[j]; both grow with the index
    first = [bisect.bisect_left(b, x - 1e-12) for x in b]
    stop = [bisect.bisect_right(b, x + 1e-12) - 1 for x in b]
    sup_ratio, arg = 0.0, None
    for i in range(len(b) - 1):
        # the running sum makes half_norm_ratio's additions in its order
        total, k = 0.0, first[i]
        for j in range(i + 1, len(b)):
            while k < stop[j]:
                total += roots[k]
                k += 1
            ratio = total / math.sqrt(b[j] - b[i])
            if ratio > sup_ratio:
                sup_ratio, arg = ratio, (b[i], b[j])
    out = {"sup_half_norm_ratio": sup_ratio, "window": arg}
    if arg is not None:
        out["largest_fraction_at_sup"] = largest_fraction(decomp, arg)
    return out


# ---------------------------------------------------------------------------
# nesting algorithm


@dataclass(frozen=True)
class NestResult:
    t_star: float
    chain: tuple               # interval indices, lengths dyadically decreasing
    achieved_kappa: float      # max_k dist(t_star, I_k) / |I_k|
    half_factor: float

    @property
    def depth(self) -> int:
        return len(self.chain)


def bourgain_nest(
    decomp: IntervalDecomposition,
    half_factor: float = 0.5,
) -> NestResult | None:
    """Extract a dyadically shrinking chain of unexceptional intervals
    clustering at one time.

    Repeatedly: take the connected run of unexceptional intervals with the
    most members, pick its largest interval (ties to the lowest index),
    discard every interval longer than half_factor times the pick, and
    recurse on the largest surviving run; stop when no interval survives.
    t_star is the midpoint of the final run, so the chain lengths decay
    geometrically and every chain interval stays within a bounded multiple
    of its own length from t_star.  Returns None when the decomposition
    has no unexceptional interval.

    The achieved closeness (largest distance from t_star over length) is
    reported; ``check_nest`` verifies it against a tolerance.
    """
    if not decomp.exceptional:
        raise ValueError("decomposition has no exceptional flags; classify first")
    if not (0.0 < half_factor < 1.0):
        raise ValueError("half_factor must lie in (0, 1)")
    alive = [j for j in range(decomp.count) if not decomp.exceptional[j]]
    if not alive:
        return None
    lengths = decomp.lengths()

    def runs(indices: list[int]) -> list[list[int]]:
        out: list[list[int]] = []
        for idx in indices:
            if out and idx == out[-1][-1] + 1:
                out[-1].append(idx)
            else:
                out.append([idx])
        return out

    comp = max(runs(alive), key=len)  # ties: first (leftmost) via max semantics
    chain: list[int] = []
    while True:
        # largest interval, lowest index on ties
        pick = max(comp, key=lambda j: (lengths[j], -j))
        chain.append(pick)
        cutoff = half_factor * lengths[pick]
        survivors = [j for j in comp if lengths[j] <= cutoff]
        if not survivors:
            break
        comp = max(runs(survivors), key=len)

    lo = decomp.boundaries[comp[0]]
    hi = decomp.boundaries[comp[-1] + 1]
    t_star = 0.5 * (lo + hi)
    achieved = 0.0
    for j in chain:
        a, b = decomp.interval(j)
        dist = max(a - t_star, t_star - b, 0.0)
        achieved = max(achieved, dist / lengths[j])
    return NestResult(
        t_star=float(t_star),
        chain=tuple(chain),
        achieved_kappa=float(achieved),
        half_factor=half_factor,
    )


def check_nest(decomp: IntervalDecomposition, nest: NestResult, kappa: float) -> list[str]:
    """Exact invariant checks for a nest result; returns violations."""
    problems = []
    lengths = decomp.lengths()
    for k in range(len(nest.chain) - 1):
        l0, l1 = lengths[nest.chain[k]], lengths[nest.chain[k + 1]]
        if not l1 <= nest.half_factor * l0:
            problems.append(
                f"chain lengths not geometrically decaying at step {k}: {l0} -> {l1}"
            )
    for k, j in enumerate(nest.chain):
        a, b = decomp.interval(j)
        dist = max(a - nest.t_star, nest.t_star - b, 0.0)
        if dist > kappa * lengths[j] * (1.0 + 1e-12):
            problems.append(
                f"chain interval {j} at distance {dist:.3g} > kappa * length"
            )
    for j in nest.chain:
        if decomp.exceptional and decomp.exceptional[j]:
            problems.append(f"chain interval {j} is exceptional")
    return problems
