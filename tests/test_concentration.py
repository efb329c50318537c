import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from nlslab import (
    EvolutionConfig,
    bourgain_nest,
    classify_exceptional,
    evolve,
    find_bubble,
    gaussian_field,
    get_propagator,
    get_transform,
    greedy_subdivide,
    half_norm_ratio,
    largest_fraction,
    linear_flow_check,
    make_spectral_grid,
    timegrid,
)
from nlslab.concentration import (
    ResolutionError,
    _linear_flow_density,
    check_nest,
    window_statistics,
)
from nlslab.functionals import bump, critical_density
from nlslab.grid import sphere_area

from tests.conftest import synthetic_decomposition


def density_trajectory(grid, times, density, synth, mu=0):
    """Synthetic trajectory whose critical-norm density is exactly
    ``density(t)``: snapshots are a fixed profile scaled in amplitude."""
    n = grid.dimension
    expo = 2.0 * (n + 2) / (n - 2)
    base = gaussian_field(grid)
    d0 = float(np.sum(grid.weights * np.abs(base.values) ** expo))
    snaps = []
    for t in times:
        scale = (density(t) / d0) ** (1.0 / expo)
        snaps.append(grid.field(scale * base.values))
    return synth(grid, times, snaps, mu=mu)


# ---------------------------------------------------------------------------
# greedy subdivision


def test_greedy_constant_density(g3, synth_factory):
    times = np.linspace(0.0, 10.0, 201)
    traj = density_trajectory(g3, times, lambda t: 1.0, synth_factory)
    d = greedy_subdivide(traj, 1.0)
    assert d.count == 10
    assert not d.tail_flag
    np.testing.assert_allclose(d.lengths(), np.ones(10), atol=1e-9)
    np.testing.assert_allclose(d.masses, np.ones(10), atol=1e-9)


def test_greedy_ramp_density_boundaries(g3, synth_factory):
    # density f(t) = t on [0, 2]: cumulative t^2/2 crosses eta = 0.5 at
    # 1, sqrt(2), sqrt(3), 2 (linear density makes the interpolant exact)
    times = np.linspace(0.0, 2.0, 41)
    traj = density_trajectory(g3, times, lambda t: t, synth_factory)
    d = greedy_subdivide(traj, 0.5)
    expected = [0.0, 1.0, math.sqrt(2.0), math.sqrt(3.0), 2.0]
    np.testing.assert_allclose(d.boundaries, expected, atol=1e-12)
    assert not d.tail_flag


def test_greedy_boundaries_match_cumulative_oracle(g3, synth_factory):
    # oracle: brute-force cumulative integration on a very fine auxiliary
    # mesh, inverted by bisection
    density = lambda t: 0.3 + np.sin(3.0 * t) ** 2
    times = np.linspace(0.0, 4.0, 161)
    traj = density_trajectory(g3, times, density, synth_factory)
    eta = 0.5
    d = greedy_subdivide(traj, eta)

    dens_samples = critical_density(traj.grid, traj.values)

    def cumulative(t):
        grid_t = np.linspace(0.0, t, 20001)
        return np.trapezoid(np.interp(grid_t, times, dens_samples), grid_t)

    total = cumulative(4.0)
    k = 1
    for b in d.boundaries[1:-1]:
        target = k * eta
        oracle_b = brentq(lambda t: cumulative(t) - target, 0.0, 4.0, xtol=1e-10)
        assert abs(b - oracle_b) < 1e-6
        k += 1


def test_greedy_masses_in_window(g3, synth_factory):
    rng = np.random.default_rng(3)
    times = np.linspace(0.0, 3.0, 121)
    bumps = rng.uniform(0.2, 2.0, times.size)
    traj = density_trajectory(g3, times, lambda t: np.interp(t, times, bumps), synth_factory)
    eta = 0.31
    d = greedy_subdivide(traj, eta)
    assert not d.tail_flag          # the last interval absorbs the remainder
    for m in d.masses:
        assert eta * (1 - 1e-9) <= m <= 2 * eta * (1 + 1e-9)
    assert abs(sum(d.masses) - np.trapezoid(critical_density(traj.grid, traj.values), times)) < 1e-9


def test_greedy_small_total_is_tail(g3, synth_factory):
    times = np.linspace(0.0, 1.0, 11)
    traj = density_trajectory(g3, times, lambda t: 0.01, synth_factory)
    d = greedy_subdivide(traj, 1.0)
    assert d.count == 1 and d.tail_flag
    assert abs(d.masses[0] - 0.01) < 1e-9


def test_greedy_resolution_error(g3, synth_factory):
    times = np.linspace(0.0, 1.0, 3)   # coarse snapshots, heavy panels
    traj = density_trajectory(g3, times, lambda t: 10.0, synth_factory)
    with pytest.raises(ResolutionError):
        greedy_subdivide(traj, 0.5)


@pytest.mark.xfail(
    strict=True,
    reason="known defect: at the default eta = total/10 the last cut is an exact "
    "tie that rounding decides, so one ulp of eta moves the interval count",
)
def test_greedy_count_stable_at_default_eta(g3, synth_factory):
    times = np.linspace(0.0, 1.0, 41)
    for density in (lambda t: 1.0, lambda t: t, lambda t: 1.0 + 0.5 * t):
        traj = density_trajectory(g3, times, density, synth_factory)
        eta = float(np.trapezoid(critical_density(traj.grid, traj.values), times)) / 10.0  # the report default
        counts = {
            greedy_subdivide(traj, e).count
            for e in (np.nextafter(eta, 0.0), eta, np.nextafter(eta, np.inf))
        }
        assert len(counts) == 1, counts


def test_whole_span_pl_integral_is_the_trapezoid_rule():
    # the report's whole-span integrals are np.trapezoid over the snapshot
    # times: bit for bit the interpolant's integral over [t_0, t_S], since
    # np.interp returns the samples themselves at the nodes
    rng = np.random.default_rng(11)
    for _ in range(2000):
        size = int(rng.integers(3, 120))
        ts = rng.normal() + np.cumsum(10.0 ** rng.uniform(-6.0, 1.0, size))
        vs = 10.0 ** rng.uniform(-40.0, 40.0, size)
        assert timegrid.pl_integral(ts, vs, ts[0], ts[-1]) == np.trapezoid(vs, ts)


# ---------------------------------------------------------------------------
# exceptional classification


@pytest.fixture(scope="module")
def free_traj_for_classify():
    g = make_spectral_grid(3, 256, 16.0)
    u0 = gaussian_field(g)
    cfg = EvolutionConfig(dimension=3, mu=0, dt=2e-3, snapshot_stride=5)
    return evolve(u0, 0.0, 0.5, cfg)


def test_classify_free_flow_all_exceptional(free_traj_for_classify):
    traj = free_traj_for_classify
    dens = critical_density(traj.grid, traj.values)
    total = float(np.trapezoid(dens, traj.times))
    eta = total / 5.0
    d = greedy_subdivide(traj, eta)
    rep = classify_exceptional(d, traj, eta / 10.0)
    # free flow: u_minus = u_plus = u, so every interval with mass >= eta
    # exceeds any threshold below eta
    for j in d.non_tail_indices():
        assert rep.flags[j]
    np.testing.assert_allclose(rep.minus_masses, d.masses, rtol=1e-9, atol=1e-12)


def test_classify_infinite_threshold_none(free_traj_for_classify):
    traj = free_traj_for_classify
    d = greedy_subdivide(traj, 0.05)
    rep = classify_exceptional(d, traj, math.inf)
    assert not any(rep.flags)
    assert rep.count == 0


def test_classify_count_bound_exact(free_traj_for_classify):
    # counting oracle: direct summation over flagged intervals
    traj = free_traj_for_classify
    d = greedy_subdivide(traj, 0.05)
    for threshold in (0.01, 0.03, 0.2):
        rep = classify_exceptional(d, traj, threshold)
        flagged_mass = sum(
            max(rep.minus_masses[j], rep.plus_masses[j])
            for j in range(d.count)
            if rep.flags[j]
        )
        assert rep.count * threshold <= flagged_mass + 1e-12
        assert rep.count <= rep.count_bound + 1e-12


def test_linear_flow_density_equals_per_time_loop(free_traj_for_classify):
    traj = free_traj_for_classify
    tr, prop = get_transform(traj.grid), get_propagator(traj.grid)
    n = traj.grid.dimension
    expo = 2.0 * (n + 2) / (n - 2)
    for anchor in (0, 17, traj.times.size - 1):
        coeffs = tr.coefficients(traj.values[anchor])
        for times in (traj.times, traj.times[20:31]):
            expected = []
            for t in times:
                flow = tr.backward(prop.evolve_coeffs(coeffs, t - traj.times[anchor]))
                expected.append(np.sum(traj.grid.weights * np.abs(flow) ** expo))
            assert np.array_equal(_linear_flow_density(traj, anchor, times), expected)


# ---------------------------------------------------------------------------
# interval-local flow comparison


def test_flow_check_free_ratios_one(free_traj_for_classify):
    traj = free_traj_for_classify
    rep = linear_flow_check(traj, (0.1, 0.3))
    assert abs(rep.ratios[0] - 1.0) < 1e-9
    assert abs(rep.ratios[1] - 1.0) < 1e-9


def test_flow_check_hypothesis_window(free_traj_for_classify):
    traj = free_traj_for_classify
    dens = critical_density(traj.grid, traj.values)
    total = float(np.trapezoid(dens, traj.times))
    with pytest.raises(ValueError):
        linear_flow_check(traj, (traj.t_minus, traj.t_plus), eta=total / 10)


def test_flow_check_ratios_stable_under_refinement():
    # moderate defocusing data: the ratios are positive and stable (20%)
    # when the time discretization is refined
    g = make_spectral_grid(3, 256, 16.0)
    u0 = gaussian_field(g)
    ratios = []
    for dt in (2e-3, 1e-3):
        cfg = EvolutionConfig(dimension=3, mu=1, dt=dt, snapshot_stride=int(0.01 / dt))
        traj = evolve(u0, 0.0, 0.5, cfg)
        rep = linear_flow_check(traj, (0.1, 0.4))
        assert all(r > 0 for r in rep.ratios)
        ratios.append(rep.ratios)
    for a, b in zip(*ratios):
        assert abs(a - b) / a < 0.2


def test_flow_check_small_amplitude_perturbative():
    g = make_spectral_grid(3, 256, 16.0)
    u0 = gaussian_field(g, amplitude=0.05)
    cfg = EvolutionConfig(dimension=3, mu=1, dt=2e-3, snapshot_stride=5)
    traj = evolve(u0, 0.0, 0.5, cfg)
    rep = linear_flow_check(traj, (0.1, 0.4))
    for ratio in rep.ratios:
        assert abs(ratio - 1.0) < 0.1


# ---------------------------------------------------------------------------
# bubbles


def bumped_mass_oracle(width, radius, n=3):
    """Direct quadrature of the cutoff mass of exp(-(r/width)^2)."""
    integrand = lambda r: bump(r / radius) ** 2 * math.exp(-2 * (r / width) ** 2) * r ** (n - 1)
    val, _ = quad(integrand, 0, 10 * max(width, radius), limit=200)
    return math.sqrt(sphere_area(n) * val)


def test_bubble_static_gaussian_half_mass(g3, synth_factory):
    # static trajectory; tune the threshold to half the (unit) mass
    u = gaussian_field(g3)
    mass = math.sqrt(float(np.sum(g3.weights * np.abs(u.values) ** 2)))
    u = g3.field(u.values / mass)            # unit L^2 mass
    times = np.linspace(0.0, 1.0, 11)
    traj = synth_factory(g3, times, [u] * 11, mu=0)
    d = synthetic_decomposition([1.0])
    e = float(traj.energy_series[0])
    fraction = 0.5 / math.sqrt(e)            # threshold = 0.5 exactly
    rep = find_bubble(traj, d, 0, fraction)
    assert rep is not None
    # oracle: solve bumped-mass(R*) = 0.5 for the normalized Gaussian
    norm_width = 1.0
    target = 0.5 * mass                      # oracle works on the unnormalized profile
    oracle_r = brentq(lambda R: bumped_mass_oracle(norm_width, R) - target, 0.05, 16.0)
    ladder = math.sqrt(2.0)
    assert rep.radius / oracle_r < ladder * 1.001
    assert oracle_r / rep.radius < ladder * 1.001
    assert abs(rep.inverse_scale - 1.0 / rep.radius) < 1e-15


def test_bubble_zero_field_absent(g3, synth_factory):
    times = np.linspace(0.0, 1.0, 6)
    traj = synth_factory(g3, times, [g3.field(np.zeros(g3.n_points))] * 6, mu=0)
    d = synthetic_decomposition([1.0])
    assert find_bubble(traj, d, 0, 0.5) is None


def test_bubble_radius_monotone_in_fraction(g3, synth_factory):
    u = gaussian_field(g3)
    times = np.linspace(0.0, 1.0, 6)
    traj = synth_factory(g3, times, [u] * 6, mu=0)
    d = synthetic_decomposition([1.0])
    radii = []
    for frac in (0.1, 0.3, 0.5, 0.7):
        rep = find_bubble(traj, d, 0, frac)
        radii.append(rep.radius if rep else math.inf)
    assert all(r1 <= r2 for r1, r2 in zip(radii, radii[1:]))


# ---------------------------------------------------------------------------
# window statistics


def brute_force_half_norm(decomp, window):
    a, b = window
    total = 0.0
    for j in range(decomp.count):
        ja, jb = decomp.interval(j)
        if ja >= a - 1e-12 and jb <= b + 1e-12:
            total += math.sqrt(jb - ja)
    return total / math.sqrt(b - a)


def test_half_norm_single_interval():
    d = synthetic_decomposition([2.0])
    assert abs(half_norm_ratio(d, d.interval(0)) - 1.0) < 1e-15


@pytest.mark.parametrize("m", [2, 5, 16])
def test_half_norm_equal_intervals(m):
    d = synthetic_decomposition([1.0] * m)
    window = (0.0, float(m))
    assert abs(half_norm_ratio(d, window) - math.sqrt(m)) < 1e-12
    assert abs(largest_fraction(d, window) - 1.0 / m) < 1e-15


@given(st.lists(st.floats(min_value=0.05, max_value=4.0), min_size=2, max_size=24))
@settings(max_examples=80, deadline=None)
def test_window_stats_match_brute_force(lengths):
    d = synthetic_decomposition(lengths)
    b = d.boundaries
    for i, j in itertools.combinations(range(len(b)), 2):
        window = (b[i], b[j])
        assert half_norm_ratio(d, window) == pytest.approx(
            brute_force_half_norm(d, window), abs=1e-12
        )
        # Cauchy-Schwarz chain: largest_fraction * half_norm_ratio^2 >= 1
        assert largest_fraction(d, window) * half_norm_ratio(d, window) ** 2 >= 1.0 - 1e-9


@given(
    st.lists(
        st.sampled_from([3e-13, 0.25, 1.0, 2.0]) | st.floats(min_value=0.05, max_value=4.0),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=80, deadline=None)
def test_window_statistics_equals_brute_force_sup(lengths):
    """Exact equality with the O(J^3) search, equal-length ties and
    intervals inside the 1e-12 containment slack included."""
    d = synthetic_decomposition(lengths)
    b = d.boundaries
    sup, arg = 0.0, None
    for i, j in itertools.combinations(range(len(b)), 2):
        ratio = brute_force_half_norm(d, (b[i], b[j]))
        if ratio > sup:
            sup, arg = ratio, (b[i], b[j])
    stats = window_statistics(d)
    assert stats["sup_half_norm_ratio"] == sup
    assert stats["window"] == arg


def test_window_statistics_sup(g3):
    rng = np.random.default_rng(11)
    d = synthetic_decomposition(rng.uniform(0.1, 2.0, 40))
    stats = window_statistics(d)
    b = d.boundaries
    sup = max(
        half_norm_ratio(d, (b[i], b[j]))
        for i, j in itertools.combinations(range(len(b)), 2)
    )
    assert stats["sup_half_norm_ratio"] == pytest.approx(sup, abs=1e-12)


# ---------------------------------------------------------------------------
# nesting algorithm


def exhaustive_max_chain(decomp, kappa, half=0.5):
    """Oracle: maximal K over all subsets admitting a geometric-decay
    ordering and a common accumulation time within kappa of every member."""
    idx = [j for j in range(decomp.count) if not decomp.exceptional[j]]
    lengths = decomp.lengths()
    best = 0
    for size in range(len(idx), 0, -1):
        if size <= best:
            break
        for sub in itertools.combinations(idx, size):
            lens = sorted((lengths[j] for j in sub), reverse=True)
            if any(lens[k + 1] > half * lens[k] for k in range(len(lens) - 1)):
                continue
            lo = max(decomp.interval(j)[0] - kappa * lengths[j] for j in sub)
            hi = min(decomp.interval(j)[1] + kappa * lengths[j] for j in sub)
            if lo <= hi:
                best = size
                break
    return best


def test_nest_dyadic_example():
    d = synthetic_decomposition([8.0, 4.0, 2.0, 1.0], exceptional=[False] * 4)
    nest = bourgain_nest(d)
    assert nest.chain == (0, 1, 2, 3)
    assert nest.depth == 4
    a, b = d.interval(3)
    assert a <= nest.t_star <= b
    assert not check_nest(d, nest, nest.achieved_kappa)
    # exhaustive oracle confirms 4 is maximal
    assert exhaustive_max_chain(d, nest.achieved_kappa + 1e-9) == 4


def test_nest_single_interval():
    d = synthetic_decomposition([3.0], exceptional=[False])
    nest = bourgain_nest(d)
    assert nest.depth == 1
    assert nest.t_star == pytest.approx(1.5)


def test_nest_requires_flags():
    d = synthetic_decomposition([1.0, 2.0])
    with pytest.raises(ValueError):
        bourgain_nest(d)


def test_nest_all_exceptional_returns_none():
    d = synthetic_decomposition([1.0, 2.0], exceptional=[True, True])
    assert bourgain_nest(d) is None


def test_nest_exceptional_split_runs():
    # exceptional wall between two runs: the bigger run wins
    lengths = [1.0, 1.0, 5.0, 4.0, 2.0, 0.9]
    flags = [False, False, True, False, False, False]
    d = synthetic_decomposition(lengths, exceptional=flags)
    nest = bourgain_nest(d)
    assert all(j in (3, 4, 5) for j in nest.chain)
    assert not check_nest(d, nest, nest.achieved_kappa)


@pytest.mark.parametrize("seed", range(20))
def test_nest_random_families_invariants(seed):
    rng = np.random.default_rng(seed)
    J = 50
    lengths = rng.lognormal(mean=0.0, sigma=1.2, size=J)
    flags = rng.random(J) < 0.1
    d = synthetic_decomposition(lengths, exceptional=flags)
    nest = bourgain_nest(d)
    if nest is None:
        pytest.skip("all intervals exceptional for this seed")
    assert not check_nest(d, nest, nest.achieved_kappa)
    # calibrated logarithmic depth guarantee
    assert nest.depth >= 0.35 * math.log(J)


@pytest.mark.parametrize("seed", range(8))
def test_nest_depth_against_exhaustive_search(seed):
    rng = np.random.default_rng(100 + seed)
    J = int(rng.integers(4, 15))
    lengths = rng.lognormal(mean=0.0, sigma=1.0, size=J)
    flags = rng.random(J) < 0.15
    d = synthetic_decomposition(lengths, exceptional=flags)
    nest = bourgain_nest(d)
    if nest is None:
        pytest.skip("all intervals exceptional for this seed")
    oracle = exhaustive_max_chain(d, max(nest.achieved_kappa, 1.0) + 1e-9)
    assert nest.depth <= oracle
