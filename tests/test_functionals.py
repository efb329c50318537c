import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nlslab import (
    EvolutionConfig,
    energy,
    evolve,
    gaussian_field,
    is_admissible,
    local_mass,
    lp_norm,
    make_spectral_grid,
    mass_flux_check,
    momentum_flux_identity_check,
    morawetz_check,
    spacetime_norm,
)
from nlslab.functionals import (
    HARDY_RATIO_BOUND,
    MASS_FLUX_CONSTANT,
    MORAWETZ_RATIO_BOUND,
    AdmissiblePair,
    MorawetzWeight,
    _gradient_values,
    _mixed_norm,
    bump,
    default_admissible_pairs,
    hardy_bound_check,
)

from tests.conftest import make_synthetic_trajectory


def scaled_trajectory(traj, lam):
    """The critical rescaling lam^{-(n-2)/2} u(t / lam^2, x / lam) of a
    trajectory, exact on the grid of radius lam r_max, whose nodes are lam
    times the original ones: the same samples times lam^{-(n-2)/2}."""
    g = traj.grid
    gs = make_spectral_grid(g.dimension, g.n_points, lam * g.r_max)
    s = lam ** (-(g.dimension - 2) / 2.0)
    snaps = [gs.field(s * v) for v in traj.values]
    return make_synthetic_trajectory(gs, lam**2 * traj.times, snaps, mu=traj.config.mu)


# ---------------------------------------------------------------------------
# admissibility


def test_admissible_endpoint_cases():
    assert is_admissible(math.inf, 2.0, 3)
    assert is_admissible(math.inf, 2.0, 7)
    assert is_admissible(2.0, 6.0, 3)          # endpoint pair 2n/(n-2) at n=3
    assert not is_admissible(2.0, 2.0, 3)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
def test_default_pairs_satisfy_identity(n):
    for pr in default_admissible_pairs(n):
        assert is_admissible(pr.q, pr.r, n)
        inv_q = 0.0 if math.isinf(pr.q) else 1.0 / pr.q
        inv_r = 0.0 if math.isinf(pr.r) else 1.0 / pr.r
        assert abs(inv_q + n / (2.0 * pr.r if not math.isinf(pr.r) else math.inf) - n / 4.0) < 1e-12 or \
            abs(inv_q + n / 2.0 * inv_r - n / 4.0) < 1e-12


def test_admissible_pair_constructor_rejects():
    with pytest.raises(ValueError):
        AdmissiblePair(2.0, 2.0, 3)


@given(st.integers(min_value=3, max_value=9), st.floats(min_value=2.0, max_value=50.0))
@settings(max_examples=100, deadline=None)
def test_admissibility_forces_unique_r(n, q):
    # given q, the admissible r is unique: r = 2nq / (nq - 4)
    denom = n * q - 4.0
    r = 2.0 * n * q / denom
    if r >= 2.0:
        assert is_admissible(q, r, n)
        assert not is_admissible(q, r * 1.01, n)


# ---------------------------------------------------------------------------
# energy


def test_energy_zero(g3):
    e = energy(g3.field(np.zeros(g3.n_points)), 1)
    assert e.total == e.kinetic == e.potential == 0.0


def test_energy_against_high_resolution_quadrature_oracle():
    # oracle: continuum quadrature of the known integrands for exp(-r^2)
    n = 3
    kin_oracle = 4 * math.pi * quad(lambda r: 0.5 * (2 * r * np.exp(-(r**2))) ** 2 * r**2, 0, 20)[0]
    pot_oracle = 4 * math.pi * quad(lambda r: (1.0 / 6.0) * np.exp(-6 * r**2) * r**2, 0, 20)[0]
    g = make_spectral_grid(n, 1024, 32.0)
    e = energy(gaussian_field(g), 1)
    assert abs(e.kinetic - kin_oracle) / kin_oracle < 1e-6
    assert abs(e.potential - pot_oracle) / pot_oracle < 1e-6
    assert abs(e.total - (kin_oracle + pot_oracle)) / (kin_oracle + pot_oracle) < 1e-6


def test_energy_sign_focusing(g3):
    u = gaussian_field(g3)
    e_def = energy(u, 1)
    e_foc = energy(u, -1)
    assert e_foc.kinetic == e_def.kinetic
    assert e_foc.potential == -e_def.potential


def test_energy_rescale_invariance():
    # lam^{-1/2} u(x / lam) of u = exp(-r^2), in closed form
    g = make_spectral_grid(3, 1024, 32.0)
    e0 = energy(gaussian_field(g), 1).total
    for lam in (0.6, 1.5):
        e1 = energy(gaussian_field(g, lam**-0.5, lam), 1).total
        assert abs(e1 - e0) / e0 < 1e-12


# ---------------------------------------------------------------------------
# bump and local mass


def test_bump_shape():
    s = np.linspace(0, 2, 1001)
    chi = bump(s)
    assert np.all((0 <= chi) & (chi <= 1))
    assert np.all(np.diff(chi) <= 1e-15)          # non-increasing
    assert bump(0.5) == 1.0 and bump(1.0) == 0.0
    # C^2: the slope vanishes at both ramp ends, and its largest size is
    # the one MASS_FLUX_CONSTANT is built from
    slope = np.gradient(chi, s)
    assert abs(slope[250]) < 1e-3 and abs(slope[500]) < 1e-3   # s = 1/2, s = 1
    assert abs(np.abs(slope).max() - MASS_FLUX_CONSTANT / (2 * math.sqrt(2))) < 1e-3


def test_local_mass_zero(g3):
    assert local_mass(g3.field(np.zeros(g3.n_points)), 1.0) == 0.0


def test_local_mass_full_ball_is_l2(g3):
    u = gaussian_field(g3)
    assert abs(local_mass(u, 2.0 * g3.r_max) - lp_norm(u, 2)) < 1e-10


@given(st.floats(min_value=0.1, max_value=20.0), st.floats(min_value=1.0, max_value=3.0))
@settings(max_examples=60, deadline=None)
def test_local_mass_monotone_in_radius(r1, factor):
    g = make_spectral_grid(3, 256, 16.0)
    u = gaussian_field(g, amplitude=1.1, width=1.3)
    assert local_mass(u, r1) <= local_mass(u, r1 * factor) + 1e-15


def test_local_mass_rejects_bad_radius(g3):
    with pytest.raises(ValueError):
        local_mass(g3.field(np.zeros(g3.n_points)), 0.0)


# ---------------------------------------------------------------------------
# flux bound


@pytest.mark.parametrize("radius", [1.0, 2.0, 4.0])
def test_flux_ratio_free_gaussian(traj_free, radius):
    rep = mass_flux_check(traj_free, radius)
    assert rep.ratio <= 1.05


@pytest.mark.parametrize("radius", [1.0, 2.0, 4.0])
def test_flux_ratio_defocusing(traj_defocusing, radius):
    rep = mass_flux_check(traj_defocusing, radius)
    assert rep.ratio <= 1.05


def test_flux_stationary_modulus_synthetic(g3, synth_factory):
    # pure phase rotation leaves |u| pointwise fixed: flux is exactly zero
    u = gaussian_field(g3)
    times = np.linspace(0, 0.2, 9)
    snaps = [g3.field(np.exp(1j * 3.0 * t) * u.values) for t in times]
    traj = synth_factory(g3, times, snaps, mu=0)
    rep = mass_flux_check(traj, 1.0)
    assert rep.max_rate < 1e-12


def test_flux_rejects_focusing(g3, synth_factory):
    u = gaussian_field(g3)
    times = np.linspace(0, 0.1, 5)
    traj = synth_factory(g3, times, [u] * 5, mu=-1)
    with pytest.raises(ValueError):
        mass_flux_check(traj, 1.0)


# ---------------------------------------------------------------------------
# growth (hardy-type) bound


def test_hardy_zero_field(g3):
    assert hardy_bound_check(g3.field(np.zeros(g3.n_points)), 1.0) == 0.0


def test_hardy_sup_stable_under_refinement():
    radii = np.geomspace(0.25, 8.0, 17)
    sups = []
    for n_pts in (512, 1024):
        g = make_spectral_grid(3, n_pts, 32.0)
        u = gaussian_field(g)
        sups.append(max(hardy_bound_check(u, float(r)) for r in radii))
    assert abs(sups[1] - sups[0]) / sups[0] < 0.05
    assert sups[1] < HARDY_RATIO_BOUND


def test_hardy_rescale_invariance():
    # lam^{-1/2} u(x / lam) on the grid of radius lam r_max is the same
    # samples times lam^{-1/2}
    lam = 1.4
    g, gs = make_spectral_grid(3, 1024, 32.0), make_spectral_grid(3, 1024, lam * 32.0)
    u = gaussian_field(g)
    v = gs.field(lam**-0.5 * u.values)
    for radius in (0.5, 1.0, 2.0):
        r0 = hardy_bound_check(u, radius)
        r1 = hardy_bound_check(v, lam * radius)
        assert abs(r1 - r0) < 1e-12


# ---------------------------------------------------------------------------
# spacetime norms


def test_spacetime_zero(g3, synth_factory):
    times = np.linspace(0, 1, 5)
    traj = synth_factory(g3, times, [g3.field(np.zeros(g3.n_points))] * 5)
    assert spacetime_norm(traj, 2.0, 2.0) == 0.0
    assert all(spacetime_norm(traj, p.q, p.r) == 0.0 for p in default_admissible_pairs(3))


def test_spacetime_constant_in_time(g3, synth_factory):
    u = gaussian_field(g3)
    times = np.linspace(0, 2, 9)
    traj = synth_factory(g3, times, [u] * 9)
    for q, r in ((2.0, 4.0), (10.0 / 3, 10.0 / 3)):
        expected = 2.0 ** (1.0 / q) * lp_norm(u, r)
        assert abs(spacetime_norm(traj, q, r) - expected) < 1e-10


def test_spacetime_sup_norm_is_l2_for_free_flow(traj_free):
    val = spacetime_norm(traj_free, math.inf, 2.0)
    assert abs(val - math.sqrt(traj_free.mass_series[0])) < 1e-9


def test_strichartz_finite_and_stable_under_dt(g3_mid):
    u0 = gaussian_field(g3_mid)
    vals = []
    for dt in (2e-3, 1e-3):
        cfg = EvolutionConfig(dimension=3, mu=1, dt=dt, snapshot_stride=int(0.01 / dt))
        traj = evolve(u0, 0.0, 0.5, cfg)
        grad = _gradient_values(traj)
        vals.append(max(_mixed_norm(traj, grad, pr.q, pr.r)
                        for pr in default_admissible_pairs(3)))
    assert all(math.isfinite(v) and v > 0 for v in vals)
    assert abs(vals[1] - vals[0]) / vals[0] < 0.02


# ---------------------------------------------------------------------------
# virial weight


def test_weight_spot_values_exact():
    _, lap_a, _ = MorawetzWeight(1.0, 3).evaluate(0.0)
    assert lap_a == 3.0                      # (n-1)/eps + eps^2/eps^3 = 2 + 1
    _, _, nb5 = MorawetzWeight(1.0, 5).evaluate(0.0)
    assert nb5 == 35.0                       # 8 + 12 + 15
    # first curvature term vanishes identically at n = 3
    for x in (0.0, 0.3, 0.9):
        _, _, nb3 = MorawetzWeight(1e-3, 3).evaluate(x)
        expected = 6 * 0 + 15 * (1e-3) ** 4 / ((1e-3) ** 2 + x**2) ** 3.5
        assert abs(nb3 - expected) < 1e-12 * max(1.0, abs(expected))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3])
def test_weight_positivity(n, eps):
    radii = np.linspace(0.0, 1.0, 513)
    _, lap_a, neg_bilap = MorawetzWeight(eps, n).evaluate(radii)
    assert np.all(lap_a > 0)
    assert np.all(neg_bilap > 0)


def test_weight_rejects_outside_unit_ball():
    with pytest.raises(ValueError):
        MorawetzWeight(0.1, 3).evaluate(1.5)


# ---------------------------------------------------------------------------
# weighted spacetime bound


def test_morawetz_zero(g3, synth_factory):
    times = np.linspace(0, 1, 5)
    traj = synth_factory(g3, times, [g3.field(np.zeros(g3.n_points))] * 5)
    assert morawetz_check(traj, 1.0).lhs == 0.0


@pytest.mark.parametrize("A", [1.0, 2.0, 4.0])
def test_morawetz_ratio_under_bound(traj_defocusing, A):
    rep = morawetz_check(traj_defocusing, A)
    assert rep.ratio <= MORAWETZ_RATIO_BOUND


def test_morawetz_scale_invariance(traj_defocusing):
    g5 = make_spectral_grid(5, 384, 16.0)
    cfg5 = EvolutionConfig(dimension=5, mu=1, dt=1e-3, snapshot_stride=10)
    for traj in (traj_defocusing, evolve(gaussian_field(g5), 0.0, 0.4, cfg5)):
        rep0 = morawetz_check(traj, 2.0)
        rep1 = morawetz_check(scaled_trajectory(traj, 0.5), 2.0)
        assert abs(rep1.ratio - rep0.ratio) / rep0.ratio < 1e-10


def test_morawetz_regularized_converges_from_below(traj_defocusing):
    rep = morawetz_check(traj_defocusing, 1.0, (1e-2, 1e-3))
    sharp, reg = rep.lhs, rep.regularized
    assert reg[1e-2] < reg[1e-3] < sharp
    assert abs(reg["richardson"] - sharp) < abs(reg[1e-2] - sharp)
    # a Richardson value needs two epsilons
    assert morawetz_check(traj_defocusing, 1.0, (1e-2,)).regularized == {1e-2: reg[1e-2]}


def test_morawetz_rejects_small_A(traj_defocusing):
    with pytest.raises(ValueError):
        morawetz_check(traj_defocusing, 0.5)


# ---------------------------------------------------------------------------
# momentum-flux identity


def test_identity_zero_trajectory(g3, synth_factory):
    times = np.linspace(0, 0.1, 6)
    traj = synth_factory(g3, times, [g3.field(np.zeros(g3.n_points))] * 6)
    rep = momentum_flux_identity_check(traj, 0.5)
    assert rep.max_defect == 0.0


def test_identity_free_gaussian_reference_resolution():
    g = make_spectral_grid(3, 1024, 32.0)
    u0 = gaussian_field(g)
    cfg = EvolutionConfig(dimension=3, mu=0, dt=1e-3, snapshot_stride=10)
    traj = evolve(u0, 0.0, 0.2, cfg)
    rep = momentum_flux_identity_check(traj, 0.5)
    assert rep.max_defect < 1e-3


def test_identity_rejects_unresolved_eps(traj_defocusing):
    with pytest.raises(ValueError):
        momentum_flux_identity_check(traj_defocusing, 1e-3)


# ---------------------------------------------------------------------------
# row reductions against the per-snapshot loops they replaced


def test_row_reductions_equal_per_snapshot_loops(traj_defocusing):
    # every reference below is the old one-snapshot-at-a-time arithmetic;
    # the row sums must reproduce it bit for bit, not within a tolerance
    from nlslab.functionals import (
        _critical_densities,
        _local_masses,
        _mass_series,
        _morawetz_densities,
        _weight_derivs,
    )
    from nlslab.grid import _lp_norms
    from nlslab.transform import get_transform

    traj = traj_defocusing
    g = traj.grid
    w, r, n = g.weights, g.nodes, g.dimension
    rows = [traj.values[i].copy() for i in range(traj.times.size)]

    def loop(f):
        return np.array([f(v) for v in rows])

    assert np.array_equal(_mass_series(g, traj.values), loop(lambda v: np.sum(w * np.abs(v) ** 2)))
    assert np.array_equal(_critical_densities(g, traj.values),
                          loop(lambda v: np.sum(w * np.abs(v) ** 10.0)))
    chi = bump(r / 2.0)
    assert np.array_equal(_local_masses(g, traj.values, 2.0),
                          loop(lambda v: math.sqrt(np.sum(w * chi**2 * np.abs(v) ** 2))))
    for p in (2.0, 10.0 / 3.0, 6.0):
        assert np.array_equal(_lp_norms(g, traj.values, p),
                              loop(lambda v: np.sum(w * np.abs(v) ** p) ** (1.0 / p)))
    assert np.array_equal(_lp_norms(g, traj.values, math.inf), loop(lambda v: np.abs(v).max()))

    # the Morawetz densities row by row, so that one ulp of one density
    # shows, at the radius of each snapshot panel and of the whole span
    ts = traj.times
    radii = [20.0 * math.sqrt(b - a) for a, b in zip(ts[:-1], ts[1:])]
    for radius in radii + [2.0 * math.sqrt(traj.span)]:
        mask = r <= radius
        wq = w[mask] / r[mask]
        dens = loop(lambda v: np.sum(wq * np.abs(v[mask]) ** 6.0))
        assert np.array_equal(_morawetz_densities(traj, radius, lambda x: x), dens)
    assert morawetz_check(traj, 2.0).lhs == np.trapezoid(dens, ts)

    eps = 0.5
    s2 = eps * eps + r * r
    a_r, a_rr = r / np.sqrt(s2), eps * eps / s2**1.5
    _, lap_a, neg_bilap = _weight_derivs(eps, n, r)
    tr = get_transform(g)
    lhs, rhs = [], []
    for v in rows:
        ur = tr.derivative(tr.coefficients(v))
        lhs.append(float(np.sum(w * a_r * np.imag(ur * np.conj(v)))))
        val = 2.0 * float(np.sum(w * a_rr * np.abs(ur) ** 2))
        val += 0.5 * float(np.sum(w * neg_bilap * np.abs(v) ** 2))
        val += (2.0 / n) * float(np.sum(w * lap_a * np.abs(v) ** 6.0))
        rhs.append(val)
    lhs = np.asarray(lhs)
    rep = momentum_flux_identity_check(traj, eps)
    assert rep.rhs_values == tuple(rhs)
    assert rep.lhs_rates == tuple((lhs[2:] - lhs[:-2]) / (traj.times[2:] - traj.times[:-2]))
