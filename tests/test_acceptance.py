"""Acceptance suite: every shipped criterion at its stated tolerance.

Each test prints one PASS line on success (run with ``pytest -s`` to see
them); a failed assertion prints the measured value in the usual pytest
report.  The reference configuration is the defocusing unit-amplitude
Gaussian in n = 3 on N = 1024, r_max = 32, dt = 1e-3, unit time.
"""

import math
import time

import numpy as np
import pytest

from nlslab import (
    EvolutionConfig,
    bourgain_nest,
    duhamel_residual,
    energy,
    evolve,
    gaussian_field,
    greedy_subdivide,
    half_norm_ratio,
    largest_fraction,
    lp_norm,
    make_spectral_grid,
    momentum_flux_identity_check,
    morawetz_check,
)
from nlslab.concentration import check_nest
from nlslab.functionals import MORAWETZ_RATIO_BOUND, MorawetzWeight
from nlslab.persist import canonical_json, load_trajectory, save_trajectory
from nlslab.scenario import run_scenario

from tests.conftest import free_evolve, synthetic_decomposition
from tests.test_concentration import density_trajectory, exhaustive_max_chain
from tests.test_dynamics import scaling_covariance_error
from tests.test_functionals import scaled_trajectory
from tests.test_propagator import dispersive_slope, free_sup_norms


def ok(line: str):
    print(f"\nACCEPTANCE PASS: {line}")


@pytest.fixture(scope="module")
def reference_grid():
    return make_spectral_grid(3, 1024, 32.0)


@pytest.fixture(scope="module")
def reference_trajectory(reference_grid):
    u0 = gaussian_field(reference_grid)
    cfg = EvolutionConfig(dimension=3, mu=1, dt=1e-3, snapshot_stride=10)
    t0 = time.perf_counter()
    traj = evolve(u0, 0.0, 1.0, cfg)
    traj.provenance["wall_seconds"] = time.perf_counter() - t0
    return traj


def test_criterion_1_conservation(reference_trajectory):
    traj = reference_trajectory
    assert traj.status == "complete"
    mass_drift = float(np.abs(traj.mass_series - traj.mass_series[0]).max())
    e = traj.energy_series
    energy_drift = float(np.abs(e - e[0]).max() / abs(e[0]))
    wall = traj.provenance["wall_seconds"]
    assert mass_drift < 1e-10
    assert energy_drift < 1e-5
    assert wall < 120.0
    ok(
        f"criterion 1 (conservation): mass drift {mass_drift:.2e} < 1e-10, "
        f"energy drift {energy_drift:.2e} < 1e-5, runtime {wall:.1f}s < 120s"
    )


def test_criterion_2_free_propagator():
    worst_gauss, worst_group, slopes = 0.0, 0.0, {}
    for n in (3, 4, 5, 6):
        g = make_spectral_grid(n, 1024, 128.0)
        u = gaussian_field(g)
        # closed-form oracle match, pointwise
        for t in (0.5, 1.0):
            z = 1.0 + 4.0j * t
            oracle = z ** (-n / 2.0) * np.exp(-g.nodes**2 / z)
            err = float(np.abs(free_evolve(u, t).values - oracle).max())
            worst_gauss = max(worst_gauss, err)
        # group law
        two = free_evolve(free_evolve(u, 0.7), 0.8)
        one = free_evolve(u, 1.5)
        worst_group = max(worst_group, float(np.abs(two.values - one.values).max()))
        # dispersive decay exponent
        times = np.geomspace(2.0, 8.0, 6)
        slopes[n] = dispersive_slope(times, free_sup_norms(u, times))
        assert abs(slopes[n] - (-n / 2.0)) < 0.05
    assert worst_gauss < 1e-6
    assert worst_group < 1e-8
    ok(
        f"criterion 2 (free propagator): Gaussian oracle {worst_gauss:.2e} < 1e-6, "
        f"group law {worst_group:.2e} < 1e-8, slopes "
        + ", ".join(f"n={n}: {s:.3f}" for n, s in slopes.items())
    )


def test_criterion_3_duhamel(reference_grid):
    # headline residual at reference resolution (finer snapshot stride so
    # the time quadrature matches the splitting accuracy)
    u0 = gaussian_field(reference_grid)
    cfg = EvolutionConfig(dimension=3, mu=1, dt=1e-3, snapshot_stride=5)
    traj = evolve(u0, 0.0, 1.0, cfg)
    resid = duhamel_residual(traj, 0.0, 1.0)
    rel = resid / lp_norm(traj.field(-1), 2)
    assert rel < 1e-3

    # refinement order on a smaller grid
    g = make_spectral_grid(3, 512, 16.0)
    u0s = gaussian_field(g)
    resids = []
    for dt in (4e-3, 2e-3, 1e-3):
        cfg = EvolutionConfig(dimension=3, mu=1, dt=dt, snapshot_stride=1)
        tr = evolve(u0s, 0.0, 0.25, cfg)
        resids.append(duhamel_residual(tr, 0.0, 0.25))
    order = math.log2(resids[0] / resids[2]) / 2.0
    assert order >= 1.8
    ok(
        f"criterion 3 (duhamel): relative residual {rel:.2e} < 1e-3, "
        f"refinement order {order:.2f} >= 1.8"
    )


def test_criterion_4_morawetz(reference_grid):
    # (a) momentum-flux identity defect refines at order >= 1.5
    g = make_spectral_grid(3, 512, 16.0)
    u0 = gaussian_field(g)
    defects = []
    for stride in (20, 10, 5):
        cfg = EvolutionConfig(dimension=3, mu=1, dt=1e-3, snapshot_stride=stride)
        traj = evolve(u0, 0.0, 0.4, cfg)
        defects.append(momentum_flux_identity_check(traj, 0.5).max_defect)
    order = math.log2(defects[0] / defects[2]) / 2.0
    assert order >= 1.5

    # (b) the ratio is invariant under the critical scaling, n in {3, 5}
    scale_dev = 0.0
    for n, grid in ((3, g), (5, make_spectral_grid(5, 384, 16.0))):
        cfg = EvolutionConfig(dimension=n, mu=1, dt=1e-3, snapshot_stride=10)
        traj = evolve(gaussian_field(grid), 0.0, 0.4, cfg)
        rep0 = morawetz_check(traj, 2.0)
        rep1 = morawetz_check(scaled_trajectory(traj, 0.5), 2.0)
        scale_dev = max(scale_dev, abs(rep1.ratio - rep0.ratio) / rep0.ratio)
    assert scale_dev < 1e-10

    # (c) calibrated ratio bound across A and three initial-data families
    ref = reference_grid
    r = ref.nodes
    families = {
        "gaussian": np.exp(-(r**2)),
        "ring": 0.8 * np.exp(-(((r - 2.0) / 0.7) ** 2)),
        "double_hump": np.exp(-(r**2)) + 0.5 * np.exp(-(((r - 3.0) / 1.0) ** 2)),
    }
    worst = 0.0
    for vals in families.values():
        cfg = EvolutionConfig(dimension=3, mu=1, dt=1e-3, snapshot_stride=10)
        traj = evolve(ref.field(vals), 0.0, 1.0, cfg)
        assert traj.status == "complete"
        for A in (1.0, 2.0, 4.0):
            worst = max(worst, morawetz_check(traj, A).ratio)
    assert worst <= MORAWETZ_RATIO_BOUND
    ok(
        f"criterion 4 (morawetz): identity order {order:.2f} >= 1.5, "
        f"scale deviation {scale_dev:.2e} < 1e-10, worst ratio {worst:.3f} <= "
        f"{MORAWETZ_RATIO_BOUND} across 3 families x A in {{1,2,4}}"
    )


def test_criterion_5_mass_flux(reference_grid):
    from nlslab.functionals import mass_flux_check

    u0 = gaussian_field(reference_grid)
    worst = 0.0
    for mu in (0, 1):
        cfg = EvolutionConfig(dimension=3, mu=mu, dt=1e-3, snapshot_stride=10)
        traj = evolve(u0, 0.0, 1.0, cfg)
        for radius in (1.0, 2.0, 4.0):
            worst = max(worst, mass_flux_check(traj, radius).ratio)
    assert worst <= 1.05
    ok(f"criterion 5 (mass flux): worst ratio {worst:.3f} <= 1.05 over free and "
       "defocusing runs, R in {1,2,4}")


def test_criterion_6_weight_positivity():
    for n in range(3, 9):
        for eps in (1e-1, 1e-2, 1e-3):
            radii = np.linspace(0.0, 1.0, 513)
            _, lap_a, neg_bilap = MorawetzWeight(eps, n).evaluate(radii)
            assert np.all(lap_a > 0) and np.all(neg_bilap > 0)
    _, lap_a3, _ = MorawetzWeight(1.0, 3).evaluate(0.0)
    _, _, nb5 = MorawetzWeight(1.0, 5).evaluate(0.0)
    assert lap_a3 == 3.0 and nb5 == 35.0
    ok("criterion 6 (weight positivity): positive on |x|<=1 for n in {3..8}, "
       "eps in {1e-1,1e-2,1e-3}; spot values 3 and 35 exact")


def test_criterion_7_combinatorial_oracles(g3, synth_factory):
    t0 = time.perf_counter()
    # greedy boundaries against the cumulative oracle
    times = np.linspace(0.0, 2.0, 41)
    traj = density_trajectory(g3, times, lambda t: t, synth_factory)
    d = greedy_subdivide(traj, 0.5)
    np.testing.assert_allclose(
        d.boundaries, [0.0, 1.0, math.sqrt(2.0), math.sqrt(3.0), 2.0], atol=1e-12
    )

    # window statistics against brute force for J up to 100
    rng = np.random.default_rng(42)
    for J in (10, 37, 100):
        lengths = rng.uniform(0.05, 3.0, J)
        dec = synthetic_decomposition(lengths)
        b, lens = dec.boundaries, dec.lengths()
        idx = rng.integers(0, J + 1, size=(40, 2))
        for i, j in idx:
            if i == j:
                continue
            lo, hi = sorted((b[i], b[j]))
            brute_half = sum(
                math.sqrt(lens[k])
                for k in range(J)
                if dec.interval(k)[0] >= lo - 1e-12 and dec.interval(k)[1] <= hi + 1e-12
            ) / math.sqrt(hi - lo)
            brute_frac = max(
                (
                    lens[k]
                    for k in range(J)
                    if dec.interval(k)[0] >= lo - 1e-12 and dec.interval(k)[1] <= hi + 1e-12
                ),
                default=0.0,
            ) / (hi - lo)
            assert half_norm_ratio(dec, (lo, hi)) == pytest.approx(brute_half, abs=1e-12)
            assert largest_fraction(dec, (lo, hi)) == pytest.approx(brute_frac, abs=1e-12)

    # nesting invariants on 20 random families, exhaustive cross-check small J
    depths = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        lengths = rng.lognormal(0.0, 1.2, 50)
        flags = rng.random(50) < 0.1
        dec = synthetic_decomposition(lengths, exceptional=flags)
        nest = bourgain_nest(dec)
        assert nest is not None
        assert not check_nest(dec, nest, nest.achieved_kappa)
        depths.append(nest.depth)
        assert nest.depth >= 0.35 * math.log(50)
    for seed in range(6):
        rng = np.random.default_rng(500 + seed)
        J = int(rng.integers(4, 15))
        dec = synthetic_decomposition(
            rng.lognormal(0.0, 1.0, J), exceptional=rng.random(J) < 0.15
        )
        nest = bourgain_nest(dec)
        if nest is None:
            continue
        assert nest.depth <= exhaustive_max_chain(dec, max(nest.achieved_kappa, 1.0) + 1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    ok(
        f"criterion 7 (combinatorial oracles): greedy/window/nest oracles agree, "
        f"depths {min(depths)}..{max(depths)} over 20 seeds, runtime {elapsed:.1f}s < 60s"
    )


def test_criterion_8_scaling_symmetry(reference_grid):
    # energy and critical norm of lam^{-1/2} u(x / lam), u = exp(-r^2)
    u = gaussian_field(reference_grid)
    e0 = energy(u, 1).total
    c0 = lp_norm(u, 6.0)       # critical exponent 2n/(n-2) = 6 at n = 3
    worst_e, worst_c = 0.0, 0.0
    for lam in (0.6, 1.5):
        v = gaussian_field(reference_grid, lam**-0.5, lam)
        worst_e = max(worst_e, abs(energy(v, 1).total - e0) / e0)
        worst_c = max(worst_c, abs(lp_norm(v, 6.0) - c0) / c0)
    assert worst_e < 1e-12 and worst_c < 1e-12

    # evolution covariance in L^2, n in {3, 5}
    cov = max(scaling_covariance_error(n) for n in (3, 5))
    assert cov < 1e-10
    ok(
        f"criterion 8 (scaling): energy dev {worst_e:.2e}, critical-norm dev "
        f"{worst_c:.2e} < 1e-12; evolution covariance {cov:.2e} < 1e-10"
    )


def test_criterion_9_focusing_demonstration():
    g = make_spectral_grid(3, 512, 16.0)
    u0 = gaussian_field(g, amplitude=3.0)
    # focusing: potential dominates kinetic, gradient flag must fire before
    # the certified horizon (energy alarm disabled: the collapse sheds
    # energy accuracy before the flag, and this scenario is about the flag)
    foc_cfg = EvolutionConfig(
        dimension=3, mu=-1, dt=1e-3, snapshot_stride=10, energy_drift_tol=math.inf
    )
    foc = evolve(u0, 0.0, 1.0, foc_cfg)
    rec = foc.blowup
    assert rec.potential_exceeds_kinetic and rec.blowup_expected
    assert rec.flagged and foc.status == "aborted-blowup"
    assert rec.first_alarm_time is not None and rec.first_alarm_time < 1.0

    # defocusing twin: same data, opposite sign, no flag
    defoc = evolve(
        u0, 0.0, 1.0,
        EvolutionConfig(dimension=3, mu=1, dt=1e-3, snapshot_stride=10,
                        energy_drift_tol=1e-3),
    )
    assert defoc.status == "complete"
    assert not defoc.blowup.flagged
    ok(
        f"criterion 9 (focusing blowup): flag at t={rec.first_alarm_time:.3f} "
        "< horizon; defocusing twin silent"
    )


def test_shipped_reference_scenario_verifies():
    # the full shipped reference configuration must verify all-pass
    from pathlib import Path

    from nlslab.persist import read_json
    from nlslab.scenario import verify_report

    path = Path(__file__).parent.parent / "scenarios" / "reference-defocusing-n3.json"
    result = run_scenario(read_json(path))
    assert result.report["status"] == "complete"
    checks = verify_report(result.report)
    failures = [c for c in checks if not c["passed"]]
    assert not failures, failures
    ok(
        f"shipped reference scenario: {len(checks)} verification checks all pass"
    )


def test_coarse_dt_fails_order_but_conserves():
    # a deliberately under-resolved run keeps exact mass conservation and
    # its (looser) declared energy tolerance, but fails the
    # self-convergence order check
    from nlslab.scenario import verify_report

    scenario = {
        "scenario_id": "coarse-dt-n3",
        "dimension": 3,
        "grid": {"n_points": 384, "r_max": 16.0},
        "time": {"t_minus": 0.0, "t_plus": 0.4, "dt": 6e-2, "snapshot_stride": 1},
        "evolution": {"energy_drift_alarm": 0.5},
        "analysis": {
            "certify_resolution": True,
            "tolerances": {"energy_drift_rel": 5e-3},
        },
    }
    checks = verify_report(run_scenario(scenario).report)
    by_name = {c["check"]: c for c in checks}
    assert by_name["mass_conservation"]["passed"]
    assert by_name["energy_conservation"]["passed"]
    assert not by_name["resolution_order"]["passed"]
    ok("coarse-dt scenario: conservation passes, convergence order fails as expected")


def test_criterion_10_determinism_persistence(tmp_path):
    scenario = {
        "scenario_id": "acceptance-determinism",
        "dimension": 3,
        "grid": {"n_points": 192, "r_max": 16.0},
        "time": {"t_minus": 0.0, "t_plus": 0.2, "dt": 2e-3, "snapshot_stride": 5},
        "analysis": {"certify_resolution": False},
    }
    r1 = run_scenario(scenario)
    r2 = run_scenario(scenario)
    b1, b2 = canonical_json(r1.report), canonical_json(r2.report)
    assert b1 == b2

    store = tmp_path / "traj"
    save_trajectory(r1.trajectory, store)
    back = load_trajectory(store)
    assert back.values.tobytes() == r1.trajectory.values.tobytes()   # bit-exact
    store2 = tmp_path / "traj2"
    save_trajectory(back, store2)
    assert (store / "metadata.json").read_bytes() == (store2 / "metadata.json").read_bytes()
    ok("criterion 10 (determinism and persistence): byte-identical reports, "
       "bit-exact trajectory round-trip")
