import math
import tracemalloc

import numpy as np
import pytest

from nlslab import (
    EvolutionConfig,
    duhamel_residual,
    evolve,
    gaussian_field,
    lp_norm,
    make_spectral_grid,
)
from nlslab.dynamics import _phase_rotation
from nlslab.transform import _ROWS, gaussian_free_evolution, get_propagator, get_transform

from tests.conftest import free_evolve


# ---------------------------------------------------------------------------
# nonlinear phase step: the exact flow of  i u_t = mu |u|^p u  for time tau


def test_phase_step_tau_zero(g3):
    u = gaussian_field(g3)
    assert np.array_equal(_phase_rotation(u.values, 1, 0.0, 4.0), u.values)


def test_phase_step_preserves_modulus(g3):
    # exact to floating point: the unit phasor multiply costs at most 1 ulp
    rng = np.random.default_rng(7)
    vals = rng.normal(size=g3.n_points) + 1j * rng.normal(size=g3.n_points)
    out = _phase_rotation(vals, -1, 0.37, 4.0)
    np.testing.assert_allclose(np.abs(out), np.abs(vals), rtol=1e-15, atol=0)


def test_phase_step_unit_field_pi_rotation():
    # n = 4: exponent |u|^2, so a unit-amplitude field rotates by e^{-i pi} = -1
    ones = np.ones(64)
    out = _phase_rotation(ones, 1, math.pi, 4.0 / (4 - 2))
    assert np.abs(out + ones).max() < 1e-13


# ---------------------------------------------------------------------------
# evolve


def test_trajectory_values_read_only(traj_defocusing):
    values = traj_defocusing.values
    assert values.shape == (traj_defocusing.times.size, traj_defocusing.grid.n_points)
    assert values.flags.c_contiguous and not values.flags.writeable
    with pytest.raises(ValueError):
        values[0, 0] = 1.0
    row = traj_defocusing.field(3).values
    assert np.shares_memory(row, values) and not row.flags.writeable


def test_trajectory_coefficients_stack(traj_defocusing):
    # one read-only stack, built once, whose rows carry the bits of a
    # single-row transform of each snapshot
    traj = traj_defocusing
    tr = get_transform(traj.grid)
    coeffs = traj.coefficients
    assert coeffs.shape == traj.values.shape and not coeffs.flags.writeable
    assert traj.coefficients is coeffs
    for i, v in enumerate(traj.values):
        assert np.array_equal(coeffs[i], tr.coefficients(v))
    with pytest.raises(ValueError):
        coeffs[0, 0] = 1.0


def test_strang_loop_takes_the_phase_step_definition(g3, monkeypatch):
    # both half-phases of every step go through _phase_rotation
    from nlslab import dynamics

    calls = []
    original = dynamics._phase_rotation

    def counted(values, mu, tau, p):
        calls.append(tau)
        return original(values, mu, tau, p)

    monkeypatch.setattr(dynamics, "_phase_rotation", counted)
    cfg = EvolutionConfig(dimension=3, mu=1, dt=1e-2, snapshot_stride=5)
    traj = evolve(gaussian_field(g3), 0.0, 0.1, cfg)
    assert traj.status == "complete" and calls == [0.5 * 1e-2] * 20


def test_zero_data_zero_trajectory(g3):
    cfg = EvolutionConfig(dimension=3, mu=1, dt=1e-2, snapshot_stride=5)
    traj = evolve(g3.field(np.zeros(g3.n_points)), 0.0, 0.3, cfg)
    assert traj.status == "complete"
    assert np.abs(traj.values).max() == 0.0


def test_small_amplitude_matches_free_flow(g3_mid):
    u0 = gaussian_field(g3_mid, amplitude=1e-3)
    cfg = EvolutionConfig(dimension=3, mu=1, dt=2e-3, snapshot_stride=50)
    traj = evolve(u0, 0.0, 1.0, cfg)
    lin = free_evolve(u0, 1.0)
    diff = traj.values[-1] - lin.values
    err = math.sqrt(float(np.sum(g3_mid.weights * np.abs(diff) ** 2)))
    assert err < 1e-5 * lp_norm(u0, 2) + 1e-12


def test_mass_conserved_along_run(traj_defocusing):
    drift = np.abs(traj_defocusing.mass_series - traj_defocusing.mass_series[0]).max()
    assert drift < 1e-10


def test_energy_drift_small(traj_defocusing):
    e = traj_defocusing.energy_series
    assert np.abs(e - e[0]).max() / abs(e[0]) < 1e-5


def test_second_order_self_convergence(g3_mid):
    # Richardson: halving dt cuts the final-state self-difference by ~4
    u0 = gaussian_field(g3_mid)
    finals = []
    for dt in (4e-3, 2e-3, 1e-3):
        cfg = EvolutionConfig(dimension=3, mu=1, dt=dt, snapshot_stride=10**6)
        traj = evolve(u0, 0.0, 0.4, cfg)
        finals.append(traj.values[-1])
    w = g3_mid.weights
    d1 = math.sqrt(float(np.sum(w * np.abs(finals[0] - finals[1]) ** 2)))
    d2 = math.sqrt(float(np.sum(w * np.abs(finals[1] - finals[2]) ** 2)))
    assert 4.0 * 0.8 <= d1 / d2 <= 4.0 * 1.2


def scaling_covariance_error(n, lam=0.5, T=0.4):
    """L^2 distance between the run of lam^{-(n-2)/2} u0 over lam^2 T and
    lam^{-(n-2)/2} times the run of u0 over T.  The scaled run takes the
    grid of radius lam r_max, whose nodes are lam times the original ones,
    so the rescaled u0(x / lam) is the same samples."""
    g, gs = make_spectral_grid(n, 384, 16.0), make_spectral_grid(n, 384, 16.0 * lam)
    s = lam ** (-(n - 2) / 2.0)
    u0 = gaussian_field(g).values
    cfg = EvolutionConfig(dimension=n, mu=1, dt=1e-3, snapshot_stride=10**6)
    ref = evolve(g.field(u0), 0.0, T, cfg)
    cfg2 = EvolutionConfig(dimension=n, mu=1, dt=1e-3 * lam**2, snapshot_stride=10**6)
    scaled = evolve(gs.field(s * u0), 0.0, T * lam**2, cfg2)
    diff = scaled.values[-1] - s * ref.values[-1]
    return math.sqrt(float(np.sum(gs.weights * np.abs(diff) ** 2)))


def test_scaling_covariance():
    for n in (3, 5):
        assert scaling_covariance_error(n) < 1e-10


def test_span_beyond_horizon_rejected(g3):
    cfg = EvolutionConfig(dimension=3, mu=1, dt=1e-2)
    with pytest.raises(ValueError):
        evolve(gaussian_field(g3), 0.0, 100.0, cfg)


def test_boundary_decay_warning_recorded(g3):
    u0 = g3.field(np.exp(-((g3.nodes / 12.0) ** 2)))  # barely decayed at r_max=16
    cfg = EvolutionConfig(dimension=3, mu=1, dt=1e-2)
    traj = evolve(u0, 0.0, 0.1, cfg)
    assert any("not decayed" in w for w in traj.provenance["warnings"])


def _plain_strang(u0, mu, dt, steps):
    """``steps`` Strang steps of size dt by plain numpy: half-phase, the
    linear step as one matrix (K * phases) @ K^T, half-phase."""
    tr = get_transform(u0.grid)
    k, sw, p = tr.frequencies, tr.sqrt_weights, 4.0 / (u0.grid.dimension - 2)
    linear = (tr.kernel * np.exp(-1j * k**2 * dt)) @ tr.kernel.T
    u = u0.values.astype(complex)
    for _ in range(steps):
        u = np.exp(-0.5j * mu * dt * np.abs(u) ** p) * u
        u = linear @ (sw * u) / sw
        u = np.exp(-0.5j * mu * dt * np.abs(u) ** p) * u
    return u


# mu = +1 steps through the dense step operator, mu = -1 through the
# per-step gradient watch; the reference, ``_plain_strang``, is neither.
# The n = 5 cases keep their first ids; n = 4 takes the exponent p = 2
@pytest.mark.parametrize("n,mu,n_points", [
    pytest.param(5, 1, 300, id="1-300"),
    pytest.param(5, -1, 400, id="-1-400"),
    pytest.param(4, 1, 300, id="n4-1-300"),
    pytest.param(4, -1, 400, id="n4--1-400"),
])
def test_n5_evolution_matches_a_plain_numpy_strang_loop(n, mu, n_points):
    grid = make_spectral_grid(n, n_points, 32.0)
    u0 = gaussian_field(grid, 0.8, 1.2)
    cfg = EvolutionConfig(dimension=n, mu=mu, dt=1e-3, snapshot_stride=10**6)
    traj = evolve(u0, 0.0, 0.3, cfg)
    assert traj.status == "complete"
    u = _plain_strang(u0, mu, 1e-3, 300)
    assert np.linalg.norm(traj.values[-1] - u) <= 1e-11 * np.linalg.norm(u)


@pytest.mark.parametrize("mu", [1, -1])
def test_n5_strang_order_against_a_plain_numpy_reference(mu):
    # second order in dt (Lubich, Math. Comp. 77 (2008) 2141) for both
    # stepping branches, against the plain-numpy loop at dt/8
    grid = make_spectral_grid(5, 300, 32.0)
    u0 = gaussian_field(grid, 0.8, 1.2)
    T, dts = 0.2, (0.02, 0.01, 0.005)
    ref = _plain_strang(u0, mu, dts[-1] / 8, round(8 * T / dts[-1]))
    errs = []
    for dt in dts:
        cfg = EvolutionConfig(dimension=5, mu=mu, dt=dt, snapshot_stride=10**6)
        traj = evolve(u0, 0.0, T, cfg)
        assert traj.status == "complete"
        errs.append(np.linalg.norm(traj.values[-1] - ref))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(1.8 <= q <= 2.2 for q in orders), orders


@pytest.mark.parametrize("n", range(3, 8))
def test_free_evolution_matches_the_gaussian_closed_form(n):
    g = make_spectral_grid(n, 256, 16.0)
    cfg = EvolutionConfig(dimension=n, mu=0, dt=1e-2, snapshot_stride=10**6)
    traj = evolve(gaussian_field(g), 0.0, 1.0, cfg)
    assert np.abs(traj.values[-1] - gaussian_free_evolution(g, 1.0).values).max() < 1e-7


@pytest.mark.parametrize("mu", [1, -1])
def test_n3_evolution_allocates_no_kernel_cast(g3, mu):
    """With the transform and its kernel built, an n = 3 evolution
    allocates its step operator (one N x N complex array, dense branch
    only), the S x N snapshot array and a few ``_ROWS``-row blocks, and no
    complex copy of the kernel (another N x N complex array)."""
    n = g3.n_points
    get_propagator(g3)          # builds the transform, before the count
    get_transform(g3).complex_kernel    # and the kernel, which it builds on first use
    cfg = EvolutionConfig(dimension=3, mu=mu, dt=1e-3, snapshot_stride=10)
    tracemalloc.start()
    try:
        traj = evolve(gaussian_field(g3), 0.0, 0.1, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    step_operator = n * n if mu != -1 else 0
    assert peak <= 16 * (step_operator + n * (len(traj.times) + 3 * _ROWS))


@pytest.mark.parametrize("n_points,r_max", [(192, 16.0), (1024, 32.0)])
@pytest.mark.parametrize("mu", [0, 1])
def test_n3_fft_step_matches_the_dense_step(n_points, r_max, mu):
    # an unpinned n = 3 run (a resolution twin) steps by FFT, a pinned one
    # through the dense step operator: the same Strang step, rounded
    # differently
    grid = make_spectral_grid(3, n_points, r_max)
    u0 = gaussian_field(grid, 1.0, 1.0)
    cfg = EvolutionConfig(dimension=3, mu=mu, dt=4e-3, snapshot_stride=5)
    fft = evolve(u0, 0.0, 0.25, cfg, pinned=False)
    dense = evolve(u0, 0.0, 0.25, cfg, pinned=True)
    assert fft.status == dense.status == "complete"
    assert np.array_equal(fft.times, dense.times)
    ref = np.linalg.norm(dense.values[-1])
    assert np.linalg.norm(fft.values[-1] - dense.values[-1]) <= 1e-12 * ref


# ---------------------------------------------------------------------------
# duhamel residual


def test_duhamel_zero_trajectory(g3):
    cfg = EvolutionConfig(dimension=3, mu=1, dt=1e-2, snapshot_stride=2)
    traj = evolve(g3.field(np.zeros(g3.n_points)), 0.0, 0.2, cfg)
    assert duhamel_residual(traj, 0.0, 0.2) == 0.0


def test_duhamel_free_flow_reduces_to_group_law(traj_free):
    resid = duhamel_residual(traj_free, traj_free.t_minus, traj_free.t_plus)
    assert resid < 1e-9


def test_duhamel_endpoint_symmetry(traj_defocusing):
    fwd = duhamel_residual(traj_defocusing, traj_defocusing.t_minus, traj_defocusing.t_plus)
    bwd = duhamel_residual(traj_defocusing, traj_defocusing.t_plus, traj_defocusing.t_minus)
    assert abs(fwd - bwd) < 1e-12


def test_duhamel_second_order_in_snapshot_spacing(g3_mid):
    u0 = gaussian_field(g3_mid)
    resids = []
    for dt in (4e-3, 2e-3, 1e-3):
        cfg = EvolutionConfig(dimension=3, mu=1, dt=dt, snapshot_stride=1)
        traj = evolve(u0, 0.0, 0.25, cfg)
        resids.append(duhamel_residual(traj, 0.0, 0.25))
    order = math.log2(resids[0] / resids[2]) / 2.0
    assert order >= 1.8


def test_duhamel_rejects_non_snapshot_time(traj_defocusing):
    with pytest.raises(ValueError):
        duhamel_residual(traj_defocusing, 0.0, 0.12345)


# ---------------------------------------------------------------------------
# blowup monitoring


def test_defocusing_no_flag(traj_defocusing):
    rec = traj_defocusing.blowup
    assert not rec.flagged
    assert not rec.blowup_expected


def test_free_run_no_flag(traj_free):
    assert not traj_free.blowup.flagged


@pytest.mark.parametrize("name", ["traj_defocusing", "traj_free"])
def test_gradient_history_is_the_spectral_gradient_norm(name, request):
    # sqrt(2 * kinetic) carries the bits of the spectral H^1 seminorm
    traj = request.getfixturevalue(name)
    tr = get_transform(traj.grid)
    for i, grad in enumerate(traj.blowup.gradient_history):
        b = tr.forward(traj.field(i))
        assert grad == math.sqrt(np.sum(tr.frequencies**2 * np.abs(b) ** 2))


def test_focusing_glassey_blowup():
    g = make_spectral_grid(3, 512, 16.0)
    u0 = gaussian_field(g, amplitude=3.0)
    # the energy alarm is disabled: a collapsing run sheds energy accuracy
    # before the gradient threshold trips, and this scenario is about the
    # gradient flag
    cfg = EvolutionConfig(
        dimension=3, mu=-1, dt=1e-3, snapshot_stride=10, energy_drift_tol=math.inf
    )
    traj = evolve(u0, 0.0, 1.0, cfg)
    rec = traj.blowup
    assert rec.potential_exceeds_kinetic
    assert rec.blowup_expected
    assert rec.flagged
    assert traj.status == "aborted-blowup"
    assert rec.first_alarm_time is not None and rec.first_alarm_time < 1.0


def test_focusing_small_data_no_flag():
    g = make_spectral_grid(3, 256, 16.0)
    u0 = gaussian_field(g, amplitude=0.3)
    cfg = EvolutionConfig(dimension=3, mu=-1, dt=1e-3, snapshot_stride=10)
    traj = evolve(u0, 0.0, 0.5, cfg)
    rec = traj.blowup
    assert not rec.potential_exceeds_kinetic
    assert not rec.flagged
