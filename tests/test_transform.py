import gc
import math
import weakref

import mpmath
import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from nlslab import energy, gaussian_field, get_propagator, make_spectral_grid, workers
from nlslab.functionals import _energy_rows
from nlslab.grid import UnresolvedGridError, sphere_area
from nlslab.transform import (
    _ROWS,
    CACHED_GRIDS,
    SpectralTransform,
    _build_transform,
    _certified,
    _certified_table,
    _jv_half,
    _modes,
    _polar_factor,
    _sampled_modes,
    _transform_slot,
    bessel_table,
    bessel_zeros,
    get_transform,
)


@pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
def test_bessel_zeros_against_mpmath(nu):
    z = bessel_zeros(nu, 80)
    for m in (1, 2, 13, 80):
        exact = float(mpmath.besseljzero(nu, m))
        assert abs(z[m - 1] - exact) < 1e-12 * max(1.0, exact)


def test_bessel_tables_against_mpmath_over_the_dimension_range():
    """In every dimension of the range, 3..41, the table's first three
    zeros, its last zero and J_{nu+1} at the first three zeros agree with
    mpmath to 1e-13, relative; a dimension outside the range is refused
    before any zero is computed (at n = 61 the first zero would be 15.66,
    where J_nu's is 35.57)."""
    n_points = 64
    for n in range(3, 42):
        nu = n / 2.0 - 1.0
        table = bessel_table(n, n_points)
        for m in (1, 2, 3, n_points + 1):
            exact = float(mpmath.besseljzero(nu, m))
            assert abs(table[m - 1] - exact) <= 1e-13 * exact, (n, m)
        for m in (1, 2, 3):
            exact = float(mpmath.besselj(nu + 1, mpmath.besseljzero(nu, m)))
            assert abs(table[n_points + m] - exact) <= 1e-13 * abs(exact), (n, m)
    for n in (2, 42, 61):
        with pytest.raises(UnresolvedGridError, match="outside 3..41"):
            bessel_table(n, n_points)


@pytest.mark.parametrize("nu", [0.5, 1.5, 4.5, 9.5, 10.5])
def test_half_integer_bessel_against_mpmath(nu):
    """The closed form J_nu of a half-integer order nu = l + 1/2 holds from
    x = 0.01 to beyond the largest grid argument, on both sides of x = l,
    where it switches from the ascending series to the upward recurrence:
    relative to J_nu below l, to the envelope sqrt(2 / (pi x)) above, where
    J_nu has zeros."""
    l = nu - 0.5
    x = np.concatenate([np.geomspace(0.01, 3e4, 60), l + np.array([-1e-9, 0.0, 1e-9])])
    x = x[x > 0]
    for xi, got in zip(x, _jv_half(nu, x)):
        exact = float(mpmath.besselj(nu, xi).real)
        scale = abs(exact) if xi < l else max(abs(exact), 1.0 / math.sqrt(xi))
        assert abs(got - exact) <= 4e-15 * scale, xi


@pytest.mark.parametrize("dimension", [3, 5, 7, 9, 11, 13, 15, 21])
def test_closed_form_modes_certify_scipy_tables_and_factors(dimension, caplog):
    """On every odd-n grid tried, the closed-form J_nu matches scipy's
    sampled values to 1e-14, scipy's Bessel table passes the table
    certificate, and the polar factor of scipy's sampled mode matrix, the
    kernel that a store carries, passes the certificate against the
    closed-form matrix: odd-n readers adopt both with no warning."""
    nu = dimension / 2.0 - 1.0
    for n_points in (16, 64, 256, 1024):
        table = bessel_table(dimension, n_points)
        assert _certified_table(table, nu, n_points) is table
        for r_max in (12.0, 32.0):
            grid = make_spectral_grid.__wrapped__(dimension, n_points, r_max)
            x = np.outer(grid.nodes, _modes(grid)[1] / r_max)
            # the unweighted values: scipy's own error, 2.5e-14 relative near
            # x = 12 (against mpmath), reaches 1.04e-14 once weighted at N = 16
            assert np.abs(_jv_half(nu, x) - special.jv(nu, x)).max() <= 1e-14
            if dimension == 3:
                continue                 # an n = 3 kernel is the closed-form DST-I
            closed, sampled = _sampled_modes(grid, True), _sampled_modes(grid, False)
            assert np.abs(closed - sampled).max() <= 2e-14
            kernel = _polar_factor(sampled)
            adopted = _certified(kernel.ravel(), closed)
            assert adopted is not None and adopted.tobytes() == kernel.tobytes()
    assert not [r for r in caplog.records if r.name == "nlslab"]


def test_frequencies_increasing(g3):
    t = get_transform(g3)
    assert np.all(np.diff(t.frequencies) > 0)
    assert np.all(t.frequencies > 0)


def test_roundtrip_on_reference_gaussian(g3):
    t = get_transform(g3)
    u = gaussian_field(g3).values
    assert np.abs(t.backward(t.coefficients(u)) - u).max() < 1e-9


def test_kernel_exactly_orthogonal(g3):
    q = get_transform(g3).kernel
    assert np.abs(q.T @ q - np.eye(q.shape[0])).max() < 1e-12


def _dst1_closed_forms(tr):
    """The orthonormal DST-I and the derivative matrix of an n = 3
    transform's grid, as dense closed forms: the angle pi i m / (N+1)
    reduced modulo 2 pi in integers, and d/dr [sin(k r)/r] =
    (k cos(k r) - sin(k r)/r)/r over the weighted mode's sqrt(w)."""
    n = tr.grid.n_points
    i = np.arange(1, n + 1)
    theta = (np.outer(i, i) % (2 * (n + 1))) * (math.pi / (n + 1))
    kernel = math.sqrt(2.0 / (n + 1)) * np.sin(theta)
    dphi = tr.frequencies * np.cos(theta) - np.sin(theta) / tr.grid.nodes[:, None]
    return kernel, math.sqrt(2.0 / (n + 1)) * dphi / tr.sqrt_weights[:, None]


def _close(got, want, rtol):
    """Each row of ``got`` within ``rtol`` of ``want``'s, relative in norm."""
    err = np.linalg.norm(got - want, axis=-1) / np.linalg.norm(want, axis=-1)
    return bool(np.all(err <= rtol))


# n = 3: N + 1 a power of two (255), prime (256) and neither; the products
# are FFTs, and only the step operator is a dense product
@pytest.mark.parametrize("n,n_points", [(3, 192), (5, 192), (3, 1000), (5, 1024)]
                         + [(3, n_points) for n_points in (16, 255, 256, 1024)])
def test_dense_application_matches_full_cast_products(n, n_points):
    """The complex-kernel products keep the bits of numpy's full-cast
    products of the real kernel for complex input, with and without a
    ``workers.row_split`` over their rows, and so does the step operator,
    built in ``_ROWS``-row blocks with a last block shorter than the
    others (N = 1000).  At n = 3 the coefficient, backward and derivative
    products, with or without a split, match the closed-form dense DST-I
    and derivative matrix, and the step operator keeps the bits of the
    dense product."""
    tr = get_transform(make_spectral_grid(n, n_points, 32.0))
    rng = np.random.default_rng(n_points + n)
    x = rng.standard_normal(n_points) + 1j * rng.standard_normal(n_points)
    sw = tr.sqrt_weights
    phases = np.exp(-1j * tr.frequencies**2 * 1e-3)
    if n == 3:
        kernel, deriv = _dst1_closed_forms(tr)
        assert _close(tr.derivative(x), deriv @ x, 1e-12)
        with workers.row_split(n_points) as row_split:
            for split in (None, row_split):
                assert _close(tr.coefficients(x, split), kernel @ (sw * x), 1e-13)
                assert _close(tr.backward(x, split), (kernel @ x) / sw, 1e-13)
            step = (kernel * phases[None, :]) @ kernel.T
            assert np.array_equal(tr.step_operator(phases, row_split), step)
        return
    kernel = np.array(tr.kernel)                 # the real kernel, C-contiguous
    assert np.array_equal(tr.derivative(x), tr.deriv_matrix.real @ x)
    step = (kernel * phases[None, :]) @ kernel.T
    with workers.row_split(n_points) as row_split:
        for split in (None, row_split):
            assert np.array_equal(tr.coefficients(x, split), kernel.T @ (sw * x))
            assert np.array_equal(tr.backward(x, split), (kernel @ x) / sw)
        assert np.array_equal(tr.step_operator(phases, row_split), step)


@pytest.mark.parametrize("n,n_points", [(3, 192), (5, 192), (3, 1000), (5, 1000)]
                         + [(3, n_points) for n_points in (16, 255, 256, 1024)])
def test_row_stacks_equal_per_field_loops(n, n_points):
    """Every row method, on a stack (S, N) of any row count or memory
    layout, or on one row, has the bits of the per-field arithmetic
    applied one snapshot at a time.  ``coefficients`` reads node samples;
    ``backward``, ``derivative`` and ``kinetic_energy`` read the stack as
    mode coefficients.  At n = 3 the per-field products are the one-row
    FFT calls, which match the closed-form dense DST-I and derivative
    matrix."""
    grid = make_spectral_grid(n, n_points, 32.0)
    tr = get_transform(grid)
    rng = np.random.default_rng(7 * n_points + n)
    stack = rng.standard_normal((5, n_points)) + 1j * rng.standard_normal((5, n_points))
    stacks = {
        "5 rows": stack,
        "0 rows": stack[:0],
        "1 row": stack[:1],
        "Fortran order": np.asfortranarray(stack),
        "strided": stack[::2],
    }
    sw, k = tr.sqrt_weights, tr.frequencies

    if n == 3:
        kernel, deriv = _dst1_closed_forms(tr)
        for v in stack:
            assert _close(tr.coefficients(v), kernel @ (sw * v), 1e-13)
            assert _close(tr.backward(v), (kernel @ v) / sw, 1e-13)
            assert _close(tr.derivative(v), deriv @ v, 1e-12)
        coef, back, deriv_of = tr.coefficients, tr.backward, tr.derivative
    else:
        # the full-cast products equal the row-blocked apply on one vector
        def coef(v):
            return tr.kernel.T @ (sw * v)

        def back(b):
            return (tr.kernel @ b) / sw

        def deriv_of(b):
            return tr.deriv_matrix @ b

    def kinetic_of_coeffs(b):
        return float(0.5 * np.sum(k**2 * np.abs(b) ** 2))

    def kinetic(v):
        return kinetic_of_coeffs(coef(v))

    cases = {
        "coefficients": (tr.coefficients, coef),
        "forward": (tr.coefficients, lambda v: tr.forward(grid.field(v))),
        "backward": (tr.backward, back),
        "derivative": (tr.derivative, deriv_of),
        "kinetic_energy": (tr.kinetic_energy, kinetic_of_coeffs),
    }
    for name, (rows, per_field) in cases.items():
        one = per_field(stack[3])
        assert np.array_equal(rows(stack[3]), one), name
        for layout, values in stacks.items():
            got = rows(values)
            assert got.shape == values.shape[:1] + np.shape(one), (name, layout)
            for row, v in zip(got, values):
                assert np.array_equal(row, per_field(v)), (name, layout)

    for mu in (-1, 0, 1):
        expo = 2.0 * n / (n - 2)
        pot = [mu * (n - 2) / (2.0 * n) * float(np.sum(grid.weights * np.abs(v) ** expo))
               for v in stack]
        kin = [kinetic(v) for v in stack]
        total, kinetic_rows, potential_rows = _energy_rows(grid, stack, mu)
        assert np.array_equal(kinetic_rows, kin)
        assert np.array_equal(potential_rows, pot)
        assert np.array_equal(total, [a + b for a, b in zip(kin, pot)])
        one = energy(grid.field(stack[3]), mu)
        assert (one.total, one.kinetic, one.potential) == (total[3], kin[3], pot[3])


@pytest.mark.parametrize("n_points", [16, 256, 1024])
def test_n3_fft_stacks_keep_single_row_bits_across_blocks(n_points):
    """A stack of more rows than one FFT block (``_ROWS``), with a short
    last block, has the bits of single-row calls in every row."""
    tr = get_transform(make_spectral_grid(3, n_points, 32.0))
    rng = np.random.default_rng(n_points)
    shape = (2 * _ROWS + 3, n_points)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for method in (tr.coefficients, tr.backward, tr.derivative):
        got = method(stack)
        assert all(np.array_equal(row, method(v)) for row, v in zip(got, stack))


def test_polar_factor_survives_svd_failure(monkeypatch):
    grid = make_spectral_grid(5, 160, 16.0)
    reference = _build_transform(grid).kernel
    calls = []

    def no_convergence(*args, **kwargs):
        calls.append(args)
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    kernel = _build_transform(grid).kernel
    assert calls
    assert np.abs(kernel.T @ kernel - np.eye(kernel.shape[0])).max() < 1e-12
    assert np.abs(kernel - reference).max() < 1e-12


@pytest.mark.parametrize("n_points,r_max", [(192, 8.0), (1000, 32.0), (2048, 32.0)])
def test_n3_kernel_is_the_closed_form_dst1(monkeypatch, n_points, r_max):
    """An n = 3 transform builds the orthonormal DST-I in closed form,
    without an SVD, and it and the FFT derivative match what Bessel
    sampling and the polar factor give."""
    grid = make_spectral_grid(3, n_points, r_max)

    def no_svd(*args, **kwargs):
        raise AssertionError("an n = 3 transform ran an SVD")

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "svd", no_svd)
        _transform_slot.cache_clear()
        tr = get_transform(grid)
    q = tr.kernel
    assert tr.complex_kernel_t is None
    # symmetric, so the complex kernel is also the step operator's transpose
    assert np.array_equal(q, q.T) and np.shares_memory(q, tr.complex_kernel)
    assert np.abs(q.T @ q - np.eye(n_points)).max() < 1e-14
    if n_points > 1000:
        return                     # the sampled reference below needs a 2048 x 2048 SVD
    nu, j, mode_norm = _modes(grid)
    k, r = j / r_max, grid.nodes
    phase = np.outer(r, k)
    sampled = special.jv(nu, phase) / r[:, None] ** nu
    sampled *= np.sqrt(grid.weights)[:, None] / mode_norm[None, :]
    assert np.abs(q - _polar_factor(sampled)).max() < 1e-13
    deriv = -k[None, :] * special.jv(nu + 1, phase) / r[:, None] ** nu / mode_norm[None, :]
    # row m of the derivative of the identity's rows is column m of deriv
    assert np.abs(tr.derivative(np.eye(n_points)).T - deriv).max() < 1e-13 * np.abs(deriv).max()


def test_n3_transform_holds_one_kernel_array():
    """An n = 3 transform holds no N x N array until its step operator is
    built; then one, the complex kernel with a +0 imaginary part, whose
    real view is ``kernel`` and which the step operator reads in both
    orientations instead of a copy.  The in-place build keeps the bits of
    the expression it spells."""
    n = 192
    grid = make_spectral_grid(3, n, 16.0)
    tr = _build_transform(grid)
    x = np.ones(n, dtype=complex)
    for product in (tr.coefficients, tr.backward, tr.derivative):
        product(x)
    assert tr.complex_kernel_t is None
    assert not [a for a in vars(tr).values() if isinstance(a, np.ndarray) and a.size >= n * n]
    with workers.row_split(n) as split:
        tr.step_operator(np.ones(n, dtype=complex), split)
    dense = tr.complex_kernel
    assert dense.shape == (n, n) and dense.dtype == np.complex128
    assert np.shares_memory(tr.kernel, dense)
    assert not np.any(dense.imag) and not np.any(np.signbit(dense.imag))
    arrays = [a for a in vars(tr).values() if isinstance(a, np.ndarray) and a.size >= n * n]
    assert len(arrays) == 1 and arrays[0] is dense
    i = np.arange(1, n + 1)
    theta = (np.outer(i, i) % (2 * (n + 1))) * (math.pi / (n + 1))
    assert tr.kernel.tobytes() == (math.sqrt(2.0 / (n + 1)) * np.sin(theta)).tobytes()


def test_transform_holds_one_complex_kernel_array():
    """An n != 3 transform holds one N x N array once built: the complex
    transpose of its polar factor, with no imaginary bit set, of which
    ``kernel`` is a real view; ``backward`` adds one, ``complex_kernel``.
    ``deriv_matrix``, built in place in a complex array's real part, has
    the bits of the expression it spells."""
    n = 256
    grid = make_spectral_grid(5, n, 16.0)
    tr = _build_transform(grid)

    def dense():
        return [a for a in vars(tr).values() if isinstance(a, np.ndarray) and a.size >= n * n]

    assert len(dense()) == 1 and dense()[0] is tr.complex_kernel_t
    kt = tr.complex_kernel_t
    assert kt.dtype == np.complex128 and kt.flags.c_contiguous
    assert not np.any(kt.imag.view(np.uint64))
    assert np.shares_memory(tr.kernel, kt) and np.array_equal(tr.kernel, kt.real.T)
    tr.backward(np.ones(n, dtype=complex))
    assert len(dense()) == 2 and tr.complex_kernel.flags.c_contiguous
    assert np.array_equal(tr.complex_kernel, kt.T)
    nu, _, mode_norm = _modes(grid)
    k, r = tr.frequencies, grid.nodes
    want = -k * special.jv(nu + 1, np.outer(r, k)) / r[:, None] ** nu / mode_norm
    deriv = tr.deriv_matrix
    assert deriv.dtype == np.complex128 and not np.any(deriv.imag.view(np.uint64))
    assert deriv.real.tobytes() == want.tobytes()


def _fft_dst1(x):
    """The orthonormal DST-I of the last axis of ``x`` by numpy's FFT of
    the odd extension [0, x, 0, -x reversed]: an oracle independent of the
    transform's kernel build and products."""
    n = x.shape[-1]
    zero = np.zeros(x.shape[:-1] + (1,))
    odd = np.concatenate([zero, x, zero, -x[..., ::-1]], axis=-1)
    return 0.5j * np.fft.fft(odd)[..., 1:n + 1] * math.sqrt(2.0 / (n + 1))


@pytest.mark.parametrize("n_points", [16, 255, 256, 1000, 1024])
def test_n3_kernel_matches_the_fft_dst1(n_points):
    """N + 1 prime (256), a power of two (255) and neither; one row and a
    stack of rows."""
    kernel = get_transform(make_spectral_grid(3, n_points, 32.0)).kernel
    rng = np.random.default_rng(n_points)
    stack = rng.standard_normal((4, n_points)) + 1j * rng.standard_normal((4, n_points))
    for x in (stack[0], stack):
        want = _fft_dst1(x)
        err = np.linalg.norm(x @ kernel.T - want, axis=-1) / np.linalg.norm(want, axis=-1)
        assert np.all(err <= 1e-13)


def test_caches_are_bounded():
    refs = []
    for i in range(40):
        refs.append(weakref.ref(get_propagator(make_spectral_grid(3, 64, 12.0 + 0.25 * i))))
    gc.collect()
    assert sum(r() is not None for r in refs) <= CACHED_GRIDS
    # a transform read between certifications: the certified free flow is
    # the transform itself, so no grid holds a second one
    grids = [make_spectral_grid(3, 48, 12.0 + 0.25 * i) for i in range(CACHED_GRIDS + 1)]
    for g in grids[:-1]:
        get_propagator(g)
    get_transform(grids[0])
    get_propagator(grids[-1])
    gc.collect()
    assert sum(isinstance(o, SpectralTransform) for o in gc.get_objects()) <= CACHED_GRIDS
    assert all(get_propagator(g) is get_transform(g) for g in grids)


def fractional_power(u, alpha):
    """|grad|^alpha as the multiplier k^alpha, in samples."""
    tr = get_transform(u.grid)
    return u.grid.field(tr.backward(tr.forward(u) * tr.frequencies**alpha))


def test_fractional_identity(g3):
    u = gaussian_field(g3)
    out = fractional_power(u, 0.0)
    assert np.abs(out.values - u.values).max() < 1e-10


def test_fractional_inverse_pair(g3):
    u = gaussian_field(g3)
    out = fractional_power(fractional_power(u, -1.0), 1.0)
    assert np.abs(out.values - u.values).max() < 1e-8


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (-1.0, 0.5), (1.0, -2.0)])
def test_fractional_semigroup(g3, a, b):
    u = gaussian_field(g3)
    via_two = fractional_power(fractional_power(u, a), b)
    direct = fractional_power(u, a + b)
    assert np.abs(via_two.values - direct.values).max() < 1e-8


def riesz_potential_at_origin_oracle(n: int, width: float = 1.0) -> float:
    """|grad|^{-1} of exp(-(r/width)^2) at the origin by direct kernel
    quadrature: the convolution with c_{n} / |y|^{n-1}, where the Riesz
    constant is c_n = Gamma((n-1)/2) / (2 pi^{n/2} Gamma(1/2))."""
    c = math.gamma((n - 1) / 2.0) / (2.0 * math.pi ** (n / 2.0) * math.gamma(0.5))
    radial, _ = quad(lambda r: math.exp(-((r / width) ** 2)), 0, np.inf)
    return c * sphere_area(n) * radial


def test_fractional_integration_matches_kernel_quadrature():
    # a large ball keeps the image-charge correction of the Dirichlet
    # boundary below the tolerance
    g = make_spectral_grid(3, 2048, 64.0)
    tr = get_transform(g)
    k = tr.frequencies
    # the mode expansion at r = 0: the n = 3 modes are sin(k_m r) / r,
    # normalized by sqrt(2 pi R), so mode m takes k_m / sqrt(2 pi R) there
    b = tr.forward(gaussian_field(g)) / k
    spectral = float(np.sum(b * k).real) / math.sqrt(2.0 * math.pi * g.r_max)
    oracle = riesz_potential_at_origin_oracle(3)
    assert abs(spectral - oracle) < 1e-4
    # analytic cross-check of the oracle itself: 1/sqrt(pi) in n = 3
    assert abs(oracle - 1.0 / math.sqrt(math.pi)) < 1e-12
