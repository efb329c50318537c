"""Radial spectral transform diagonalizing the Laplacian on a ball.

A radial function on R^n restricted to the ball B(0, R) with a Dirichlet
boundary expands in the eigenfunctions

    phi_m(r) = J_nu(k_m r) / r^nu,     nu = n/2 - 1,   k_m = j_{nu,m} / R,

where j_{nu,m} are the positive zeros of the Bessel function J_nu.  Each
phi_m satisfies  lap phi_m = -k_m^2 phi_m,  so the transform turns the
Laplacian, the free Schrodinger propagator, and fractional powers |grad|^a
into diagonal multipliers.

Discretely, the modes are sampled at the collocation radii
r_i = j_{nu,i} R / j_{nu,N+1} with Fourier-Bessel quadrature weights.  The
sampled, weighted mode matrix is orthonormal to near machine precision;
we replace it by its exactly orthogonal polar factor so that the discrete
transform is an exact isometry.  Free evolution and fractional powers then
conserve the discrete L^2 mass by construction.

``forward`` takes a field and ``coefficients`` complex node samples;
``backward``, ``derivative`` and ``kinetic_energy`` take mode
coefficients, one row (N,) or a stack (S, N) such as
``Trajectory.coefficients``, which every diagnostic of a trajectory
reads.  A row of a stack has the bits of a single-row call.
``evolve_coeffs`` advances coefficients by the free flow, the phase
``free_phase(t)`` = e^{-i k^2 t}, within ``validated_t_max``: spreading
data feel the Dirichlet boundary, so on its first read the transform
certifies, and holds, the largest time of a ladder at which the free flow
of the reference Gaussian (``gaussian_field``) matches its closed form
(``gaussian_free_evolution``) within ``ORACLE_TOLERANCE``, after a round
trip to 1e-9.  ``get_propagator`` returns a grid's transform, certified.

In three dimensions nu = 1/2, J_{1/2}(x) is proportional to sin(x)/sqrt(x),
the zeros are j_m = m pi, and the nodes r_i = i R / (N+1) are uniform.
The weighted, normalized modes are then exactly the orthonormal DST-I
matrix sqrt(2/(N+1)) sin(pi i m / (N+1)), i, m = 1..N, and the SVD's
polar factor equals it to rounding (2.6e-14 at N = 1024).  An n = 3
transform therefore computes ``coefficients`` and ``backward`` as one
DST-I each, an FFT of the odd extension of length 2(N+1) (Martucci, IEEE
Trans. Signal Process. 42 (1994) 1038), and ``derivative`` from the
cosine series of k b, an FFT of the even extension; numpy's FFT alone,
so no n = 3 reader imports scipy.  One complex row, and a stack, on a
2-core x86_64 box at one BLAS thread:

    N      stack size   dense      FFT
    1024   one row      1.18 ms    0.07 ms
    1024   101 rows     50.5 ms    5.9 ms
    256    one row      0.050 ms   0.066 ms
    256    1001 rows    47.5 ms    37.5 ms

(N + 1 = 257 is prime.)  Only the dense step operator of a stored run's
``evolve`` (not a resolution twin's) reads an N x N array at n = 3: the
DST-I ``complex_kernel``, built on first use from the closed form with
the angle i m reduced modulo 2(N+1) in integers, so that only one
rounding enters and nothing depends on the BLAS thread count.  It is
exactly symmetric, so one complex array serves both orientations: with a
step operator, the dense n = 3 path holds 32 N^2 bytes.

Elsewhere the fields are complex and a real kernel would be cast on every
product (16 MB at N = 1024), so the transform holds the kernel's
C-contiguous transpose as a complex array with a +0 imaginary part,
``complex_kernel_t``, and ``backward`` a C-order copy of the kernel built
on first use; ``kernel`` is a real view.  ``product`` runs one zgemv per
row of a stack, numpy's cast-then-zgemv arithmetic bit for bit, split
over threads by a ``workers.row_split`` where given; with a step
operator, the dense path holds 48 N^2 bytes.  One
real GEMM on the float view, or one zgemm over a stack, would be faster
but rounds differently (a zgemm moved the last bits of about 98% of a
stack's coefficients), and the pinned reports sit on an exact tie of the
greedy interval subdivision that one ulp can flip.

In other dimensions the polar factor comes from an SVD.  Where LAPACK's
SVD does not converge, Newton-Schulz iterations X <- X (3I - X^T X) / 2
from the sampled matrix give the same factor: it is already orthonormal
to about 1e-12, and the iteration converges quadratically from there.

The SVD's last bits depend on the BLAS thread count.  A stored trajectory
therefore carries the factor K that its evolution used, and its
transform adopts K once two GEMMs certify it against the sampled matrix
A: K^T K = I and H = K^T A = H^T, both to 1e-12, and ||H - I||_F < 1, so
that H is positive definite.  The polar decomposition of a nonsingular A
into an orthogonal and a symmetric positive definite factor is unique
(Higham, SIAM J. Sci. Stat. Comput. 7 (1986) 1160), so this pins K as
A's polar factor to rounding.  At odd n the A that certifies is sampled
from ``_jv_half``, numpy's closed form of J_nu; the A that builds, by SVD,
is scipy's.  A factor that fails (another grid's, a corrupted file) is
dropped with a warning, and the SVD of scipy's A runs.

Grids and modes read one cached Bessel table per (dimension, N): the zeros
j_1..j_{N+1} of J_nu, then J_{nu+1}(j_1..j_N).  scipy computes it, and is
imported only inside the functions that compute with it.  The dimension
range is 3..41, where the first three zeros, the last and J_{nu+1} at the
first three agree with mpmath to 2.6e-14, relative, at N = 64; at n = 58,
61, 78 and 83 the first zero is wrong (15.66 at n = 61, not 35.57), so
``bessel_table``, which every grid and store reads, refuses any other n.  An
odd-n store carries its table, adopted once numpy alone certifies it: each
zero within pi/2 of McMahon's approximation, where no other lies (zeros of
J_nu, nu >= 1/2, are at least pi apart), its Newton step below 1e-14 z, and
each J_{nu+1} within 1e-12, relative, of the closed form.  scipy's tables
pass with room (steps below 1.4e-16 z, values within 2.7e-14, for odd n <=
21 and N <= 16384), so no odd-n ``verify`` imports scipy.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.typing import NDArray

from .grid import (GridError, RadialField, RadialGrid, TimeRangeError, UnresolvedGridError,
                   _row_sums, sphere_area)


def bessel_zeros(nu: float, count: int) -> NDArray[np.float64]:
    """First ``count`` positive zeros of J_nu, any real order nu >= 0.

    McMahon asymptotics polished by Newton iterations; accurate to
    machine precision for the orders used here (nu = n/2 - 1, n >= 3).
    """
    from scipy import special
    z = _mcmahon(nu, count)
    for _ in range(12):
        dz = special.jv(nu, z) / special.jvp(nu, z)
        z -= dz
        if np.max(np.abs(dz)) < 1e-14:
            break
    if np.any(np.diff(z) <= 0):
        raise UnresolvedGridError(f"Bessel zero computation failed for nu={nu}")
    return z


def _mcmahon(nu: float, count: int) -> NDArray[np.float64]:
    """McMahon's three-term approximations to the first ``count`` zeros of
    J_nu (DLMF 10.21.19), exact, m pi, at nu = 1/2."""
    beta = (np.arange(1, count + 1) + 0.5 * nu - 0.25) * math.pi
    mu = 4.0 * nu * nu
    return beta - (mu - 1) / (8 * beta) - 4 * (mu - 1) * (7 * mu - 31) / (3 * (8 * beta) ** 3)


def _jv_half(nu: float, x: NDArray[np.float64]) -> NDArray[np.float64]:
    """J_nu(x) = sqrt(2x/pi) j_l(x) for a half-integer order nu = l + 1/2
    and x > 0, numpy alone (DLMF 10.47.3): the spherical Bessel j_l by
    upward recurrence from j_{-1} = cos x / x and j_0 = sin x / x where
    x >= l (DLMF 10.51.1), by its ascending series where x < l, which the
    recurrence loses to cancellation (DLMF 10.53.1)."""
    l = round(nu - 0.5)
    prev, j = np.cos(x) / x, np.sin(x) / x
    # the recurrence may overflow at small x, where the series replaces it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(l):
            prev, j = j, (2 * k + 1) / x * j - prev
    small = x < l
    if small.any():
        xs = x[small]
        term, total = np.ones(xs.size), np.ones(xs.size)
        k = 0
        while not np.all(np.abs(term) <= 1e-17 * total):
            k += 1
            term *= -0.5 * xs * xs / (k * (2 * l + 2 * k + 1))
            total += term
        j[small] = total * np.prod(xs / np.arange(3, 2 * l + 2, 2)[:, None], axis=0)  # x^l/(2l+1)!!
    return j * np.sqrt(2.0 / math.pi * x)


# one slot per (dimension, n_points), as many as grids, filled by the first
# ``bessel_table`` call, so that a stored table is not part of the cache key
@lru_cache(maxsize=32)
def _table_slot(dimension: int, n_points: int) -> list:
    return []


def bessel_table(dimension: int, n_points: int, stored=None) -> NDArray[np.float64]:
    """The read-only Bessel table of the module docstring, 2N + 1 values.  A
    ``stored`` table of an odd dimension is adopted, once certified, only
    if this call fills the cache; scipy computes the table otherwise.  An
    UnresolvedGridError refuses a dimension outside 3..41."""
    if not 3 <= dimension <= 41:
        raise UnresolvedGridError(f"dimension {dimension} is outside 3..41, the range whose "
                                  "Bessel zeros are checked")
    slot = _table_slot(dimension, n_points)
    if not slot:
        nu = dimension / 2.0 - 1.0
        table = None if stored is None else _certified_table(stored, nu, n_points)
        if table is None:
            from scipy import special
            z = bessel_zeros(nu, n_points + 1)
            table = np.concatenate([z, special.jv(nu + 1, z[:n_points])])
        table.flags.writeable = False
        slot.append(table)
    return slot[0]


def _certified_table(stored: NDArray[np.float64], nu: float, n: int) -> NDArray[np.float64] | None:
    """``stored`` as the table of the half-integer order ``nu`` and ``n``
    points if it passes the certificate of the module docstring; else None,
    with a warning that names the failed check."""
    # each test passes only on a true comparison, which a NaN never is; the
    # bracket comes first, so that the closed forms see only positive zeros
    z = stored[: n + 1]
    if stored.size != 2 * n + 1:
        reason = f"{stored.size} values, not {2 * n + 1}"
    elif not np.all(np.abs(z - _mcmahon(nu, n + 1)) < 0.5 * math.pi):
        reason = "a zero is outside its bracket"
    else:
        j, j_next = _jv_half(nu, z), _jv_half(nu + 1, z)
        # Newton's step j / J_nu'(z), where J_nu' = (nu / z) J_nu - J_{nu+1}
        if not np.all(np.abs(j / (nu / z * j - j_next)) <= 1e-14 * z):
            reason = "a zero fails its Newton step"
        elif np.all(np.abs(stored[n + 1:] - j_next[:n]) <= 1e-12 * np.abs(j_next[:n])):
            return stored
        else:
            reason = f"a J_{{{round(2 * nu + 2)}/2}} value is not the closed form"
    logging.getLogger("nlslab").warning(
        "stored Bessel table rejected (%s); computing it", reason)
    return None


@lru_cache(maxsize=32)
def make_spectral_grid(dimension: int, n_points: int, r_max: float) -> RadialGrid:
    """Collocation grid for the radial spectral transform.

    Nodes sit at scaled zeros of J_{n/2-1} (near-uniform, no r = 0 node);
    weights are the Fourier-Bessel quadrature weights for the
    n-dimensional volume integral.  Cached so that equal parameters yield
    the identical grid object (and hence a shared transform).
    """
    n = int(dimension)
    table = bessel_table(n, n_points)
    j_edge = table[n_points]
    r = table[:n_points] * (r_max / j_edge)
    w_fb = 2.0 * r_max**2 / (j_edge**2 * table[n_points + 1:] ** 2)
    w = sphere_area(n) * w_fb * r ** (n - 2)
    return RadialGrid(n, r, w, float(r_max), kind="bessel")


def gaussian_field(grid: RadialGrid, amplitude: float = 1.0, width: float = 1.0) -> RadialField:
    """The reference Gaussian  amplitude * exp(-(r/width)^2)."""
    return grid.field(amplitude * np.exp(-((grid.nodes / width) ** 2)))


def gaussian_free_evolution(grid: RadialGrid, t: float, amplitude: float = 1.0,
                            width: float = 1.0) -> RadialField:
    """The free flow of the reference Gaussian A exp(-(r/w)^2) in closed form,
    A (1 + 4it/w^2)^{-n/2} exp(-r^2 / (w^2 + 4it)), by completing the square
    in the Fourier representation."""
    n = grid.dimension
    w2 = width * width
    z = 1.0 + 4.0j * t / w2
    return grid.field(amplitude * z ** (-n / 2.0) * np.exp(-grid.nodes**2 / (w2 * z)))


_T_LADDER = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: pointwise tolerance of the Gaussian oracle that certifies the horizon
ORACLE_TOLERANCE = 1e-6


@dataclass(frozen=True, eq=False)
class SpectralTransform:
    """Orthogonal transform between node samples and mode coefficients.

    ``forward`` maps weighted samples to coefficients of the L^2-normalized
    Dirichlet modes; ``backward`` is its exact transpose-inverse.  The
    frequencies are k_m = j_{nu,m} / r_max, strictly increasing.
    """

    grid: RadialGrid
    frequencies: NDArray[np.float64]
    sqrt_weights: NDArray[np.float64]
    # the polar factor's C-contiguous complex transpose (+0 imaginary part);
    # None where the kernel is the closed-form DST-I (n = 3)
    complex_kernel_t: NDArray[np.complex128] | None

    @cached_property
    def complex_kernel(self) -> NDArray[np.complex128]:
        """The kernel, C-contiguous, with a +0 imaginary part, built on first
        use: at n = 3 the DST-I, in place, which only ``step_operator``
        reads; elsewhere ``complex_kernel_t.T``, which ``backward`` reads."""
        if self.complex_kernel_t is not None:
            return np.ascontiguousarray(self.complex_kernel_t.T)
        n = self.grid.n_points
        dense = np.zeros((n, n), dtype=complex)
        kernel = _dst1_angles(n, dense.real)
        np.sin(kernel, out=kernel)
        kernel *= math.sqrt(2.0 / (n + 1))
        return dense

    @property
    def kernel(self) -> NDArray[np.float64]:
        """The orthogonal kernel, columns = weighted modes, as a real view:
        of ``complex_kernel`` at n = 3, of ``complex_kernel_t`` elsewhere."""
        kt = self.complex_kernel_t
        return self.complex_kernel.real if kt is None else kt.real.T

    @cached_property
    def deriv_matrix(self) -> NDArray[np.complex128]:
        """Coefficients -> d/dr samples (n != 3), built on first use in place
        in a complex array's real part; only the identity check reads it."""
        from scipy import special
        k, r = self.frequencies, self.grid.nodes
        nu, _, mode_norm = _modes(self.grid)
        # d/dr [J_nu(k r)/r^nu] = -k J_{nu+1}(k r)/r^nu
        dense = np.zeros((r.size, k.size), dtype=complex)
        dphi = special.jv(nu + 1, np.multiply.outer(r, k, out=dense.real), out=dense.real)
        dphi *= -k[None, :]
        dphi /= r[:, None] ** nu
        dphi /= mode_norm[None, :]
        return dense

    @cached_property
    def validated_t_max(self) -> float:
        """The certified span of the module docstring, held once read."""
        u0 = gaussian_field(self.grid).values
        coeffs = self.coefficients(u0)
        if np.abs(self.backward(coeffs) - u0).max() > 1e-9:
            raise UnresolvedGridError("spectral round-trip self-test failed")
        evolved = self.backward(coeffs * self.free_phase(np.array(_T_LADDER)[:, None]))
        t_max = 0.0
        for t, row in zip(_T_LADDER, evolved):
            oracle = gaussian_free_evolution(self.grid, t).values
            if not np.abs(row - oracle).max() < ORACLE_TOLERANCE:
                break
            t_max = t
        if t_max == 0.0:
            raise UnresolvedGridError("no ladder time passed the Gaussian oracle self-test")
        return t_max

    def free_phase(self, t) -> NDArray[np.complex128]:
        """The free flow's phase e^{-i k^2 t}, a row for ``t`` or each of a column (T, 1)."""
        return np.exp(-1j * self.frequencies**2 * t)

    def evolve_coeffs(self, coeffs: np.ndarray, t) -> np.ndarray:
        """Phase-advance mode coefficients without leaving spectral space, to
        one time ``t`` or to each of a column of times (T, 1), a row each."""
        t_abs = np.abs(t).max()
        if t_abs > self.validated_t_max:
            raise TimeRangeError(
                f"|t|={t_abs:.3g} exceeds validated span {self.validated_t_max:.3g} "
                "(boundary reflection artifacts); enlarge r_max"
            )
        return coeffs * self.free_phase(t)

    def forward(self, u: RadialField) -> NDArray[np.complex128]:
        """Mode coefficients of a field."""
        if u.grid is not self.grid:
            raise GridError("field grid does not match transform grid")
        return self.coefficients(u.values)

    def coefficients(self, values, split=None) -> NDArray[np.complex128]:
        """Mode coefficients of node samples; where n != 3, with each
        product's rows split by ``split``, a ``workers.row_split``, if given."""
        x = self.sqrt_weights * values
        if self.complex_kernel_t is None:
            return _fft_sums(x, -1)
        return product(self.complex_kernel_t, x, split)

    def backward(self, coeffs, split=None) -> NDArray[np.complex128]:
        """Node samples from mode coefficients; where n != 3, split by
        ``split`` where given."""
        if self.complex_kernel_t is None:
            out = _fft_sums(coeffs, -1)
        else:
            out = product(self.complex_kernel, coeffs, split)
        out /= self.sqrt_weights
        return out

    def derivative(self, coeffs) -> NDArray[np.complex128]:
        """Spectrally accurate radial derivative u_r, at the nodes, of the
        field with mode coefficients ``coeffs``."""
        if self.complex_kernel_t is not None:
            return product(self.deriv_matrix, coeffs)
        # n = 3: u_r = (d/dr (r u) - u) / r, and r u is the sine series of
        # the coefficients, so d/dr (r u) is r / sqrt(w) times the cosine
        # series of k b
        out = _fft_sums(self.frequencies * coeffs, 1)
        out /= self.sqrt_weights
        out -= self.backward(coeffs) / self.grid.nodes
        return out

    def kinetic_energy(self, coeffs):
        """(1/2) integral of |grad u|^2 from mode coefficients, exact in the
        discrete mode basis: a float for one row, one value per row for a
        stack."""
        # C order: the row sums repeat a single-row sum bit for bit only there
        rows = np.ascontiguousarray(coeffs)
        return 0.5 * _row_sums(lambda b: self.frequencies**2 * np.abs(b) ** 2, rows)

    def step_operator(self, multiplier, split) -> NDArray[np.complex128]:
        """Dense matrix of a diagonal frequency multiplier, acting on
        weighted samples sqrt(w) * u, built in ``_ROWS``-row blocks split
        by ``split``, a ``workers.row_split`` over N rows."""
        left = self.kernel
        # kernel.T, C-contiguous: at n = 3 the kernel itself, which is symmetric
        right = self.complex_kernel if self.complex_kernel_t is None else self.complex_kernel_t
        out = np.empty(left.shape, dtype=complex)
        # C order, as a C-ordered kernel's rows give, whatever the view's layout
        split(lambda rows: np.matmul(np.multiply(left[rows], multiplier, order="C"), right,
                                     out=out[rows]), _ROWS)
        return out


def product(mat: NDArray[np.complex128], x, split=None) -> NDArray[np.complex128]:
    """``mat @ row`` for a complex ``mat`` and one row (N,) or each row of a
    stack (S, N): one zgemv per row, with the bits of numpy's product of a
    real matrix cast to complex.  ``split``, a ``workers.row_split`` over
    ``mat``'s rows, where given, splits the output rows over its threads,
    each computing whole dot products."""
    x = np.ascontiguousarray(x)
    out = np.empty(x.shape[:-1] + mat.shape[:1], dtype=complex)
    # row views made once, not per block
    pairs = list(zip(*np.atleast_2d(x, out)))

    def fill(rows):
        for row, dest in pairs:
            np.matmul(mat[rows], row, out=dest[rows])

    fill(slice(None)) if split is None else split(fill)
    return out


# rows of a stack transformed by FFT at a time, or of a step operator built
# at a time; the tests hold a stack's rows to single-row calls, for row
# counts that are and are not multiples of it
_ROWS = 64


def _fft_sums(x, parity: int) -> NDArray[np.complex128]:
    """sqrt(2/(N+1)) sum_m x_m sin(pi i m / (N+1)) (``parity`` -1, the
    orthonormal DST-I) or the same sum of cosines (``parity`` +1), i = 1..N,
    of one row (N,) or of each row of a stack (S, N): the FFT of the odd or
    even extension [0, x, 0, parity * x reversed], of length 2(N+1), is
    -2i or 2 times the sum.  A stack goes ``_ROWS`` rows at a time, so
    that the extension and the FFT's output stay small."""
    x = np.asarray(x)
    n = x.shape[-1]
    rows = np.atleast_2d(x)
    out = np.empty(rows.shape, dtype=complex)
    ext = np.zeros((min(_ROWS, len(rows)), 2 * n + 2), dtype=complex)
    scale = 0.5 * math.sqrt(2.0 / (n + 1)) * (1j if parity < 0 else 1.0)
    for start in range(0, len(rows), _ROWS):
        block = rows[start:start + _ROWS]
        part = ext[:len(block)]
        part[:, 1:n + 1] = block
        np.multiply(block[:, ::-1], parity, out=part[:, n + 2:])
        np.multiply(np.fft.fft(part)[:, 1:n + 1], scale, out=out[start:start + _ROWS])
    return out.reshape(x.shape)


def _polar_factor(a: NDArray[np.float64]) -> NDArray[np.float64]:
    """The orthogonal polar factor of a near-orthogonal square matrix."""
    try:
        u, _, vt = np.linalg.svd(a)
    except np.linalg.LinAlgError:
        return _newton_schulz_polar(a)
    return u @ vt


# a sampled mode matrix starts with an orthogonality defect of about
# 1e-12 and needs one or two steps
_NEWTON_SCHULZ_STEPS = 8


def _newton_schulz_polar(a: NDArray[np.float64]) -> NDArray[np.float64]:
    """Polar factor by X <- X (3I - X^T X) / 2 until max|X^T X - I| < 1e-14."""
    eye = np.eye(a.shape[0])
    x = a
    for _ in range(_NEWTON_SCHULZ_STEPS):
        gram = x.T @ x
        if np.abs(gram - eye).max() < 1e-14:
            return x
        x = 0.5 * (x @ (3.0 * eye - gram))
    raise RuntimeError("polar factor: Newton-Schulz iteration did not converge")


def _modes(grid: RadialGrid):
    """Order nu, Bessel zeros j_m and L^2(R^n) norms of the Dirichlet modes
    J_nu(k_m r)/r^nu, k_m = j_m / r_max, of a grid."""
    n = grid.n_points
    table = bessel_table(grid.dimension, n)
    norm = math.sqrt(sphere_area(grid.dimension) / 2.0) * grid.r_max * np.abs(table[n + 1:])
    return grid.dimension / 2.0 - 1.0, table[:n], norm


def _certified(stored: NDArray[np.float64], a: NDArray[np.float64]) -> NDArray[np.float64] | None:
    """``stored`` (flat, row-major) as the orthogonal polar factor of ``a``
    if it passes the certificate of the module docstring; else None, with a
    warning that names the failed check."""
    # each test passes only on a true comparison, which a NaN never is;
    # the identity is subtracted on the diagonal in place, with no N x N
    # ``eye`` temporary
    if stored.size != a.size:
        reason = f"{stored.size} entries, not {a.size}"
    elif not np.abs(_minus_identity((k := stored.reshape(a.shape)).T @ k)).max() <= 1e-12:
        reason = "K is not orthogonal"
    elif not np.abs((h := k.T @ a) - h.T).max() <= 1e-12:
        reason = "K^T A is not symmetric"
    elif not np.linalg.norm(_minus_identity(h)) < 1.0:
        reason = "K^T A is not positive definite"
    else:
        return k
    logging.getLogger("nlslab").warning(
        "stored polar factor rejected (%s); computing it by SVD", reason)
    return None


def _minus_identity(a: NDArray[np.float64]) -> NDArray[np.float64]:
    """``a - I`` for a square ``a``, in place."""
    a.flat[:: a.shape[0] + 1] -= 1.0
    return a


def _dst1_angles(n: int, out: NDArray[np.float64]) -> NDArray[np.float64]:
    """The angles pi (i m mod 2(N+1)) / (N+1), i, m = 1..N, of the DST-I of
    size N, written into the N x N ``out``: k_m r_i on a three-dimensional
    grid, reduced exactly in integers before the one rounding."""
    i = np.arange(1, n + 1)
    angles = np.outer(i, i)
    angles %= 2 * (n + 1)
    return np.multiply(angles, math.pi / (n + 1), out=out)


def _build_transform(grid: RadialGrid, stored=None) -> SpectralTransform:
    k = _modes(grid)[1] / grid.r_max
    sw = np.sqrt(grid.weights)
    if grid.dimension == 3:
        # the orthonormal DST-I, applied by FFT; ``stored`` is not read
        return SpectralTransform(grid, k, sw, None)
    # polar factor: the nearest exactly orthogonal matrix to the sampled
    # (already near-orthonormal) mode matrix, taken from ``stored`` when it
    # is certified, at odd n against the closed-form modes
    kernel = None if stored is None else _certified(
        stored, _sampled_modes(grid, closed_form=grid.dimension % 2))
    if kernel is None:
        kernel = _polar_factor(_sampled_modes(grid, closed_form=False))
    return SpectralTransform(grid, k, sw, kernel.T.astype(complex, order="C"))


def _sampled_modes(grid: RadialGrid, closed_form) -> NDArray[np.float64]:
    """The grid's sampled modes, weighted and normalized in place: one N x N
    array, of J_nu from ``_jv_half`` where ``closed_form``, else scipy's."""
    (nu, j, mode_norm), r = _modes(grid), grid.nodes
    if not closed_form:
        from scipy import special
    sampled = (_jv_half if closed_form else special.jv)(nu, np.outer(r, j / grid.r_max))
    sampled /= r[:, None] ** nu
    sampled *= np.sqrt(grid.weights)[:, None]
    sampled /= mode_norm[None, :]
    return sampled


# grids whose transform (one complex N x N array, 16 MB at N = 1024, one
# more for each of ``complex_kernel`` and ``deriv_matrix`` once read; at
# n = 3 none until a step operator is built) stays cached, certified
CACHED_GRIDS = 8


# one slot per cached grid, filled by the first ``get_transform`` call, so
# that a stored factor is not part of the cache key
@lru_cache(maxsize=CACHED_GRIDS)
def _transform_slot(grid: RadialGrid) -> list:
    return []


def get_transform(grid: RadialGrid, stored=None) -> SpectralTransform:
    """Transform attached to a bessel-kind grid (cached per grid object,
    for the ``CACHED_GRIDS`` most recently used grids; grids hash by
    identity).  A ``stored`` polar factor is certified and adopted only if
    this call builds the transform, and is not held afterwards; a grid
    whose kernel is a closed form (n = 3) never reads it."""
    if grid.kind != "bessel":
        raise GridError("spectral transform requires a bessel-kind grid")
    slot = _transform_slot(grid)
    if not slot:
        slot.append(_build_transform(grid, stored))
    return slot[0]


def get_propagator(grid: RadialGrid) -> SpectralTransform:
    """The cached transform of a bessel grid, its free flow certified."""
    tr = get_transform(grid)
    tr.validated_t_max  # certified on first read, then held
    return tr
