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
reads.  The kernel is real and the fields are complex, and ``real_matrix
@ complex_vector`` would cast the whole kernel to complex on every call
(16 MB at N = 1024).  An n = 3 kernel is one complex array, whose real
view is ``kernel``, and every product reads its rows; nothing casts it.
Elsewhere ``_matvec`` casts the kernel ``_ROWS`` rows at a time, once per
call, and a ``KernelCast`` (``SpectralTransform.cast()``) holds one full
cast of each kernel for all the one-row products of an evolution and
splits their rows over threads.  Each runs one zgemv per row of a stack:
numpy's cast-then-zgemv arithmetic, bit for bit, so a row of a stack has
the bits of a single-row call.  One real GEMM on the float view, or one
zgemm over a stack, would be faster but rounds differently (a zgemm moved
the last bits of about 98% of a stack's coefficients), and the pinned
reports sit on an exact tie of the greedy interval subdivision that one
ulp can flip.

In three dimensions nu = 1/2, J_{1/2}(x) is proportional to sin(x)/sqrt(x),
the zeros are j_m = m pi, and the nodes r_i = i R / (N+1) are uniform.
The weighted, normalized modes are then exactly the orthonormal DST-I
matrix sqrt(2/(N+1)) sin(pi i m / (N+1)), i, m = 1..N, and the SVD's
polar factor equals it to rounding (2.6e-14 at N = 1024).  An n = 3
transform therefore takes its kernel from this closed form, with the
angle i m reduced modulo 2(N+1) in integers so that only one rounding
enters: no Bessel sampling, no SVD and nothing that depends on the BLAS
thread count.  The matrix is exactly symmetric, so ``kernel_t`` is the
same array, and its complex form serves both orientations: with a step
operator, the dense n = 3 path holds 32 N^2 bytes.  An FFT
(``scipy.fft.dst(type=1)``) would apply it in O(N log N), but N + 1 = 257
is prime at N = 256: there it took 87-167 us per complex row against
79-89 us for the dense product (three runs on a 2-core x86_64 box, one
BLAS thread), and it rounds differently from the dense product.

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
A's polar factor to rounding.  A factor that fails (another grid's, a
corrupted file) is dropped with a warning, and the SVD runs.

Grids and modes read one cached Bessel table per (dimension, N): the zeros
j_1..j_{N+1} of J_nu, then J_{nu+1}(j_1..j_N).  scipy computes it, and is
imported only inside the functions that compute with it.  An n = 3 store
carries its table, adopted once numpy alone certifies it against the
closed forms for nu = 1/2 (DLMF 10.16): zeros within 1e-14 m pi of m pi,
J_{3/2}(z) within 1e-12, relative, of sqrt(2/(pi z)) (sin z/z - cos z).
scipy's tables pass with room (1 ulp and 1.3e-14 up to N = 16384).
"""

from __future__ import annotations

import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.typing import NDArray

from . import workers
from .grid import GridError, RadialField, RadialGrid, UnresolvedGridError, _row_sums, sphere_area


def bessel_zeros(nu: float, count: int) -> NDArray[np.float64]:
    """First ``count`` positive zeros of J_nu, any real order nu >= 0.

    McMahon asymptotics polished by Newton iterations; accurate to
    machine precision for the orders used here (nu = n/2 - 1, n >= 3).
    """
    from scipy import special
    m = np.arange(1, count + 1, dtype=float)
    beta = (m + 0.5 * nu - 0.25) * math.pi
    mu = 4.0 * nu * nu
    z = (
        beta
        - (mu - 1) / (8 * beta)
        - 4 * (mu - 1) * (7 * mu - 31) / (3 * (8 * beta) ** 3)
    )
    for _ in range(12):
        dz = special.jv(nu, z) / special.jvp(nu, z)
        z -= dz
        if np.max(np.abs(dz)) < 1e-14:
            break
    if np.any(np.diff(z) <= 0):
        raise UnresolvedGridError(f"Bessel zero computation failed for nu={nu}")
    return z


# one slot per (dimension, n_points), as many as grids, filled by the first
# ``bessel_table`` call, so that a stored table is not part of the cache key
@lru_cache(maxsize=32)
def _table_slot(dimension: int, n_points: int) -> list:
    return []


def bessel_table(dimension: int, n_points: int, stored=None) -> NDArray[np.float64]:
    """The read-only Bessel table of the module docstring, 2N + 1 values.  A
    ``stored`` n = 3 table is adopted, once certified, only if this call
    fills the cache; scipy computes the table otherwise."""
    slot = _table_slot(dimension, n_points)
    if not slot:
        table = None if stored is None else _certified_table(stored, n_points)
        if table is None:
            from scipy import special
            nu = dimension / 2.0 - 1.0
            z = bessel_zeros(nu, n_points + 1)
            table = np.concatenate([z, special.jv(nu + 1, z[:n_points])])
        table.flags.writeable = False
        slot.append(table)
    return slot[0]


def _certified_table(stored: NDArray[np.float64], n: int) -> NDArray[np.float64] | None:
    """``stored`` as the n = 3 table of ``n`` points if it passes the
    certificate; else None, with a warning that names the failed check."""
    # each test passes only on a true comparison, which a NaN never is
    z, m_pi = stored[: n + 1], np.arange(1, n + 2) * math.pi
    if stored.size != 2 * n + 1:
        reason = f"{stored.size} values, not {2 * n + 1}"
    elif not np.all(np.abs(z - m_pi) <= 1e-14 * m_pi):
        reason = "a zero is not m pi"
    else:
        z = z[:n]
        j = np.sqrt(2.0 / (math.pi * z)) * (np.sin(z) / z - np.cos(z))
        if np.all(np.abs(stored[n + 1:] - j) <= 1e-12 * np.abs(j)):
            return stored
        reason = "a J_{3/2} value is not the closed form"
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


@dataclass(frozen=True, eq=False)
class SpectralTransform:
    """Dense orthogonal transform between node samples and mode coefficients.

    ``forward`` maps weighted samples to coefficients of the L^2-normalized
    Dirichlet modes; ``backward`` is its exact transpose-inverse.  The
    frequencies are k_m = j_{nu,m} / r_max, strictly increasing.
    """

    grid: RadialGrid
    frequencies: NDArray[np.float64]
    kernel: NDArray[np.float64]        # orthogonal: columns = weighted modes
    kernel_t: NDArray[np.float64]      # kernel.T, C-contiguous except at n = 3
    sqrt_weights: NDArray[np.float64]
    # the computed polar factor (``kernel`` itself), which a trajectory
    # store carries; None where the kernel has a closed form (n = 3)
    factor: NDArray[np.float64] | None
    # n = 3: the kernel as complex (``kernel`` is its real view), which
    # every product reads; None where products cast ``kernel``
    complex_kernel: NDArray[np.complex128] | None

    @cached_property
    def deriv_matrix(self) -> NDArray[np.float64]:
        """Coefficients -> d/dr samples, built on first use: only the
        momentum-flux identity check differentiates."""
        k, r = self.frequencies, self.grid.nodes
        if self.grid.dimension == 3:
            # d/dr [sin(k r)/r] = (k cos(k r) - sin(k r)/r)/r, and the
            # weighted mode is sqrt(w) times the normalized one; built in
            # place, with the bits of that expression
            n = self.grid.n_points
            theta = _dst1_angles(n, np.empty((n, n)))
            dphi = np.cos(theta)
            dphi *= k[None, :]
            dphi -= np.divide(np.sin(theta, out=theta), r[:, None], out=theta)
            dphi *= math.sqrt(2.0 / (n + 1))
            return np.divide(dphi, self.sqrt_weights[:, None], out=dphi)
        from scipy import special
        nu, _, mode_norm = _modes(self.grid)
        # d/dr [J_nu(k r)/r^nu] = -k J_{nu+1}(k r)/r^nu
        dphi = -k[None, :] * special.jv(nu + 1, np.outer(r, k)) / r[:, None] ** nu
        return dphi / mode_norm[None, :]

    def forward(self, u: RadialField) -> NDArray[np.complex128]:
        """Mode coefficients of a field."""
        if u.grid is not self.grid:
            raise GridError("field grid does not match transform grid")
        return self.coefficients(u.values)

    def coefficients(self, values, cast=None) -> NDArray[np.complex128]:
        """Mode coefficients of node samples; of one row through ``cast``,
        a ``KernelCast`` of this transform, where given."""
        x = self.sqrt_weights * values
        return (_matvec(self._complex(self.kernel_t), x) if cast is None
                else cast.product(cast.kernel_t, x))

    def backward(self, coeffs, cast=None) -> NDArray[np.complex128]:
        """Node samples from mode coefficients; of one row through
        ``cast`` where given."""
        out = (_matvec(self._complex(self.kernel), coeffs) if cast is None
               else cast.product(cast.kernel, coeffs))
        out /= self.sqrt_weights
        return out

    def derivative(self, coeffs) -> NDArray[np.complex128]:
        """Spectrally accurate radial derivative u_r, at the nodes, of the
        field with mode coefficients ``coeffs``."""
        return _matvec(self.deriv_matrix, coeffs)

    def kinetic_energy(self, coeffs):
        """(1/2) integral of |grad u|^2 from mode coefficients, exact in the
        discrete mode basis: a float for one row, one value per row for a
        stack."""
        # C order: the row sums repeat a single-row sum bit for bit only there
        rows = np.ascontiguousarray(np.atleast_2d(coeffs))
        kin = 0.5 * _row_sums(lambda b: self.frequencies**2 * np.abs(b) ** 2, rows)
        return float(kin[0]) if coeffs.ndim == 1 else kin

    def step_operator(self, multiplier, cast) -> NDArray[np.complex128]:
        """Dense matrix of a diagonal frequency multiplier, acting on
        weighted samples sqrt(w) * u, built through ``cast``, a
        ``KernelCast`` of this transform, in ``_ROWS``-row blocks split
        over the cast's threads."""
        right, out = cast.kernel_t, np.empty(self.kernel.shape, dtype=complex)
        cast.split(lambda rows: np.matmul(self.kernel[rows] * multiplier[None, :], right,
                                          out=out[rows]), _ROWS)
        return out

    def _complex(self, real):
        """The complex n = 3 kernel, or ``real`` (a kernel) to be cast."""
        return real if self.complex_kernel is None else self.complex_kernel

    @contextmanager
    def cast(self):
        """Yield a ``KernelCast`` of this transform; its threads are joined
        on exit."""
        with workers.row_split(self.grid.n_points) as split:
            yield KernelCast(self, split)


class KernelCast:
    """A transform's kernels cast to complex, each once on first use (at
    n = 3 the transform's complex kernel, which nothing casts), and a
    ``workers.row_split`` over its rows.  ``product(mat, x)`` is ``mat @ x``
    for one complex row ``x`` and a complex ``mat``, with the bits of
    numpy's full-cast product (so of ``_matvec``): each thread computes
    whole dot products for its own rows of the output."""

    def __init__(self, tr: SpectralTransform, split):
        self.tr, self.split = tr, split

    @cached_property
    def kernel_t(self) -> NDArray[np.complex128]:
        return self.tr._complex(self.tr.kernel_t).astype(complex, copy=False)

    @cached_property
    def kernel(self) -> NDArray[np.complex128]:
        return self.tr._complex(self.tr.kernel).astype(complex, copy=False)

    def product(self, mat, x) -> NDArray[np.complex128]:
        out = np.empty(x.shape, dtype=complex)
        self.split(lambda rows: np.matmul(mat[rows], x, out=out[rows]))
        return out


# rows of a real matrix cast to complex at a time (a 1 MB block at
# N = 1024); the tests hold the bits to the full-cast product for N that
# are and are not multiples of it
_ROWS = 64


def _matvec(mat: NDArray, x) -> NDArray[np.complex128]:
    """``mat @ row`` for one complex row (N,) or each row of a stack (S, N),
    with the bits of numpy's full-cast product: each C-contiguous row block
    of a real ``mat`` is cast once per call (a complex one is read as it
    is), then one zgemv per row."""
    x = np.ascontiguousarray(x)
    out = np.empty(x.shape[:-1] + mat.shape[:1], dtype=complex)
    # row views made once, not per block (5% of a row call at N = 1024)
    pairs = list(zip(*np.atleast_2d(x, out)))
    for start in range(0, mat.shape[0], _ROWS):
        rows = slice(start, start + _ROWS)
        block = mat[rows].astype(complex, copy=False)
        for row, dest in pairs:
            np.matmul(block, row, out=dest[rows])
        # released before the next cast: holding two blocks slows a
        # single-row call by half
        del block
    return out


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
    nu, j, mode_norm = _modes(grid)
    k = j / grid.r_max
    sw = np.sqrt(grid.weights)
    if grid.dimension == 3:
        # the orthonormal DST-I, exactly symmetric, built in place in the
        # real part of one complex array; ``stored`` is not read
        n = grid.n_points
        dense = np.zeros((n, n), dtype=complex)
        kernel = _dst1_angles(n, dense.real)
        np.sin(kernel, out=kernel)
        kernel *= math.sqrt(2.0 / (n + 1))
        return SpectralTransform(grid, k, kernel, kernel, sw, None, dense)
    from scipy import special
    r = grid.nodes
    # the sampled modes, weighted and normalized in place: one N x N array
    sampled = special.jv(nu, np.outer(r, k))
    sampled /= r[:, None] ** nu
    sampled *= sw[:, None]
    sampled /= mode_norm[None, :]
    # polar factor: the nearest exactly orthogonal matrix to the sampled
    # (already near-orthonormal) mode matrix, taken from ``stored`` when it
    # is certified
    kernel = None if stored is None else _certified(stored, sampled)
    if kernel is None:
        kernel = _polar_factor(sampled)
    return SpectralTransform(grid, k, kernel, np.ascontiguousarray(kernel.T), sw, kernel, None)


# grids whose transform (two real N x N arrays, 16 MB at N = 1024, or
# one complex one for n = 3, and one more once ``deriv_matrix`` is read)
# and propagator stay cached
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
    whose kernel is a closed form (``factor`` None) never reads it."""
    if grid.kind != "bessel":
        raise GridError("spectral transform requires a bessel-kind grid")
    slot = _transform_slot(grid)
    if not slot:
        slot.append(_build_transform(grid, stored))
    return slot[0]
