"""The certificate of the exact free Schrodinger evolution e^{i t lap}.

The free flow multiplies spectral coefficients by e^{-i k^2 t}
(``SpectralTransform.evolve_coeffs``), which is exactly unitary for the
discrete transform inner product: the L^2 mass of a field is preserved to
rounding for every evolution time.

Because the transform lives on a truncated ball with a Dirichlet boundary,
long evolutions of spreading data eventually feel the boundary.  Each
transform certifies, on the first read of its ``validated_t_max``, the
largest time for which the evolved reference Gaussian still matches its
closed-form evolution; free flows beyond that validated span are refused.
"""

from __future__ import annotations

import numpy as np

from .grid import RadialField, RadialGrid, UnresolvedGridError
from .transform import SpectralTransform, get_transform


def gaussian_field(grid: RadialGrid, amplitude: float = 1.0, width: float = 1.0) -> RadialField:
    """The reference Gaussian  amplitude * exp(-(r/width)^2)."""
    return grid.field(amplitude * np.exp(-((grid.nodes / width) ** 2)))


def gaussian_free_evolution(
    grid: RadialGrid, t: float, amplitude: float = 1.0, width: float = 1.0
) -> RadialField:
    """Closed-form free evolution of the reference Gaussian.

    For u0 = A exp(-(r/w)^2) the free flow is
        u(t, r) = A (1 + 4it/w^2)^{-n/2} exp(-r^2 / (w^2 + 4it)),
    obtained by completing the square in the Fourier representation.
    """
    n = grid.dimension
    w2 = width * width
    z = 1.0 + 4.0j * t / w2
    vals = amplitude * z ** (-n / 2.0) * np.exp(-grid.nodes**2 / (w2 * z))
    return grid.field(vals)


_T_LADDER = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: pointwise tolerance of the Gaussian oracle that certifies the horizon
ORACLE_TOLERANCE = 1e-6


def get_propagator(grid: RadialGrid) -> SpectralTransform:
    """The cached transform of a bessel grid, its free flow certified."""
    tr = get_transform(grid)
    tr.validated_t_max  # certified on first read, then held
    return tr


def certified_span(tr: SpectralTransform) -> float:
    """The largest ladder time at which the transform's free flow of the
    reference Gaussian matches the closed form pointwise within
    ``ORACLE_TOLERANCE`` (checked in both time directions via symmetry),
    together with a machine-accuracy round-trip test at t = 0."""
    u0 = gaussian_field(tr.grid).values
    coeffs = tr.coefficients(u0)
    if np.abs(tr.backward(coeffs) - u0).max() > 1e-9:
        raise UnresolvedGridError("spectral round-trip self-test failed")
    ladder = np.array(_T_LADDER)[:, None]
    evolved = tr.backward(coeffs * np.exp(-1j * tr.frequencies**2 * ladder))
    t_max = 0.0
    for t, row in zip(_T_LADDER, evolved):
        oracle = gaussian_free_evolution(tr.grid, t)
        if np.abs(row - oracle.values).max() < ORACLE_TOLERANCE:
            t_max = t
        else:
            break
    if t_max == 0.0:
        raise UnresolvedGridError("no ladder time passed the Gaussian oracle self-test")
    return t_max
