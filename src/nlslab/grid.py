"""Radial grids, quadrature and L^p norms.

All fields here are spherically symmetric samples u(r_i) of a complex field
on R^n, n >= 3.  A grid carries quadrature weights w_i such that

    sum_i w_i f(r_i)  ~  integral over R^n of f,   f radial,

with the angular factor (area of the unit sphere) folded into the weights.
The pipeline's grids come from :func:`nlslab.transform.make_spectral_grid`:
nodes at scaled Bessel zeros (no node at r = 0) with Fourier-Bessel
quadrature weights, the collocation points of the radial spectral
transform.  Only those grids, marked ``kind="bessel"``, carry a transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray


class GridError(ValueError):
    """Invalid grid construction or grid/field mismatch."""


class UnresolvedGridError(GridError):
    """A grid too coarse for the transform's self-tests."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"{reason}; raise n_points, enlarge r_max or lower dimension")

    def __reduce__(self):  # unpickled (from a worker) with the reason, not the message
        return type(self), (self.reason,)


class TimeRangeError(ValueError):
    """Requested evolution time exceeds the grid-certified span."""


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Radial quadrature grid for spherically symmetric fields on R^n.

    Attributes
    ----------
    dimension : int
        Ambient dimension n >= 3.
    nodes : ndarray
        Strictly increasing radii, first node >= 0.
    weights : ndarray
        Positive quadrature weights for the full n-dimensional volume
        integral of radial functions.
    r_max : float
        Truncation radius of the computational ball.
    kind : str
        ``"bessel"`` for spectral collocation grids; hand-built grids keep
        the default ``"custom"`` and have no spectral transform.
    """

    dimension: int
    nodes: NDArray[np.float64]
    weights: NDArray[np.float64]
    r_max: float
    kind: str = "custom"

    def __post_init__(self):
        if self.dimension < 3:
            raise GridError(f"dimension must be >= 3, got {self.dimension}")
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise GridError("grid needs at least 3 nodes")
        if nodes[0] < 0 or np.any(np.diff(nodes) <= 0):
            raise GridError("nodes must be strictly increasing with r_0 >= 0")
        if weights.shape != nodes.shape or np.any(weights <= 0):
            raise GridError("weights must be positive, one per node")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n_points(self) -> int:
        return self.nodes.size

    def field(self, values) -> "RadialField":
        return RadialField(self, np.asarray(values, dtype=complex))


@dataclass(frozen=True, eq=False)
class RadialField:
    """One complex radial snapshot u(r_i) on a grid."""

    grid: RadialGrid
    values: NDArray[np.complex128]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != self.grid.nodes.shape:
            raise GridError("field length does not match node count")
        if not np.all(np.isfinite(values)):
            raise GridError("field contains non-finite samples")
        object.__setattr__(self, "values", values)


def lp_norm(u: RadialField, p: float) -> float:
    """The L^p(R^n) norm of a radial field, p in [1, inf]."""
    return float(_lp_norms(u.grid, u.values[None, :], p)[0])


def _lp_norms(grid: RadialGrid, values: NDArray[np.complex128], p: float) -> NDArray[np.float64]:
    """``lp_norm`` of each row of ``values``."""
    if p < 1:
        raise ValueError(f"invalid exponent p={p}, need p >= 1")
    if math.isinf(p):
        return np.abs(values).max(axis=1, initial=0.0)
    sums = _row_sums(lambda v: grid.weights * np.abs(v) ** p, values)
    # the root is taken one float64 scalar at a time, as for a single field
    return np.array([s ** (1.0 / p) for s in sums])


# snapshot rows reduced at a time, which bounds the temporaries whatever
# the snapshot count (64 rows at N = 1024 are 1 MB of complex samples)
_ROWS = 64


def _row_sums(integrand, *arrays) -> NDArray[np.float64]:
    """``np.sum(integrand(*rows), axis=1)`` over the rows of equal-length
    arrays, ``_ROWS`` at a time.  On C-ordered rows numpy adds each row
    pairwise, so every sum has the bits of the single-snapshot sum."""
    out = np.empty(len(arrays[0]))
    for start in range(0, out.size, _ROWS):
        rows = slice(start, start + _ROWS)
        out[rows] = np.sum(integrand(*(a[rows] for a in arrays)), axis=1)
    return out

