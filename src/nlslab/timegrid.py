"""Piecewise-linear time quadrature over snapshot samples.

Trajectory diagnostics treat any sampled scalar density g(t_k) as the
piecewise-linear interpolant through the snapshot times.  Integrals over
arbitrary sub-intervals are then exact integrals of that interpolant
(trapezoid rule plus exact partial end panels).
"""

from __future__ import annotations

import math

import numpy as np


def pl_integral(ts: np.ndarray, vs: np.ndarray, a: float, b: float) -> float:
    """Integral of the interpolant over [a, b] (within the sampled span)."""
    if b < a:
        raise ValueError("empty or reversed interval")
    if a < ts[0] - 1e-12 or b > ts[-1] + 1e-12:
        raise ValueError("interval outside sampled span")
    a = max(a, float(ts[0]))
    b = min(b, float(ts[-1]))
    if a == b:
        return 0.0
    grid = np.concatenate(([a], ts[(ts > a) & (ts < b)], [b]))
    vals = np.interp(grid, ts, vs)
    return float(np.trapezoid(vals, grid))


def cumulative_panels(ts: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Cumulative integral of the interpolant evaluated at the sample times."""
    out = np.zeros(ts.size)
    out[1:] = np.cumsum(0.5 * (vs[1:] + vs[:-1]) * np.diff(ts))
    return out


def invert_cumulative(
    ts: np.ndarray, vs: np.ndarray, cum: np.ndarray, target: float
) -> float:
    """Smallest t with cumulative integral >= target.

    Within each panel the cumulative is quadratic in t (density linear),
    so the crossing solves a quadratic exactly.
    """
    if target <= 0:
        return float(ts[0])
    if target > cum[-1] + 1e-12 * max(1.0, abs(cum[-1])):
        raise ValueError("target mass exceeds total")
    k = int(np.searchsorted(cum, target, side="left"))
    if k == 0:
        return float(ts[0])
    k -= 1  # panel [t_k, t_{k+1}] contains the crossing
    need = target - cum[k]
    h = ts[k + 1] - ts[k]
    g0, g1 = vs[k], vs[k + 1]
    slope = (g1 - g0) / h
    # solve g0 tau + slope tau^2 / 2 = need for tau in [0, h]
    if abs(slope) < 1e-300:
        tau = need / g0 if g0 > 0 else h
    else:
        disc = g0 * g0 + 2.0 * slope * need
        tau = (math.sqrt(disc) - g0) / slope if disc >= 0 else h
    tau = min(max(tau, 0.0), h)
    return float(ts[k] + tau)
