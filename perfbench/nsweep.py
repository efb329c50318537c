"""Per-grid cost probe for the N-sweep of the traced run.

    python nsweep.py N_DIM N R_MAX

Prints one JSON object: the transform build time (or the failure and its
message), the per-call forward time, and the per-step cost of both
``evolve`` branches (dense step operator for mu = +1, per-step gradient
watch for mu = -1).  Each grid runs in its own process so a failed or
large build cannot affect the next one.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import nlslab

# forward calls are repeated until this much time has been spent
_FORWARD_BUDGET_S = 0.3


def _evolve_seconds(u0, mu: int, steps: int) -> float:
    dt = 1e-4
    cfg = nlslab.EvolutionConfig(dimension=u0.grid.dimension, mu=mu, dt=dt,
                                 snapshot_stride=10**9)
    start = time.perf_counter()
    nlslab.evolve(u0, 0.0, steps * dt, cfg)
    return time.perf_counter() - start


def step_ms(u0, mu: int) -> float:
    """Marginal cost of one step: the difference of two runs that differ
    only in step count, so the step-operator build and snapshot recording
    cancel.  The extra steps are sized to take about a second, well above
    the jitter of the step-operator build that both runs pay."""
    n_points = u0.grid.n_points
    base = 10
    per_2048 = 200 if mu == 1 else 20   # dense steps are ~15x cheaper
    extra = per_2048 * max(1, 2048 // n_points) ** 2
    t_short = _evolve_seconds(u0, mu, base)
    t_long = _evolve_seconds(u0, mu, base + extra)
    return 1e3 * (t_long - t_short) / extra


def probe(dimension: int, n_points: int, r_max: float) -> dict:
    grid = nlslab.make_spectral_grid(dimension, n_points, r_max)
    start = time.perf_counter()
    try:
        tr = nlslab.get_transform(grid)
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        # numpy.linalg.LinAlgError is a ValueError
        return {"build_s": time.perf_counter() - start, "build_failed": 1,
                "message": f"{type(exc).__name__}: {exc}"}
    out = {"build_s": time.perf_counter() - start, "build_failed": 0, "message": ""}
    nlslab.get_propagator(grid)  # certify once, outside every timed region
    u0 = nlslab.gaussian_field(grid, amplitude=0.5)
    calls = []
    spent = 0.0
    while len(calls) < 5 or spent < _FORWARD_BUDGET_S:
        t = time.perf_counter()
        tr.forward(u0)
        calls.append(time.perf_counter() - t)
        spent += calls[-1]
    out["forward_ms"] = 1e3 * statistics.median(calls)
    out["dense_step_ms"] = step_ms(u0, 1)
    out["watch_step_ms"] = step_ms(u0, -1)
    return out


if __name__ == "__main__":
    print(json.dumps(probe(int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3]))))
