"""Time evolution of  i u_t + lap u = mu |u|^{4/(n-2)} u  by Strang splitting.

The nonlinear sub-flow  i u_t = mu |u|^{4/(n-2)} u  is solved exactly as a
pointwise phase rotation (|u| is a pointwise invariant of it), and the
linear sub-flow is the exact free flow ``free_phase``.  The composition
half-phase / full-linear / half-phase is second order in dt, conserves the
discrete L^2 mass to rounding by construction, and needs no CFL condition.

mu = +1 is the defocusing sign, mu = -1 focusing, and mu = 0 runs the free
equation (useful as a twin for linear-versus-nonlinear diagnostics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import workers
from .functionals import energy, energy_scale, mass
from .grid import GridError, RadialField, RadialGrid, TimeRangeError
from .transform import get_transform, product


@dataclass(frozen=True)
class EvolutionConfig:
    """Knobs for one evolution run.

    energy_drift_tol is the relative-drift alarm that aborts a run;
    blowup_grad_factor flags blowup when the gradient norm exceeds that
    multiple of its initial value.
    """

    dimension: int
    mu: int = 1
    dt: float = 1e-3
    snapshot_stride: int = 10
    energy_drift_tol: float = 1e-3
    blowup_grad_factor: float = 10.0
    boundary_decay_tol: float = 1e-8

    def __post_init__(self):
        if self.dimension < 3:
            raise ValueError("dimension must be >= 3")
        if self.mu not in (-1, 0, 1):
            raise ValueError("mu must be -1, 0, or +1")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        if self.energy_drift_tol <= 0 or self.blowup_grad_factor <= 0:
            raise ValueError("tolerance knobs must be positive")

    @property
    def phase_exponent(self) -> float:
        """Nonlinearity exponent 4/(n-2) of the energy-critical power."""
        return 4.0 / (self.dimension - 2)


def _phase_rotation(values: np.ndarray, mu: int, tau: float, p: float) -> np.ndarray:
    """Node samples after the exact nonlinear flow for time tau, with
    nonlinearity exponent p."""
    return np.exp(-1j * mu * tau * np.abs(values) ** p) * values


@dataclass(frozen=True)
class BlowupRecord:
    """Blowup record of one evolution: ``evolve`` alone decides it."""
    flagged: bool
    first_alarm_time: float | None
    gradient_history: tuple           # ||grad u|| = sqrt(2 kinetic) per snapshot
    initial_gradient: float
    factor: float
    potential_exceeds_kinetic: bool   # |potential| > kinetic at t_minus
    blowup_expected: bool             # focusing sign and the above


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-ordered snapshots of one evolution, immutable once produced.

    ``values`` holds snapshot i in row i: one read-only, C-contiguous
    (S, N) complex array.  ``field(i)`` is the single-snapshot view, and
    ``coefficients`` the matching stack of mode coefficients.
    """

    config: EvolutionConfig
    grid: RadialGrid
    times: np.ndarray
    values: np.ndarray
    mass_series: np.ndarray
    energy_series: np.ndarray
    kinetic_series: np.ndarray
    potential_series: np.ndarray
    status: str = "complete"          # complete | aborted-energy | aborted-blowup
    abort_reason: str = ""
    blowup: BlowupRecord | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("snapshot times must be strictly increasing")
        values = np.ascontiguousarray(self.values, dtype=complex).view()
        if values.shape != (self.times.size, self.grid.n_points):
            raise ValueError("one snapshot row of grid samples per time required")
        if not np.all(np.isfinite(values)):
            raise GridError("snapshot contains non-finite samples")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def field(self, i: int) -> RadialField:
        """Snapshot i as a field (a view of row i)."""
        return RadialField(self.grid, self.values[i])

    @cached_property
    def coefficients(self) -> np.ndarray:
        """Mode coefficients of ``values``, row by row: one read-only
        (S, N) array, built on first use and held with the trajectory."""
        coeffs = get_transform(self.grid).coefficients(self.values)
        coeffs.flags.writeable = False
        return coeffs

    @property
    def t_minus(self) -> float:
        return float(self.times[0])

    @property
    def t_plus(self) -> float:
        return float(self.times[-1])

    @property
    def span(self) -> float:
        return self.t_plus - self.t_minus

    def index_of(self, t: float) -> int:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, self.span):
            raise ValueError(f"t={t} is not a snapshot time")
        return i

    def nearest_time(self, t: float) -> float:
        return float(self.times[int(np.argmin(np.abs(self.times - t)))])


def snapshot_plan(span: float, dt: float, stride: int) -> tuple[int, int]:
    """(steps, rows) over ``span`` at about ``dt``: at least one step; a snapshot row for
    the start, each ``stride`` steps and the end.  A ValueError if span / dt is not finite."""
    if not math.isfinite(span / dt):
        raise ValueError(f"span {span:.3g} at dt {dt:.3g} is not a finite number of steps")
    n_steps = max(1, round(span / dt))
    return n_steps, 2 + (n_steps - 1) // stride


def evolve(
    u0: RadialField,
    t_minus: float,
    t_plus: float,
    cfg: EvolutionConfig,
    provenance: dict | None = None,
    *,
    pinned: bool = True,
) -> Trajectory:
    """Run Strang splitting from t_minus to t_plus.

    Snapshots are stored every ``snapshot_stride`` steps (plus the final
    state).  The run is truncated early with a partial trajectory when the
    gradient norm exceeds ``blowup_grad_factor`` times its start or the
    relative energy drift exceeds the alarm; the status says which.
    ``pinned=False`` lets an n = 3 run whose rows are never stored (a
    resolution twin) step by FFT; see the branch comment below.
    """
    if t_plus <= t_minus:
        raise ValueError("empty time span")
    if u0.grid.dimension != cfg.dimension:
        raise ValueError("config dimension does not match the grid")
    span = t_plus - t_minus
    n_steps, rows = snapshot_plan(span, cfg.dt, cfg.snapshot_stride)
    dt = span / n_steps
    tr = get_transform(u0.grid)
    if span > tr.validated_t_max:
        raise TimeRangeError(
            f"span {span:.3g} exceeds the grid-certified horizon {tr.validated_t_max:.3g}")
    warnings = []
    peak = np.abs(u0.values).max()
    if peak > 0:
        tail = np.abs(u0.values[-4:]).max()
        if tail > cfg.boundary_decay_tol * peak:
            warnings.append(
                f"initial data not decayed at r_max (tail/peak {tail / peak:.2e})"
            )

    phases = tr.free_phase(dt)
    sw = tr.sqrt_weights
    mu, p = cfg.mu, cfg.phase_exponent
    # focusing collapse outruns the snapshot stride, so the focusing sign
    # takes the linear step through coefficient space and watches the
    # gradient norm every step; the other signs apply the dense one-step
    # operator.  One coefficient-space loop for every sign would be slower
    # (n = 5, N = 1024, one thread on a 2-core Xeon: 500 steps took
    # 1.36-1.58 s, against 0.85-1.01 s for the dense operator, its build
    # included) and its different rounding would move pinned report values.
    # At n = 3 that loop's transforms are FFTs, far cheaper than the dense
    # operator at N = 1024 and with no N x N array, yet a ``pinned`` run
    # keeps the dense branch: an FFT step moves the stored values by
    # rounding, and the pinned reports sit on an exact tie of the greedy
    # interval count, which must be settled first.  A resolution twin's
    # rows feed only the order estimate, so it takes the FFT loop.
    watch_every_step = mu == -1
    in_coefficients = watch_every_step or (not pinned and tr.complex_kernel_t is None)

    u = np.asarray(u0.values, dtype=complex).copy()
    values = np.empty((rows, u.size), dtype=complex)
    times, parts = [], []     # parts: each snapshot's EnergyBreakdown

    def record(t: float, u_now: np.ndarray):
        values[len(times)] = u_now
        times.append(t)
        parts.append(energy(u0.grid, u_now, mu, tr.coefficients(u_now, split)))
        return parts[-1].total, math.sqrt(2.0 * parts[-1].kinetic)

    # every kernel product of the loop (at n = 3 the step operator's alone:
    # the rest are FFTs) splits its rows over the process budget's threads
    with workers.row_split(u.size) as split:
        step_op = None if in_coefficients else tr.step_operator(phases, split)
        e0, grad0 = record(t_minus, u)
        pot_exceeds = abs(parts[0].potential) > parts[0].kinetic
        e_scale = energy_scale(e0)
        status, reason = "complete", ""
        blow_time = None

        for step in range(1, n_steps + 1):
            if mu != 0:
                u = _phase_rotation(u, mu, dt / 2.0, p)
            if in_coefficients:
                b = tr.coefficients(u, split)
                if watch_every_step:
                    grad_lin = math.sqrt(2.0 * tr.kinetic_energy(b))
                u = tr.backward(phases * b, split)
            else:
                u = product(step_op, sw * u, split) / sw
            if mu != 0:
                u = _phase_rotation(u, mu, dt / 2.0, p)
            if not np.all(np.isfinite(u)):
                status, reason = "aborted-blowup", "non-finite amplitude"
                blow_time = t_minus + step * dt
                break
            if watch_every_step and grad0 > 0 and grad_lin > cfg.blowup_grad_factor * grad0:
                record(t_minus + step * dt, u)
                status, reason = "aborted-blowup", "gradient-norm blowup threshold"
                blow_time = t_minus + step * dt
                break
            if step % cfg.snapshot_stride == 0 or step == n_steps:
                e, g = record(t_minus + step * dt, u)
                if grad0 > 0 and g > cfg.blowup_grad_factor * grad0:
                    status, reason = "aborted-blowup", "gradient-norm blowup threshold"
                    blow_time = t_minus + step * dt
                    break
                drift = abs(e - e0) / e_scale
                if drift > cfg.energy_drift_tol:
                    status = "aborted-energy"
                    reason = f"energy drift {drift:.3e} exceeds alarm"
                    break

    values = values[: len(times)]
    energies, kinetics, potentials = zip(*parts)
    blow = BlowupRecord(
        flagged=(status == "aborted-blowup"),
        first_alarm_time=blow_time,
        gradient_history=tuple(math.sqrt(2.0 * k) for k in kinetics),
        initial_gradient=grad0,
        factor=cfg.blowup_grad_factor,
        potential_exceeds_kinetic=pot_exceeds,
        blowup_expected=(mu == -1 and pot_exceeds),
    )
    prov = dict(provenance or {})
    prov.setdefault("dt_effective", dt)
    prov.setdefault("warnings", tuple(warnings))
    return Trajectory(
        config=cfg,
        grid=u0.grid,
        times=np.asarray(times),
        values=values,
        mass_series=mass(u0.grid, values),
        energy_series=np.asarray(energies),
        kinetic_series=np.asarray(kinetics),
        potential_series=np.asarray(potentials),
        status=status,
        abort_reason=reason,
        blowup=blow,
        provenance=prov,
    )


def duhamel_residual(traj: Trajectory, t0: float, t: float) -> float:
    """L^2 defect of the integral form of the equation between snapshots.

    Computes || u(t) - e^{i(t-t0) lap} u(t0)
               + i int_{t0}^t e^{i(t-s) lap} F(u(s)) ds ||_{L^2}
    with the s-integral taken by the trapezoid rule over stored snapshots.
    t0 and t must be snapshot times.
    """
    i0, i1 = traj.index_of(t0), traj.index_of(t)
    if i0 == i1:
        return 0.0
    if i0 > i1:
        # the L^2 defect is symmetric under swapping the endpoints because
        # the discrete propagator is exactly unitary
        i0, i1 = i1, i0
        t0, t = t, t0
    tr = get_transform(traj.grid)
    mu, p = traj.config.mu, traj.config.phase_exponent
    # the forcing  mu |u|^{4/(n-2)} u  at each snapshot, transformed as one
    # stack (each row keeps the bits of a single-row call)
    rows = traj.values[i0:i1 + 1]
    forcing = tr.coefficients(mu * np.abs(rows) ** p * rows)
    acc = np.zeros(traj.grid.n_points, dtype=complex)
    for j, coeffs in zip(range(i0, i1 + 1), forcing):
        s = traj.times[j]
        if j == i0:
            wgt = 0.5 * (traj.times[j + 1] - s)
        elif j == i1:
            wgt = 0.5 * (s - traj.times[j - 1])
        else:
            wgt = 0.5 * (traj.times[j + 1] - traj.times[j - 1])
        acc += wgt * tr.evolve_coeffs(coeffs, t - s)
    integral = tr.backward(acc)
    lin = tr.backward(tr.evolve_coeffs(traj.coefficients[i0], t - t0))
    resid = traj.values[i1] - lin + 1j * integral
    return float(math.sqrt(np.sum(traj.grid.weights * np.abs(resid) ** 2)))

