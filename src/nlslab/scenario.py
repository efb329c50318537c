"""Scenario configuration, the analysis pipeline, and report verification.

A scenario is a JSON document selecting dimension, nonlinearity sign, grid,
time span, initial data, and analysis knobs.  ``run_scenario`` evolves the
data and assembles a DiagnosticsReport: conserved-quantity series, every
inequality ratio with the tolerance it is checked against, spacetime-norm
tables, the interval decomposition with its concentration diagnostics, and
a resolution-certification block.  ``verify`` re-evaluates every applicable
invariant and returns a machine-readable pass/fail list.

The resolution certificate's coarse twins run through ``workers.run``: in
forked workers beside the report's tables when the process budget allows,
in-process otherwise, with the same bytes either way.  Their rows are never
stored, so at n = 3 they step by FFT and hold no N x N array; the stored
run keeps the dense step operator, whose bits the pinned reports hold.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import concentration as conc
from . import functionals as fn
from . import workers
from .dynamics import EvolutionConfig, Trajectory, duhamel_residual, evolve, snapshot_plan
from .grid import RadialField, RadialGrid
from .persist import blowup_dict, decode_snapshot, load_trajectory
from .transform import gaussian_field, get_propagator, make_spectral_grid


class ScenarioError(ValueError):
    """Invalid scenario; ``violations`` lists every offending field."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid scenario: " + "; ".join(self.violations))


_FAMILIES = ("gaussian", "ring", "file")

DEFAULT_SCENARIO = {
    "scenario_id": "unnamed",
    "dimension": 3,
    "mu": 1,
    "grid": {"n_points": 1024, "r_max": 32.0},
    "time": {"t_minus": 0.0, "t_plus": 1.0, "dt": 1e-3, "snapshot_stride": 10},
    "initial_data": {"family": "gaussian", "amplitude": 1.0, "width": 1.0},
    "analysis": {
        "eta": None,                    # default: total critical mass / 10
        "c0": 2.0,
        "c1": 1.5,                      # exceptional threshold eta^c1, c1 > 1
        "c2": 4.0,
        "admissible_pairs": None,       # default standard set for n
        "morawetz_A": [1.0, 2.0, 4.0],
        "morawetz_eps": [1e-2, 1e-3],
        "identity_eps": 0.5,
        "mass_radii": [1.0, 2.0, 4.0],
        "bubble_fraction": 0.2,
        "kappa": 25.0,
        "nest_half_factor": 0.5,
        "certify_resolution": True,
        "tolerances": {
            "mass_drift": 1e-10,
            "energy_drift_rel": 1e-5,
            "flux_ratio": 1.05,
            "duhamel_rel": 1e-2,
            "identity_defect": 1e-2,
        },
    },
    "evolution": {
        "energy_drift_alarm": 1e-3,
        "blowup_grad_factor": 10.0,
    },
}


# every field a scenario may name: the defaults and each family's initial data
_FIELDS = {**DEFAULT_SCENARIO,
           "initial_data": dict.fromkeys(("family", "amplitude", "width", "center", "path"))}


def _unknown_fields(raw: dict, known: dict, prefix: str = "") -> list[str]:
    """A violation for each dotted path of ``raw`` that ``known`` lacks."""
    bad = [f"{prefix}{key} is not a scenario field" for key in raw if key not in known]
    for key, val in raw.items():
        if isinstance(val, dict) and isinstance(known.get(key), dict):
            bad += _unknown_fields(val, known[key], f"{prefix}{key}.")
    return bad


def _merge(base: dict, overlay: dict) -> dict:
    out = dict(base)
    for key, val in overlay.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


# sections of a scenario that must be JSON objects
_SECTIONS = ("grid", "time", "initial_data", "analysis", "evolution")


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _within(low, high=math.inf, closed=False):
    """A number in (low, high), or in [low, high) when ``closed``."""
    return lambda v: _number(v) and (low <= v if closed else low < v) and v < high


def _list_of(ok):
    return lambda v: isinstance(v, list) and len(v) > 0 and all(ok(x) for x in v)


# the dense path holds about 32 N^2 bytes at n = 3 (the complex kernel and
# the step operator) and 48 N^2 otherwise (the kernel in both orientations
# and the step operator): a memory budget of about 2.1 GB, and 3.2 GB.  The
# snapshot array, 16 bytes a sample, gets the n = 3 budget, 32 MAX_POINTS^2
MAX_POINTS = 8192

# (dotted path, predicate, requirement) of every single-valued knob; an
# integer knob takes ``type(v) is int``, since a bool passes ``isinstance(v,
# int)`` and ``True in (-1, 0, 1)`` holds
_KNOBS = (
    ("mu", lambda v: type(v) is int and v in (-1, 0, 1), "be the integer -1, 0, or +1"),
    ("grid.n_points", lambda v: type(v) is int and 16 <= v <= MAX_POINTS,
     f"be an integer in [16, {MAX_POINTS}] (the dense transform holds about 32 N^2 "
     f"bytes at n = 3, {32 * MAX_POINTS**2 / 1e9:.1f} GB at N = {MAX_POINTS}, and "
     f"about 48 N^2 otherwise, {48 * MAX_POINTS**2 / 1e9:.1f} GB)"),
    ("grid.r_max", _within(0), "be positive"),
    ("time.dt", _within(0), "be positive"),
    ("time.snapshot_stride", lambda v: type(v) is int and v >= 1, "be a positive integer"),
    ("analysis.eta", lambda v: v is None or _within(0)(v), "be positive or null"),
    ("analysis.c0", _within(0), "be positive"),
    ("analysis.c1", _within(1), "exceed 1 (threshold below eta)"),
    ("analysis.c2", _within(0), "be positive"),
    ("analysis.morawetz_A", _list_of(_within(1, closed=True)),
     "be a non-empty list of numbers >= 1"),
    ("analysis.morawetz_eps", _list_of(_within(0)), "be a non-empty list of positive numbers"),
    ("analysis.identity_eps", _within(0), "be positive"),
    ("analysis.mass_radii", _list_of(_within(0)), "be a non-empty list of positive numbers"),
    ("analysis.bubble_fraction", _within(0, 1), "lie in (0,1)"),
    ("analysis.kappa", _within(0), "be positive"),
    ("analysis.nest_half_factor", _within(0, 1), "lie in (0,1)"),
    ("analysis.certify_resolution", lambda v: type(v) is bool, "be true or false"),
    *((f"analysis.tolerances.{key}", _within(0, closed=True), "be a non-negative number")
      for key in DEFAULT_SCENARIO["analysis"]["tolerances"]),
    ("evolution.energy_drift_alarm", _within(0), "be positive"),
    ("evolution.blowup_grad_factor", _within(0), "be positive"),
)


def normalize_scenario(raw: dict) -> dict:
    """Fill defaults and validate; raises ScenarioError listing every
    violated field, and every field that the defaults do not name."""
    if raw is not None and not isinstance(raw, dict):
        raise ScenarioError([f"a scenario must be a JSON object, got {type(raw).__name__}"])
    s = _merge(DEFAULT_SCENARIO, raw or {})
    bad = [f"{key} must be an object, got {s[key]!r}"
           for key in _SECTIONS if not isinstance(s[key], dict)]
    if not bad and not isinstance(s["analysis"]["tolerances"], dict):
        bad.append(f"analysis.tolerances must be an object, got {s['analysis']['tolerances']!r}")
    if bad:
        raise ScenarioError(bad)
    bad = _unknown_fields(raw or {}, _FIELDS)
    sid = s["scenario_id"]
    if not isinstance(sid, str) or sid in ("", ".", "..") or "/" in sid or "\\" in sid:
        bad.append(f"scenario_id must name a single directory, got {sid!r}")
    dimension_ok = type(s["dimension"]) is int and s["dimension"] >= 3
    if not dimension_ok:
        bad.append(f"dimension must be an integer >= 3, got {s['dimension']!r}")
    for path, ok, requirement in _KNOBS:
        value = functools.reduce(dict.__getitem__, path.split("."), s)
        if not ok(value):
            bad.append(f"{path} must {requirement}, got {value!r}")
    t = s["time"]
    if not (_number(t["t_minus"]) and _number(t["t_plus"]) and t["t_plus"] > t["t_minus"]):
        bad.append("time span must be nonempty (t_plus > t_minus)")
    init = s["initial_data"]
    fam = init.get("family")
    if fam not in _FAMILIES:
        bad.append(f"initial_data.family must be one of {_FAMILIES}, got {fam!r}")
    elif fam in ("gaussian", "ring"):
        for key in ("amplitude", "width") + (("center",) if fam == "ring" else ()):
            if not (_number(init.get(key)) and (key == "amplitude" or init[key] > 0)):
                bad.append(f"initial_data.{key} must be positive, got {init.get(key)!r}")
    elif fam == "file" and not (isinstance(init.get("path"), str) and init["path"]):
        bad.append(f"initial_data.path must be a non-empty string for the file family, "
                   f"got {init.get('path')!r}")
    if dimension_ok:
        try:
            _pairs_for(s)
        except (TypeError, ValueError) as exc:
            bad.append(f"analysis.admissible_pairs must list admissible [q, r] pairs: {exc}")
    if bad:
        raise ScenarioError(bad)
    try:
        rows = snapshot_plan(float(t["t_plus"]) - float(t["t_minus"]), float(t["dt"]),
                             t["snapshot_stride"])[1]
    except ValueError as exc:
        raise ScenarioError([f"time.dt: {exc}"]) from None
    if rows < 3:
        raise ScenarioError([f"time span records {rows} snapshots at dt {t['dt']!r} and stride "
                             f"{t['snapshot_stride']!r}; the analysis needs at least 3"])
    size = rows * s["grid"]["n_points"] * 16
    if size > 32 * MAX_POINTS**2:
        raise ScenarioError([f"time span records {rows} snapshots of {s['grid']['n_points']} "
                             f"points, {size} bytes, over the budget of {32 * MAX_POINTS**2} "
                             "bytes; raise time.dt or time.snapshot_stride"])
    return s


def scenario_grid(scenario: dict) -> RadialGrid:
    """The (cached) spectral grid of a normalized scenario."""
    g = scenario["grid"]
    return make_spectral_grid(scenario["dimension"], g["n_points"], float(g["r_max"]))


def build_initial_data(scenario: dict) -> RadialField:
    grid = scenario_grid(scenario)
    init = scenario["initial_data"]
    fam = init["family"]
    if fam == "gaussian":
        return gaussian_field(grid, init["amplitude"], init["width"])
    if fam == "ring":
        vals = init["amplitude"] * np.exp(-(((grid.nodes - init["center"]) / init["width"]) ** 2))
    else:
        try:
            vals = decode_snapshot(Path(init["path"]).read_bytes())
        except (IsADirectoryError, ValueError) as exc:
            raise ScenarioError([f"initial_data.path is not a snapshot file: {exc}"]) from None
        if vals.size != grid.n_points:
            raise ScenarioError(
                [f"initial_data.path holds {vals.size} samples, grid needs {grid.n_points}"]
            )
        if not np.all(np.isfinite(vals)):
            raise ScenarioError(["initial_data.path holds non-finite samples"])
    return grid.field(vals)


def _finite(x):
    """JSON-safe number: non-finite floats become strings."""
    if isinstance(x, float) and not math.isfinite(x):
        return "inf" if x > 0 else ("-inf" if x < 0 else "nan")
    return x


def _pairs_for(scenario: dict) -> tuple[fn.AdmissiblePair, ...]:
    n = scenario["dimension"]
    listed = scenario["analysis"]["admissible_pairs"]
    if listed is None:
        return fn.default_admissible_pairs(n)
    out = []
    for q, r in listed:
        # "inf" strings are the JSON spelling of the q = infinity endpoint
        out.append(fn.AdmissiblePair(float(q), float(r), n))  # raises if not admissible
    return tuple(out)


@dataclass(frozen=True)
class RunResult:
    report: dict
    trajectory: Trajectory


def run_scenario(scenario: dict, seed: int = 0) -> RunResult:
    """Evolve one scenario and assemble its diagnostics report.

    Deterministic: identical scenarios (and seed) produce byte-identical
    reports.  A truncated evolution (blowup or energy alarm) still yields
    a report, marked with the truncation reason, containing every
    diagnostic that remains meaningful.
    """
    s, traj = evolve_scenario(scenario)
    return RunResult(build_report(s, traj, seed=seed), traj)


def evolve_scenario(scenario: dict) -> tuple[dict, Trajectory]:
    """Normalize one scenario and evolve it: (normalized scenario,
    trajectory), with no report."""
    s = normalize_scenario(scenario)
    u0 = build_initial_data(s)
    cfg = EvolutionConfig(
        dimension=s["dimension"],
        mu=s["mu"],
        dt=float(s["time"]["dt"]),
        snapshot_stride=s["time"]["snapshot_stride"],
        energy_drift_tol=float(s["evolution"]["energy_drift_alarm"]),
        blowup_grad_factor=float(s["evolution"]["blowup_grad_factor"]),
    )
    traj = evolve(
        u0,
        float(s["time"]["t_minus"]),
        float(s["time"]["t_plus"]),
        cfg,
        provenance={"scenario_id": s["scenario_id"], "initial_data": dict(s["initial_data"])},
    )
    return s, traj


def check_store(s: dict, traj: Trajectory, directory) -> None:
    """Raise a ScenarioError naming each field of the normalized scenario
    ``s`` that the trajectory loaded from store ``directory`` was not
    evolved with.  The analysis knobs and ``scenario_id`` may differ."""
    g, cfg = traj.grid, traj.config
    stored = {"dimension": g.dimension, "mu": cfg.mu, "grid.n_points": g.n_points,
              "grid.r_max": g.r_max, "time.dt": cfg.dt,
              "time.snapshot_stride": cfg.snapshot_stride, "time.t_minus": traj.t_minus,
              "evolution.energy_drift_alarm": cfg.energy_drift_tol,
              "evolution.blowup_grad_factor": cfg.blowup_grad_factor,
              "initial_data": traj.provenance.get("initial_data", s["initial_data"])}
    # the last time of a complete run is t_plus up to the rounding of its steps
    t_plus = s["time"]["t_plus"]
    if traj.status == "complete" and abs(t_plus - traj.t_plus) > 1e-9 * max(1, traj.span):
        stored["time.t_plus"] = traj.t_plus
    bad = [f"{path} is {want!r}, but the trajectory store {directory} was evolved with {have!r}"
           for path, have in stored.items()
           if (want := functools.reduce(dict.__getitem__, path.split("."), s)) != have]
    if bad:
        raise ScenarioError(bad)


def build_report(s: dict, traj: Trajectory, seed: int = 0) -> dict:
    """The diagnostics report of an evolved scenario.

    The resolution certificate's two coarse twins depend only on u(t_minus)
    and the config: they start first, in forked workers when the process
    budget (``workers.process_budget``) allows, and run while the tables
    are computed; once the tables are done, the twin still running borrows
    the CPU of one that has ended.  The report's bytes do not depend on
    the budget.
    """
    certify = traj.status == "complete" and s["analysis"]["certify_resolution"]
    with workers.run(_twin_tasks(traj) if certify else ()) as twins:
        report = _report_tables(s, traj, seed)
        if certify:
            report["resolution_certification"] = _certify_resolution(traj, twins)
    return report


def _report_tables(s: dict, traj: Trajectory, seed: int) -> dict:
    tol = s["analysis"]["tolerances"]
    mass_drift, energy_drift = _drifts(traj.mass_series, traj.energy_series)

    report: dict = {
        "scenario": s,
        "seed": seed,
        "status": traj.status,
        "abort_reason": traj.abort_reason,
        "conserved": {
            "times": list(traj.times),
            "mass": list(traj.mass_series),
            "energy": list(traj.energy_series),
            "kinetic": list(traj.kinetic_series),
            "potential": list(traj.potential_series),
            "mass_drift": mass_drift,
            "mass_drift_tolerance": tol["mass_drift"],
            "energy_drift_rel": energy_drift,
            "energy_drift_tolerance": tol["energy_drift_rel"],
        },
        "blowup": blowup_dict(traj.blowup),
    }

    # inequality tables (meaningful only while the run is trusted)
    if traj.status == "complete":
        report["mass_flux"] = _flux_table(s, traj, tol)
        report["hardy"] = _hardy_table(s, traj)
        report["morawetz"] = _morawetz_table(s, traj)
        report["momentum_flux_identity"] = _identity_entry(s, traj, tol)
        report["strichartz"] = _strichartz_table(s, traj)
        report["duhamel"] = _duhamel_table(traj, tol)
        report["concentration"] = _concentration_block(s, traj)
    return report


def _drifts(masses, energies) -> tuple[float, float]:
    """Mass drift max|M - M_0| and relative energy drift
    max|E - E_0| / ``energy_scale(E_0)`` of two series."""
    return (float(np.abs(masses - masses[0]).max()),
            float(np.abs(energies - energies[0]).max() / fn.energy_scale(energies[0])))


def _flux_table(s, traj, tol):
    if traj.config.mu < 0:
        return {"skipped": "flux bound requires the free or defocusing sign"}
    rows = [{**asdict(fn.mass_flux_check(traj, float(radius))), "tolerance": tol["flux_ratio"]}
            for radius in s["analysis"]["mass_radii"]]
    return {"constant": fn.MASS_FLUX_CONSTANT, "rows": rows}


def _hardy_table(s, traj):
    u0 = traj.field(0)
    e0 = float(traj.energy_series[0])
    if e0 <= 0 and np.any(u0.values != 0):
        return {"skipped": "growth bound requires positive energy"}
    rows = [
        {"radius": float(r), "ratio": fn._hardy_ratio(u0, float(r), e0),
         "bound": fn.HARDY_RATIO_BOUND}
        for r in s["analysis"]["mass_radii"]
    ]
    sweep = [
        fn._hardy_ratio(u0, float(r), e0)
        for r in np.geomspace(0.25, min(8.0, traj.grid.r_max / 2), 17)
    ]
    return {"rows": rows, "sweep_sup": float(max(sweep)), "bound": fn.HARDY_RATIO_BOUND}


def _or_null(x):
    """``x`` with every float that is not finite as None (JSON null) and
    every dict key as a string, at any depth."""
    if isinstance(x, dict):
        return {str(k): _or_null(v) for k, v in x.items()}
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _morawetz_table(s, traj):
    # an entry that does not fit a float (the ratio of a run whose energy
    # is not positive, an integral that overflows) is written as null
    eps = tuple(s["analysis"]["morawetz_eps"])
    rows = [_or_null(asdict(fn.morawetz_check(traj, float(A), eps)))
            for A in s["analysis"]["morawetz_A"]]
    return {"rows": rows, "bound": fn.MORAWETZ_RATIO_BOUND}


def _identity_entry(s, traj, tol):
    eps = float(s["analysis"]["identity_eps"])
    spacing = float(np.median(np.diff(traj.grid.nodes)))
    eps = max(eps, 3.5 * spacing)
    rep = fn.momentum_flux_identity_check(traj, eps)
    return {
        "epsilon": rep.epsilon,
        "max_defect": rep.max_defect,
        "tolerance": tol["identity_defect"],
    }


def _strichartz_table(s, traj):
    """The mixed norm of |grad|^k u at every pair and their supremum, for
    k = 0 and 1, with the k = 1 gradient computed once."""
    pairs = _pairs_for(s)
    rows = []
    for k, values in ((0, traj.values), (1, fn._gradient_values(traj))):
        norms = [fn._mixed_norm(traj, values, pr.q, pr.r) for pr in pairs]
        rows += [{"k": k, "q": _finite(pr.q), "r": _finite(pr.r), "value": v}
                 for pr, v in zip(pairs, norms)]
        rows.append({"k": k, "q": "sup", "r": "sup", "value": max(norms)})
    return {"pairs": [[_finite(p.q), _finite(p.r)] for p in pairs], "rows": rows}


def _duhamel_table(traj, tol):
    rows = []
    u_norm = math.sqrt(float(traj.mass_series[-1]))
    mid = traj.nearest_time(0.5 * (traj.t_minus + traj.t_plus))
    for t0, t1 in ((traj.t_minus, traj.t_plus), (traj.t_minus, mid)):
        if t0 == t1:
            continue
        resid = duhamel_residual(traj, t0, t1)
        rows.append(
            {
                "t0": t0,
                "t": t1,
                "residual": resid,
                "relative": resid / u_norm if u_norm > 0 else 0.0,
                "tolerance": tol["duhamel_rel"],
            }
        )
    return rows


def _without(record, key: str) -> dict:
    """The fields of a dataclass ``record``, in order, but ``key``."""
    out = asdict(record)
    del out[key]
    return out


def _concentration_block(s, traj):
    a = s["analysis"]
    dens = fn.critical_density(traj)
    total = float(np.trapezoid(dens, traj.times))
    eta = a["eta"] if a["eta"] is not None else (total / 10.0 if total > 0 else 1.0)
    eta = float(eta)
    block: dict = {"total_critical_mass": total, "eta": eta,
                   "total_exceeds_4eta": total > 4 * eta}
    try:
        decomp = conc.greedy_subdivide(traj, eta)
    except conc.ResolutionError as exc:
        block["error"] = str(exc)
        return block
    threshold = eta ** float(a["c1"])
    exc_rep = conc.classify_exceptional(decomp, traj, threshold)
    decomp = decomp.with_flags(exc_rep.flags)
    block["decomposition"] = _without(decomp, "eta")
    block["exceptional"] = _without(exc_rep, "flags")
    block["window_statistics"] = conc.window_statistics(decomp)
    comparisons, bubbles = [], []
    for j in decomp.non_tail_indices():
        try:
            cmp_rep = conc.linear_flow_check(traj, decomp.interval(j), eta)
            comparisons.append({**asdict(cmp_rep), "interval": j})  # its index, not its ends
        except ValueError as exc:
            comparisons.append({"interval": j, "error": str(exc)})
        try:
            rep = conc.find_bubble(traj, decomp, j, float(a["bubble_fraction"]))
        except ValueError as exc:
            bubbles.append({"interval": j, "error": str(exc)})
            continue
        if rep is not None:
            bubbles.append(asdict(rep))
    block["flow_comparisons"] = comparisons
    block["bubbles"] = bubbles
    nest = conc.bourgain_nest(decomp, half_factor=float(a["nest_half_factor"]))
    if nest is None:
        block["nest"] = {"empty": True, "reason": "all intervals exceptional"}
    else:
        problems = conc.check_nest(decomp, nest, float(a["kappa"]))
        block["nest"] = {
            "t_star": nest.t_star,
            "chain": list(nest.chain),
            "depth": nest.depth,
            "achieved_kappa": nest.achieved_kappa,
            "kappa_tolerance": float(a["kappa"]),
            "half_factor": nest.half_factor,
            "violations": problems,
        }
    return block


# the time steps of the coarse twins, in multiples of the scenario's dt;
# the order estimate log2(d2 / d1) assumes that each one doubles the last
_TWIN_FACTORS = (2, 4)


def _twin_tasks(traj) -> list:
    """The coarse twins, as tasks that return the twin's (status, abort
    reason, final row)."""
    get_propagator(traj.grid)  # certified once, here: forked twins inherit it
    return [functools.partial(_twin_final, traj, factor) for factor in _TWIN_FACTORS]


def _twin_final(traj, factor: int):
    """The twin at ``factor`` times dt.  Its rows are never stored, so at
    n = 3 it steps by FFT (``pinned=False``), with no N x N array."""
    cfg = replace(
        traj.config,
        dt=traj.config.dt * factor,
        snapshot_stride=max(1, traj.config.snapshot_stride // factor),
    )
    tw = evolve(traj.field(0), traj.t_minus, traj.t_plus, cfg, pinned=False)
    return tw.status, tw.abort_reason, tw.values[-1]


def _certify_resolution(traj, twins):
    """Coarsened-twin self-convergence: order estimate from dt, 2dt, 4dt.
    ``twins`` yields the results of ``_twin_tasks``, in order."""
    base_cfg = traj.config
    finals = [traj.values[-1]]
    for factor, (status, reason, final) in zip(_TWIN_FACTORS, twins):
        if status != "complete":
            return {"skipped": f"coarse twin at {factor}x dt aborted: {reason}"}
        finals.append(final)
    # L^2 norms of the fine and coarse self-differences
    d1, d2 = (math.sqrt(m) for m in fn._mass_series(traj.grid, np.diff(finals, axis=0)))
    block = {
        "dt_levels": [base_cfg.dt] + [base_cfg.dt * f for f in _TWIN_FACTORS],
        "self_difference_fine": d1,
        "self_difference_coarse": d2,
        "measured_order": math.log2(d2 / d1) if d1 > 0 and d2 > 0 else None,
    }
    if block["measured_order"] is None:
        block["note"] = "the twins agree exactly: a self-difference of 0 measures no order"
    return block


# ---------------------------------------------------------------------------
# verification


def _check(section, name, passed, measured, bound, note="") -> dict:
    """One verify check; ``section`` is the report key it reads."""
    return {
        "check": name,
        "section": section,
        "passed": bool(passed),
        "measured": _finite(measured),
        "bound": _finite(bound),
        "note": note,
    }


def _at_most(section, name, measured, bound, note="") -> dict:
    """The check that ``measured`` is at most ``bound``; a null fails."""
    return _check(section, name, measured is not None and measured <= bound, measured, bound, note)


def _exponent_name(x) -> str:
    """A pair exponent as check names spell it: integral values without a
    point, others by repr, "inf" as it is; the same whether the report is in
    memory or read back from report.json."""
    if isinstance(x, str):
        return x
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def verify_report(report: dict, store_dir=None) -> list[dict]:
    """Evaluate every applicable invariant; returns a pass/fail list.

    When a trajectory store is given, conserved quantities are recomputed
    from the stored snapshots, so tampered or corrupted snapshot files
    fail the conservation checks with the injected magnitude.
    """
    checks: list[dict] = []
    s = report["scenario"]
    tol = s["analysis"]["tolerances"]
    cons = report["conserved"]

    if store_dir is not None:
        traj = load_trajectory(store_dir)
        mass_drift, energy_drift = _drifts(
            fn._mass_series(traj.grid, traj.values),
            fn._energy_rows(traj.grid, traj.values, traj.config.mu, traj.coefficients)[0])
    else:
        mass_drift = cons["mass_drift"]
        energy_drift = cons["energy_drift_rel"]

    trusted = report["status"] == "complete"
    checks.append(
        _check("conserved", "mass_conservation",
               not trusted or mass_drift <= cons["mass_drift_tolerance"],
               mass_drift, cons["mass_drift_tolerance"],
               "recomputed from store" if store_dir else "from report series")
    )
    checks.append(
        _check("conserved", "energy_conservation",
               not trusted or energy_drift <= cons["energy_drift_tolerance"],
               energy_drift, cons["energy_drift_tolerance"])
    )

    n = s["dimension"]
    for q, r in (report.get("strichartz") or {}).get("pairs", []):
        qv = float(q) if not isinstance(q, str) else math.inf
        rv = float(r) if not isinstance(r, str) else math.inf
        checks.append(
            _check("strichartz", f"admissible({_exponent_name(q)},{_exponent_name(r)})",
                   fn.is_admissible(qv, rv, n), [q, r], "identity")
        )

    flux = report.get("mass_flux")
    if flux and "rows" in flux:
        checks += [_at_most("mass_flux", f"mass_flux_ratio(R={row['radius']:g})",
                            row["ratio"], row["tolerance"]) for row in flux["rows"]]
    hardy = report.get("hardy")
    if hardy and "rows" in hardy:
        checks.append(_at_most("hardy", "hardy_ratio_sup", hardy["sweep_sup"], hardy["bound"]))
    # a Morawetz ratio that did not fit a float is written as null
    checks += [_at_most("morawetz", f"morawetz_ratio(A={row['A']:g})", row["ratio"], row["bound"],
                        "" if row["ratio"] is not None else "the ratio is not finite")
               for row in (report.get("morawetz") or {}).get("rows", [])]
    ident = report.get("momentum_flux_identity")
    if ident:
        checks.append(_at_most("momentum_flux_identity", "momentum_flux_identity",
                               ident["max_defect"], ident["tolerance"]))
    checks += [_at_most("duhamel", f"duhamel(t0={row['t0']:g},t={row['t']:g})",
                        row["relative"], row["tolerance"]) for row in report.get("duhamel", [])]

    # weight positivity at the scenario's dimension over the unit ball
    radii = np.linspace(0.0, 1.0, 257)
    pos_ok = True
    worst = math.inf
    for eps in s["analysis"]["morawetz_eps"]:
        _, lap_a, neg_bilap = fn.MorawetzWeight(float(eps), n).evaluate(radii)
        worst = min(worst, float(lap_a.min()), float(neg_bilap.min()))
        pos_ok = pos_ok and np.all(lap_a > 0) and np.all(neg_bilap > 0)
    checks.append(_check("scenario", "weight_positivity", pos_ok, worst, 0.0, "min over |x|<=1"))

    conc_block = report.get("concentration")
    if conc_block and "decomposition" in conc_block:
        d = conc_block["decomposition"]
        eta = conc_block["eta"]
        masses = d["masses"]
        non_tail = masses[:-1] if d["tail_flag"] else masses
        window_ok = all(
            eta * (1 - 1e-9) <= m <= 2 * eta * (1 + 1e-9) for m in non_tail
        )
        checks.append(
            _check("concentration", "interval_mass_window", window_ok,
                   [min(non_tail, default=eta), max(non_tail, default=eta)],
                   [eta, 2 * eta])
        )
        bdry = d["boundaries"]
        times = cons["times"]
        cover_ok = (
            abs(bdry[0] - times[0]) < 1e-9
            and abs(bdry[-1] - times[-1]) < 1e-9
            and all(b2 > b1 for b1, b2 in zip(bdry, bdry[1:]))
        )
        checks.append(_check("concentration", "interval_coverage", cover_ok, [bdry[0], bdry[-1]],
                             [times[0], times[-1]]))
        exc = conc_block["exceptional"]
        checks.append(_at_most("concentration", "exceptional_count_bound", exc["count"],
                               exc["count_bound"]))
        stats = conc_block.get("window_statistics", {})
        if "largest_fraction_at_sup" in stats and stats["sup_half_norm_ratio"] > 0:
            product = stats["largest_fraction_at_sup"] * stats["sup_half_norm_ratio"] ** 2
            checks.append(
                _check("concentration", "window_cauchy_schwarz", product >= 1.0 - 1e-9,
                       product, 1.0, "largest_fraction * half_norm_ratio^2 >= 1")
            )
        nest = conc_block.get("nest", {})
        if nest and not nest.get("empty"):
            checks.append(
                _check("concentration", "nest_invariants", not nest["violations"],
                       nest["violations"], [], "dyadic decay and closeness")
            )
        for b in conc_block.get("bubbles", []):
            if "error" in b:         # no search ran on that interval
                continue
            checks.append(
                _check("concentration", f"bubble(interval={b['interval']})",
                       b["radius"] > 0 and b["attained_mass"] >= b["threshold"],
                       b["attained_mass"], b["threshold"])
            )
    cert = report.get("resolution_certification")
    if cert and cert.get("measured_order") is not None:    # not skipped, not exact
        checks.append(
            _check("resolution_certification", "resolution_order", cert["measured_order"] >= 1.5,
                   cert["measured_order"], 1.5, "self-convergence of the splitting")
        )
    return checks
