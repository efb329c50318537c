"""Command-line surface.

Subcommands::

    simulate      evolve a scenario and write its trajectory store
                  (no report: nothing is analyzed)
    analyze       build report.json (+ series CSVs) for a scenario,
                  reusing a stored trajectory when one is present
    verify        evaluate every invariant; exit 0 on all-pass, 1 otherwise
    sweep         run a list of scenarios into per-scenario directories
    export-plots  re-emit the CSV series from an existing report

Each subcommand takes ``--out``; ``simulate``, ``analyze`` and ``sweep``
also ``--config`` and ``--override``, and ``analyze`` and ``sweep``
``--seed``.

Exit codes: 0 all-pass, 1 verification failures, 2 configuration error (an
unknown field or bad knob, an unresolvable grid or a dimension outside
3..41, an uncertified span, a snapshot array over the memory budget, an
unreadable or inconsistent trajectory store, a store that the scenario
did not produce), 3 runtime alarm (blowup or energy drift), 4 internal
error (an unexpected exception, on stderr).

``sweep`` runs each scenario, outputs included, as one task of
``workers.run``: at a process budget of 2 or more (BLAS pinned to one
thread and more than one CPU, see ``workers.process_budget``) the
scenarios run in forked workers, and the ``sweep:`` lines are printed in
config order as the results arrive.  Once its last scenario has started,
the sweep, while it waits for a result, lends each CPU that a finished
scenario frees to the scenarios still running, which split their
products over it (``workers.row_split``).  An exception in a worker
exits 4 with the worker's traceback on stderr, as does a worker that
dies; a configuration error raised in a worker still exits 2.  A failing
sweep may have written scenarios listed after the failing one.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from . import workers
from .grid import TimeRangeError, UnresolvedGridError
from .persist import StoreError, load_trajectory, read_json, save_trajectory, write_csv, write_json
from .scenario import (
    RunResult,
    ScenarioError,
    build_report,
    check_store,
    evolve_scenario,
    normalize_scenario,
    run_scenario,
    scenario_grid,
    verify_report,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_RUNTIME_ALARM = 3
EXIT_INTERNAL_ERROR = 4


def _apply_overrides(doc: dict, overrides: list[str]) -> dict:
    out = json.loads(json.dumps(doc))  # deep copy
    for item in overrides:
        if "=" not in item:
            raise ScenarioError([f"override {item!r} is not key=value"])
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        *path, leaf = key.split(".")
        for part in path:
            if not isinstance(node, dict):
                break
            node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ScenarioError([f"override path {key!r} crosses a non-object"])
        node[leaf] = value
    return out


def _load_scenario(args) -> dict:
    doc = read_json(args.config)
    if args.override:
        doc = _apply_overrides(doc, args.override)
    return normalize_scenario(doc)


def _write_series(report: dict, out_dir: Path):
    series_dir = out_dir / "series"
    series_dir.mkdir(parents=True, exist_ok=True)
    cons = report["conserved"]
    t = np.asarray(cons["times"])
    write_csv(
        series_dir / "conserved.csv",
        [
            "time",
            "mass [integral of |u|^2]",
            "energy [integral of 0.5|grad u|^2 + mu (n-2)/(2n) |u|^(2n/(n-2))]",
            "kinetic [integral of 0.5|grad u|^2]",
            "potential [signed potential term]",
        ],
        [t, np.asarray(cons["mass"]), np.asarray(cons["energy"]),
         np.asarray(cons["kinetic"]), np.asarray(cons["potential"])],
    )
    blow = report.get("blowup")
    if blow:
        write_csv(
            series_dir / "gradient.csv",
            ["time", "gradient_norm [||grad u||_L2]"],
            [t, np.asarray(blow["gradient_history"])],
        )
    conc = report.get("concentration")
    if conc and "decomposition" in conc:
        d = conc["decomposition"]
        b = np.asarray(d["boundaries"])
        write_csv(
            series_dir / "intervals.csv",
            ["left", "right", "mass [interval critical-norm mass]",
             "exceptional [0/1]"],
            [b[:-1], b[1:], np.asarray(d["masses"]),
             np.asarray([float(x) for x in d["exceptional"]])],
        )


def _finish_run(result: RunResult, out_dir: Path, store: bool) -> tuple[str, str]:
    """Write a run's outputs; returns its (status, abort reason)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if store:
        save_trajectory(result.trajectory, out_dir / "trajectory")
    write_json(out_dir / "report.json", result.report)
    _write_series(result.report, out_dir)
    return result.report["status"], result.report["abort_reason"]


def _run_code(status: str, reason: str) -> int:
    """Exit code of a run, after printing the alarm of a truncated one."""
    if status != "complete":
        print(f"runtime alarm: {status} ({reason})")
        return EXIT_RUNTIME_ALARM
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = _load_scenario(args)
    _, traj = evolve_scenario(scenario)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_trajectory(traj, out_dir / "trajectory")
    write_json(out_dir / "scenario.json", scenario)
    status = traj.status
    print(f"simulate: {scenario['scenario_id']} -> {out_dir / 'trajectory'} ({status})")
    return EXIT_OK if status == "complete" else EXIT_RUNTIME_ALARM


def cmd_analyze(args) -> int:
    scenario = _load_scenario(args)
    out_dir = Path(args.out)
    stored = (out_dir / "trajectory").is_dir()
    if stored:
        traj = load_trajectory(out_dir / "trajectory")
        check_store(scenario, traj, out_dir / "trajectory")
        result = RunResult(build_report(scenario, traj, seed=args.seed), traj)
    else:
        result = run_scenario(scenario, seed=args.seed)
    code = _run_code(*_finish_run(result, out_dir, store=not stored))
    print(f"analyze: report written to {out_dir / 'report.json'}")
    return code


def cmd_verify(args) -> int:
    run_dir = Path(args.out)
    report = read_json(run_dir / "report.json")
    store = run_dir / "trajectory"
    checks = verify_report(report, store if store.is_dir() else None)
    failed = [c for c in checks if not c["passed"]]
    for c in checks:
        where = "" if c["passed"] else f" (report section: {c['section']})"
        mark = "PASS" if c["passed"] else "FAIL"
        print(f"[{mark}] {c['check']}: measured={c['measured']} bound={c['bound']}{where}")
    write_json(run_dir / "verification.json", {"checks": checks, "all_passed": not failed})
    print(f"verify: {len(checks) - len(failed)}/{len(checks)} checks passed")
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def cmd_sweep(args) -> int:
    doc = read_json(args.config)
    listed = doc.get("scenarios") if isinstance(doc, dict) else doc
    if not isinstance(listed, list):
        raise ScenarioError(['a sweep needs a list of scenarios (or {"scenarios": [...]})'])
    # every scenario is checked before any runs: each writes into the
    # directory named by its id
    scenarios = [
        normalize_scenario(_apply_overrides(raw, args.override) if args.override else raw)
        for raw in listed
    ]
    ids = [s["scenario_id"] for s in scenarios]
    repeated = sorted({i for i in ids if ids.count(i) > 1})
    if repeated:
        raise ScenarioError([f"scenario_id {i!r} is used more than once" for i in repeated])
    subs = [Path(args.out) / i for i in ids]
    tasks = [functools.partial(_sweep_one, s, sub, args.seed) for s, sub in zip(scenarios, subs)]
    # the workers share the grids (and scipy) made here; they build the transforms
    for s in scenarios:
        scenario_grid(s)
    worst = EXIT_OK
    # each scenario runs and writes its outputs as one task; the lines are
    # printed here, in config order
    with workers.run(tasks) as outcomes:
        for sub, outcome in zip(subs, outcomes):
            code = _run_code(*outcome)
            print(f"sweep: {sub.name} -> {sub} (exit {code})")
            worst = max(worst, code)
    return worst


def _sweep_one(scenario: dict, out_dir: Path, seed: int) -> tuple[str, str]:
    return _finish_run(run_scenario(scenario, seed=seed), out_dir, store=True)


def cmd_export_plots(args) -> int:
    run_dir = Path(args.out)
    report = read_json(run_dir / "report.json")
    _write_series(report, run_dir)
    print(f"export-plots: series written under {run_dir / 'series'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlslab",
        description="Radial energy-critical NLS laboratory: simulate, analyze, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, scenario=False, seed=False):   # with the flags it reads
        p = sub.add_parser(name, help=help)
        if scenario:
            p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument("--out", required=True, help="output directory")
        if scenario:
            p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                           help="dotted-path scenario override (repeatable)")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="seed recorded in the report")

    command("simulate", "evolve and store a trajectory", scenario=True)
    command("analyze", "produce a diagnostics report", scenario=True, seed=True)
    command("verify", "check invariants of a finished run")
    command("sweep", "run a list of scenarios", scenario=True, seed=True)
    command("export-plots", "re-emit CSV series from a report")
    return parser


_DISPATCH = {
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "export-plots": cmd_export_plots,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ScenarioError as exc:
        for violation in exc.violations:
            print(f"configuration error: {violation}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (FileNotFoundError, UnresolvedGridError, TimeRangeError, StoreError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except json.JSONDecodeError as exc:
        print(f"configuration error: an input file is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception as exc:  # a crash must not read as a verification failure
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
