"""Scenario-pipeline benchmark for nlslab.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reference-n3 --seed 0 --seconds 10 --trace 0

It drives the real ``nlslab`` CLI from ``src/``, one subprocess at a time,
with the BLAS thread count pinned to ``BLAS_THREADS`` and recorded.

``--trace 0`` times the workload's command sequence end to end and prints
the end-to-end metrics.  ``--trace 1`` runs the sequence once untraced and
once through ``launch.py``, which records spans around the public
functions of every module, and prints the per-layer metrics, the tracing
overhead and an N-sweep of transform and step costs.

Every CLI invocation passes the correctness gate (``gate.py``) or counts
as failed.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A summary
with the environment block, per-command figures and report hashes is
written under ``.perfbench_runs/``.  Workloads and the predictions they
test are described in ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
import workloads

HERE = Path(__file__).resolve().parent

# One BLAS thread: at most nproc on any machine, the steadiest timings on
# a shared 2-core box, and within 10% of two threads on the reference run.
BLAS_THREADS = 1
SETUP_REPEATS = 3
# verify is short, so one invocation's noise (10-30% here for a 1 s
# verify) would dominate verify_s: each verify repeats until it has run
# VERIFY_MIN_S in all, at least VERIFY_MIN_REPEATS times, and counts with
# its median
VERIFY_MIN_REPEATS = 2
VERIFY_MIN_S = 5.0
# a run must end within 180 s; nothing new starts past this point
RUN_BUDGET_S = 165.0
NSWEEP_POINTS = (256, 1024, 2048)
NSWEEP_R_MAX = 32.0
RUNS_DIR = ".perfbench_runs"
ROLES = ("simulate", "sweep", "analyze", "verify")


@dataclass
class Invocation:
    label: str
    role: str
    wall_s: float
    code: int
    rss_mb: float
    problems: list = field(default_factory=list)
    report_sha256: dict = field(default_factory=dict)


class Bench:
    """State of one benchmark run inside one checkout."""

    def __init__(self, checkout: Path, workload: str, seed: int, reference):
        self.checkout = checkout
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.root = checkout / RUNS_DIR / f"{workload}-seed{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=str(checkout / "src"),
            OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
            OMP_NUM_THREADS=str(BLAS_THREADS),
            MKL_NUM_THREADS=str(BLAS_THREADS),
        )
        self.env.pop("PYTHONSTARTUP", None)
        # pinned outputs by gate key, or None where nothing is pinned
        self.reference = reference
        self.invocations: list[Invocation] = []

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.started)

    def spawn(self, argv: list, log_path: Path) -> tuple[float, int, float]:
        """Run one child to completion: (wall seconds, exit code, peak RSS MB).

        The child is killed when the run budget is spent, and always
        reaped before this returns."""
        timeout = max(self.remaining(), 1.0)
        with open(log_path, "w", encoding="utf-8") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.checkout)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def probe_env(self) -> dict:
        log = self.root / "probe-env.log"
        _, code, _ = self.spawn([sys.executable, str(HERE / "probe.py"), "env"], log)
        text = log.read_text(encoding="utf-8")
        if code != 0:
            raise RuntimeError(f"nlslab does not import:\n{text}")
        return json.loads(text.strip().splitlines()[-1])

    def setup_seconds(self) -> list[float]:
        n, size, r_max = workloads.GRIDS[self.workload]
        argv = [sys.executable, str(HERE / "probe.py"), "setup", str(n), str(size), str(r_max)]
        times = []
        for i in range(SETUP_REPEATS):
            wall, code, _ = self.spawn(argv, self.root / f"setup-{i}.log")
            if code != 0:
                raise RuntimeError(f"setup probe exited {code}")
            times.append(wall)
        return times

    def run_pass(self, tag: str, trace: bool, repeat_verify: bool = False):
        """One pass of the workload's command sequence.  Returns one list of
        invocations per command (verify may repeat: it only rewrites its
        own verdict) and, when traced, the per-command span summaries."""
        run_dir = self.root / tag
        commands = workloads.prepare(self.workload, self.seed, self.checkout, run_dir)
        done, traces = [], {}
        for i, cmd in enumerate(commands):
            spans = run_dir / f"spans{i}.json"
            if trace:
                argv = [sys.executable, str(HERE / "launch.py"), str(spans),
                        f"{self.workload}/{cmd.label}", *cmd.argv]
                before = _tree(run_dir / "out")
            else:
                argv = [sys.executable, "-m", "nlslab.cli", *cmd.argv]
            runs = [self._invoke(cmd, argv, run_dir, run_dir / f"cmd{i}-0.log")]
            while repeat_verify and cmd.name == "verify" and runs[-1].code != -1 and (
                len(runs) < VERIFY_MIN_REPEATS or sum(r.wall_s for r in runs) < VERIFY_MIN_S
            ):
                runs.append(self._invoke(cmd, argv, run_dir, run_dir / f"cmd{i}-{len(runs)}.log"))
            if trace and runs[0].code != -1:
                traces[cmd.label] = summarize_spans(spans)
                traces[cmd.label].update(_written(before, _tree(run_dir / "out")))
            done.append(runs)
            self.invocations.extend(runs)
        shutil.rmtree(run_dir, ignore_errors=True)
        return done, traces

    def _invoke(self, cmd: workloads.Command, argv: list, run_dir: Path, log: Path):
        if self.remaining() <= 0:
            return Invocation(cmd.label, cmd.name, 0.0, -1, 0.0,
                              ["not started: run budget spent"])
        wall, code, rss = self.spawn(argv, log)
        inv = Invocation(cmd.label, cmd.name, wall, code, rss)
        if code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace").strip()[-300:]
            inv.problems.append(f"exit code {code}, expected 0: {tail}")
        self._gate(inv, cmd, run_dir)
        return inv

    def _gate(self, inv: Invocation, cmd: workloads.Command, run_dir: Path):
        for out_dir in cmd.outputs:
            key = gate_key(cmd, out_dir, run_dir)
            ref = None
            if self.reference is not None:
                ref = self.reference.get(key)
                if ref is None:
                    inv.problems.append(f"no reference for {key}")
                    continue
            try:
                inv.problems.extend(gate.check_output(cmd.name, out_dir, ref))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                inv.problems.append(f"unreadable output {key}: {exc!r}")
            report = out_dir / "report.json"
            if cmd.name in ("analyze", "sweep") and report.is_file():
                digest = hashlib.sha256(report.read_bytes()).hexdigest()
                inv.report_sha256[key] = digest

    def nsweep(self) -> dict:
        n = workloads.GRIDS[self.workload][0]
        out = {}
        for size in NSWEEP_POINTS:
            key = f"N{size}"
            log = self.root / f"nsweep-{key}.log"
            if self.remaining() <= 0:
                out[key] = {"build_failed": 1, "message": "not run: run budget spent"}
                continue
            argv = [sys.executable, str(HERE / "nsweep.py"), str(n), str(size), str(NSWEEP_R_MAX)]
            _, code, _ = self.spawn(argv, log)
            text = log.read_text(encoding="utf-8", errors="replace")
            try:
                out[key] = json.loads(text.strip().splitlines()[-1])
            except (ValueError, IndexError):
                out[key] = {"build_failed": 1,
                            "message": f"probe exited {code}: {text.strip()[-300:]}"}
        return {"dimension": n, "r_max": NSWEEP_R_MAX, "grids": out}


def gate_key(cmd: workloads.Command, out_dir: Path, run_dir: Path) -> str:
    """Name of one gated output in reference.json."""
    return f"{cmd.label}@{out_dir.relative_to(run_dir).as_posix()}"


def _tree(root: Path) -> dict:
    """path -> (mtime_ns, size) of every file below root."""
    out = {}
    if root.is_dir():
        for dirpath, _, files in os.walk(root):
            for name in files:
                st = os.stat(os.path.join(dirpath, name))
                out[os.path.join(dirpath, name)] = (st.st_mtime_ns, st.st_size)
    return out


def _written(before: dict, after: dict) -> dict:
    changed = [p for p, stat in after.items() if before.get(p) != stat]
    return {"files_written": len(changed), "bytes_written": sum(after[p][1] for p in changed)}


# ---------------------------------------------------------------------------
# spans


_CERTIFY = "propagator.certify"
_OWN_SETUP_LAYERS = ("grid.build", "transform.build")


def summarize_spans(path: Path) -> dict:
    """Per-name self time, calls and attributes of one command's spans.

    A span's self time is its duration minus the durations of its direct
    children; children of one span never overlap (one thread).  The
    propagator's construction self-test is set-up: transforms and other
    spans inside it count as propagator.certify time, not as calls of
    their own layer, so layer counts describe the pipeline's work."""
    if not path.is_file():
        return {"inprocess_s": 0.0, "names": {}, "missing": ["<no spans written>"]}
    doc = json.loads(path.read_text(encoding="utf-8"))
    spans = doc["spans"]
    dur = [s["end"] - s["start"] for s in spans]
    self_s = list(dur)
    folded = [False] * len(spans)
    for i, s in enumerate(spans):
        parent = s["parent"]
        if parent is None:
            continue
        self_s[parent] -= dur[i]
        # parents precede their children in the span list
        in_certify = spans[parent]["name"] == _CERTIFY or folded[parent]
        folded[i] = in_certify and s["name"] not in _OWN_SETUP_LAYERS
    names: dict = {}
    for s, d, own, fold in zip(spans, dur, self_s, folded):
        if fold:
            names[_CERTIFY]["self_s"] += own
            continue
        agg = names.setdefault(s["name"], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += own
        agg["total_s"] += d
        for key in ("bytes", "steps", "snapshots"):
            if key in s:
                agg[key] = agg.get(key, 0) + s[key]
        if "intervals" in s:
            agg["intervals"] = max(agg.get("intervals", 0), s["intervals"])
    return {"inprocess_s": dur[0], "names": names, "missing": doc["missing"]}


def layer_metrics(traces: dict) -> dict:
    """Workload totals of the per-layer metrics over all traced commands."""

    def get(name, key="self_s"):
        return sum(t["names"].get(name, {}).get(key, 0) for t in traces.values())

    def top(name, key):
        return max((t["names"].get(name, {}).get(key, 0) for t in traces.values()), default=0)

    m = {
        "cli.import_s": get("cli.import"),
        "grid.build_s": get("grid.build"),
        "transform.build_s": get("transform.build"),
        "propagator.certify_s": get("propagator.certify"),
        "transform.forward_calls": get("transform.forward", "calls"),
        "transform.forward_s": get("transform.forward"),
        "transform.backward_calls": get("transform.backward", "calls"),
        "transform.backward_s": get("transform.backward"),
        "transform.forward_bytes_computed": get("transform.forward", "bytes"),
        "dynamics.evolve_calls": get("dynamics.evolve", "calls"),
        "dynamics.evolve_s": get("dynamics.evolve"),
        "dynamics.steps": get("dynamics.evolve", "steps"),
        "dynamics.snapshots": get("dynamics.evolve", "snapshots"),
        "dynamics.duhamel_s": get("dynamics.duhamel"),
        "dynamics.blowup_monitor_s": get("dynamics.blowup_monitor"),
        "propagator.evolve_calls": get("propagator.evolve", "calls"),
        "propagator.evolve_s": get("propagator.evolve"),
        "functionals.strichartz_s": get("functionals.strichartz"),
        "functionals.morawetz_s": get("functionals.morawetz"),
        "functionals.mass_flux_s": get("functionals.mass_flux"),
        "functionals.identity_s": get("functionals.identity"),
        "functionals.hardy_s": get("functionals.hardy"),
        "functionals.energy_calls": get("functionals.energy", "calls"),
        "functionals.energy_s": get("functionals.energy"),
        "functionals.critical_density_calls": get("functionals.critical_density", "calls"),
        "functionals.critical_density_s": get("functionals.critical_density"),
        "concentration.greedy_s": get("concentration.greedy"),
        "concentration.classify_s": get("concentration.classify"),
        "concentration.flow_check_s": get("concentration.flow_check"),
        "concentration.bubble_s": get("concentration.bubble"),
        "concentration.window_stats_s": get("concentration.window_stats"),
        "concentration.nest_s": get("concentration.nest"),
        "concentration.intervals": top("concentration.greedy", "intervals"),
        "timegrid.pl_integral_calls": get("timegrid.pl_integral", "calls"),
        "timegrid.pl_integral_s": get("timegrid.pl_integral"),
        "persist.save_s": get("persist.save"),
        "persist.load_s": get("persist.load"),
        "persist.write_json_s": get("persist.write_json"),
        "persist.read_json_s": get("persist.read_json"),
        "persist.write_csv_s": get("persist.write_csv"),
        "persist.files_written": sum(t["files_written"] for t in traces.values()),
        "persist.bytes_written": sum(t["bytes_written"] for t in traces.values()),
        "scenario.run_scenario_s": get("scenario.run_scenario"),
        "scenario.run_scenario_total_s": get("scenario.run_scenario", "total_s"),
        "scenario.build_report_s": get("scenario.build_report"),
        "scenario.build_report_total_s": get("scenario.build_report", "total_s"),
        "scenario.verify_report_s": get("scenario.verify_report"),
        "unattributed_s": get("command"),
        "inprocess_s": sum(t["inprocess_s"] for t in traces.values()),
    }
    steps = m["dynamics.steps"]
    m["dynamics.step_ms"] = 1e3 * m["dynamics.evolve_s"] / steps if steps else 0.0
    m["attributed_frac"] = 1.0 - m["unattributed_s"] / m["inprocess_s"] if m["inprocess_s"] else 0.0
    return m


def nsweep_metrics(sweep: dict) -> dict:
    m = {}
    for key, g in sweep["grids"].items():
        m[f"nsweep.{key}.transform.build_s"] = g.get("build_s", 0.0)
        m[f"nsweep.{key}.transform.build_failed"] = g.get("build_failed", 1)
        # 0 where the grid failed to build and nothing could be measured
        m[f"nsweep.{key}.transform.forward_ms"] = g.get("forward_ms", 0.0)
        m[f"nsweep.{key}.dynamics.dense_step_ms"] = g.get("dense_step_ms", 0.0)
        m[f"nsweep.{key}.dynamics.watch_step_ms"] = g.get("watch_step_ms", 0.0)
    return m


# ---------------------------------------------------------------------------
# the two kinds of run


def _role_seconds(one_pass, *roles) -> float:
    """Wall time of the pass's commands in ``roles``; a repeated command
    counts with its median."""
    return sum(statistics.median(i.wall_s for i in runs)
               for runs in one_pass if runs[0].role in roles)


def timed_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setup = bench.setup_seconds()
    passes = []
    started = time.perf_counter()
    while not passes or (time.perf_counter() - started < seconds
                         and bench.remaining() > 2 * _role_seconds(passes[-1], *ROLES)):
        passes.append(bench.run_pass(f"pass{len(passes)}", False, repeat_verify=True)[0])

    def med(fn):
        return statistics.median(fn(p) for p in passes)

    metrics = {
        "setup_s": statistics.median(setup),
        "evolve_cmd_s": med(lambda p: _role_seconds(p, "simulate", "sweep")),
        "verify_s": med(lambda p: _role_seconds(p, "verify")),
        "pipeline_s": med(lambda p: _role_seconds(p, *ROLES)),
        "peak_rss_mb": med(lambda p: max(i.rss_mb for runs in p for i in runs)),
    }
    roles = {runs[0].role for p in passes for runs in p}
    named = {
        "setup_s": metrics["setup_s"],
        **{f"{r}_s": med(lambda p, r=r: _role_seconds(p, r)) for r in ROLES if r in roles},
        "pipeline_s": metrics["pipeline_s"],
        "peak_rss_mb": metrics["peak_rss_mb"],
    }
    detail = {"passes": len(passes), "setup_runs_s": setup, "named_metrics": named}
    return metrics, detail


def traced_run(bench: Bench) -> tuple[dict, dict]:
    untraced, _ = bench.run_pass("untraced", trace=False)
    traced, traces = bench.run_pass("traced", trace=True)
    sweep = bench.nsweep()
    metrics = layer_metrics(traces)
    metrics["tracing_overhead_s"] = _role_seconds(traced, *ROLES) - _role_seconds(untraced, *ROLES)
    metrics.update(nsweep_metrics(sweep))
    detail = {
        "pipeline_untraced_s": _role_seconds(untraced, *ROLES),
        "pipeline_traced_s": _role_seconds(traced, *ROLES),
        "commands": traces,
        "nsweep": sweep,
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# output


def _print_human(bench: Bench, environment: dict, detail: dict, metrics: dict, trace: bool):
    print(f"nlslab benchmark: workload {bench.workload}, seed {bench.seed}, "
          f"BLAS threads {BLAS_THREADS}, trace {int(trace)}")
    print("environment: " + json.dumps(environment, sort_keys=True))
    for inv in bench.invocations:
        verdict = "ok" if not inv.problems else "FAILED: " + "; ".join(inv.problems[:5])
        print(f"  {inv.label:<28} {inv.wall_s:9.3f} s  rss {inv.rss_mb:7.1f} MB  "
              f"exit {inv.code}  {verdict}")
        for key, digest in inv.report_sha256.items():
            print(f"    sha256 {key}: {digest}")
    failed = sum(1 for i in bench.invocations if i.problems)
    attempted = len(bench.invocations)
    if trace:
        for label, t in detail["commands"].items():
            names = t["names"]
            inproc = t["inprocess_s"]
            unattr = names.get("command", {}).get("self_s", 0.0)
            cov = 1.0 - unattr / inproc if inproc else 0.0
            print(f"  traced {label}: in-process {inproc:.3f} s, attributed {cov:.1%}, "
                  f"forward calls {names.get('transform.forward', {}).get('calls', 0)}, "
                  f"evolve calls {names.get('dynamics.evolve', {}).get('calls', 0)}")
            heavy = sorted(names.items(), key=lambda kv: -kv[1]["self_s"])[:6]
            print("    self time: " + ", ".join(f"{k} {v['self_s']:.3f} s" for k, v in heavy))
            if t["missing"]:
                print(f"    not traced (missing): {t['missing']}")
        sw = detail["nsweep"]
        for key, g in sw["grids"].items():
            status = f"FAILED ({g.get('message')})" if g.get("build_failed") else "built"
            print(f"  nsweep n={sw['dimension']} {key} r_max={sw['r_max']}: {status}, "
                  f"build {g.get('build_s', 0.0):.3f} s, forward {g.get('forward_ms', 0.0):.3f} ms, "
                  f"step dense {g.get('dense_step_ms', 0.0):.3f} ms, "
                  f"step watch {g.get('watch_step_ms', 0.0):.3f} ms")
        print(f"  pipeline untraced {detail['pipeline_untraced_s']:.3f} s, "
              f"traced {detail['pipeline_traced_s']:.3f} s")
        for name, value in metrics.items():
            print(f"  {name} = {value} {unit(name)}")
    else:
        for name, value in detail["named_metrics"].items():
            print(f"  {name} = {value:.4f} {unit(name)}")
        print(f"  evolve_cmd_s = {metrics['evolve_cmd_s']:.4f} s  (simulate_s or sweep_s)")
    print(f"  failed_frac = {failed}/{attempted} = {failed / max(attempted, 1):.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GRIDS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a polite kill into an exception, so the running child is
    # killed and reaped on the way out
    signal.signal(signal.SIGTERM, _terminate)

    checkout = Path.cwd()
    if not (checkout / "src" / "nlslab" / "cli.py").is_file():
        print(f"error: {checkout} holds no nlslab source tree (src/nlslab); "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        pinned = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        reference = pinned[args.workload]
    bench = Bench(checkout, args.workload, args.seed, reference)
    bench.root.mkdir(parents=True, exist_ok=True)
    try:
        try:
            environment = bench.probe_env()
            if args.trace:
                metrics, detail = traced_run(bench)
            else:
                metrics, detail = timed_run(bench, args.seconds)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        failed = sum(1 for i in bench.invocations if i.problems)
        attempted = len(bench.invocations)
        _print_human(bench, environment, detail, metrics, bool(args.trace))
        summary = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "blas_threads": BLAS_THREADS, "environment": environment,
            "invocations": [
                {"label": i.label, "wall_s": i.wall_s, "exit": i.code, "rss_mb": i.rss_mb,
                 "problems": i.problems, "report_sha256": i.report_sha256}
                for i in bench.invocations
            ],
            "metrics": metrics, "detail": detail,
        }
        out = checkout / RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(summary, indent=1, default=str), encoding="utf-8")
    finally:
        shutil.rmtree(bench.root, ignore_errors=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def unit(name: str) -> str:
    """Unit of a metric, read from its name's suffix."""
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_computed") or name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
