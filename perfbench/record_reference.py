"""Write reference.json: the pinned outputs of every workload at the
default seed.

    python3 perfbench/record_reference.py      (from the root of a checkout)

Run it only on a commit whose outputs are known to be right; the
benchmark's correctness gate compares every later default-seed run with
what this records.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import gate
import workloads
from run import HERE, RUNS_DIR, Bench, gate_key


def record(checkout: Path, name: str) -> dict:
    bench = Bench(checkout, name, workloads.DEFAULT_SEED, None)
    run_dir = checkout / RUNS_DIR / f"record-{name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    pinned = {}
    try:
        commands = workloads.prepare(name, workloads.DEFAULT_SEED, checkout, run_dir)
        for i, cmd in enumerate(commands):
            argv = [sys.executable, "-m", "nlslab.cli", *cmd.argv]
            _, code, _ = bench.spawn(argv, run_dir / f"cmd{i}.log")
            if code != 0:
                raise SystemExit(f"{name}: {cmd.label} exited {code}")
            for out_dir in cmd.outputs:
                problems = gate.check_output(cmd.name, out_dir, None)
                if problems:
                    raise SystemExit(f"{name}: {cmd.label}: {problems}")
                pinned[gate_key(cmd, out_dir, run_dir)] = gate.pinned(cmd.name, out_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return pinned


def main() -> int:
    checkout = Path.cwd()
    reference = {name: record(checkout, name) for name in workloads.GRIDS}
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
