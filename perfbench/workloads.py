"""The three benchmark workloads: scenario documents and command sequences.

Every workload is a fixed amount of work.  The seed only jitters the
initial-data parameters by a few percent; grid, dt, span, snapshot
stride and analysis knobs never change.  Seed 0 is the default seed: it
applies no jitter, so its reports are pinned to ``reference.json``.

Why each workload exists, and which layer metric is predicted to move
which end-to-end metric on it, is written down in ``README.md``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0

# largest relative jitter applied to an initial-data parameter
JITTER = 0.03

# Local sensitivities d log M / d log p of the total critical mass M of
# the concentration-n3 ring data, measured at the nominal parameters.
# The amplitude absorbs the centre and width jitter so that M, hence the
# interval count (M / eta, 216 at the default seed) and the O(J^3)
# window-statistics cost, stay the same size on every seed.
_RING_SENS_AMPLITUDE = 6.13
_RING_SENS_CENTER = 3.46
_RING_SENS_WIDTH = -0.44

REFERENCE_SCENARIO = Path("scenarios") / "reference-defocusing-n3.json"


@dataclass(frozen=True)
class Command:
    """One CLI invocation, relative to the workload's run directory."""

    name: str            # metric role: simulate | analyze | verify | sweep
    argv: tuple          # arguments after ``python -m nlslab.cli``
    label: str           # unique per workload, e.g. "verify:focusing-watch-n5"
    outputs: tuple       # directories whose contents the gate judges


# the grid each workload's set-up probe builds: (dimension, n_points, r_max)
GRIDS = {
    "reference-n3": (3, 1024, 32.0),
    "evolve-n5": (5, 1024, 32.0),
    "concentration-n3": (3, 256, 16.0),
}


def _factors(seed: int, count: int) -> list[float]:
    """``count`` multiplicative jitters in [1 - JITTER, 1 + JITTER]."""
    if seed == DEFAULT_SEED:
        return [1.0] * count
    rng = random.Random(seed)
    return [1.0 + rng.uniform(-JITTER, JITTER) for _ in range(count)]


def reference_n3(seed: int, checkout: Path) -> dict:
    doc = json.loads((checkout / REFERENCE_SCENARIO).read_text(encoding="utf-8"))
    fa, fw = _factors(seed, 2)
    init = doc["initial_data"]
    init["amplitude"] = init["amplitude"] * fa
    init["width"] = init["width"] * fw
    return doc


def evolve_n5(seed: int) -> dict:
    fa, fw, fb = _factors(seed, 3)
    common = {
        "dimension": 5,
        "grid": {"n_points": 1024, "r_max": 32.0},
        "analysis": {"certify_resolution": False},
    }
    return {
        "scenarios": [
            dict(
                common,
                scenario_id="defocusing-dense-n5",
                mu=1,
                # 10,000 steps through the dense step operator, 21 snapshots
                time={"t_minus": 0.0, "t_plus": 0.2, "dt": 2e-5, "snapshot_stride": 500},
                initial_data={"family": "gaussian", "amplitude": 1.0 * fa, "width": 1.0 * fw},
            ),
            dict(
                common,
                scenario_id="focusing-watch-n5",
                mu=-1,
                # 500 steps through the per-step gradient-watch branch, 21 snapshots
                time={"t_minus": 0.0, "t_plus": 0.2, "dt": 4e-4, "snapshot_stride": 25},
                initial_data={"family": "gaussian", "amplitude": 0.5 * fb, "width": 1.0},
            ),
        ]
    }


def concentration_n3(seed: int) -> dict:
    fc, fw = _factors(seed, 2)
    log_a = -(_RING_SENS_CENTER * math.log(fc) + _RING_SENS_WIDTH * math.log(fw))
    fa = math.exp(log_a / _RING_SENS_AMPLITUDE)
    return {
        "scenario_id": "concentration-ring-n3",
        "dimension": 3,
        "mu": 1,
        "grid": {"n_points": 256, "r_max": 16.0},
        "time": {"t_minus": 0.0, "t_plus": 1.0, "dt": 1e-3, "snapshot_stride": 1},
        "initial_data": {
            "family": "ring",
            "amplitude": 0.8 * fa,
            "center": 2.0 * fc,
            "width": 0.7 * fw,
        },
        "analysis": {"certify_resolution": False, "eta": 0.05},
    }


def prepare(name: str, seed: int, checkout: Path, run_dir: Path) -> list[Command]:
    """Write the workload's scenario documents into ``run_dir`` and
    return its command sequence; output directories live in ``run_dir``."""
    run_dir.mkdir(parents=True, exist_ok=True)
    if name == "evolve-n5":
        doc = evolve_n5(seed)
        cfg = run_dir / "sweep.json"
        cfg.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        out = run_dir / "out"
        dirs = [out / s["scenario_id"] for s in doc["scenarios"]]
        cmds = [Command("sweep", ("sweep", "--config", str(cfg), "--out", str(out)),
                        "sweep", tuple(dirs))]
        for d in dirs:
            cmds.append(Command("verify", ("verify", "--out", str(d)), f"verify:{d.name}", (d,)))
        return cmds
    if name == "reference-n3":
        doc = reference_n3(seed, checkout)
    elif name == "concentration-n3":
        doc = concentration_n3(seed)
    else:
        raise KeyError(name)
    cfg = run_dir / "scenario.json"
    cfg.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    out = run_dir / "out"
    return [
        Command(role, (role, "--config", str(cfg), "--out", str(out)), role, (out,))
        for role in ("simulate", "analyze")
    ] + [Command("verify", ("verify", "--out", str(out)), "verify", (out,))]
