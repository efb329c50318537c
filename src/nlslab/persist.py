"""Trajectory and report persistence.

Layout of a trajectory store::

    <dir>/metadata.json        grid spec, evolution config, snapshot times,
                               status and conserved-quantity series
    <dir>/snapshot_000000.bin  one little-endian float64 array per snapshot,
                               interleaved (re, im), index zero-padded to 6

Numbers in JSON and CSV are written as decimal with 17 significant digits,
which round-trips IEEE float64 exactly; two runs of the same scenario
therefore produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .dynamics import BlowupRecord, EvolutionConfig, Trajectory
from .grid import RadialGrid
from .transform import make_spectral_grid

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# canonical JSON


def _emit(obj, out: list, indent: int):
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError("non-finite float in serialized document; encode as string")
        out.append(format(x, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(items):
            out.append(pad + "  ")
            _emit(item, out, indent + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = list(obj.keys())
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r}")
            out.append(pad + "  " + json.dumps(key) + ": ")
            _emit(obj[key], out, indent + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def canonical_json(obj) -> str:
    """Deterministic JSON text with floats at 17 significant digits."""
    out: list[str] = []
    _emit(obj, out, 0)
    out.append("\n")
    return "".join(out)


def write_json(path: Path, obj):
    Path(path).write_text(canonical_json(obj), encoding="utf-8")


def read_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# snapshot binary codec


def encode_snapshot(values: np.ndarray) -> bytes:
    v = np.asarray(values, dtype=complex)
    inter = np.empty(2 * v.size, dtype="<f8")
    inter[0::2] = v.real
    inter[1::2] = v.imag
    return inter.tobytes()


def decode_snapshot(blob: bytes) -> np.ndarray:
    inter = np.frombuffer(blob, dtype="<f8")
    if inter.size % 2:
        raise ValueError("corrupt snapshot: odd float count")
    return inter[0::2] + 1j * inter[1::2]


def snapshot_filename(index: int) -> str:
    return f"snapshot_{index:06d}.bin"


# ---------------------------------------------------------------------------
# trajectory store


def grid_from_spec(spec: dict) -> RadialGrid:
    if spec["kind"] != "bessel":
        raise ValueError(f"unsupported stored grid kind {spec['kind']!r}")
    return make_spectral_grid(int(spec["dimension"]), int(spec["n_points"]), float(spec["r_max"]))


def blowup_dict(b: BlowupRecord | None) -> dict | None:
    """JSON form of a blowup record (fields in declaration order), for the
    store and the report."""
    return None if b is None else asdict(b)


def save_trajectory(traj: Trajectory, directory) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    g = traj.grid
    prov = {
        k: (list(v) if isinstance(v, tuple) else v) for k, v in traj.provenance.items()
    }
    meta = {
        "format_version": FORMAT_VERSION,
        "grid": {"dimension": g.dimension, "n_points": g.n_points, "r_max": g.r_max,
                 "kind": g.kind},
        "config": asdict(traj.config),
        "times": list(traj.times),
        "status": traj.status,
        "abort_reason": traj.abort_reason,
        "blowup": blowup_dict(traj.blowup),
        "series": {
            "mass": list(traj.mass_series),
            "energy": list(traj.energy_series),
            "kinetic": list(traj.kinetic_series),
            "potential": list(traj.potential_series),
        },
        "provenance": prov,
    }
    write_json(directory / "metadata.json", meta)
    for i, row in enumerate(traj.values):
        (directory / snapshot_filename(i)).write_bytes(encode_snapshot(row))
    return directory


def load_trajectory(directory) -> Trajectory:
    directory = Path(directory)
    meta = read_json(directory / "metadata.json")
    if meta.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported trajectory format {meta.get('format_version')}")
    grid = grid_from_spec(meta["grid"])
    cfg = EvolutionConfig(**meta["config"])
    times = np.asarray(meta["times"], dtype=float)
    values = np.empty((times.size, grid.n_points), dtype=complex)
    for i in range(times.size):
        vals = decode_snapshot((directory / snapshot_filename(i)).read_bytes())
        if vals.size != grid.n_points:
            raise ValueError(f"snapshot {i} has {vals.size} samples, grid has {grid.n_points}")
        values[i] = vals
    blow = None
    if meta["blowup"] is not None:
        b = meta["blowup"]
        blow = BlowupRecord(**{**b, "gradient_history": tuple(b["gradient_history"])})
    prov = {
        k: (tuple(v) if isinstance(v, list) else v)
        for k, v in meta.get("provenance", {}).items()
    }
    return Trajectory(
        config=cfg,
        grid=grid,
        times=times,
        values=values,
        mass_series=np.asarray(meta["series"]["mass"], dtype=float),
        energy_series=np.asarray(meta["series"]["energy"], dtype=float),
        kinetic_series=np.asarray(meta["series"]["kinetic"], dtype=float),
        potential_series=np.asarray(meta["series"]["potential"], dtype=float),
        status=meta["status"],
        abort_reason=meta["abort_reason"],
        blowup=blow,
        provenance=prov,
    )


# ---------------------------------------------------------------------------
# CSV series


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]):
    """Write aligned numeric columns with a descriptive header row."""
    rows = [",".join(header)]
    length = len(columns[0])
    for col in columns:
        if len(col) != length:
            raise ValueError("ragged CSV columns")
    for i in range(length):
        rows.append(",".join(format(float(c[i]), ".17g") for c in columns))
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")
