"""Trajectory and report persistence.

Layout of a trajectory store::

    <dir>/metadata.json        grid spec, evolution config, snapshot times,
                               status and conserved-quantity series
    <dir>/snapshots.bin        the (S, N) snapshots, one row per time, as
                               row-major numpy ``<c16`` bytes (little-endian
                               float64 (re, im) pairs); bit-exact on
                               round-trip, signed zeros included
    <dir>/kernel.bin           n != 3 only (``SpectralTransform.factor``):
                               the N x N polar factor that the evolution
                               used, ``<f8`` bytes in row-major order (8 MB
                               at N = 1024); loading adopts it once
                               certified, so the transform keeps the
                               evolution's bits at any BLAS thread count
                               (see ``transform``).  An n = 3 kernel is a
                               closed form whose bits do not depend on the
                               thread count, so its store needs none
    <dir>/bessel.bin           n = 3 only: the grid's Bessel table, 2N + 1
                               ``<f8`` values, adopted once certified, so a
                               reader needs no scipy (see ``transform``)

JSON is ``json.dumps`` with floats in their shortest round-trip form
(``0.8``, ``16.0``); CSV writes decimals with 17 significant digits.  Both
read back to the same float64, so two runs of the same scenario produce
byte-identical artifacts.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .dynamics import BlowupRecord, EvolutionConfig, Trajectory
from .grid import RadialGrid
from .transform import bessel_table, get_transform, make_spectral_grid

# perfbench/reference.json pins format_version 1, so the one-array store keeps
# it; a store of per-row snapshot files has no snapshots.bin, so it fails to load
FORMAT_VERSION = 1


class StoreError(ValueError):
    """A trajectory store of another format version, or a bad snapshots.bin."""


# ---------------------------------------------------------------------------
# canonical JSON


def canonical_json(obj) -> str:
    """Deterministic JSON text, floats in their shortest round-trip form."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def write_json(path: Path, obj):
    Path(path).write_text(canonical_json(obj), encoding="utf-8")


def read_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# snapshot binary codec


def encode_snapshot(values: np.ndarray) -> bytes:
    return np.asarray(values, dtype="<c16").tobytes()


def decode_snapshot(blob: bytes) -> np.ndarray:
    if len(blob) % 16:
        raise ValueError("corrupt snapshot: not a whole number of complex samples")
    return np.frombuffer(blob, dtype="<c16")


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
        "provenance": traj.provenance,
    }
    write_json(directory / "metadata.json", meta)
    np.asarray(traj.values, dtype="<c16").tofile(directory / "snapshots.bin")
    table = bessel_table(3, g.n_points) if g.dimension == 3 else None
    for name, array in (("bessel.bin", table), ("kernel.bin", get_transform(g).factor)):
        if array is None:        # a stale copy, from a store of another grid
            (directory / name).unlink(missing_ok=True)
        else:
            np.asarray(array, dtype="<f8").tofile(directory / name)
    return directory


def load_trajectory(directory) -> Trajectory:
    directory = Path(directory)
    meta = read_json(directory / "metadata.json")
    if meta.get("format_version") != FORMAT_VERSION:
        raise StoreError(f"trajectory store {directory} has format version "
                         f"{meta.get('format_version')!r}, not {FORMAT_VERSION}; re-run simulate")
    # checked before any grid or kernel is built
    times = np.asarray(meta["times"], dtype=float)
    n_points = int(meta["grid"]["n_points"])
    snapshots = directory / "snapshots.bin"
    values = np.fromfile(snapshots, dtype="<c16") if snapshots.is_file() else np.empty(0)
    if values.size != times.size * n_points:
        raise StoreError(f"trajectory store {directory} holds {values.size} snapshot samples "
                         f"in snapshots.bin, not {times.size} x {n_points}; re-run simulate")
    values = values.reshape(times.size, n_points)
    table = directory / "bessel.bin"
    if meta["grid"]["dimension"] == 3 and table.is_file():
        # adopted, once certified, before the grid is built from it
        bessel_table(3, n_points, np.fromfile(table, dtype="<f8"))
    grid = grid_from_spec(meta["grid"])
    kernel = directory / "kernel.bin"
    get_transform(grid, np.fromfile(kernel, dtype="<f8") if kernel.is_file() else np.empty(0))
    cfg = EvolutionConfig(**meta["config"])
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
    if any(len(col) != len(columns[0]) for col in columns):
        raise ValueError("ragged CSV columns")
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="", encoding="utf-8")
