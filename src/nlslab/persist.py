"""Trajectory and report persistence.

Layout of a trajectory store::

    <dir>/metadata.json        grid spec, evolution config, snapshot times,
                               status and conserved-quantity series
    <dir>/snapshots.bin        the (S, N) snapshots, one row per time, as
                               row-major numpy ``<c16`` bytes (little-endian
                               float64 (re, im) pairs); bit-exact on
                               round-trip, signed zeros included
    <dir>/kernel.bin           n != 3 only (``SpectralTransform.kernel``):
                               the N x N polar factor that the evolution
                               used, ``<f8`` bytes in row-major order (8 MB
                               at N = 1024); loading adopts it once
                               certified, so the transform keeps the
                               evolution's bits at any BLAS thread count
                               (see ``transform``).  An n = 3 kernel is a
                               closed form whose bits do not depend on the
                               thread count, so its store needs none
    <dir>/bessel.bin           odd n only: the grid's Bessel table, 2N + 1
                               ``<f8`` values, adopted once certified, so a
                               reader needs no scipy (see ``transform``)

JSON is ``json.dumps`` with floats in their shortest round-trip form
(``0.8``, ``16.0``); CSV writes decimals with 17 significant digits.  Both
read back to the same float64, so two runs of the same scenario produce
byte-identical artifacts.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .dynamics import BlowupRecord, EvolutionConfig, Trajectory
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


def decode_snapshot(blob: bytes) -> np.ndarray:
    if len(blob) % 16:
        raise ValueError("corrupt snapshot: not a whole number of complex samples")
    return np.frombuffer(blob, dtype="<c16")


# ---------------------------------------------------------------------------
# trajectory store


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
    table = bessel_table(g.dimension, g.n_points) if g.dimension % 2 else None
    kernel = None if g.dimension == 3 else get_transform(g).kernel
    for name, array in (("bessel.bin", table), ("kernel.bin", kernel)):
        if array is None:        # a stale copy, from a store of another grid
            (directory / name).unlink(missing_ok=True)
        else:
            np.asarray(array, dtype="<f8").tofile(directory / name)
    return directory


def load_trajectory(directory) -> Trajectory:
    directory = Path(directory)
    meta = read_json(directory / "metadata.json")
    # every field is read and checked before any grid or kernel is built
    field = functools.partial(_field, directory, meta)
    if (version := field("format_version")) != FORMAT_VERSION:
        raise StoreError(f"trajectory store {directory} has format version {version!r}, "
                         f"not {FORMAT_VERSION}; re-run simulate")
    if (kind := field("grid.kind")) != "bessel":
        raise StoreError(f"trajectory store {directory} has grid kind {kind!r}, "
                         "not 'bessel'; re-run simulate")
    dimension, n_points = field("grid.dimension", int), field("grid.n_points", int)
    r_max, times = field("grid.r_max", float), field("times", _times)
    cfg = field("config", lambda c: EvolutionConfig(**c))
    if cfg.dimension != dimension:
        raise StoreError(f"trajectory store {directory} has config dimension {cfg.dimension}, "
                         f"not its grid's {dimension}; re-run simulate")
    series = [field(f"series.{name}", lambda s: np.asarray(s, dtype=float).reshape(times.size))
              for name in ("mass", "energy", "kinetic", "potential")]
    status, abort_reason = field("status"), field("abort_reason")
    blow = field("blowup", lambda b: None if b is None else BlowupRecord(
        **{**b, "gradient_history": tuple(b["gradient_history"])}))
    meta.setdefault("provenance", {})
    prov = field("provenance", lambda p: {k: tuple(v) if isinstance(v, list) else v
                                          for k, v in dict(p).items()})
    snapshots = directory / "snapshots.bin"
    size = snapshots.stat().st_size if snapshots.is_file() else 0
    if size != times.size * n_points * 16:
        raise StoreError(f"trajectory store {directory} holds {size} bytes in snapshots.bin, "
                         f"not {times.size} x {n_points} x 16; re-run simulate")
    values = np.fromfile(snapshots, dtype="<c16").reshape(times.size, n_points)
    table = directory / "bessel.bin"
    if dimension % 2 and table.is_file():
        # adopted, once certified, before the grid is built from it
        bessel_table(dimension, n_points, np.fromfile(table, dtype="<f8"))
    grid = make_spectral_grid(dimension, n_points, r_max)
    kernel = directory / "kernel.bin"
    get_transform(grid, np.fromfile(kernel, dtype="<f8") if kernel.is_file() else np.empty(0))
    return Trajectory(cfg, grid, times, values, *series, status, abort_reason, blow, prov)


def _field(directory: Path, meta: dict, path: str, parse=lambda value: value):
    """The metadata field at a dotted ``path``, through ``parse``; a
    StoreError names the store and the field if it is missing or bad."""
    value = meta
    try:
        for key in path.split("."):
            value = value[key]
        return parse(value)
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"trajectory store {directory} has an unreadable metadata field "
                         f"{path!r} ({type(exc).__name__}: {exc}); re-run simulate") from None


def _times(values) -> np.ndarray:
    times = np.asarray(values, dtype=float)
    if times.ndim != 1 or not np.all(np.diff(times) > 0):
        raise ValueError("snapshot times must be strictly increasing")
    return times


# ---------------------------------------------------------------------------
# CSV series


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]):
    """Write aligned numeric columns with a descriptive header row."""
    if any(len(col) != len(columns[0]) for col in columns):
        raise ValueError("ragged CSV columns")
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=",".join(header), comments="", encoding="utf-8")
