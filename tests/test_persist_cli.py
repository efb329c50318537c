import dataclasses
import json
import math
import os
import shutil
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import nlslab
from nlslab import (EvolutionConfig, IntervalDecomposition, evolve, gaussian_field,
                    make_spectral_grid)
from nlslab.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    EXIT_RUNTIME_ALARM,
    EXIT_VERIFY_FAILED,
    main,
)
from nlslab.concentration import ExceptionalReport
from nlslab.functionals import FluxReport, MorawetzReport
from nlslab.persist import (
    canonical_json,
    decode_snapshot,
    load_trajectory,
    read_json,
    save_trajectory,
    write_json,
)
from nlslab.scenario import (
    MAX_POINTS,
    ScenarioError,
    normalize_scenario,
    run_scenario,
    verify_report,
)
from nlslab import scenario as scenario_module
from nlslab import transform
from nlslab.transform import _table_slot, _transform_slot, bessel_table, get_transform

SMALL_SCENARIO = {
    "scenario_id": "test-small",
    "dimension": 3,
    "mu": 1,
    "grid": {"n_points": 192, "r_max": 16.0},
    "time": {"t_minus": 0.0, "t_plus": 0.25, "dt": 2e-3, "snapshot_stride": 5},
    "initial_data": {"family": "gaussian", "amplitude": 1.0, "width": 1.0},
    "analysis": {"certify_resolution": True},
}


# the stored-factor path: an n = 5 grid, whose kernel is a computed polar
# factor (an n = 3 kernel is a closed form that no store carries).  At
# N = 192 the n = 5 sampled modes are orthonormal only to 2.9e-10, and a
# factor with two swapped columns is then as asymmetric as the
# certificate's 1e-12 bound; at N = 256 it is 2.4e-13, so each tampered
# factor fails the check its case names
SMALL_SCENARIO_N5 = dict(SMALL_SCENARIO, scenario_id="test-small-n5", dimension=5,
                         grid={"n_points": 256, "r_max": 16.0})


@pytest.fixture(scope="module")
def small_run():
    return run_scenario(SMALL_SCENARIO)


# ---------------------------------------------------------------------------
# canonical JSON


def test_canonical_json_float_roundtrip():
    values = [1.0, math.pi, 1e-300, 3.0000000000000004, -0.1, 2**53 + 1.0]
    text = canonical_json({"v": values})
    back = json.loads(text)["v"]
    assert all(struct.pack("<d", a) == struct.pack("<d", b) for a, b in zip(values, back))


def test_canonical_json_rejects_nonfinite():
    with pytest.raises(ValueError):
        canonical_json({"x": math.inf})


def test_canonical_json_deterministic():
    doc = {"b": [1.5, {"z": 2}], "a": "text"}
    assert canonical_json(doc) == canonical_json(doc)


# ---------------------------------------------------------------------------
# snapshot codec


def test_snapshot_codec_bit_exact():
    rng = np.random.default_rng(0)
    vals = rng.normal(size=64) + 1j * rng.normal(size=64)
    blob = np.asarray(vals, "<c16").tobytes()
    assert len(blob) == 64 * 16
    back = decode_snapshot(blob)
    assert np.array_equal(back, vals)          # bit-exact, not approx


def test_snapshot_codec_keeps_signed_zeros():
    # np.array_equal takes -0.0 for 0.0, so compare the bytes
    blob = struct.pack("<6d", -0.0, -0.0, -0.0, 0.0, 0.0, -0.0)
    assert decode_snapshot(blob).tobytes() == blob


# ---------------------------------------------------------------------------
# trajectory store


def test_trajectory_roundtrip_bit_exact(tmp_path):
    g = make_spectral_grid(3, 128, 12.0)
    cfg = EvolutionConfig(dimension=3, mu=1, dt=5e-3, snapshot_stride=4)
    traj = evolve(gaussian_field(g), 0.0, 0.2, cfg)
    store = tmp_path / "store"
    save_trajectory(traj, store)
    back = load_trajectory(store)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.values, traj.values)
    assert np.array_equal(back.mass_series, traj.mass_series)
    assert back.config == traj.config
    assert back.grid is traj.grid              # rebuilt through the cached constructor
    # a second save is byte-identical
    store2 = tmp_path / "store2"
    save_trajectory(back, store2)
    for name in ("metadata.json", "snapshots.bin"):
        assert (store / name).read_bytes() == (store2 / name).read_bytes()


def test_store_carries_the_kernel_bit_equal(tmp_path):
    g = make_spectral_grid(4, 128, 12.0)
    cfg = EvolutionConfig(dimension=4, mu=1, dt=5e-3, snapshot_stride=4)
    store = tmp_path / "store"
    store.mkdir()
    (store / "bessel.bin").write_bytes(b"stale")  # only an odd-n store has one
    save_trajectory(evolve(gaussian_field(g), 0.0, 0.1, cfg), store)
    assert not (store / "bessel.bin").exists()
    kernel = get_transform(g).kernel
    assert (store / "kernel.bin").read_bytes() == kernel.astype("<f8").tobytes()
    _transform_slot.cache_clear()
    load_trajectory(store)
    assert get_transform(g).kernel.tobytes() == kernel.tobytes()


def test_n3_store_carries_no_kernel(tmp_path, caplog):
    """An n = 3 kernel is a closed form: its store has no kernel.bin (a
    stale one is removed) and loads without a warning into the same kernel.
    It carries the grid's Bessel table instead, bit for bit."""
    g = make_spectral_grid(3, 128, 12.0)
    cfg = EvolutionConfig(dimension=3, mu=1, dt=5e-3, snapshot_stride=4)
    store = tmp_path / "store"
    store.mkdir()
    (store / "kernel.bin").write_bytes(b"stale")
    save_trajectory(evolve(gaussian_field(g), 0.0, 0.1, cfg), store)
    assert get_transform(g).complex_kernel_t is None
    assert not (store / "kernel.bin").exists()
    table = bessel_table(3, 128)
    assert table.size == 2 * 128 + 1 and not table.flags.writeable
    assert (store / "bessel.bin").read_bytes() == table.astype("<f8").tobytes()
    kernel = get_transform(g).kernel
    _transform_slot.cache_clear()
    caplog.clear()
    load_trajectory(store)
    assert not [r for r in caplog.records if r.name == "nlslab"]
    assert get_transform(g).kernel.tobytes() == kernel.tobytes()


def _kernel_file(store: Path) -> np.ndarray:
    n = read_json(store / "metadata.json")["grid"]["n_points"]
    return np.fromfile(store / "kernel.bin", dtype="<f8").reshape(n, n)


def _swap_columns(store):
    k = _kernel_file(store)
    k[:, [3, 40]] = k[:, [40, 3]]
    k.tofile(store / "kernel.bin")


def _flip_column(store):
    k = _kernel_file(store)
    k[:, 17] *= -1.0
    k.tofile(store / "kernel.bin")


def _scale_entry(store):
    k = _kernel_file(store)
    k[50, 60] *= 1.0 + 1e-6
    k.tofile(store / "kernel.bin")


def _nan_entry(store):
    k = _kernel_file(store)
    k[5, 7] = np.nan
    k.tofile(store / "kernel.bin")


def _truncate(store):
    path = store / "kernel.bin"
    path.write_bytes(path.read_bytes()[:-13])


def _delete(store):
    (store / "kernel.bin").unlink()              # a store written before kernel.bin


def _other_dimension(store):
    n = read_json(store / "metadata.json")["grid"]["n_points"]
    get_transform(make_spectral_grid(4, n, 16.0)).kernel.tofile(store / "kernel.bin")


@pytest.fixture(scope="module")
def honest_run(tmp_path_factory):
    """An analyzed and verified run of a store with its own kernel.bin."""
    out = tmp_path_factory.mktemp("honest") / "run"
    cfg_path = write_config(out.parent, SMALL_SCENARIO_N5)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    assert main(["verify", "--out", str(out)]) == EXIT_OK
    return out


@pytest.mark.parametrize("tamper,reason", [
    (None, None),
    (_swap_columns, "not positive definite"),
    (_flip_column, "not positive definite"),
    (_scale_entry, "not orthogonal"),
    (_nan_entry, "not orthogonal"),
    (_truncate, "65534 entries, not 65536"),
    (_delete, "0 entries, not 65536"),
    (_other_dimension, "not symmetric"),
], ids=["honest", "swapped-columns", "flipped-column", "scaled-entry", "nan-entry",
        "truncated", "deleted", "other-dimension"])
def test_stored_kernel_is_certified_on_load(tmp_path, honest_run, caplog, tamper, reason):
    """A store's kernel.bin is adopted only when it certifies as the polar
    factor of the grid's sampled modes; anything else is rejected with one
    warning and the SVD rebuilds it, so analyze and verify write the same
    bytes either way."""
    out = tmp_path / "run"
    shutil.copytree(honest_run, out)
    if tamper is not None:
        tamper(out / "trajectory")
    cfg_path = write_config(tmp_path, SMALL_SCENARIO_N5)
    for command in (["analyze", "--config", str(cfg_path)], ["verify"]):
        # a cold cache, so that loading the store builds the transform
        _transform_slot.cache_clear()
        caplog.clear()
        assert main([*command, "--out", str(out)]) == EXIT_OK
        warnings = [r.getMessage() for r in caplog.records if r.name == "nlslab"]
        assert len(warnings) == (reason is not None)
        assert all(reason in w and w.endswith("computing it by SVD") for w in warnings)
    for name in ("report.json", "verification.json"):
        assert (out / name).read_bytes() == (honest_run / name).read_bytes(), name


def _table_file(store: Path) -> np.ndarray:
    return np.fromfile(store / "bessel.bin", dtype="<f8")


def _move_zero(store):
    t = _table_file(store)
    t[40] += 1e-9
    t.tofile(store / "bessel.bin")


def _nan_zero(store):
    t = _table_file(store)
    t[11] = np.nan
    t.tofile(store / "bessel.bin")


def _flip_j(store):
    t = _table_file(store)
    n = read_json(store / "metadata.json")["grid"]["n_points"]
    t[n + 1 + 17] *= -1.0
    t.tofile(store / "bessel.bin")


def _truncate_table(store):
    path = store / "bessel.bin"
    path.write_bytes(path.read_bytes()[:-13])


def _other_n_table(store):
    np.asarray(bessel_table(3, 128), dtype="<f8").tofile(store / "bessel.bin")


def _n7_table(store):
    n = read_json(store / "metadata.json")["grid"]["n_points"]
    np.asarray(bessel_table(7, n), dtype="<f8").tofile(store / "bessel.bin")


def _delete_table(store):
    (store / "bessel.bin").unlink()              # a store written before bessel.bin


def _cold_caches():
    """Empty the table and transform caches, so that loading a store adopts
    its table (the grids stay cached: fixtures hold them)."""
    _table_slot.cache_clear()
    _transform_slot.cache_clear()


@pytest.fixture(scope="module")
def honest_n3_run(tmp_path_factory):
    """A simulated, analyzed and verified n = 3 run; its store holds the
    Bessel table that the evolution used."""
    out = tmp_path_factory.mktemp("honest-n3") / "run"
    cfg_path = write_config(out.parent, SMALL_SCENARIO)
    for command in (["simulate", "--config", str(cfg_path)],
                    ["analyze", "--config", str(cfg_path)], ["verify"]):
        assert main([*command, "--out", str(out)]) == EXIT_OK
    return out


@pytest.mark.parametrize("run,tamper,reason", [
    ("n3", None, None),
    ("n3", _truncate_table, "383 values, not 385"),
    ("n3", _move_zero, "a zero fails its Newton step"),
    ("n3", _nan_zero, "a zero is outside its bracket"),
    ("n3", _flip_j, "a J_{3/2} value is not the closed form"),
    ("n3", _other_n_table, "257 values, not 385"),
    ("n3", _delete_table, None),
    ("n5", None, None),
    ("n5", _truncate_table, "511 values, not 513"),
    ("n5", _move_zero, "a zero fails its Newton step"),
    ("n5", _nan_zero, "a zero is outside its bracket"),
    ("n5", _flip_j, "a J_{5/2} value is not the closed form"),
    ("n5", _n7_table, "a zero fails its Newton step"),
    ("n5", _delete_table, None),
], ids=["honest", "truncated", "moved-zero", "nan-zero", "flipped-j", "other-n", "deleted",
        "n5-honest", "n5-truncated", "n5-moved-zero", "n5-nan-zero", "n5-flipped-j",
        "n5-n7-table", "n5-deleted"])
def test_stored_bessel_table_is_certified_on_load(tmp_path, request, caplog, run, tamper, reason):
    """An odd-n store's bessel.bin is adopted only when it certifies against
    the closed forms of J_nu and J_{nu+1}; a rejected table gives one
    warning, a missing one (a store written before odd n > 3 stores had
    one) none, and scipy computes it: analyze and verify write the same
    bytes either way, and the stored factor of an n = 5 store is adopted."""
    honest, doc = {"n3": ("honest_n3_run", SMALL_SCENARIO),
                   "n5": ("honest_run", SMALL_SCENARIO_N5)}[run]
    honest = request.getfixturevalue(honest)
    out = tmp_path / "run"
    shutil.copytree(honest, out)
    if tamper is not None:
        tamper(out / "trajectory")
    cfg_path = write_config(tmp_path, doc)
    for command in (["analyze", "--config", str(cfg_path)], ["verify"]):
        _cold_caches()
        caplog.clear()
        assert main([*command, "--out", str(out)]) == EXIT_OK
        warnings = [r.getMessage() for r in caplog.records if r.name == "nlslab"]
        assert len(warnings) == (reason is not None)
        assert all(reason in w and w.endswith("computing it") for w in warnings)
    for name in ("report.json", "verification.json"):
        assert (out / name).read_bytes() == (honest / name).read_bytes(), name


def test_honest_bessel_table_is_adopted_without_computing_zeros(tmp_path, honest_n3_run,
                                                                monkeypatch, caplog):
    def refuse(*args):
        raise AssertionError("an adopted table computes no Bessel zero")

    out = tmp_path / "run"
    shutil.copytree(honest_n3_run, out)
    cfg_path = write_config(tmp_path, SMALL_SCENARIO)
    monkeypatch.setattr(transform, "bessel_zeros", refuse)
    for command in (["analyze", "--config", str(cfg_path)], ["verify"]):
        _cold_caches()
        assert main([*command, "--out", str(out)]) == EXIT_OK
    assert not [r for r in caplog.records if r.name == "nlslab"]
    # a grid built from the adopted table has the cached grid's bits
    n, r_max = SMALL_SCENARIO["grid"]["n_points"], SMALL_SCENARIO["grid"]["r_max"]
    fresh, cached = make_spectral_grid.__wrapped__(3, n, r_max), make_spectral_grid(3, n, r_max)
    assert fresh.nodes.tobytes() == cached.nodes.tobytes()
    assert fresh.weights.tobytes() == cached.weights.tobytes()
    for name in ("report.json", "verification.json"):
        assert (out / name).read_bytes() == (honest_n3_run / name).read_bytes(), name


# a CLI process that cannot import scipy
_NO_SCIPY = ('import sys; sys.modules["scipy"] = None; '
             'from nlslab.cli import main; sys.exit(main(sys.argv[1:]))')


def test_n3_store_is_analyzed_and_verified_without_scipy(tmp_path, honest_n3_run):
    """analyze and verify of an n = 3 store read its Bessel table, so they
    run where scipy cannot be imported, into the bytes of a run whose table
    was deleted and computed by scipy."""
    runs = {name: tmp_path / name for name in ("blocked", "deleted")}
    for out in runs.values():
        shutil.copytree(honest_n3_run, out)
        for name in ("report.json", "verification.json"):
            (out / name).unlink()
    _delete_table(runs["deleted"] / "trajectory")
    cfg_path = write_config(tmp_path, SMALL_SCENARIO)
    src = str(Path(nlslab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for command in (["analyze", "--config", str(cfg_path)], ["verify"]):
        _cold_caches()
        assert main([*command, "--out", str(runs["deleted"])]) == EXIT_OK
        proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, *command, "--out", str(runs["blocked"])],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
    blocked, deleted = _files(runs["blocked"]), _files(runs["deleted"])
    assert blocked.pop(Path("trajectory", "bessel.bin"))
    assert blocked.keys() == deleted.keys()
    for name in blocked:
        assert blocked[name] == deleted[name], name


# a CLI process that prints its traced peak and the scipy modules it loaded
_TRACED = ('import sys, tracemalloc; from nlslab.cli import main; tracemalloc.start(); '
           'code = main(sys.argv[1:]); peak = tracemalloc.get_traced_memory()[1]; '
           'print(peak, [m for m in sys.modules if m.startswith("scipy")]); sys.exit(code)')


@pytest.mark.parametrize("dimension", [5, 7])
def test_odd_n_store_is_verified_without_scipy(tmp_path, dimension):
    """verify of an odd-n store adopts its Bessel table and certifies its
    kernel.bin against the closed-form modes, so it loads no scipy module
    and runs where scipy cannot be imported, into the bytes of a verify
    whose table was deleted and computed by scipy."""
    doc = dict(SMALL_SCENARIO_N5, scenario_id=f"test-small-n{dimension}", dimension=dimension,
               analysis={"certify_resolution": False})
    cfg_path = write_config(tmp_path, doc)
    honest = tmp_path / "honest"
    for command in (["simulate", "--config", str(cfg_path)],
                    ["analyze", "--config", str(cfg_path)]):
        assert main([*command, "--out", str(honest)]) == EXIT_OK
    runs = {name: tmp_path / name for name in ("blocked", "traced", "deleted")}
    for out in runs.values():
        shutil.copytree(honest, out)
    _delete_table(runs["deleted"] / "trajectory")
    _cold_caches()
    assert main(["verify", "--out", str(runs["deleted"])]) == EXIT_OK
    env = dict(os.environ, PYTHONPATH=str(Path(nlslab.__file__).resolve().parents[1]))
    for name, code in (("blocked", _NO_SCIPY), ("traced", _TRACED)):
        proc = subprocess.run([sys.executable, "-c", code, "verify", "--out", str(runs[name])],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "rejected" not in proc.stderr
    assert proc.stdout.splitlines()[-1].split(" ", 1)[1] == "[]"
    deleted = _files(runs["deleted"])
    for name in ("blocked", "traced"):
        files = _files(runs[name])
        assert files.pop(Path("trajectory", "bessel.bin"))
        assert files == deleted


def test_n3_store_is_read_without_scipy_or_an_n_by_n_array(tmp_path):
    """analyze (the propagator self-test, every report table and, when
    certified, the resolution twins) and verify of an n = 3 store take
    their transforms by FFT: they load no scipy and allocate less than one
    N x N array of floats, about 8 MB here."""
    n = 1024
    doc = dict(SMALL_SCENARIO, grid={"n_points": n, "r_max": 32.0},
               time={"t_minus": 0.0, "t_plus": 0.05, "dt": 2e-3, "snapshot_stride": 5},
               analysis={"certify_resolution": False})
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    env = dict(os.environ, PYTHONPATH=str(Path(nlslab.__file__).resolve().parents[1]))
    # no BLAS pin: budget 1, so the twins run in the traced process
    for pin in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(pin, None)
    certified = ["--override", "analysis.certify_resolution=true"]
    for command in (["analyze", "--config", str(cfg_path)],
                    ["analyze", "--config", str(cfg_path), *certified], ["verify"]):
        proc = subprocess.run([sys.executable, "-c", _TRACED, *command, "--out", str(out)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        peak, modules = proc.stdout.splitlines()[-1].split(" ", 1)
        assert modules == "[]", command
        assert int(peak) < 8 * n * n, command
    # verify read the certified report
    assert read_json(out / "report.json")["resolution_certification"]["measured_order"] > 1.5


def test_bessel_table_cache_is_bounded():
    maxsize = _table_slot.cache_info().maxsize
    for n in range(16, 20 + maxsize):
        bessel_table(4, n)
    assert _table_slot.cache_info().currsize == maxsize


def test_save_removes_snapshots_of_a_longer_run(tmp_path):
    """Re-simulating into a store at a coarser stride leaves exactly the
    files of a fresh store, and loads the shorter run's rows."""
    free = str(Path(__file__).resolve().parents[1] / "scenarios" / "free-n3.json")
    args = ["--config", free, "--override", "grid.n_points=64", "--override", "grid.r_max=16"]
    for stride, out in ((1, "reused"), (10, "reused"), (10, "fresh")):
        assert main(["simulate", *args, "--override", f"time.snapshot_stride={stride}",
                     "--out", str(tmp_path / out)]) == EXIT_OK
    reused, fresh = _files(tmp_path / "reused"), _files(tmp_path / "fresh")
    assert reused == fresh
    back = load_trajectory(tmp_path / "reused" / "trajectory")
    assert back.values.shape == (101, 64)          # not the 1,001 rows of stride 1
    assert np.array_equal(back.values, load_trajectory(tmp_path / "fresh" / "trajectory").values)


@pytest.mark.parametrize("scenario,extra", [
    (SMALL_SCENARIO, ["bessel.bin"]),
    (SMALL_SCENARIO_N5, ["bessel.bin", "kernel.bin"]),
], ids=["n3", "n5"])
def test_store_holds_one_snapshot_array(tmp_path, scenario, extra):
    """A store is its metadata, one (S, N) snapshot array and the grid's
    table (odd n) and kernel (n != 3), however many snapshots it holds."""
    cfg_path = write_config(tmp_path, scenario)
    store = tmp_path / "run" / "trajectory"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == EXIT_OK
    assert sorted(p.name for p in store.iterdir()) == sorted(
        ["metadata.json", "snapshots.bin", *extra])
    n_points = scenario["grid"]["n_points"]
    rows = len(read_json(store / "metadata.json")["times"])
    assert (store / "snapshots.bin").stat().st_size == rows * n_points * 16


def _truncate_snapshots(store):
    path = store / "snapshots.bin"
    path.write_bytes(path.read_bytes()[:-16])


def _append_bytes(store):
    # half a sample past the last row, which a whole-sample read would drop
    with open(store / "snapshots.bin", "ab") as f:
        f.write(bytes(8))


def _per_row_files(store):
    # the layout of a store written one file per snapshot row
    rows = np.fromfile(store / "snapshots.bin", dtype="<c16").reshape(26, 192)
    (store / "snapshots.bin").unlink()
    for i, row in enumerate(rows):
        (store / f"snapshot_{i:06d}.bin").write_bytes(row.tobytes())


def _metadata(edit):
    """The damage that applies ``edit`` to the store's metadata."""
    def damage(store):
        meta = read_json(store / "metadata.json")
        edit(meta)
        write_json(store / "metadata.json", meta)
    return damage


def _unreadable(field, error):
    return f"has an unreadable metadata field {field!r} ({error})"


@pytest.mark.parametrize("damage,message", [
    (_truncate_snapshots, "holds 79856 bytes in snapshots.bin, not 26 x 192 x 16"),
    (_append_bytes, "holds 79880 bytes in snapshots.bin, not 26 x 192 x 16"),
    (_per_row_files, "holds 0 bytes in snapshots.bin, not 26 x 192 x 16"),
    (_metadata(lambda m: m.update(format_version=2)), "has format version 2, not 1"),
    (_metadata(lambda m: m["grid"].update(kind="chebyshev")),
     "has grid kind 'chebyshev', not 'bessel'"),
    (_metadata(lambda m: m.pop("times")), _unreadable("times", "KeyError: 'times'")),
    (_metadata(lambda m: m.pop("grid")), _unreadable("grid.kind", "KeyError: 'grid'")),
    (_metadata(lambda m: m.pop("config")), _unreadable("config", "KeyError: 'config'")),
    (_metadata(lambda m: m.pop("series")), _unreadable("series.mass", "KeyError: 'series'")),
    (_metadata(lambda m: m["grid"].update(n_points="x")),
     _unreadable("grid.n_points", "ValueError: invalid literal for int() with base 10: 'x'")),
    (_metadata(lambda m: m["config"].update(extra=1)), _unreadable(
        "config",
        "TypeError: EvolutionConfig.__init__() got an unexpected keyword argument 'extra'")),
    (_metadata(lambda m: m["times"].reverse()),
     _unreadable("times", "ValueError: snapshot times must be strictly increasing")),
    (_metadata(lambda m: m["series"]["mass"].pop()), _unreadable(
        "series.mass", "ValueError: cannot reshape array of size 25 into shape (26,)")),
    (lambda store: write_json(store / "metadata.json", []), _unreadable(
        "format_version", "TypeError: list indices must be integers or slices, not str")),
    (_metadata(lambda m: m["config"].update(dimension=5)),
     "has config dimension 5, not its grid's 3"),
], ids=["truncated", "trailing-bytes", "per-row-files", "format-2", "grid-kind", "no-times",
        "no-grid", "no-config", "no-series", "n-points-x", "unknown-config-key",
        "reversed-times", "short-series", "not-an-object", "config-dimension"])
def test_unreadable_store_exits_2_and_writes_nothing(tmp_path, capsys, damage, message):
    """analyze and verify of a store of another format version, layout or
    grid kind, of a snapshot array of the wrong size, or with a metadata
    field missing or unreadable, exit 2 with a message that names the store
    and says to re-run simulate, and write nothing."""
    cfg_path = write_config(tmp_path, SMALL_SCENARIO)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    damage(out / "trajectory")
    before = _files(out)
    capsys.readouterr()
    for args in (["analyze", "--config", str(cfg_path)], ["verify"]):
        assert main([*args, "--out", str(out)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err == (f"configuration error: trajectory store {out / 'trajectory'} "
                       f"{message}; re-run simulate\n")
    assert _files(out) == before


def test_unexceptional_interval_reports_a_nest_that_verify_checks(tmp_path):
    """With eta above the total critical mass the one interval is a tail
    whose linear flows stay below the threshold eta^c1, so the report
    carries a non-empty nest and verify checks its invariants."""
    scenario = dict(SMALL_SCENARIO, analysis={"certify_resolution": False, "eta": 0.3})
    cfg_path = write_config(tmp_path, scenario)
    out = tmp_path / "run"
    for cmd in ("simulate", "analyze"):
        assert main([cmd, "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    block = read_json(out / "report.json")["concentration"]
    assert block["total_critical_mass"] < block["eta"] == 0.3
    assert block["decomposition"]["exceptional"] == [False]
    assert block["nest"] == {"t_star": 0.125, "chain": [0], "depth": 1, "achieved_kappa": 0.0,
                             "kappa_tolerance": 25.0, "half_factor": 0.5, "violations": []}
    assert main(["verify", "--out", str(out)]) == EXIT_OK
    checks = read_json(out / "verification.json")["checks"]
    assert [c["passed"] for c in checks if c["check"] == "nest_invariants"] == [True]


def _cli(threads, *args):
    """Run the CLI from this checkout's ``src/`` at a BLAS thread count."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS=str(threads))
    subprocess.run([sys.executable, "-m", "nlslab.cli", *args], env=env, check=True,
                   capture_output=True)


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
REFERENCE_CONFIG = str(SCENARIOS / "reference-defocusing-n3.json")


def _files(directory: Path) -> dict:
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def test_analyze_and_verify_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The n = 3 reference scenario is simulated, analyzed and verified at
    one and at two BLAS threads into identical bytes, store included: its
    kernel is a closed form, where an SVD's last bits would depend on the
    thread count at this grid size."""
    overrides = ["--override", "time.t_plus=0.2", "--override", "grid.n_points=688"]
    for threads in (1, 2):
        out = str(tmp_path / f"t{threads}")
        _cli(threads, "simulate", "--config", REFERENCE_CONFIG, "--out", out, *overrides)
        _cli(threads, "analyze", "--config", REFERENCE_CONFIG, "--out", out, *overrides)
        _cli(threads, "verify", "--out", out)
    one, two = _files(tmp_path / "t1"), _files(tmp_path / "t2")
    assert Path("trajectory", "metadata.json") in one
    assert Path("trajectory", "kernel.bin") not in one
    assert one.keys() == two.keys()
    for name in one:
        assert one[name] == two[name], name


def test_stored_factor_keeps_analyze_and_verify_bytes_across_blas_threads(tmp_path):
    """An n = 5 store written at one BLAS thread is analyzed and verified
    at one and at two threads into identical bytes: both adopt the stored
    polar factor instead of recomputing its SVD, whose last bits depend on
    the thread count from N = 400 on at r_max = 32."""
    overrides = ["--override", "dimension=5", "--override", "time.t_plus=0.2",
                 "--override", "grid.n_points=400"]
    _cli(1, "simulate", "--config", REFERENCE_CONFIG, "--out", str(tmp_path / "t1"), *overrides)
    assert (tmp_path / "t1" / "trajectory" / "kernel.bin").is_file()
    shutil.copytree(tmp_path / "t1", tmp_path / "t2")
    for threads in (1, 2):
        out = str(tmp_path / f"t{threads}")
        _cli(threads, "analyze", "--config", REFERENCE_CONFIG, "--out", out, *overrides)
        _cli(threads, "verify", "--out", out)
    for name in ("report.json", "verification.json"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()


# ---------------------------------------------------------------------------
# scenario machinery


def test_scenario_validation_lists_all_violations():
    with pytest.raises(ScenarioError) as err:
        normalize_scenario(
            {
                "dimension": 2,
                "mu": 5,
                "grid": {"n_points": 4, "r_max": -1},
                "time": {"dt": -0.1},
                "initial_data": {"family": "squarewell"},
            }
        )
    text = "; ".join(err.value.violations)
    for needle in ("dimension", "mu", "n_points", "r_max", "dt", "family"):
        assert needle in text
    assert len(err.value.violations) >= 6


def test_report_deterministic_bytes(small_run):
    again = run_scenario(SMALL_SCENARIO)
    assert canonical_json(small_run.report) == canonical_json(again.report)


def test_check_names_equal_in_memory_and_read_back(small_run):
    # integral exponents read back from report.json as floats (10.0) or, from
    # older reports, as ints (10); the check names must not tell them apart
    read_back = json.loads(canonical_json(small_run.report))
    names = [c["check"] for c in verify_report(small_run.report)]
    assert any(name.startswith("admissible(") for name in names)
    assert names == [c["check"] for c in verify_report(read_back)]


def test_zero_amplitude_scenario_all_zero():
    scenario = json.loads(json.dumps(SMALL_SCENARIO))
    scenario["scenario_id"] = "test-zero"
    scenario["initial_data"]["amplitude"] = 0.0
    scenario["analysis"]["certify_resolution"] = False
    result = run_scenario(scenario)
    rep = result.report
    assert rep["status"] == "complete"
    assert max(rep["conserved"]["mass"]) == 0.0
    conc = rep["concentration"]
    assert conc["total_critical_mass"] == 0.0
    d = conc["decomposition"]
    assert d["tail_flag"] and len(d["masses"]) == 1
    assert conc["bubbles"] == []


def test_free_scenario_flow_ratios_one():
    scenario = json.loads(json.dumps(SMALL_SCENARIO))
    scenario["scenario_id"] = "test-free"
    scenario["mu"] = 0
    scenario["analysis"]["certify_resolution"] = False
    rep = run_scenario(scenario).report
    for row in rep["concentration"]["flow_comparisons"]:
        if "ratios" in row:
            assert abs(row["ratios"][0] - 1.0) < 1e-6
            assert abs(row["ratios"][1] - 1.0) < 1e-6
    assert rep["duhamel"][0]["residual"] < 1e-9


def test_build_report_takes_one_coefficient_pass(monkeypatch):
    # the strichartz gradient, the identity's u_r, the endpoint linear
    # flows and the Duhamel linear term all read traj.coefficients
    from nlslab.scenario import build_report, evolve_scenario
    from nlslab.transform import SpectralTransform

    s, traj = evolve_scenario(SMALL_SCENARIO)
    original = SpectralTransform.coefficients
    passes = []

    def counted(self, values, *cast):
        if np.shares_memory(values, traj.values):
            passes.append(np.shape(values))
        return original(self, values, *cast)

    monkeypatch.setattr(SpectralTransform, "coefficients", counted)
    build_report(s, traj)
    assert passes == [traj.values.shape]


def test_hardy_table_reuses_the_initial_energy(monkeypatch):
    from nlslab import functionals
    from nlslab.scenario import build_report, evolve_scenario

    s, traj = evolve_scenario(dict(SMALL_SCENARIO, analysis={"certify_resolution": False}))

    def refuse(*args, **kwargs):
        raise AssertionError("the hardy table must read energy_series[0]")

    monkeypatch.setattr(functionals, "energy", refuse)
    hardy = build_report(s, traj)["hardy"]
    assert len(hardy["rows"]) == 3 and hardy["sweep_sup"] > 0
    monkeypatch.undo()
    e0 = functionals.energy(traj.grid, traj.values[0], traj.config.mu).total
    assert hardy["rows"][0]["ratio"] == functionals.hardy_ratio(traj.grid, traj.values[0], 1.0, e0)


def test_verify_report_all_pass(small_run):
    checks = verify_report(small_run.report)
    failures = [c for c in checks if not c["passed"]]
    assert not failures, failures


# ---------------------------------------------------------------------------
# CLI


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    write_json(path, doc)
    return path


def test_cli_simulate_analyze_verify(tmp_path, capsys):
    cfg_path = write_config(tmp_path, SMALL_SCENARIO)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    assert (out / "trajectory" / "metadata.json").exists()
    assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    assert (out / "report.json").exists()
    assert (out / "series" / "conserved.csv").exists()
    assert main(["verify", "--out", str(out)]) == EXIT_OK
    assert (out / "verification.json").exists()
    assert main(["export-plots", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()


def test_cli_simulate_builds_no_report(tmp_path, monkeypatch):
    from nlslab import cli, scenario

    def refuse(*args, **kwargs):
        raise AssertionError("simulate must not build a report")

    monkeypatch.setattr(scenario, "build_report", refuse)
    monkeypatch.setattr(cli, "build_report", refuse)
    cfg_path = write_config(tmp_path, SMALL_SCENARIO)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    assert (out / "trajectory" / "metadata.json").exists()
    assert not (out / "report.json").exists()


def test_cli_override_and_config_error(tmp_path):
    cfg_path = write_config(tmp_path, SMALL_SCENARIO)
    out = tmp_path / "run2"
    code = main(
        [
            "simulate",
            "--config", str(cfg_path),
            "--out", str(out),
            "--override", "grid.n_points=-5",
        ]
    )
    assert code == EXIT_CONFIG_ERROR


@pytest.mark.parametrize("n,n_points,r_max", [(4, 16, 16.0), (10, 512, 8.0), (3, 256, 1000.0)])
def test_cli_unresolvable_grid_is_config_error(tmp_path, capsys, n, n_points, r_max):
    cfg_path = write_config(tmp_path, SMALL_SCENARIO)
    out = tmp_path / "run"
    overrides = [f"dimension={n}", f"grid.n_points={n_points}", f"grid.r_max={r_max}"]
    args = ["simulate", "--config", str(cfg_path), "--out", str(out)]
    assert main(args + [a for o in overrides for a in ("--override", o)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "configuration error" in err and "enlarge r_max" in err
    assert not out.exists()


def test_cli_missing_config(tmp_path):
    assert (
        main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        == EXIT_CONFIG_ERROR
    )


def test_cli_blowup_exit_code(tmp_path):
    cfg_path = write_config(tmp_path, _blowup_scenario())
    out = tmp_path / "blow"
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert code == EXIT_RUNTIME_ALARM


def _blowup_scenario():
    scenario = json.loads(json.dumps(SMALL_SCENARIO))
    scenario["scenario_id"] = "test-blowup"
    scenario["mu"] = -1
    scenario["initial_data"]["amplitude"] = 3.0
    scenario["grid"]["n_points"] = 256
    scenario["time"]["t_plus"] = 0.5
    scenario["evolution"] = {"energy_drift_alarm": 1e30, "blowup_grad_factor": 10.0}
    scenario["analysis"]["certify_resolution"] = False
    return scenario


@pytest.mark.parametrize("scenario,code", [
    pytest.param(_blowup_scenario(), EXIT_RUNTIME_ALARM, id="aborted-blowup"),
    pytest.param(SMALL_SCENARIO, EXIT_OK, id="complete"),
])
def test_report_blowup_block_is_the_stored_record(tmp_path, scenario, code):
    # analyze without a store writes both from the evolution; analyze of a
    # store reports the record that it loads
    cfg_path = write_config(tmp_path, scenario)
    fresh, stored = tmp_path / "fresh", tmp_path / "stored"
    assert main(["analyze", "--config", str(cfg_path), "--out", str(fresh)]) == code
    assert main(["simulate", "--config", str(cfg_path), "--out", str(stored)]) == code
    assert main(["analyze", "--config", str(cfg_path), "--out", str(stored)]) == code
    for out in (fresh, stored):
        block = read_json(out / "report.json")["blowup"]
        assert canonical_json(block) == canonical_json(
            read_json(out / "trajectory" / "metadata.json")["blowup"])
    assert block["flagged"] == (code == EXIT_RUNTIME_ALARM)


@pytest.mark.parametrize("n_points", [MAX_POINTS + 1, 2**40])
def test_cli_rejects_a_grid_over_the_memory_budget(tmp_path, capsys, monkeypatch, n_points):
    def refuse(*args):
        raise AssertionError("an over-budget grid must not be built")

    monkeypatch.setattr(scenario_module, "make_spectral_grid", refuse)
    cfg_path = write_config(tmp_path, SMALL_SCENARIO)
    out = tmp_path / "run"
    started = time.perf_counter()
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out),
                 "--override", f"grid.n_points={n_points}"])
    assert time.perf_counter() - started < 0.2
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "grid.n_points" in err and "GB" in err and str(MAX_POINTS) in err
    assert not out.exists()


def test_cli_rejects_a_span_of_fewer_than_three_snapshots(tmp_path, capsys, monkeypatch):
    """Ten steps at stride 10 record two snapshots, and the analysis takes
    time derivatives over three: the span exits 2 before a grid is built."""
    def refuse(*args):
        raise AssertionError("a span of two snapshots must not build a grid")

    monkeypatch.setattr(scenario_module, "make_spectral_grid", refuse)
    out = tmp_path / "run"
    started = time.perf_counter()
    code = main(["analyze", "--config", REFERENCE_CONFIG, "--out", str(out),
                 "--override", "grid.n_points=256", "--override", "time.t_plus=0.01"])
    assert time.perf_counter() - started < 0.2
    assert code == EXIT_CONFIG_ERROR
    assert "time span records 2 snapshots" in capsys.readouterr().err
    assert not out.exists()


def test_cli_rejects_a_step_count_that_is_not_finite(tmp_path, capsys, monkeypatch):
    """A dt so small that span / dt overflows exits 2 before a grid is
    built, where evolve would fail to size its snapshot array."""
    def refuse(*args):
        raise AssertionError("a span of infinitely many steps must not build a grid")

    monkeypatch.setattr(scenario_module, "make_spectral_grid", refuse)
    out = tmp_path / "run"
    overrides = ["grid.n_points=64", "grid.r_max=8", "time.t_plus=0.2", "time.dt=1e-320"]
    code = main(["simulate", "--config", str(SCENARIOS / "free-n3.json"), "--out", str(out),
                 *(a for o in overrides for a in ("--override", o))])
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == ("configuration error: time.dt: span 0.2 at dt 1e-320 "
                                       "is not a finite number of steps\n")
    assert not out.exists()


def test_cli_rejects_a_snapshot_array_over_the_budget(tmp_path, capsys, monkeypatch):
    """A dt of 1e-12 over a span of 0.2 records 2e10 snapshots of 64
    points, 18.6 TiB: it exits 2, stating the bytes and the budget of
    32 MAX_POINTS^2, before a grid is built or anything is written."""
    def refuse(*args):
        raise AssertionError("an over-budget snapshot array must not build a grid")

    monkeypatch.setattr(scenario_module, "make_spectral_grid", refuse)
    out = tmp_path / "run"
    overrides = ["grid.n_points=64", "grid.r_max=8", "time.t_plus=0.2", "time.dt=1e-12"]
    started = time.perf_counter()
    code = main(["simulate", "--config", str(SCENARIOS / "free-n3.json"), "--out", str(out),
                 *(a for o in overrides for a in ("--override", o))])
    assert time.perf_counter() - started < 0.2
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert f"{20_000_000_001 * 64 * 16} bytes" in err and f"{32 * MAX_POINTS**2} bytes" in err
    assert not out.exists()


def test_cli_rejects_a_dimension_outside_the_range(tmp_path, capsys):
    """At n = 61 the Bessel zeros would be wrong: simulate exits 2 with the
    range and the grid hint, and writes nothing."""
    out = tmp_path / "run"
    overrides = ["dimension=61", "grid.n_points=64", "grid.r_max=64"]
    code = main(["simulate", "--config", str(SCENARIOS / "free-n3.json"), "--out", str(out),
                 *(a for o in overrides for a in ("--override", o))])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "dimension 61 is outside 3..41" in err and "lower dimension" in err
    assert not out.exists()


def test_analyze_of_a_store_of_another_scenario_exits_2(tmp_path, capsys):
    """analyze --config X of a store that X did not produce exits 2, naming
    each field that differs, and writes nothing; an analysis knob may
    differ, so the store's own scenario with another eta still runs."""
    out = tmp_path / "run"
    store_args = ["--config", str(SCENARIOS / "free-n3.json"), "--out", str(out),
                  "--override", "grid.n_points=256", "--override", "time.t_plus=0.2"]
    assert main(["simulate", *store_args]) == EXIT_OK
    before = _files(out)
    capsys.readouterr()
    assert main(["analyze", "--config", REFERENCE_CONFIG, "--out", str(out)]) == EXIT_CONFIG_ERROR
    store = out / "trajectory"
    assert capsys.readouterr().err == "".join(
        f"configuration error: {path} is {want}, but the trajectory store {store} was evolved "
        f"with {have}\n"
        for path, want, have in (("mu", 1, 0), ("grid.n_points", 1024, 256),
                                 ("time.t_plus", 1.0, 0.2)))
    assert _files(out) == before
    assert main(["analyze", *store_args, "--override", "analysis.eta=0.01"]) == EXIT_OK
    assert read_json(out / "report.json")["concentration"]["eta"] == 0.01


FREE_STORE_ARGS = ["--config", str(SCENARIOS / "free-n3.json"),
                   "--override", "grid.n_points=256", "--override", "time.t_plus=0.2"]


@pytest.fixture(scope="module")
def free_run(tmp_path_factory):
    """A free-n3 run at N = 256 over [0, 0.2]: its store, report and verdict."""
    out = tmp_path_factory.mktemp("free") / "run"
    for command in ("simulate", "analyze"):
        assert main([command, *FREE_STORE_ARGS, "--out", str(out)]) == EXIT_OK
    return out


def _failed_checks(out: Path) -> list:
    return [(c["check"], c["section"])
            for c in read_json(out / "verification.json")["checks"] if not c["passed"]]


@pytest.mark.parametrize("path,value,named", [
    ("mu", 1, "mu is 1, but the trajectory store"),
    ("grid.n_points", 512, "grid.n_points is 512, but the trajectory store"),
    ("mu", 2, "mu must be the integer -1, 0, or +1, got 2"),
    ("analysis.bubble_fraction", 0.25, None),
], ids=["mu", "n_points", "invalid-mu", "analysis-knob"])
def test_verify_compares_the_reports_scenario_with_the_store(tmp_path, capsys, free_run,
                                                             path, value, named):
    """An edit of the report's scenario that the store contradicts, or that
    is not a valid scenario, fails one check in section scenario, naming
    the field; the analysis knobs are not compared."""
    out = tmp_path / "run"
    shutil.copytree(free_run, out)
    report = read_json(out / "report.json")
    *outer, leaf = path.split(".")
    section = report["scenario"]
    for key in outer:
        section = section[key]
    section[leaf] = value
    write_json(out / "report.json", report)
    capsys.readouterr()
    code = main(["verify", "--out", str(out)])
    printed = capsys.readouterr().out
    if named is None:
        assert code == EXIT_OK and _failed_checks(out) == []
        return
    assert code == EXIT_VERIFY_FAILED
    assert _failed_checks(out) == [("scenario_matches_store", "scenario")]
    assert "[FAIL] scenario_matches_store" in printed and named in printed
    assert "(report section: scenario)" in printed


def test_verify_fails_a_report_over_a_store_simulated_again_from_another_scenario(
        tmp_path, capsys, free_run):
    out = tmp_path / "run"
    shutil.copytree(free_run, out)
    assert main(["verify", "--out", str(out)]) == EXIT_OK
    assert main(["simulate", *FREE_STORE_ARGS, "--override", "mu=1", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == EXIT_VERIFY_FAILED
    assert _failed_checks(out) == [("scenario_matches_store", "scenario")]
    assert "mu is 0, but the trajectory store" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["verify", "--seed", "1"],
    ["verify", "--override", "mu=0"],
    ["export-plots", "--seed", "1"],
    ["export-plots", "--override", "mu=0"],
    ["simulate", "--config", "scenario.json", "--seed", "1"],
])
def test_a_flag_that_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, argv):
    """Each subcommand takes only the flags it reads; argparse exits 2."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("config,overrides,path", [
    pytest.param(dict(SMALL_SCENARIO, dimensoin=5), [], "dimensoin", id="top-level-typo"),
    pytest.param(SMALL_SCENARIO, ["grid.npoints=128"], "grid.npoints", id="grid-npoints"),
    pytest.param(SMALL_SCENARIO, ["analysis.tolerances.mass_drfit=1e-9"],
                 "analysis.tolerances.mass_drfit", id="tolerance-typo"),
    pytest.param(read_json(SCENARIOS / "sweep-families-n3.json"), [], "scenarios",
                 id="sweep-document"),
])
def test_cli_unknown_scenario_field_exits_2(tmp_path, capsys, config, overrides, path):
    """A field that the scenario defaults do not name is a configuration
    error that names its path, and simulate writes nothing."""
    cfg_path = write_config(tmp_path, config)
    out = tmp_path / "run"
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out),
                 *(a for o in overrides for a in ("--override", o))])
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"configuration error: {path} is not a scenario field\n"
    assert not out.exists()


def test_interval_without_a_snapshot_is_an_error_entry(tmp_path):
    """A greedy interval that falls between two snapshots gets an error
    entry in ``bubbles``, as in ``flow_comparisons``; neither analyze nor
    verify crashes on it, and verify checks no bubble there."""
    doc = {"dimension": 12, "mu": 0, "grid": {"n_points": 64, "r_max": 8.0},
           "time": {"t_minus": -0.5, "t_plus": -0.2, "dt": 0.005, "snapshot_stride": 2},
           "initial_data": {"family": "ring", "amplitude": 1.0, "width": 5.0, "center": 0.1},
           "analysis": {"c1": 10.0, "morawetz_eps": [10.0], "certify_resolution": False}}
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    bubbles = read_json(out / "report.json")["concentration"]["bubbles"]
    assert {"interval": 8, "error": "interval contains no snapshot"} in bubbles
    assert main(["verify", "--out", str(out)]) in (EXIT_OK, EXIT_VERIFY_FAILED)
    names = [c["check"] for c in read_json(out / "verification.json")["checks"]]
    assert "bubble(interval=8)" not in names and "bubble(interval=7)" in names


def test_exactly_agreeing_twins_measure_no_order(tmp_path):
    """Zero initial data stays zero, so the coarse twins agree exactly: the
    certificate writes a null order with a note, not an inf that JSON
    cannot hold, and verify adds no order check for it."""
    out = tmp_path / "run"
    args = ["--config", REFERENCE_CONFIG, "--out", str(out), "--override",
            "grid.n_points=256", "--override", "initial_data.amplitude=0"]
    assert main(["analyze", *args]) == EXIT_OK
    cert = read_json(out / "report.json")["resolution_certification"]
    assert cert["self_difference_fine"] == cert["self_difference_coarse"] == 0.0
    assert cert["measured_order"] is None and "agree exactly" in cert["note"]
    assert main(["verify", "--out", str(out)]) in (EXIT_OK, EXIT_VERIFY_FAILED)
    names = [c["check"] for c in read_json(out / "verification.json")["checks"]]
    assert "resolution_order" not in names and "mass_conservation" in names


def test_fft_twins_measure_the_order_of_dense_twins(small_run, monkeypatch):
    """At n = 3 the coarse twins step by FFT; twins on the dense step
    operator, which the stored run takes, measure the same order."""
    traj, fft = small_run.trajectory, small_run.report["resolution_certification"]
    monkeypatch.setattr(scenario_module, "evolve", lambda *args, pinned: evolve(*args, pinned=True))
    dense = scenario_module._certify_resolution(
        traj, [scenario_module._twin_final(traj, f) for f in scenario_module._TWIN_FACTORS])
    assert dense["measured_order"] == pytest.approx(fft["measured_order"], rel=1e-7, abs=0)
    for key in ("self_difference_fine", "self_difference_coarse"):
        assert dense[key] == pytest.approx(fft[key], rel=1e-7, abs=0), key


def test_non_finite_morawetz_ratio_is_null_and_fails_verify(tmp_path, capsys):
    """A focusing ring of amplitude 50 has negative energy, so its Morawetz
    ratios do not fit a float: analyze writes them as null instead of
    exiting 4, and verify fails each of those checks, naming the report
    section it read."""
    doc = {"dimension": 6, "mu": -1, "grid": {"n_points": 100, "r_max": 32.0},
           "time": {"t_minus": -0.5, "t_plus": -0.2, "dt": 0.01, "snapshot_stride": 5},
           "initial_data": {"family": "ring", "amplitude": 50.0, "width": 5.0, "center": 4.0},
           "analysis": {"morawetz_eps": [10.0], "identity_eps": 100.0}}
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) != EXIT_INTERNAL_ERROR
    rows = read_json(out / "report.json")["morawetz"]["rows"]
    assert [row["ratio"] for row in rows] == [None, None, None]
    assert all(math.isfinite(row["lhs"]) for row in rows)
    capsys.readouterr()
    assert main(["verify", "--out", str(out)]) == EXIT_VERIFY_FAILED
    checks = read_json(out / "verification.json")["checks"]
    morawetz = [c for c in checks if c["check"].startswith("morawetz_ratio")]
    assert len(morawetz) == 3
    assert all(not c["passed"] and c["measured"] is None and c["section"] == "morawetz"
               for c in morawetz)
    printed = capsys.readouterr().out
    assert "[FAIL] morawetz_ratio(A=1): measured=None bound=0.5 (report section: morawetz)" in printed


def test_report_rows_are_their_records(small_run):
    """Each of these report entries is its diagnostic's record, key for key
    and in order: a mass_flux row adds only its tolerance, the exceptional
    block drops only the per-interval flags, which the decomposition
    carries, and the decomposition drops only eta, which the block holds."""
    report, analysis = small_run.report, small_run.report["scenario"]["analysis"]

    def names(record, *dropped):
        return [f.name for f in dataclasses.fields(record) if f.name not in dropped]

    assert [list(row) for row in report["mass_flux"]["rows"]] == [
        names(FluxReport) + ["tolerance"]] * len(analysis["mass_radii"])
    assert [list(row) for row in report["morawetz"]["rows"]] == [
        names(MorawetzReport)] * len(analysis["morawetz_A"])
    block = report["concentration"]
    assert list(block["exceptional"]) == names(ExceptionalReport, "flags")
    assert list(block["decomposition"]) == names(IntervalDecomposition, "eta")


def test_every_check_names_its_report_section(small_run):
    """Each verify check carries ``section``, a key of the report it reads."""
    checks = verify_report(small_run.report)
    assert checks and all(c["section"] in small_run.report for c in checks)
    by_name = {c["check"]: c["section"] for c in checks}
    assert by_name["mass_conservation"] == "conserved"
    assert by_name["weight_positivity"] == "scenario"
    assert by_name["resolution_order"] == "resolution_certification"


def test_cli_corrupted_snapshot_fails_verify(tmp_path):
    cfg_path = write_config(tmp_path, SMALL_SCENARIO_N5)
    out = tmp_path / "tamper"
    assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    assert (out / "trajectory" / "kernel.bin").is_file()
    # inject mass into one stored snapshot, row 3 of the array
    victim = out / "trajectory" / "snapshots.bin"
    n_points = SMALL_SCENARIO_N5["grid"]["n_points"]
    vals = np.fromfile(victim, dtype="<c16").reshape(-1, n_points)
    vals[3] += 0.05
    vals.tofile(victim)
    assert main(["verify", "--out", str(out)]) == EXIT_VERIFY_FAILED
    checks = read_json(out / "verification.json")["checks"]
    mass_check = next(c for c in checks if c["check"] == "mass_conservation")
    assert not mass_check["passed"]
    assert mass_check["measured"] > 1e-3      # the injected magnitude is visible


def test_cli_file_initial_data_is_read_bit_exact(tmp_path):
    # the decoder hands back a read-only view of the file's bytes
    g = make_spectral_grid(3, 192, 16.0)
    blob = np.asarray(gaussian_field(g).values * (1 - 0.5j), "<c16").tobytes()
    (tmp_path / "u0.bin").write_bytes(blob)
    scenario = json.loads(json.dumps(SMALL_SCENARIO))
    scenario["initial_data"] = {"family": "file", "path": str(tmp_path / "u0.bin")}
    scenario["time"]["t_plus"] = 0.02
    cfg_path = write_config(tmp_path, scenario)
    out = tmp_path / "file"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    assert (out / "trajectory" / "snapshots.bin").read_bytes()[:len(blob)] == blob


def test_cli_import_leaves_interpolation_unloaded():
    # nothing in nlslab interpolates; scipy.special is imported where a
    # Bessel table or an n != 3 kernel is computed
    src = str(Path(nlslab.__file__).resolve().parents[1])
    code = "import sys, nlslab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_cli_crash_is_internal_error_not_verify_failure(tmp_path, capsys):
    out = tmp_path / "broken"
    out.mkdir()
    report = {"scenario": normalize_scenario(SMALL_SCENARIO), "status": "complete"}
    write_json(out / "report.json", report)  # no "conserved" section
    assert main(["verify", "--out", str(out)]) == EXIT_INTERNAL_ERROR
    assert "internal error: KeyError" in capsys.readouterr().err


def test_cli_sweep(tmp_path):
    doc = {"scenarios": [
        json.loads(json.dumps(SMALL_SCENARIO)),
        json.loads(json.dumps(SMALL_SCENARIO)),
    ]}
    doc["scenarios"][0]["scenario_id"] = "sweep-a"
    doc["scenarios"][0]["analysis"]["certify_resolution"] = False
    doc["scenarios"][1]["scenario_id"] = "sweep-b"
    doc["scenarios"][1]["initial_data"]["width"] = 1.3
    doc["scenarios"][1]["analysis"]["certify_resolution"] = False
    cfg_path = write_config(tmp_path, doc, "sweep.json")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    assert (out / "sweep-a" / "report.json").exists()
    assert (out / "sweep-b" / "report.json").exists()


def test_cli_grid_not_an_object_is_config_error(tmp_path, capsys):
    doc = dict(json.loads(json.dumps(SMALL_SCENARIO)), grid=5)
    cfg_path = write_config(tmp_path, doc)
    code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert code == EXIT_CONFIG_ERROR
    assert "grid must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("override", [[], ["--override", "mu=0"],
                                      ["--override", "grid.n_points=64"]])
def test_cli_list_config_is_config_error(tmp_path, capsys, override):
    cfg_path = write_config(tmp_path, [SMALL_SCENARIO])
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out), *override]) == (
        EXIT_CONFIG_ERROR
    )
    assert "configuration error" in capsys.readouterr().err


def test_cli_inadmissible_pairs_is_config_error(tmp_path, capsys):
    doc = json.loads(json.dumps(SMALL_SCENARIO))
    doc["analysis"]["admissible_pairs"] = [["inf", 2.0], [3.0, 3.0]]
    cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert "admissible_pairs" in capsys.readouterr().err
    assert not out.exists()                    # rejected before anything ran


@pytest.mark.parametrize("command,section,knob", [
    ("analyze", "analysis", {"c1": "x"}),
    ("analyze", "analysis", {"identity_eps": "x"}),
    ("analyze", "analysis", {"nest_half_factor": 2.0}),
    ("analyze", "analysis", {"tolerances": {"flux_ratio": "x"}}),
    ("analyze", "evolution", {"energy_drift_alarm": -1}),
    ("simulate", None, None),                     # a config file that is not JSON
    # booleans and floats are not integers, even where they compare equal
    ("simulate", None, {"mu": True}),
    ("simulate", None, {"mu": False}),
    ("simulate", None, {"mu": 1.0}),
    ("simulate", "time", {"snapshot_stride": True}),
    ("simulate", "analysis", {"certify_resolution": "no"}),
])
def test_cli_bad_knob_or_json_is_config_error(tmp_path, capsys, command, section, knob):
    if knob is None:
        cfg_path = tmp_path / "scenario.json"
        cfg_path.write_text('{"dimension": 3,', encoding="utf-8")
    else:
        doc = json.loads(json.dumps(SMALL_SCENARIO))
        (doc if section is None else doc.setdefault(section, {})).update(knob)
        cfg_path = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "configuration error" in err and "internal error" not in err
    assert not out.exists()                    # rejected before anything ran


@pytest.mark.parametrize("sid", ["../x", "a/b", "a\\b", "", ".", "..", 7])
def test_scenario_id_must_name_one_directory(sid):
    with pytest.raises(ScenarioError, match="scenario_id"):
        normalize_scenario(dict(SMALL_SCENARIO, scenario_id=sid))


def test_cli_sweep_rejects_escaping_id(tmp_path):
    doc = {"scenarios": [dict(SMALL_SCENARIO, scenario_id="../x")]}
    cfg_path = write_config(tmp_path, doc, "sweep.json")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert not (tmp_path / "x").exists() and not out.exists()


def test_cli_sweep_rejects_duplicate_ids_before_running(tmp_path, monkeypatch, capsys):
    from nlslab import cli

    def refuse(*args, **kwargs):
        raise AssertionError("no scenario may run")

    monkeypatch.setattr(cli, "run_scenario", refuse)
    doc = {"scenarios": [SMALL_SCENARIO, dict(SMALL_SCENARIO, mu=0), dict(SMALL_SCENARIO)]}
    cfg_path = write_config(tmp_path, doc, "sweep.json")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG_ERROR
    assert "'test-small' is used more than once" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# concurrent evolutions: the certificate's coarse twins and a sweep's
# scenarios run in forked workers when the process budget is 2 or more


def _force_budget(monkeypatch, budget):
    """Give ``workers.process_budget`` the inputs of ``budget``: a BLAS pin
    and that many CPUs for 2, no pin for 1 (a worker still gets 1)."""
    from nlslab import workers

    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(key, raising=False)
    if budget > 1:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(budget)))
    assert workers.process_budget() == budget


@pytest.mark.parametrize("env,cpus,in_worker,budget", [
    ({}, 2, False, 1),                                            # BLAS env unset
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, False, 2),                 # pinned, 2 CPUs
    ({"OMP_NUM_THREADS": "1"}, 3, False, 3),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2, False, 1),                 # 2 BLAS threads
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, False, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, True, 1),                  # inside a worker
])
def test_process_budget_rule(monkeypatch, env, cpus, in_worker, budget):
    import multiprocessing

    from nlslab import workers

    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(key, raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(multiprocessing, "parent_process",
                        lambda: object() if in_worker else None)
    assert workers.process_budget() == budget
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert workers.process_budget() == 1                          # no fork
    assert multiprocessing.active_children() == []


def _logged_evolve(monkeypatch, log: Path, fail=None):
    """Record the pid of each ``evolve`` of ``scenario``; a coarse twin
    (dt above the scenario's) fails as ``fail`` says, where given."""
    from nlslab import dynamics, scenario

    base_dt = SMALL_SCENARIO["time"]["dt"]

    def logged(u0, t_minus, t_plus, cfg, provenance=None, *, pinned=True):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {cfg.dt / base_dt:g}\n")
        if cfg.dt > base_dt and fail == "raise":
            raise RuntimeError("injected twin failure")
        if cfg.dt > base_dt and fail == "exit":
            os._exit(1)
        if cfg.dt > base_dt and fail == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        return dynamics.evolve(u0, t_minus, t_plus, cfg, provenance, pinned=pinned)

    monkeypatch.setattr(scenario, "evolve", logged)


def _evolutions(log: Path) -> list:
    """(pid, dt factor) of each logged evolve, in log order."""
    rows = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
    return [(int(pid), factor) for pid, factor in rows]


def _logged_tables(monkeypatch, log: Path, fail=None):
    """Record the pid of each of ``build_report``'s two table tasks; the
    concentration task fails as ``fail`` says, where given."""
    from nlslab import scenario
    from nlslab.grid import TimeRangeError

    def logged(real, name):
        def task(s, traj):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {name}\n")
            if name == "concentration" and fail == "range":
                raise TimeRangeError("injected span failure")
            if name == "concentration" and fail == "exit":
                os._exit(1)
            return real(s, traj)
        return task

    monkeypatch.setattr(scenario, "_inequality_tables",
                        logged(scenario._inequality_tables, "inequality"))
    monkeypatch.setattr(scenario, "_concentration_block",
                        logged(scenario._concentration_block, "concentration"))


# the measured relative energy drifts of SMALL_SCENARIO are 1.0e-6 at dt,
# 4.1e-6 at 2 dt and 1.6e-5 at 4 dt, so each alarm aborts the twins from
# one factor on; without the certificate, the table tasks are forked
@pytest.mark.parametrize("alarm,skipped,certify", [
    pytest.param(alarm, skipped, True, id=f"{alarm}-{skipped}") for alarm, skipped in (
        (None, None),
        (2e-6, "coarse twin at 2x dt aborted: energy drift"),
        (8e-6, "coarse twin at 4x dt aborted: energy drift"),
    )] + [pytest.param(None, None, False, id="uncertified")])
def test_analyze_bytes_equal_at_budget_one_and_two(tmp_path, monkeypatch, capsys, alarm, skipped,
                                                   certify):
    import multiprocessing

    doc = json.loads(json.dumps(SMALL_SCENARIO))
    doc["analysis"]["certify_resolution"] = certify
    if alarm is not None:
        doc["evolution"] = {"energy_drift_alarm": alarm}
    cfg_path = write_config(tmp_path, doc)
    for budget in (1, 2):
        _force_budget(monkeypatch, budget)
        _logged_evolve(monkeypatch, tmp_path / f"evolve{budget}.log")
        _logged_tables(monkeypatch, tmp_path / f"tables{budget}.log")
        out = tmp_path / f"b{budget}"
        assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert multiprocessing.active_children() == []
        monkeypatch.undo()
    serial, forked = _files(tmp_path / "b1"), _files(tmp_path / "b2")
    assert serial.keys() == forked.keys()
    for name in serial:
        assert serial[name] == forked[name], name
    tables = {budget: [line.split() for line in (tmp_path / f"tables{budget}.log").read_text(
        encoding="utf-8").splitlines()] for budget in (1, 2)}
    assert tables[1] == [[str(os.getpid()), "inequality"], [str(os.getpid()), "concentration"]]
    if not certify:
        # at budget 2 each table task runs in a worker of its own
        assert "resolution_certification" not in read_json(tmp_path / "b1" / "report.json")
        assert _evolutions(tmp_path / "evolve2.log") == [(os.getpid(), "1")]
        pids = {int(pid) for pid, _ in tables[2]}
        assert len(pids) == 2 and os.getpid() not in pids
        capsys.readouterr()
        return
    # with the certificate, the tables run in this process at any budget
    assert {int(pid) for pid, _ in tables[2]} == {os.getpid()}
    cert = read_json(tmp_path / "b1" / "report.json")["resolution_certification"]
    if skipped is None:
        assert cert["measured_order"] >= 1.5
    else:
        assert cert["skipped"].startswith(skipped)
    # serially, the twins run in this process after the main evolution, and
    # a 4 dt twin only after a complete 2 dt twin (today's path)
    factors = ["1", "2"] if alarm == 2e-6 else ["1", "2", "4"]
    assert _evolutions(tmp_path / "evolve1.log") == [(os.getpid(), f) for f in factors]
    # at budget 2 both twins start, each in a worker of its own
    twins = [(pid, f) for pid, f in _evolutions(tmp_path / "evolve2.log") if f != "1"]
    assert os.getpid() not in {pid for pid, _ in twins}
    assert len({pid for pid, _ in twins}) == len(twins) >= 1
    capsys.readouterr()


@pytest.mark.parametrize("fail,code,message", [
    ("range", EXIT_CONFIG_ERROR, "configuration error: injected span failure"),
    ("exit", EXIT_INTERNAL_ERROR, "exited with code 1 before sending a result"),
])
def test_failing_table_task_keeps_its_exit_code(tmp_path, monkeypatch, capsys, fail, code, message):
    """At budget 2, an uncertified report's concentration task fails in its
    worker: a span error still exits 2, a worker that dies exits 4, and no
    report is written."""
    import multiprocessing

    doc = dict(SMALL_SCENARIO, analysis={"certify_resolution": False})
    cfg_path = write_config(tmp_path, doc)
    _force_budget(monkeypatch, 2)
    _logged_tables(monkeypatch, tmp_path / "tables.log", fail=fail)
    assert main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == code
    assert multiprocessing.active_children() == []
    err = capsys.readouterr().err
    assert message in err
    if fail == "exit":
        assert "internal error" in err
    assert not (tmp_path / "run" / "report.json").exists()
    pids = {int(line.split()[0]) for line in (tmp_path / "tables.log").read_text(
        encoding="utf-8").splitlines()}
    assert len(pids) == 2 and os.getpid() not in pids


def _sweep_config(tmp_path, count=2, certify=(True, False, False, False)):
    doc = {"scenarios": []}
    for k in range(count):
        one = json.loads(json.dumps(SMALL_SCENARIO))
        one["scenario_id"] = f"sweep-{'abcd'[k]}"
        one["initial_data"]["width"] = 1.0 + 0.1 * k
        one["analysis"]["certify_resolution"] = certify[k]
        doc["scenarios"].append(one)
    return write_config(tmp_path, doc, "sweep.json")


def test_sweep_bytes_equal_at_budget_one_and_two(tmp_path, monkeypatch, capsys):
    """The first scenario certifies its resolution: inside a sweep worker
    its twins run serially (budget 1 in a worker)."""
    import multiprocessing

    cfg_path = _sweep_config(tmp_path)
    printed = {}
    for budget in (1, 2):
        _force_budget(monkeypatch, budget)
        out = tmp_path / f"b{budget}"
        assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert multiprocessing.active_children() == []
        printed[budget] = capsys.readouterr().out.replace(str(out), "OUT").splitlines()
    assert printed[1] == printed[2] == [
        "sweep: sweep-a -> OUT/sweep-a (exit 0)", "sweep: sweep-b -> OUT/sweep-b (exit 0)"]
    serial, forked = _files(tmp_path / "b1"), _files(tmp_path / "b2")
    assert serial.keys() == forked.keys() and len(serial) > 2
    for name in serial:
        assert serial[name] == forked[name], name


@pytest.mark.parametrize("fail,message", [
    ("raise", "RuntimeError: injected twin failure"),
    ("exit", "exited with code 1 before sending a result"),
    ("kill", f"exited with code {-signal.SIGKILL} before sending a result"),
])
def test_cli_failing_twin_worker_is_internal_error(tmp_path, monkeypatch, capsys, fail, message):
    import multiprocessing
    import time

    cfg_path = write_config(tmp_path, SMALL_SCENARIO)
    _force_budget(monkeypatch, 2)
    _logged_evolve(monkeypatch, tmp_path / "evolve.log", fail=fail)
    started = time.perf_counter()
    code = main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert code == EXIT_INTERNAL_ERROR
    assert time.perf_counter() - started < 30
    assert multiprocessing.active_children() == []
    err = capsys.readouterr().err
    assert message in err and "internal error" in err
    if fail == "raise":
        # the worker's own traceback, down to the injected frame
        assert "raised in worker process" in err and "in _twin_final" in err


@pytest.mark.parametrize("fail,message", [
    ("raise", "RuntimeError: injected scenario failure"),
    ("exit", "exited with code 1 before sending a result"),
    ("kill", f"exited with code {-signal.SIGKILL} before sending a result"),
])
def test_cli_failing_sweep_worker_is_internal_error(tmp_path, monkeypatch, capsys, fail, message):
    import multiprocessing
    import time

    from nlslab import cli

    real = cli.run_scenario

    def failing(scenario, seed=0):
        if scenario["scenario_id"] == "sweep-b":
            if fail == "raise":
                raise RuntimeError("injected scenario failure")
            if fail == "exit":
                os._exit(1)
            os.kill(os.getpid(), signal.SIGKILL)
        return real(scenario, seed=seed)

    monkeypatch.setattr(cli, "run_scenario", failing)
    cfg_path = _sweep_config(tmp_path, certify=(False, False))
    _force_budget(monkeypatch, 2)
    started = time.perf_counter()
    code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "sweep")])
    assert code == EXIT_INTERNAL_ERROR
    assert time.perf_counter() - started < 30
    assert multiprocessing.active_children() == []
    captured = capsys.readouterr()
    assert message in captured.err and "internal error" in captured.err
    # the scenario before the failing one finished and printed its line
    assert [line.split(" ->")[0] for line in captured.out.splitlines()] == ["sweep: sweep-a"]
    if fail == "raise":
        assert "raised in worker process" in captured.err and "in failing" in captured.err


def test_cli_sweep_prints_each_line_once_in_config_order(tmp_path):
    """A forked worker flushes the stdio buffers it inherits when it ends,
    so the CLI flushes before every fork.  Four scenarios on two CPUs
    fork the last worker after the first line is printed into a piped,
    block-buffered stdout."""
    cfg_path = _sweep_config(tmp_path, count=4, certify=(False,) * 4)
    out = tmp_path / "sweep"
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONUNBUFFERED", None)
    cpus = sorted(os.sched_getaffinity(0))[:2]
    proc = subprocess.run(
        [sys.executable, "-m", "nlslab.cli", "sweep", "--config", str(cfg_path), "--out", str(out)],
        env=env, capture_output=True, text=True, preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.splitlines() == [
        f"sweep: {sid} -> {out / sid} (exit 0)" for sid in ("sweep-a", "sweep-b", "sweep-c", "sweep-d")]


@pytest.mark.parametrize("second,message", [
    # an unresolvable grid: its propagator fails the round-trip self-test
    ({"dimension": 10, "grid": {"n_points": 512, "r_max": 8.0}},
     "spectral round-trip self-test failed; raise n_points, enlarge r_max"),
    ({"initial_data": {"family": "file", "path": "seven-samples.bin"}},
     "initial_data.path holds 7 samples, grid needs 192"),
])
def test_cli_sweep_config_error_in_a_worker_exits_2(tmp_path, monkeypatch, capsys, second, message):
    """A configuration error that a scenario raises while it runs keeps
    exit 2 and its message, serially and when it is raised in a worker."""
    (tmp_path / "seven-samples.bin").write_bytes(np.ones(7, "<c16").tobytes())
    monkeypatch.chdir(tmp_path)
    doc = {"scenarios": [dict(SMALL_SCENARIO, scenario_id="sweep-a"),
                         dict(SMALL_SCENARIO, scenario_id="sweep-b", **second)]}
    cfg_path = write_config(tmp_path, doc, "sweep.json")
    errors = []
    for budget in (1, 2):
        _force_budget(monkeypatch, budget)
        code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / f"b{budget}")])
        assert code == EXIT_CONFIG_ERROR
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert message in errors[0] and "internal error" not in errors[0]


@pytest.mark.parametrize("path,content", [
    pytest.param(5, None, id="not-a-string"),
    pytest.param("a-directory", None, id="a-directory"),
    pytest.param("17-bytes.bin", bytes(17), id="partial-sample"),
    pytest.param("nan.bin", np.full(192, np.nan, "<c16").tobytes(), id="non-finite"),
])
def test_cli_bad_initial_data_path_exits_2(tmp_path, monkeypatch, capsys, path, content):
    """simulate, and a sweep that reads the path in a forked worker, report
    a bad snapshot path as a configuration error."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-directory").mkdir()
    if content is not None:
        (tmp_path / path).write_bytes(content)
    bad = dict(SMALL_SCENARIO, scenario_id="bad", initial_data={"family": "file", "path": path})
    write_config(tmp_path, bad)
    write_config(tmp_path, {"scenarios": [dict(SMALL_SCENARIO, scenario_id="good"), bad]},
                 "sweep.json")
    _force_budget(monkeypatch, 2)
    for command, config in (("simulate", "scenario.json"), ("sweep", "sweep.json")):
        assert main([command, "--config", config, "--out", command]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "configuration error: initial_data.path" in err and "internal error" not in err


def test_cli_span_beyond_the_certified_horizon_exits_2(tmp_path, monkeypatch, capsys):
    """A grid that cannot certify the span is a configuration error:
    ``simulate``, ``analyze`` without a store, and a ``sweep`` whose
    scenarios raise it in workers each exit 2, print no traceback and
    write nothing."""
    import multiprocessing

    doc = json.loads(json.dumps(SMALL_SCENARIO))
    doc["grid"] = {"n_points": 64, "r_max": 12.0}
    doc["time"]["t_plus"] = 1.0
    cfg_path = write_config(tmp_path, doc)
    sweep_path = write_config(tmp_path, {"scenarios": [
        dict(doc, scenario_id="sweep-a"), dict(doc, scenario_id="sweep-b")]}, "sweep.json")
    _force_budget(monkeypatch, 2)
    for command, config in (("simulate", cfg_path), ("analyze", cfg_path), ("sweep", sweep_path)):
        out = tmp_path / command
        assert main([command, "--config", str(config), "--out", str(out)]) == EXIT_CONFIG_ERROR
        assert multiprocessing.active_children() == []
        captured = capsys.readouterr()
        assert captured.err == "configuration error: span 1 exceeds the grid-certified horizon 0.5\n"
        assert captured.out == "" and not out.exists()


# ---------------------------------------------------------------------------
# row-split threads: from ROWS_PER_THREAD rows per thread on, every kernel
# product of an evolution (the step operator's build, each step, each
# record) spreads its row blocks over the process budget's threads, with
# the bits of one thread


def _evolve_bytes(n, mu, n_points, tol=1e-3):
    """Every array and the status of a short evolution on (n, N, 32.0)."""
    grid = make_spectral_grid(n, n_points, 32.0)
    cfg = EvolutionConfig(dimension=n, mu=mu, dt=2e-3, snapshot_stride=5, energy_drift_tol=tol)
    traj = evolve(gaussian_field(grid, 1.2, 1.5), 0.0, 0.02, cfg)
    arrays = (traj.times, traj.values, traj.mass_series, traj.energy_series,
              traj.kinetic_series, traj.potential_series)
    return traj.status, [a.tobytes() for a in arrays]


def _thread_log(monkeypatch):
    """The set of threads other than the main one that start, or run
    ``np.matmul``, from now on."""
    import threading

    seen, real, start = set(), np.matmul, threading.Thread.start

    def logged(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            seen.add(threading.current_thread())
        return real(*args, **kwargs)

    def logged_start(thread):
        seen.add(thread)
        start(thread)

    monkeypatch.setattr(np, "matmul", logged)
    monkeypatch.setattr(threading.Thread, "start", logged_start)
    return seen


# N = 1000 is below the floor at budget 2 and 1024 splits evenly; 1030 and
# 1031 split unevenly, 1030 inside one of the 4-row groups of OpenBLAS's
# zgemv (a 515-row share) and 1031 on a group boundary (516 rows).  At
# n = 3 the focusing (gradient-watch) loop runs FFTs and no kernel
# product, so no thread starts there
@pytest.mark.parametrize("n,mu,n_points", [
    (n, mu, n_points) for n in (3, 5) for mu in (1, -1) for n_points in (1000, 1024)
] + [(3, mu, n_points) for mu in (1, -1) for n_points in (1030, 1031)])
def test_evolve_bytes_equal_at_budget_one_and_two(monkeypatch, n, mu, n_points):
    from nlslab import workers

    runs, threads = [], []
    for budget in (1, 2):
        _force_budget(monkeypatch, budget)
        threads.append(_thread_log(monkeypatch))
        runs.append(_evolve_bytes(n, mu, n_points))
        monkeypatch.undo()
    assert runs[0] == runs[1] and runs[0][0] == "complete"
    split = n_points >= 2 * workers.ROWS_PER_THREAD and (n, mu) != (3, -1)
    assert [bool(t) for t in threads] == [False, split]


def test_evolve_bytes_equal_at_budget_one_and_two_on_the_energy_alarm(monkeypatch):
    runs = []
    for budget in (1, 2):
        _force_budget(monkeypatch, budget)
        runs.append(_evolve_bytes(3, 1, 1024, tol=1e-14))
    assert runs[0] == runs[1] and runs[0][0] == "aborted-energy"


# a block fails in a thread of the step operator's build (a 2-D product)
# or of the stepping loop (1-D)
@pytest.mark.parametrize("failing_ndim", [None, 2, 1])
def test_evolve_joins_its_threads_when_it_returns_and_when_it_raises(monkeypatch, failing_ndim):
    import threading

    _force_budget(monkeypatch, 2)
    before, real = threading.active_count(), np.matmul

    def failing(*args, out=None):
        if out.ndim == failing_ndim and threading.current_thread() is not threading.main_thread():
            raise RuntimeError("injected block failure")
        return real(*args, out=out)

    monkeypatch.setattr(np, "matmul", failing)
    if failing_ndim is None:
        _evolve_bytes(3, 1, 1024)
    else:
        with pytest.raises(RuntimeError, match="injected block failure"):
            _evolve_bytes(3, 1, 1024)
    assert threading.active_count() == before


def test_row_split_runs_every_block_once_under_stress(monkeypatch):
    """More threads than CPUs and a switch interval of a microsecond: each
    of many small blocks still runs exactly once per product, also when a
    token arrives between two products and the split grows by a thread."""
    import multiprocessing
    import sys
    import threading

    from nlslab import workers

    rows, interval = 4 * workers.ROWS_PER_THREAD, sys.getswitchinterval()
    before = threading.active_count()
    tokens = multiprocessing.get_context("fork").Semaphore(0)
    monkeypatch.setattr(workers, "_tokens", tokens)
    sys.setswitchinterval(1e-6)
    try:
        # four threads from the start; then two, a third from product 10 on
        # and a fourth from product 30 on, in blocks of 7 rows and in the
        # default shares of the current width
        for budget, arrivals, step in ((4, (), 7), (2, (10, 30), 7), (2, (10, 30), None)):
            _force_budget(monkeypatch, budget)
            with workers.row_split(rows) as split:
                for product in range(50):
                    if product in arrivals:
                        tokens.release()
                    hits = np.zeros(rows, dtype=int)
                    split(lambda block: hits.__setitem__(block, hits[block] + 1), step)
                    assert np.all(hits == 1)
                    assert tokens.get_value() == 0
            assert tokens.get_value() == len(arrivals) and threading.active_count() == before
            while tokens.acquire(False):
                pass
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# CPU lending: once every task of a batch has started, the caller, while it
# waits for a result, lends one token per ended worker, and a worker's
# row_split takes a token for one more thread


def _unequal_sweep(path, order):
    """A sweep of two n = 3, N = 1024 scenarios: 10 steps and 2,000 steps."""
    spans = {"short": {"t_plus": 0.01, "dt": 1e-3, "snapshot_stride": 5},
             "long": {"t_plus": 0.4, "dt": 2e-4, "snapshot_stride": 500}}
    doc = {"scenarios": [
        dict(SMALL_SCENARIO, scenario_id=sid, grid={"n_points": 1024, "r_max": 32.0},
             time=dict(spans[sid], t_minus=0.0), analysis={"certify_resolution": False})
        for sid in order]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_sweep_lends_a_finished_workers_cpu(tmp_path, monkeypatch, capsys):
    """At budget 2 the long scenario's worker runs ``np.matmul`` on a
    second thread once its sibling has ended, and the sweep writes the
    bytes of budget 1.  Listed first, the short scenario is collected
    before the caller waits on the long one, and its CPU is lent at that
    wait; listed second, it is lent while the caller waits."""
    import multiprocessing
    import threading
    import time

    from nlslab import cli

    real_matmul, real_sweep_one = np.matmul, cli._sweep_one
    before = threading.active_count()
    runs = ((1, ("short", "long")), (2, ("short", "long")), (2, ("long", "short")))
    for k, (budget, order) in enumerate(runs):
        log, seen = tmp_path / f"events{k}.log", set()

        def note(*event):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(" ".join(map(str, (os.getpid(), *event, time.monotonic()))) + "\n")

        def matmul(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread() and not seen:
                seen.add(threading.get_ident())
                note("thread", "-")
            return real_matmul(*args, **kwargs)

        def sweep_one(scenario, out_dir, seed):
            note("start", scenario["scenario_id"])
            outcome = real_sweep_one(scenario, out_dir, seed)
            note("end", scenario["scenario_id"])
            return outcome

        _force_budget(monkeypatch, budget)
        monkeypatch.setattr(np, "matmul", matmul)
        monkeypatch.setattr(cli, "_sweep_one", sweep_one)
        cfg_path = _unequal_sweep(tmp_path / f"sweep{k}.json", order)
        assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / f"out{k}")]) == 0
        assert multiprocessing.active_children() == []
        assert threading.active_count() == before
        monkeypatch.undo()
        events = [line.split() for line in log.read_text(encoding="utf-8").splitlines()]
        threaded = [(int(p), float(t)) for p, kind, _, t in events if kind == "thread"]
        if budget == 1:
            assert threaded == []
            continue
        pid = {sid: int(p) for p, kind, sid, _ in events if kind == "start"}
        short_end = next(float(t) for _, kind, sid, t in events if (kind, sid) == ("end", "short"))
        assert len(threaded) == 1
        assert threaded[0][0] == pid["long"] and threaded[0][1] > short_end
        serial, lent = _files(tmp_path / "out0"), _files(tmp_path / f"out{k}")
        assert serial.keys() == lent.keys() and len(serial) > 2
        for name in serial:
            assert serial[name] == lent[name], name
    capsys.readouterr()


def test_no_token_is_lent_while_a_task_is_unstarted(monkeypatch):
    """Three tasks at budget 2: the second ends at once, but the first
    waits a second in vain while the third has not started; the third,
    alone, gets the CPU that the others freed."""
    import multiprocessing

    from nlslab import workers

    _force_budget(monkeypatch, 2)

    def waits(timeout):
        return lambda: workers._tokens.acquire(True, timeout)

    with workers.run([waits(1.0), lambda: None, waits(30.0)]) as results:
        assert list(results) == [False, None, True]
    assert multiprocessing.active_children() == []


def test_no_token_is_lent_while_build_report_computes_its_tables(monkeypatch):
    """The 2 dt twin waits for a token before it evolves.  The 4 dt twin
    ends while the report's tables are computed, and the token still
    arrives only once the tables are done and the caller waits."""
    import multiprocessing
    import time

    from nlslab import dynamics, scenario, workers

    _force_budget(monkeypatch, 2)
    base_dt, real_tables = SMALL_SCENARIO["time"]["dt"], scenario._concentration_block
    events, sender = multiprocessing.get_context("fork").Pipe(duplex=False)

    def receive():
        assert events.poll(30.0)
        return events.recv()

    def evolve(u0, t_minus, t_plus, cfg, provenance=None, *, pinned=True):
        if cfg.dt == 2 * base_dt:
            assert workers._tokens.acquire(True, 30.0)
            sender.send(("token", time.monotonic()))
        traj = dynamics.evolve(u0, t_minus, t_plus, cfg, provenance, pinned=pinned)
        if cfg.dt == 4 * base_dt:
            sender.send(("4x twin", time.monotonic()))
        return traj

    def tables(*args):
        report = real_tables(*args)
        assert receive()[0] == "4x twin"
        time.sleep(0.2)              # the 4 dt worker has exited by now
        sender.send(("tables", time.monotonic()))
        return report

    monkeypatch.setattr(scenario, "evolve", evolve)
    monkeypatch.setattr(scenario, "_concentration_block", tables)
    report = run_scenario(SMALL_SCENARIO).report
    assert report["resolution_certification"]["measured_order"] >= 1.5
    (first, t_tables), (second, t_token) = receive(), receive()
    assert (first, second) == ("tables", "token") and t_token > t_tables
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("fails", [False, True])
def test_row_split_gives_back_its_tokens(monkeypatch, fails):
    """A worker's split takes one free token per call below the cap, and
    its threads are joined and its tokens given back on exit, also when a
    block raises."""
    import contextlib
    import multiprocessing
    import threading

    from nlslab import workers

    _force_budget(monkeypatch, 1)
    tokens = multiprocessing.get_context("fork").Semaphore(3)
    monkeypatch.setattr(workers, "_tokens", tokens)
    before, failing = threading.active_count(), []

    def fill(block):
        if any(failing):
            raise RuntimeError("injected block failure")

    raises = pytest.raises(RuntimeError, match="injected") if fails else contextlib.nullcontext()
    with raises:
        with workers.row_split(3 * workers.ROWS_PER_THREAD) as split:
            split(fill)
            split(fill)
            split(fill)                  # at the cap of 3 threads: takes nothing
            assert tokens.get_value() == 1 and threading.active_count() == before + 2
            failing.append(fails)
            split(fill)
    assert tokens.get_value() == 3 and threading.active_count() == before
