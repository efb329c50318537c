import json
import math
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlslab
from nlslab import EvolutionConfig, evolve, gaussian_field, make_spectral_grid
from nlslab.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_OK,
    EXIT_RUNTIME_ALARM,
    EXIT_VERIFY_FAILED,
    main,
)
from nlslab.persist import (
    canonical_json,
    decode_snapshot,
    encode_snapshot,
    load_trajectory,
    read_json,
    save_trajectory,
    snapshot_filename,
    write_json,
)
from nlslab.propagator import get_propagator
from nlslab.scenario import ScenarioError, normalize_scenario, run_scenario, verify_report
from nlslab.transform import _transform_slot, get_transform

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
    blob = encode_snapshot(vals)
    assert len(blob) == 64 * 16
    back = decode_snapshot(blob)
    assert np.array_equal(back, vals)          # bit-exact, not approx


def test_snapshot_codec_keeps_signed_zeros():
    # np.array_equal takes -0.0 for 0.0, so compare the bytes
    blob = struct.pack("<6d", -0.0, -0.0, -0.0, 0.0, 0.0, -0.0)
    assert encode_snapshot(decode_snapshot(blob)) == blob


def test_snapshot_filename_padding():
    assert snapshot_filename(7) == "snapshot_000007.bin"
    assert snapshot_filename(123456) == "snapshot_123456.bin"


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
    assert (store / "metadata.json").read_bytes() == (store2 / "metadata.json").read_bytes()
    for i in range(len(traj.times)):
        assert (store / snapshot_filename(i)).read_bytes() == (
            store2 / snapshot_filename(i)
        ).read_bytes()


def test_store_carries_the_kernel_bit_equal(tmp_path):
    g = make_spectral_grid(5, 128, 12.0)
    cfg = EvolutionConfig(dimension=5, mu=1, dt=5e-3, snapshot_stride=4)
    store = tmp_path / "store"
    save_trajectory(evolve(gaussian_field(g), 0.0, 0.1, cfg), store)
    kernel = get_transform(g).kernel
    assert (store / "kernel.bin").read_bytes() == kernel.astype("<f8").tobytes()
    _transform_slot.cache_clear()
    load_trajectory(store)
    assert get_transform(g).kernel.tobytes() == kernel.tobytes()


def test_n3_store_carries_no_kernel(tmp_path, caplog):
    """An n = 3 kernel is a closed form: its store has no kernel.bin (a
    stale one is removed) and loads without a warning into the same kernel."""
    g = make_spectral_grid(3, 128, 12.0)
    cfg = EvolutionConfig(dimension=3, mu=1, dt=5e-3, snapshot_stride=4)
    store = tmp_path / "store"
    store.mkdir()
    (store / "kernel.bin").write_bytes(b"stale")
    save_trajectory(evolve(gaussian_field(g), 0.0, 0.1, cfg), store)
    assert get_transform(g).factor is None
    assert not (store / "kernel.bin").exists()
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
    get_transform(make_spectral_grid(4, n, 16.0)).factor.tofile(store / "kernel.bin")


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
        get_propagator.cache_clear()
        caplog.clear()
        assert main([*command, "--out", str(out)]) == EXIT_OK
        warnings = [r.getMessage() for r in caplog.records if r.name == "nlslab"]
        assert len(warnings) == (reason is not None)
        assert all(reason in w and w.endswith("computing it by SVD") for w in warnings)
    for name in ("report.json", "verification.json"):
        assert (out / name).read_bytes() == (honest_run / name).read_bytes(), name


def _cli(threads, *args):
    """Run the CLI from this checkout's ``src/`` at a BLAS thread count."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS=str(threads))
    subprocess.run([sys.executable, "-m", "nlslab.cli", *args], env=env, check=True,
                   capture_output=True)


REFERENCE_CONFIG = str(Path(__file__).resolve().parents[1] / "scenarios"
                       / "reference-defocusing-n3.json")


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

    def counted(self, values):
        if np.shares_memory(values, traj.values):
            passes.append(np.shape(values))
        return original(self, values)

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
    u0 = traj.field(0)
    monkeypatch.undo()
    assert hardy["rows"][0]["ratio"] == functionals.hardy_bound_check(u0, 1.0, traj.config.mu)


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
    scenario = json.loads(json.dumps(SMALL_SCENARIO))
    scenario["scenario_id"] = "test-blowup"
    scenario["mu"] = -1
    scenario["initial_data"]["amplitude"] = 3.0
    scenario["grid"]["n_points"] = 256
    scenario["time"]["t_plus"] = 0.5
    scenario["evolution"] = {"energy_drift_alarm": 1e30, "blowup_grad_factor": 10.0}
    scenario["analysis"]["certify_resolution"] = False
    cfg_path = write_config(tmp_path, scenario)
    out = tmp_path / "blow"
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert code == EXIT_RUNTIME_ALARM


def test_cli_corrupted_snapshot_fails_verify(tmp_path):
    cfg_path = write_config(tmp_path, SMALL_SCENARIO_N5)
    out = tmp_path / "tamper"
    assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    assert (out / "trajectory" / "kernel.bin").is_file()
    # inject mass into one stored snapshot
    victim = out / "trajectory" / snapshot_filename(3)
    vals = decode_snapshot(victim.read_bytes())
    vals = vals + 0.05
    victim.write_bytes(encode_snapshot(vals))
    assert main(["verify", "--out", str(out)]) == EXIT_VERIFY_FAILED
    checks = read_json(out / "verification.json")["checks"]
    mass_check = next(c for c in checks if c["check"] == "mass_conservation")
    assert not mass_check["passed"]
    assert mass_check["measured"] > 1e-3      # the injected magnitude is visible


def test_cli_file_initial_data_is_read_bit_exact(tmp_path):
    # the decoder hands back a read-only view of the file's bytes
    g = make_spectral_grid(3, 192, 16.0)
    blob = encode_snapshot(gaussian_field(g).values * (1 - 0.5j))
    (tmp_path / "u0.bin").write_bytes(blob)
    scenario = json.loads(json.dumps(SMALL_SCENARIO))
    scenario["initial_data"] = {"family": "file", "path": str(tmp_path / "u0.bin")}
    scenario["time"]["t_plus"] = 0.02
    cfg_path = write_config(tmp_path, scenario)
    out = tmp_path / "file"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    assert (out / "trajectory" / snapshot_filename(0)).read_bytes() == blob


def test_cli_import_leaves_interpolation_unloaded():
    # only rescale and sample_even interpolate, and no command reaches them
    src = str(Path(nlslab.__file__).resolve().parents[1])
    code = (
        "import sys, nlslab.cli; "
        "print(sorted(m for m in ('scipy.interpolate', 'scipy.optimize') if m in sys.modules))"
    )
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
