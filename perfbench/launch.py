"""Traced launcher: run one nlslab CLI command with layer spans recorded.

    python launch.py SPANS_OUT TRACE_ID CLI-ARGS...

The launcher imports nlslab, wraps the public functions listed in
``LAYERS`` at every nlslab module that imported them by name (for
example ``nlslab.scenario.evolve`` as well as ``nlslab.dynamics.evolve``),
then calls ``nlslab.cli.main`` so the command pays its own set-up as it
does untraced.  Each call of a wrapped function is one span
{name, start, end, parent} and one count; spans are held in memory and
written to SPANS_OUT as JSON when the process exits.  Span 0 is the whole
command, from the launcher's first line to exit.

A function that no longer exists is skipped and listed under "missing",
so a refactor of the program degrades the trace instead of breaking it.
"""

import time

_T0 = time.perf_counter()

import atexit  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def _forward_bytes(args, result):
    """Bytes the dense forward must move: the kernel, input and output.

    A computed figure (from array sizes), not a hardware measurement."""
    kernel = getattr(args[0], "kernel", None)
    moved = getattr(kernel, "nbytes", 0) + result.nbytes
    return {"bytes": moved + getattr(getattr(args[1], "values", None), "nbytes", 0)}


def _evolve_counts(args, result):
    span = float(result.times[-1] - result.times[0])
    return {
        "steps": int(round(span / float(result.provenance["dt_effective"]))),
        "snapshots": len(result.times),
    }


def _interval_count(args, result):
    return {"intervals": int(result.count)}


# (module, attribute path, span name, extra-attribute function)
LAYERS = (
    ("nlslab.transform", "make_spectral_grid", "grid.build", None),
    ("nlslab.transform", "get_transform", "transform.build", None),
    ("nlslab.transform", "SpectralTransform.forward", "transform.forward", _forward_bytes),
    ("nlslab.transform", "SpectralTransform.backward", "transform.backward", None),
    ("nlslab.propagator", "get_propagator", "propagator.certify", None),
    ("nlslab.propagator", "FreePropagator.evolve", "propagator.evolve", None),
    ("nlslab.propagator", "FreePropagator.evolve_coeffs", "propagator.evolve", None),
    ("nlslab.dynamics", "evolve", "dynamics.evolve", _evolve_counts),
    ("nlslab.dynamics", "duhamel_residual", "dynamics.duhamel", None),
    ("nlslab.dynamics", "blowup_monitor", "dynamics.blowup_monitor", None),
    ("nlslab.functionals", "strichartz_norm", "functionals.strichartz", None),
    ("nlslab.functionals", "morawetz_check", "functionals.morawetz", None),
    ("nlslab.functionals", "morawetz_check_regularized", "functionals.morawetz", None),
    ("nlslab.functionals", "mass_flux_check", "functionals.mass_flux", None),
    ("nlslab.functionals", "momentum_flux_identity_check", "functionals.identity", None),
    ("nlslab.functionals", "hardy_bound_check", "functionals.hardy", None),
    ("nlslab.functionals", "energy", "functionals.energy", None),
    ("nlslab.functionals", "critical_density", "functionals.critical_density", None),
    ("nlslab.concentration", "greedy_subdivide", "concentration.greedy", _interval_count),
    ("nlslab.concentration", "classify_exceptional", "concentration.classify", None),
    ("nlslab.concentration", "linear_flow_check", "concentration.flow_check", None),
    ("nlslab.concentration", "find_bubble", "concentration.bubble", None),
    ("nlslab.concentration", "window_statistics", "concentration.window_stats", None),
    ("nlslab.concentration", "bourgain_nest", "concentration.nest", None),
    ("nlslab.concentration", "check_nest", "concentration.nest", None),
    ("nlslab.timegrid", "pl_integral", "timegrid.pl_integral", None),
    ("nlslab.persist", "save_trajectory", "persist.save", None),
    ("nlslab.persist", "load_trajectory", "persist.load", None),
    ("nlslab.persist", "write_json", "persist.write_json", None),
    ("nlslab.persist", "read_json", "persist.read_json", None),
    ("nlslab.persist", "write_csv", "persist.write_csv", None),
    ("nlslab.scenario", "run_scenario", "scenario.run_scenario", None),
    ("nlslab.scenario", "build_report", "scenario.build_report", None),
    ("nlslab.scenario", "verify_report", "scenario.verify_report", None),
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        # [name, start, end, parent index, extra attributes]
        self.spans = [["command", _T0, None, None, None]]
        self.stack = [0]
        self.missing = []

    def span(self, name, fn, attrs=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, None, stack[-1], None]
            spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                try:
                    rec[4] = attrs(args, result)
                except (AttributeError, KeyError, TypeError, IndexError, ValueError):
                    rec[4] = None
            return result

        return traced

    def install(self):
        """Wrap every LAYERS entry wherever nlslab bound it by name."""
        modules = [m for n, m in sys.modules.items() if n == "nlslab" or n.startswith("nlslab.")]
        for module_name, path, name, attrs in LAYERS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *outer, leaf = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            traced = self.span(name, original, attrs)
            if outer:
                setattr(owner, leaf, traced)  # a method: patch the class
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def dump(self, path: str):
        end = time.perf_counter()
        self.spans[0][2] = end
        rows = []
        for name, start, stop, parent, extra in self.spans:
            row = {"name": name, "start": start, "end": end if stop is None else stop,
                   "parent": parent, "trace_id": self.trace_id}
            if extra:
                row.update(extra)
            rows.append(row)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"trace_id": self.trace_id, "missing": self.missing, "spans": rows}, fh)


def main() -> int:
    out_path, trace_id, *argv = sys.argv[1:]
    tracer = Tracer(trace_id)
    atexit.register(tracer.dump, out_path)
    import_span = ["cli.import", time.perf_counter(), None, 0, None]
    tracer.spans.append(import_span)
    import nlslab.cli

    tracer.install()
    import_span[2] = time.perf_counter()
    return nlslab.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
