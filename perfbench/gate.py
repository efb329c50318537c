"""Correctness gate: exit codes, verify verdicts and pinned reference values.

Reports are compared by value, not by bytes: floats in a report move at
rounding level with the BLAS build and thread count, so a float matches
when |a - b| <= RTOL * max(|a|, |b|) + ATOL.  Integers, booleans and
strings (statuses, snapshot counts, interval and exceptional counts,
check names) must match exactly.  Long numeric series are pinned by
their length and a few order statistics rather than element by element,
which keeps ``reference.json`` small.  Fields that the reference does not
have are ignored, so a report may grow new sections.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# Between OpenBLAS 1 and 2 threads on the reference scenario the largest
# relative move of a non-noise float was 1.4e-8 (self_difference_fine).
# Some pinned values are themselves rounding noise (mass drifts up to
# 3e-11, the 10,000-step energy drift of 8e-11); ATOL absorbs those.
RTOL = 1e-6
ATOL = 1e-9

# numeric lists longer than this are pinned by summary statistics
_SERIES_MIN = 9


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _same_shape(rows) -> bool:
    """Rows that are all dicts with one key set, or all lists of one length."""
    first = rows[0]
    if isinstance(first, dict):
        return all(isinstance(r, dict) and r.keys() == first.keys() for r in rows)
    if isinstance(first, list):
        return all(isinstance(r, list) and len(r) == len(first) for r in rows)
    return False


def summarize(doc):
    """Reduce a report-like JSON document to the values the gate pins."""
    if isinstance(doc, dict):
        return {k: summarize(v) for k, v in doc.items()}
    if isinstance(doc, list):
        if len(doc) >= _SERIES_MIN and all(_is_number(x) for x in doc):
            vals = [float(x) for x in doc]
            return {
                "__series__": len(vals),
                "first": vals[0],
                "last": vals[-1],
                "min": min(vals),
                "max": max(vals),
                "sum": math.fsum(vals),
            }
        if len(doc) >= _SERIES_MIN and all(isinstance(x, bool) for x in doc):
            return {"__flags__": len(doc), "true": sum(doc)}
        if len(doc) >= _SERIES_MIN and _same_shape(doc):
            # a table: pin it column by column
            first = doc[0]
            keys = list(first) if isinstance(first, dict) else range(len(first))
            cols = {str(k): summarize([row[k] for row in doc]) for k in keys}
            return {"__rows__": len(doc), **cols}
        return [summarize(x) for x in doc]
    return doc


def differences(expected, actual, path: str = "") -> list[str]:
    """Human-readable mismatches between two summarized documents."""
    if isinstance(expected, dict):
        # keys the reference lacks are new fields, not a regression
        if not isinstance(actual, dict):
            return [f"{path}: expected an object"]
        missing = sorted(set(expected) - set(actual))
        if missing:
            return [f"{path}: missing keys {missing}"]
        out = []
        for k in expected:
            out.extend(differences(expected[k], actual[k], f"{path}.{k}"))
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{path}: length differs"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out.extend(differences(e, a, f"{path}[{i}]"))
        return out
    if _is_number(expected) and _is_number(actual) and not (
        isinstance(expected, int) and isinstance(actual, int)
    ):
        # canonical JSON writes an integral float without a point, so a
        # float can read back as int; only two ints compare exactly
        a, expected = float(actual), float(expected)
        if abs(a - expected) <= RTOL * max(abs(a), abs(expected)) + ATOL:
            return []
        return [f"{path}: expected {expected!r}, got {a!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    return []


def read(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def artifact_of(role: str, out_dir: Path) -> Path:
    """The file a command's correctness is judged on."""
    if role == "simulate":
        return out_dir / "trajectory" / "metadata.json"
    if role == "verify":
        return out_dir / "verification.json"
    return out_dir / "report.json"


def pinned(role: str, out_dir: Path):
    """Summary of what a finished command wrote, as stored in reference.json."""
    doc = read(artifact_of(role, out_dir))
    if role == "verify":
        return {
            "all_passed": doc["all_passed"],
            "checks": [c["check"] for c in doc["checks"]],
        }
    return summarize(doc)


def check_output(role: str, out_dir: Path, reference) -> list[str]:
    """Problems with one command's output; ``reference`` is None on
    seeds that are not pinned."""
    path = artifact_of(role, out_dir)
    if not path.is_file():
        return [f"{path.name} missing"]
    doc = read(path)
    problems = []
    if role == "verify":
        failed = [c["check"] for c in doc["checks"] if not c["passed"]]
        if failed or not doc["all_passed"]:
            problems.append(f"verify failed checks: {failed}")
    elif doc.get("status") != "complete":
        problems.append(f"status {doc.get('status')!r}, expected 'complete'")
    if reference is not None:
        problems.extend(differences(reference, pinned(role, out_dir)))
    return problems
