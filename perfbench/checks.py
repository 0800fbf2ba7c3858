"""Output checks: read a CLI step's result files and compare them with the
values pinned for the default workload seed.

Every result file of a step becomes columns named "<file>.<column>".
Numeric result columns are compared within a tolerance, the `ok` columns
must all be true (they are never compared with the reference), and every
other column must equal the reference exactly.  For other seeds only the
invariants are checked: the same columns with the same row counts, and
exact mode for the circuit.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

VALUE_COLUMNS = {
    "tv_hat", "se", "H_hat_nats",  # Monte Carlo estimates
    "H_nats", "H_bits", "deficiency", "tv_to_uniform", "bound_rhs",  # evolve-exact
    "d_phi", "H", "Xi",  # circuit-mix
    "lhs", "rhs",  # verify-bounds
}

# Monte Carlo values are pinned tightly enough to pin every count (and so the
# Philox address contract); exact values go through derived H, deficiency and
# TV columns and are pinned more loosely.
MC_TOL = 1e-12
EXACT_TOL = 1e-9
MC_KINDS = ("simulate", "mixing-scan")

SKIPPED_FIELDS = {"metadata", "rule"}


def _rows(path: Path) -> list[dict]:
    if path.suffix == ".csv":
        with open(path, encoding="utf-8") as fh:
            return list(csv.DictReader(line for line in fh if not line.startswith("#")))
    if path.suffix == ".jsonl":
        with open(path, encoding="utf-8") as fh:
            docs = [json.loads(line) for line in fh]
        return [d for d in docs if "metadata" not in d]
    return [json.loads(path.read_text(encoding="utf-8"))]


def read_outputs(out_dir: Path) -> dict:
    """{"values": {col: [float]}, "labels": {col: [..]}, "ok": [bool]}."""
    values, labels, oks = {}, {}, []
    for path in sorted(out_dir.iterdir()):
        if path.suffix not in (".csv", ".jsonl", ".json"):
            continue
        for row in _rows(path):
            for col, val in row.items():
                if col in SKIPPED_FIELDS:
                    continue
                key = f"{path.stem}.{col}"
                if col == "ok":
                    oks.append(val in (True, "True"))
                elif col in VALUE_COLUMNS:
                    values.setdefault(key, []).append(float(val))
                else:
                    labels.setdefault(key, []).append(
                        json.dumps(val, sort_keys=True) if isinstance(val, dict) else val
                    )
    return {"values": values, "labels": labels, "ok": oks}


def mismatches(kind: str, out: dict, ref: dict, full: bool) -> list[str]:
    """Reasons the outputs are wrong: against the reference values when
    `full`, against its shape and the invariants otherwise."""
    problems = []
    for group in ("values", "labels"):
        if set(out[group]) != set(ref[group]):
            problems.append(f"{group} columns {sorted(out[group])} != {sorted(ref[group])}")
            continue
        for col, ref_col in ref[group].items():
            if len(out[group][col]) != len(ref_col):
                problems.append(f"{col}: {len(out[group][col])} rows, expected {len(ref_col)}")
    if len(out["ok"]) != len(ref["ok"]):
        problems.append(f"{len(out['ok'])} ok fields, expected {len(ref['ok'])}")
    if kind == "circuit-mix" and out["labels"].get("circuit-mix-summary.mode") != ["exact"]:
        problems.append("circuit-mix did not run in exact mode")
    if problems or not full:
        return problems
    tol = MC_TOL if kind in MC_KINDS else EXACT_TOL
    for col, ref_col in ref["values"].items():
        for i, (got, want) in enumerate(zip(out["values"][col], ref_col)):
            if abs(got - want) > tol * max(1.0, abs(want)):
                problems.append(f"{col}[{i}] = {got!r}, reference {want!r}")
                break
    for col, ref_col in ref["labels"].items():
        if out["labels"][col] != ref_col:
            problems.append(f"{col} differs from the reference")
    return problems
