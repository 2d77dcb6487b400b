"""Read one CLI run's output files and check them.

A scenario is one trajectory: a single run, or one point of a sweep. It
fails when its files are missing or malformed, when a paper invariant does
not hold, or when a value differs from the recorded reference by more than
the reference's tolerance. Seed-independent values are compared at every
seed; the seed-dependent ones only at the seed the reference was made with.
Byte identity with the reference is reported, never counted as a failure.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field

from metrics import steps_from_outputs

# Summary fields that depend on the certification seed (and so may differ
# from the reference at any other seed). A path matches itself and below.
SEED_DEPENDENT = (
    "config.seed",
    "config_hash",
    "T_low",
    "lower_bound_consistent",
    "gate.beta",
    "gate.passed",
    "constants.c_embed_gate",
    "constants.c_embed_bound",
)


@dataclass
class Scenario:
    name: str
    csv_bytes: bytes = b""
    json_bytes: bytes = b""
    rows: list = None  # list of dict column -> float
    summary: dict = None
    problems: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.problems

    @property
    def steps(self):
        return steps_from_outputs(self.rows[-1]["t"], self.summary["config"]["dt"])

    def digests(self):
        return (hashlib.sha256(self.csv_bytes).hexdigest(),
                hashlib.sha256(self.json_bytes).hexdigest())


def read_scenario(out_dir, name):
    """Load trajectory.csv and summary.json of one scenario directory."""
    sc = Scenario(name)
    base = os.path.join(out_dir, name)
    try:
        with open(os.path.join(base, "trajectory.csv"), "rb") as handle:
            sc.csv_bytes = handle.read()
        with open(os.path.join(base, "summary.json"), "rb") as handle:
            sc.json_bytes = handle.read()
    except OSError as exc:
        sc.problems.append(f"missing output: {exc}")
        return sc
    try:
        reader = csv.DictReader(io.StringIO(sc.csv_bytes.decode()))
        sc.rows = [{k: float(v) for k, v in row.items()} for row in reader]
        sc.summary = json.loads(sc.json_bytes)
        sc.summary["config"]["dt"]
        sc.summary["classification"]
    except (ValueError, TypeError, KeyError, UnicodeDecodeError) as exc:
        sc.problems.append(f"malformed output: {exc!r}")
        sc.rows = sc.summary = None
        return sc
    if not sc.rows:
        sc.problems.append("malformed output: trajectory.csv has no samples")
        sc.rows = sc.summary = None
    return sc


def read_sweep_table(out_dir):
    """Rows of sweep.csv as dicts, or None when it is missing."""
    try:
        with open(os.path.join(out_dir, "sweep.csv")) as handle:
            return list(csv.DictReader(handle))
    except OSError:
        return None


def flatten(doc, prefix=""):
    out = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            out.update(flatten(value, f"{prefix}{key}."))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            out.update(flatten(value, f"{prefix}{i}."))
    else:
        out[prefix[:-1]] = doc
    return out


def _seed_dependent(path):
    return any(path == p or path.startswith(p + ".") for p in SEED_DEPENDENT)


def _close(a, b, rtol, atol):
    if isinstance(a, bool) or isinstance(b, bool) or not (
            isinstance(a, (int, float)) and isinstance(b, (int, float))):
        return a == b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=rtol, abs_tol=atol)


def check_invariants(sc, energy_nonincreasing):
    """The paper invariants that hold at every seed."""
    s = sc.summary
    if s["classification"] == "blow-up":
        t_meas, t_low = s.get("T_measured"), s.get("T_low")
        if t_meas is None or t_low is None or not t_meas >= t_low:
            sc.problems.append(f"T_measured >= T_low fails: {t_meas} vs {t_low}")
    if energy_nonincreasing:
        energies = [row["E"] for row in sc.rows]
        rises = sum(1 for a, b in zip(energies, energies[1:]) if b > a)
        if rises:
            sc.problems.append(f"sampled energy increases at {rises} samples")


def check_reference(sc, ref, seed, ref_seed, rtol, atol):
    """Compare against the recorded reference of this scenario."""
    if sc.summary["classification"] != ref["classification"]:
        sc.problems.append(f"classification {sc.summary['classification']!r}, "
                           f"expected {ref['classification']!r}")
    got = flatten(sc.summary)
    for path, want in flatten(ref["summary"]).items():
        if seed != ref_seed and _seed_dependent(path):
            continue
        if path not in got:
            sc.problems.append(f"summary.json lacks {path}")
        elif not _close(got[path], want, rtol, atol):
            sc.problems.append(f"summary {path} = {got[path]!r}, reference {want!r}")
    if len(sc.rows) != ref["csv_rows"]:
        sc.problems.append(f"trajectory.csv has {len(sc.rows)} samples, "
                           f"reference {ref['csv_rows']}")
        return
    columns = ref["csv_columns"]
    for index, values in zip(ref["csv_sample_index"], ref["csv_samples"]):
        row = sc.rows[index]
        for column, want in zip(columns, values):
            if column not in row or not _close(row[column], want, rtol, atol):
                sc.problems.append(f"trajectory.csv row {index} {column} = "
                                   f"{row.get(column)!r}, reference {want!r}")
                return


def byte_identical(sc, ref, seed, ref_seed):
    """(csv identical, json identical or None when the seed differs)."""
    csv_digest, json_digest = sc.digests()
    same_json = json_digest == ref["json_sha256"] if seed == ref_seed else None
    return csv_digest == ref["csv_sha256"], same_json


def reference_entry(sc, max_samples=50):
    """What the reference records for one scenario at the default seed."""
    csv_digest, json_digest = sc.digests()
    n = len(sc.rows)
    every = max(1, -(-n // max_samples))
    index = sorted(set(range(0, n, every)) | {n - 1})
    columns = list(sc.rows[0])
    s = sc.summary
    return {
        "classification": s["classification"],
        "T_measured": s.get("T_measured"),
        "T_low": s.get("T_low"),
        "csv_sha256": csv_digest,
        "json_sha256": json_digest,
        "csv_rows": n,
        "csv_columns": columns,
        "csv_sample_index": index,
        "csv_samples": [[sc.rows[i][c] for c in columns] for i in index],
        "summary": s,
    }
