"""Record the reference outputs the benchmark checks against.

    python3 bench/record_reference.py [WORKLOAD ...]

Runs each workload's CLI at the default seed and writes
bench/reference/WORKLOAD.json: per scenario the classification,
T_measured / T_low, sha256 digests of trajectory.csv and summary.json, the
whole summary and a subsample of trajectory rows. It also runs the CLI at a
second seed and refuses to write a reference when anything other than the
fields in outputs.SEED_DEPENDENT changed, since those are the only values the
benchmark skips at a non-default seed.
"""

from __future__ import annotations

import json
import os
import sys

import outputs
from run import ROOT, cli_argv, run_dir, spawn
from workloads import BENCH_DIR, DEFAULT_SEED, WORKLOADS

RTOL = 1e-6
ATOL = 1e-12
OTHER_SEED = 7


def _run(workload, seed, work):
    out_dir = f"{work}/seed{seed}"
    child = spawn(cli_argv(workload, seed, out_dir), out_dir)
    if child.code != 0:
        raise SystemExit(f"{workload.name}: CLI exited with code {child.code}")
    scenarios = [outputs.read_scenario(out_dir, name) for name in workload.scenario_dirs()]
    for sc in scenarios:
        if not sc.ok:
            raise SystemExit(f"{workload.name} {sc.name}: {sc.problems}")
        outputs.check_invariants(sc, workload.energy_nonincreasing)
        if not sc.ok:
            raise SystemExit(f"{workload.name} {sc.name}: {sc.problems}")
    return scenarios


def record(workload):
    work = run_dir(workload)
    base = _run(workload, DEFAULT_SEED, work)
    other = _run(workload, OTHER_SEED, work)
    reference = {
        "workload": workload.name,
        "seed": DEFAULT_SEED,
        "rtol": RTOL,
        "atol": ATOL,
        "scenarios": {sc.name: outputs.reference_entry(sc) for sc in base},
    }
    for sc in other:
        outputs.check_reference(sc, reference["scenarios"][sc.name], OTHER_SEED,
                                DEFAULT_SEED, 0.0, 0.0)
        if sc.problems:
            raise SystemExit(f"{workload.name} {sc.name}: seed-dependent values "
                             f"outside SEED_DEPENDENT: {sc.problems[:3]}")
    path = os.path.join(ROOT, BENCH_DIR, "reference", f"{workload.name}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}: {len(base)} scenario(s)")


def main(argv):
    for name in argv or sorted(WORKLOADS):
        record(WORKLOADS[name])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
