"""Code that runs inside the benchmark's child processes, one fresh
interpreter per measurement.

    python3 bench/child.py import
    python3 bench/child.py setup  WORKLOAD SEED
    python3 bench/child.py traced WORKLOAD SEED OUT SPANS
    python3 bench/child.py serial WORKLOAD SEED OUT SPANS

``import`` times a cold ``import delaywave``. ``setup`` times parse_config +
build_problem + init_state on the workload's base config. ``traced`` runs
the CLI in-process with every layer wrapped by the tracer. ``serial`` runs
the points of a sweep workload one after another through run_scenario, the
single-threaded baseline of the sweep pool, also traced. Timings are printed
as one JSON line on stdout; spans go to the SPANS file.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_package():
    """Import delaywave from the checkout's src/ and nowhere else."""
    from workloads import SRC_DIR
    src = os.path.join(ROOT, SRC_DIR)
    sys.path.insert(0, src)
    start = time.perf_counter()
    import delaywave
    import delaywave.cli
    end = time.perf_counter()
    if not os.path.abspath(delaywave.__file__).startswith(src + os.sep):
        raise SystemExit(f"delaywave imported from {delaywave.__file__}, not {src}")
    return delaywave, start, end


def _traced_package():
    import tracer as tracing
    package, start, end = _import_package()
    trace = tracing.Tracer()
    trace.record("cli.import", start, end)
    tracing.install(trace, package)
    return package, trace, end - start


def main(argv):
    from workloads import WORKLOADS
    mode = argv[0]
    if mode == "import":
        _, start, end = _import_package()
        print(json.dumps({"import_s": end - start}))
        return 0

    workload = WORKLOADS[argv[1]]
    seed = int(argv[2])
    if mode == "setup":
        _import_package()
        from delaywave.config import parse_config
        from delaywave.solver import build_problem, init_state
        text = workload.config_text(ROOT)
        start = time.perf_counter()
        cfg = replace(parse_config(text), seed=seed)
        init_state(build_problem(cfg))
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0

    out_dir, spans_path = argv[3], argv[4]
    package, trace, import_s = _traced_package()
    if mode == "traced":
        code = package.cli.main(workload.cli_args(seed) + ["--out", out_dir])
        trace.dump(spans_path, import_s=import_s)
        return code

    # serial: the sweep's points one after another, in the CLI's own way.
    from delaywave.config import parse_config
    from delaywave.scenario import run_scenario
    cfg = replace(parse_config(workload.config_text(ROOT)), seed=seed)
    start = time.perf_counter()
    for value, name in zip(workload.sweep_values, workload.scenario_dirs()):
        point = replace(cfg, **{workload.sweep_key: float(value)})
        run_scenario(point, out_dir=os.path.join(out_dir, name))
    serial_s = time.perf_counter() - start
    trace.dump(spans_path, import_s=import_s, serial_s=serial_s)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
