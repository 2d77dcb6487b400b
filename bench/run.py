"""delaywave benchmark: time the real CLI end to end, or trace it per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports delaywave only from that
checkout's src/. Every measurement runs in a fresh child interpreter, one
child at a time.

--trace 0 repeats (set-up child, CLI child) pairs until S seconds have
passed, at least twice. It reports the medians over repetitions of wall_s
(CLI spawn to exit) and steps_per_s (integrator steps counted from the
written outputs over wall_s), the minimum of setup_s (parse_config +
build_problem + init_state, each timed in its own child) and the maximum of
peak_rss_mb (rusage of the CLI child alone). --workload all runs every
workload in turn and ends with one JSON line for all of them.

--trace 1 runs the CLI once untraced and once traced (every layer wrapped
from outside by bench/tracer.py), plus, for a sweep, the serial baseline,
and reports the per-layer metrics derived from the spans.

Every CLI run's outputs are checked: files present and well formed, the
paper invariants, the recorded reference in bench/reference/, and identical
bytes across repetitions. The last stdout line is one JSON object with
correct, attempted, failed and metrics. Results and span dumps are written
under bench/out/WORKLOAD/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time

import metrics as m
import outputs
from workloads import BENCH_DIR, DEFAULT_SEED, SRC_DIR, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(BENCH_DIR, "child.py")
MIN_REPS = 2  # two CLI runs at one seed, so their bytes can be compared
MIN_SETUPS = 3
MAX_SETUPS = 9
SETUP_SHARE = 0.25
CHILD_TIMEOUT_S = 150.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "solver.step.s": "s",
    "solver.step.calls": "count",
    "solver.step.us_per_call": "us",
    "solver.step.gbps_computed": "GB/s",
    "solver.init_state.s": "s",
    "solver.build_problem.s": "s",
    "solver.run.self_s": "s",
    "energetics.energy_report.s": "s",
    "energetics.energy_report.calls": "count",
    "spaces.validate_exponent_pair.s": "s",
    "spaces.discrete_poincare_constant.s": "s",
    "delay.build_kernel.s": "s",
    "config.parse_config.s": "s",
    "analysis.embedding_constant_for_gate.s": "s",
    "analysis.embedding_constant_for_gate.calls": "count",
    "analysis.embedding_constant_for_bound.s": "s",
    "analysis.embedding_constant_for_bound.calls": "count",
    "analysis.certify.repeat_share": "ratio",
    "analysis.blowup_lower_bound.s": "s",
    "analysis.classify.s": "s",
    "scenario.trajectory_csv.s": "s",
    "scenario.run_scenario.self_s": "s",
    "scenario.sweep.s": "s",
    "scenario.sweep.serial_s": "s",
    "scenario.sweep.speedup": "ratio",
    "scenario.sweep.concurrency": "ratio",
    "scenario.sweep.points_failed": "count",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


class Child:
    """One finished child process: exit code, wall time, peak RSS, stdout."""

    def __init__(self, code, wall_s, usage, stdout):
        self.code = code
        self.wall_s = wall_s
        self.maxrss_kb = usage.ru_maxrss
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.stdout = stdout

    def json_line(self):
        """The JSON object on the child's last stdout line, or None."""
        try:
            return json.loads(self.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return None


def spawn(argv, log_prefix):
    """Run argv from the checkout root; time it from spawn to exit and take
    its rusage from wait4, so the numbers belong to this child alone."""
    env = dict(os.environ)
    src = os.path.join(ROOT, SRC_DIR)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(log_prefix + ".stdout", "wb") as out, open(log_prefix + ".stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_prefix + ".stdout") as handle:
        stdout = handle.read()
    return Child(proc.returncode, wall, usage, stdout)


class Checker:
    """Checks every CLI run of one workload and keeps the tallies."""

    def __init__(self, workload, seed, reference):
        self.workload = workload
        self.seed = seed
        self.ref = reference
        self.attempted = 0
        self.failed = 0
        self.csv_identical = 0
        self.json_identical = 0
        self.json_compared = 0
        self.problems = []
        self.first_digests = None

    def check_run(self, label, code, out_dir, sweep_table=True):
        """Check one run's outputs; return its scenarios (failed ones included)."""
        w = self.workload
        scenarios = [outputs.read_scenario(out_dir, name) for name in w.scenario_dirs()]
        if code != 0:
            for sc in scenarios:
                sc.problems.append(f"CLI exited with code {code}")
        if w.is_sweep and sweep_table:
            table = outputs.read_sweep_table(out_dir)
            by_value = {float(row[w.sweep_key]): row for row in table or []}
            for value, sc in zip(w.sweep_values, scenarios):
                row = by_value.get(float(value))
                if row is None or row["classification"] == "failed":
                    sc.problems.append("sweep.csv reports the point missing or failed")
        refs = self.ref["scenarios"]
        for sc in scenarios:
            if sc.summary is None:
                continue
            outputs.check_invariants(sc, w.energy_nonincreasing)
            outputs.check_reference(sc, refs[sc.name], self.seed, self.ref["seed"],
                                    self.ref["rtol"], self.ref["atol"])
            same_csv, same_json = outputs.byte_identical(sc, refs[sc.name], self.seed,
                                                         self.ref["seed"])
            self.csv_identical += same_csv
            if same_json is not None:
                self.json_compared += 1
                self.json_identical += same_json
        digests = [sc.digests() for sc in scenarios]
        if self.first_digests is None:
            self.first_digests = digests
        else:
            for sc, now, first in zip(scenarios, digests, self.first_digests):
                if now != first:
                    sc.problems.append("output bytes differ from the first run at this seed")
        self.attempted += len(scenarios)
        for sc in scenarios:
            if not sc.ok:
                self.failed += 1
                self.problems.append(f"{label} {sc.name or '.'}: " + "; ".join(sc.problems[:3]))
        return scenarios


def run_dir(workload):
    path = os.path.join(ROOT, BENCH_DIR, "out", workload.name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def cli_argv(workload, seed, out_dir):
    return [sys.executable, "-m", "delaywave"] + workload.cli_args(seed) + ["--out", out_dir]


def child_argv(*args):
    return [sys.executable, CHILD] + [str(a) for a in args]


def measure_end_to_end(workload, seed, seconds, checker, work):
    """Alternate set-up and CLI children until `seconds` have passed, then
    add set-up children (cheap on most workloads) up to MAX_SETUPS while
    set-up has taken less than SETUP_SHARE of `seconds`."""
    setups, reps = [], []
    setup_wall = 0.0

    def set_up(label):
        nonlocal setup_wall
        child = spawn(child_argv("setup", workload.name, seed), f"{work}/{label}")
        setup_wall += child.wall_s
        line = child.json_line()
        if child.code != 0 or line is None:
            checker.problems.append(f"{label} child exited with code {child.code}")
            return False
        setups.append(line["setup_s"])
        return True

    started = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - started < seconds:
        k = len(reps)
        set_up(f"setup{k}")
        out_dir = f"{work}/rep{k}"
        cli = spawn(cli_argv(workload, seed, out_dir), out_dir)
        scenarios = checker.check_run(f"rep{k}", cli.code, out_dir)
        steps = sum(sc.steps for sc in scenarios if sc.summary is not None)
        reps.append({"wall_s": cli.wall_s, "cpu_s": cli.cpu_s, "steps": steps,
                     "steps_per_s": steps / cli.wall_s,
                     "peak_rss_mb": m.peak_rss_mb(cli.maxrss_kb), "code": cli.code})
    while len(setups) < MIN_SETUPS or (
            len(setups) < MAX_SETUPS and setup_wall < SETUP_SHARE * seconds):
        if not set_up(f"setup{len(setups)}"):
            break
    values = {
        "wall_s": m.median([r["wall_s"] for r in reps]),
        # the fastest set-up: a set-up child is short enough that each one
        # lands in a fast or a slow phase of this shared host, and a median
        # over a handful of them flips between the two
        "setup_s": min(setups) if setups else 0.0,
        "steps_per_s": m.median([r["steps_per_s"] for r in reps]),
        # the peak over repetitions: whether a run touches a few more MB
        # varies from run to run, and a median of two would split the modes
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
    }
    return values, {"reps": reps, "setup_s": setups}


def measure_per_layer(workload, seed, checker, work):
    """One untraced CLI run, one traced run and, for a sweep, the traced
    serial baseline; per-layer metrics come from the traced spans."""
    plain_dir = f"{work}/untraced"
    plain = spawn(cli_argv(workload, seed, plain_dir), plain_dir)
    checker.check_run("untraced", plain.code, plain_dir)

    traced_dir = f"{work}/traced"
    spans_path = f"{work}/spans.json"
    traced = spawn(child_argv("traced", workload.name, seed, traced_dir, spans_path),
                   traced_dir)
    checker.check_run("traced", traced.code, traced_dir)
    dump = _load_dump(spans_path, checker)

    serial_s = None
    if workload.is_sweep:
        serial_dir = f"{work}/serial"
        serial_spans = f"{work}/serial-spans.json"
        serial = spawn(child_argv("serial", workload.name, seed, serial_dir, serial_spans),
                       serial_dir)
        checker.check_run("serial", serial.code, serial_dir, sweep_table=False)
        serial_s = _load_dump(serial_spans, checker).get("serial_s")

    totals = m.layer_totals(dump.get("spans", []))
    values = per_layer_values(dump, totals, serial_s, traced.wall_s, plain.wall_s)
    self_s = {name: t["self_s"] for name, t in
              sorted(totals.items(), key=lambda item: -item[1]["self_s"])}
    return values, {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s,
                    "spans_file": os.path.relpath(spans_path, ROOT),
                    "spans": len(dump.get("spans", [])), "self_s_by_layer": self_s}


def _load_dump(path, checker):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        checker.problems.append(f"span dump {os.path.basename(path)} unreadable: {exc}")
        return {}


def per_layer_values(dump, totals, serial_s, traced_wall_s, untraced_wall_s):
    """Every per-layer metric from one traced run; 0 where a layer did not run."""
    spans = dump.get("spans", [])

    def total(name, key="s"):
        return totals.get(name, {}).get(key, 0)

    step_s = total("solver.step")
    step_calls = total("solver.step", "calls")
    z_bytes = dump.get("counts", {}).get("solver.step.z_bytes", 0)
    sweep = m.sweep_stats(spans, serial_s)
    values = {
        "solver.step.s": step_s,
        "solver.step.calls": step_calls,
        "solver.step.us_per_call": 1e6 * step_s / step_calls if step_calls else 0.0,
        "solver.step.gbps_computed": z_bytes / step_s / 1e9 if step_s else 0.0,
        "solver.run.self_s": total("solver.run", "self_s"),
        "scenario.run_scenario.self_s": total("scenario.run_scenario", "self_s"),
        "analysis.certify.repeat_share": m.repeat_share(dump.get("certify_calls", [])),
        "cli.import_s": dump.get("import_s", 0.0),
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "trace.coverage": m.coverage(spans, traced_wall_s),
    }
    for key, value in sweep.items():
        values[f"scenario.sweep.{key}"] = value
    for name in PER_LAYER_UNITS:
        layer, _, field = name.rpartition(".")
        if name not in values:
            values[name] = total(layer, field)
    return values


def metadata(seed):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(cache_dir)):
            fields = []
            for key in ("level", "type", "size"):
                with open(os.path.join(cache_dir, index, key)) as handle:
                    fields.append(handle.read().strip())
            caches["L{}-{}".format(*fields[:2]).lower()] = fields[2]
    except OSError:
        pass
    src = os.path.join(ROOT, SRC_DIR, "delaywave")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as handle:
                lines += sum(1 for _ in handle)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "seed": seed,
        "src_lines": lines,
    }


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(workload, args):
    """Measure one workload, print its table and return its result, or None
    when delaywave cannot even be imported."""
    with open(os.path.join(ROOT, BENCH_DIR, "reference", f"{workload.name}.json")) as handle:
        reference = json.load(handle)

    work = run_dir(workload)
    warm = spawn(child_argv("import"), f"{work}/warmup")  # also writes the .pyc files
    if warm.code != 0:
        print(f"error: importing delaywave failed (code {warm.code}); see "
              f"{os.path.relpath(work, ROOT)}/warmup.stderr", file=sys.stderr)
        return None

    checker = Checker(workload, args.seed, reference)
    if args.trace:
        values, detail = measure_per_layer(workload, args.seed, checker, work)
        units = PER_LAYER_UNITS
    else:
        values, detail = measure_end_to_end(workload, args.seed, args.seconds, checker, work)
        units = END_TO_END_UNITS

    meta = metadata(args.seed)
    frac = m.failed_frac(checker.failed, checker.attempted)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:44s} {_fmt(values[name]):>14s} {unit}")
    print(f"  {'failed_frac':44s} {_fmt(frac):>14s} fraction "
          f"({checker.failed} of {checker.attempted} scenarios)")
    json_note = (f"{checker.json_identical}/{checker.json_compared} summary.json"
                 if checker.json_compared else f"summary.json not compared (seed != {reference['seed']})")
    print(f"  byte-identical to reference: {checker.csv_identical}/{checker.attempted} "
          f"trajectory.csv, {json_note}")
    if args.trace:
        print(f"  self time by layer, share of the traced wall {detail['traced_wall_s']:.3f} s:")
        for name, seconds in detail["self_s_by_layer"].items():
            print(f"    {name:42s} {seconds:10.4f} s {seconds / detail['traced_wall_s']:7.1%}")
    for problem in checker.problems:
        print(f"  problem: {problem}")
    print("  metadata: " + json.dumps(meta, sort_keys=True))

    result = {
        "correct": checker.failed == 0 and not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(work, f"result-trace{args.trace}.json"), "w") as handle:
        json.dump({**result, "failed_frac": frac, "metadata": meta, "detail": detail,
                   "byte_identical": {"csv": checker.csv_identical,
                                      "json": checker.json_identical,
                                      "json_compared": checker.json_compared},
                   "problems": checker.problems}, handle, indent=2)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, SRC_DIR, "delaywave", "__init__.py")):
        print(f"error: no delaywave sources under {SRC_DIR}/ in {ROOT}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args)
        if results[name] is None:
            return 3
    if len(results) == 1:
        (final,) = results.values()
    else:  # one line for all workloads, metrics named WORKLOAD.METRIC
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
