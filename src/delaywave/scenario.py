"""Run orchestration: admissibility gate, trajectory, post-analysis, and
bit-stable CSV/JSON serialization.

A run is two steps: ``simulate`` (build the problem, gate it, integrate it)
and ``analyse`` (certify, bound, classify, serialize); ``run_scenario`` is
one after the other. ``sweep`` simulates its points in forked worker
processes and analyses each in the calling process as it arrives, so
certification and its memo stay in that one process.

Two executions of the same config produce byte-identical outputs: numbers
are written in shortest round-trip form, randomized certifications are
seeded from the config, and nothing time- or host-dependent enters the
files (wall time goes to the log, the JSON field stays null).
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
import tempfile
from dataclasses import dataclass

from . import parallel
from .analysis import (
    blowup_lower_bound,
    classify,
    embedding_constant_for_bound,
    embedding_constant_for_gate,
    fit_blowup_growth,
    global_existence_gate,
)
from .config import RunConfig, _apply_axis, config_hash
from .energetics import decay_inequality_constants
from .errors import ConditionError, ConfigError
from .solver import TERMINATED_BLOWUP, build_problem, run
from .spaces import discrete_poincare_constant

log = logging.getLogger(__name__)

CSV_COLUMNS = (
    "t", "E", "H", "I", "J", "F", "L", "phi",
    "kinetic", "elastic", "delay_energy", "source_potential",
    "damping_modular", "delay_modular", "sup_u",
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CONDITIONS = 4


def _fmt(value):
    if value is None:
        return "nan"
    value = float(value)
    if math.isnan(value):
        return "nan"
    return repr(value)


def trajectory_csv(trajectory) -> str:
    """One row per sample, columns exactly as CSV_COLUMNS."""
    rows = [",".join(CSV_COLUMNS)]
    for t, rep, sup in zip(trajectory.times, trajectory.reports, trajectory.sup_u):
        rows.append(",".join((
            _fmt(t),
            _fmt(rep.total_energy),
            _fmt(rep.energy_deficit),
            _fmt(rep.nehari),
            _fmt(rep.potential_energy),
            _fmt(rep.weighted_delay),
            _fmt(rep.blowup_indicator),
            _fmt(rep.source_potential),
            _fmt(rep.kinetic),
            _fmt(rep.elastic),
            _fmt(rep.delay_energy),
            _fmt(rep.source_potential),
            _fmt(rep.damping_modular),
            _fmt(rep.delay_modular),
            _fmt(sup),
        )))
    return "\n".join(rows) + "\n"


def condition_flags(problem) -> dict:
    rep = problem.exponent_report
    return {
        "exponent_chain": rep.chain_ok,
        "log_holder_ok": rep.log_ok,
        "log_modulus_m": rep.log_modulus_damping,
        "log_modulus_p": rep.log_modulus_source,
        "mass_condition": problem.mass_ok,
        "xi_condition": problem.xi_ok,
    }


@dataclass(eq=False)
class ScenarioResult:
    config: RunConfig
    problem: object
    trajectory: object
    gate: object
    verdict: object
    summary: dict
    csv_text: str
    json_text: str


def simulate(config: RunConfig):
    """Build the problem, refuse it if an admissibility check fails (unless
    overridden), and integrate it: returns (problem, trajectory)."""
    problem = build_problem(config)
    flags = condition_flags(problem)
    failed = [name for name in ("exponent_chain", "mass_condition", "xi_condition")
              if not flags[name]]
    if failed and not problem.config.override_conditions:
        raise ConditionError(
            "admissibility checks failed: " + ", ".join(failed)
            + " (set override_conditions to run anyway)"
        )
    if failed:
        log.warning("running with failed checks (override): %s", ", ".join(failed))
    return problem, run(problem)


def analyse(problem, trajectory, out_dir=None) -> ScenarioResult:
    """Certify, gate, bound and classify one simulated run; optionally writes
    trajectory.csv and summary.json into out_dir (atomically)."""
    flags = condition_flags(problem)
    report0 = trajectory.reports[0]
    e0 = report0.total_energy
    flags["negative_initial_energy"] = bool(e0 < 0.0)

    p1, p2 = problem.p.low, problem.p.high
    c_gate = embedding_constant_for_gate(problem.grid, p1, p2, seed=problem.config.seed)
    gate = global_existence_gate(report0, p1, p2, c_gate)
    flags["nehari0_positive"] = bool(gate.nehari0 > 0.0)

    t_low = None
    c_bound = None
    blew_up = trajectory.termination == TERMINATED_BLOWUP
    if (e0 < 0.0 or blew_up) and p1 > 2.0 and report0.source_potential > 0.0:
        c_bound = embedding_constant_for_bound(problem.grid, p1, p2,
                                               seed=problem.config.seed)
        t_low = blowup_lower_bound(report0.source_potential, e0, c_bound, p1, p2)

    verdict = classify(trajectory, t_low=t_low, decay_factor=problem.config.decay_factor,
                       m2=problem.m.high)

    chi_hat = None
    if verdict.classification == "blow-up":
        chi_hat = fit_blowup_growth(trajectory, problem.alpha)

    alpha1, alpha2 = decay_inequality_constants(problem.kernel, problem.xi, problem.m)
    energies = trajectory.energies

    summary = {
        "config_hash": config_hash(problem.config),
        "config": _config_echo(problem.config),
        "flags": flags,
        "classification": verdict.classification,
        "termination": trajectory.termination,
        "T_measured": verdict.t_measured,
        "T_low": t_low,
        "lower_bound_consistent": verdict.lower_bound_consistent,
        "gate": {
            "beta": _json_num(gate.beta),
            "threshold": gate.threshold,
            "nehari0": gate.nehari0,
            "initial_energy": gate.initial_energy,
            "passed": gate.passed,
        },
        "decay_fit": _fit_echo(verdict.fit),
        "chi_hat": chi_hat,
        "constants": {
            "C0": problem.c0,
            "C0_max_margin": max(problem.margins) if problem.xi_ok else 0.0,
            "margin_f": problem.margins[0],
            "margin_xi_over_m": problem.margins[1],
            "alpha": problem.alpha,
            "eps": trajectory.eps,
            "alpha1": alpha1,
            "alpha2": alpha2,
            "c_embed_gate": c_gate,
            "c_embed_bound": c_bound,
            "poincare_l2": discrete_poincare_constant(problem.grid),
        },
        "energy": {
            "initial": float(energies[0]),
            "final": float(energies[-1]),
            "min": float(energies.min()),
            "max": float(energies.max()),
            "sup_u_max": float(trajectory.sup_u.max()),
        },
        "wall_time_seconds": None,
    }

    csv_text = trajectory_csv(trajectory)
    json_text = json.dumps(summary, indent=2) + "\n"
    if out_dir is not None:
        _write_atomic(out_dir, "trajectory.csv", csv_text)
        _write_atomic(out_dir, "summary.json", json_text)

    return ScenarioResult(problem.config, problem, trajectory, gate, verdict,
                          summary, csv_text, json_text)


def run_scenario(config: RunConfig, out_dir=None) -> ScenarioResult:
    """Full pipeline for one config; optionally writes trajectory.csv and
    summary.json into out_dir (atomically)."""
    return analyse(*simulate(config), out_dir)


def _json_num(value):
    if value is None:
        return None
    value = float(value)
    if not math.isfinite(value):
        return repr(value)  # "inf" / "-inf" / "nan" as strings, JSON-safe
    return value


def _config_echo(cfg: RunConfig) -> dict:
    echo = {}
    for name in cfg.__dataclass_fields__:
        value = getattr(cfg, name)
        if isinstance(value, tuple):
            value = [list(v) if isinstance(v, tuple) else v for v in value]
        echo[name] = value
    return echo


def _fit_echo(fit):
    if fit is None:
        return None
    return {
        "kind": fit.kind,
        "rate": _json_num(fit.rate),
        "r_squared": _json_num(fit.r_squared),
        "boundedness": _json_num(fit.boundedness),
        "window": list(fit.window),
        "note": fit.note,
    }


def _write_atomic(out_dir, name, text):
    os.makedirs(out_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=f".{name}.")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, os.path.join(out_dir, name))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _simulate_point(config):
    """simulate() as a sweep worker runs it: a failure comes back as its
    text, formatted where it was raised, so an exception that does not
    pickle (an unpicklable field, or required arguments other than the
    message) cannot stop the sweep."""
    try:
        return simulate(config)
    except Exception as exc:  # recorded per point, sweep continues
        return f"{type(exc).__name__}: {exc}"


def _fork_pool(processes):
    """A pool of `processes` forked workers; None where fork is not available.

    fork, not spawn or forkserver: a forked worker starts with numpy and
    delaywave already imported. It relies on no other inherited state: a
    worker only simulates, so it never reads the certification memo. Each
    worker is capped at one CPU, its share, so it forks no shift helper and
    contracts each energy sample in its own thread.
    """
    import multiprocessing  # here: a single run never imports it

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork").Pool(processes,
                                                    initializer=parallel.use_one_cpu)


def _simulations(configs):
    """_simulate_point of each config, in input order, as each is done: on
    forked worker processes with several points and CPUs, while the caller
    works on those already done; otherwise inline, starting no process."""
    processes = min(len(configs), parallel.workers())
    pool = _fork_pool(processes) if processes > 1 else None
    if pool is None:
        yield from map(_simulate_point, configs)
        return
    with pool:
        yield from pool.imap(_simulate_point, configs)


def _analyse_point(point, out_dir):
    """(summary, None) for a simulated point, (None, error text) otherwise."""
    if isinstance(point, str):
        return None, point
    try:
        return analyse(*point, out_dir).summary, None
    except Exception as exc:  # recorded per point, sweep continues
        return None, f"{type(exc).__name__}: {exc}"


def sweep(config: RunConfig, key, values, out_dir=None):
    """Run one scenario per axis value; failures are recorded, not fatal.

    Points are simulated by ``_simulations`` and each is analysed (and
    certified) here, in input order, as it arrives. Returns (rows, table_csv) with rows ordered by axis value, NaN last,
    independent of input and execution order.
    """
    values = [float(v) for v in values]
    # a bad key or value fails before any point runs, and so does a repeated
    # value, which would run its point twice and write its directory twice
    configs = [_apply_axis(config, key, value) for value in values]
    for i, value in enumerate(values):
        if any(value == other for other in values[:i]):
            raise ConfigError(f"sweep value {_fmt(value)} of {key} is repeated", key=key)

    results = []
    with contextlib.closing(_simulations(configs)) as simulated:
        for value, point in zip(values, simulated):
            point_dir = None
            if out_dir is not None:
                point_dir = os.path.join(out_dir, f"point_{key}={_fmt(value)}")
            summary, error = _analyse_point(point, point_dir)
            if error is not None:
                log.warning("sweep point %s=%s failed: %s", key, value, error)
            results.append((value, summary, error))
    results.sort(key=lambda item: (math.isnan(item[0]), item[0]))

    header = (key, "classification", "termination", "T_measured", "T_low",
              "E0", "E_final", "gate_passed", "error")
    lines = [",".join(header)]
    rows = []
    for value, summary, error in results:
        if summary is None:
            lines.append(",".join((_fmt(value), "failed", "", "", "", "", "", "", error or "")))
        else:
            lines.append(",".join((
                _fmt(value),
                summary["classification"],
                summary["termination"],
                _fmt(summary["T_measured"]),
                _fmt(summary["T_low"]),
                _fmt(summary["energy"]["initial"]),
                _fmt(summary["energy"]["final"]),
                str(summary["gate"]["passed"]).lower(),
                "",
            )))
        rows.append({"value": value, "summary": summary, "error": error})
    table = "\n".join(lines) + "\n"
    if out_dir is not None:
        _write_atomic(out_dir, "sweep.csv", table)
    return rows, table
