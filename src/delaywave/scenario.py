"""Run orchestration: admissibility gate, trajectory, post-analysis, and
bit-stable CSV/JSON serialization.

Two executions of the same config produce byte-identical outputs: numbers
are written in shortest round-trip form, randomized certifications are
seeded from the config, and nothing time- or host-dependent enters the
files (wall time goes to the log, the JSON field stays null).
"""

from __future__ import annotations

import json
import logging
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

from .analysis import (
    blowup_lower_bound,
    classify,
    embedding_constant_for_bound,
    embedding_constant_for_gate,
    fit_blowup_growth,
    global_existence_gate,
)
from .config import config_hash
from .delay import dissipation_margins
from .energetics import decay_inequality_constants
from .errors import ConditionError, ConfigError
from .solver import RunConfig, TERMINATED_BLOWUP, build_problem, run
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


def run_scenario(config: RunConfig, out_dir=None) -> ScenarioResult:
    """Full pipeline for one config; optionally writes trajectory.csv and
    summary.json into out_dir (atomically)."""
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

    trajectory = run(problem)
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

    verdict = classify(trajectory, gate, t_low=t_low, flags=flags,
                       decay_factor=problem.config.decay_factor, m2=problem.m.high)

    chi_hat = None
    if verdict.classification == "blow-up":
        chi_hat = fit_blowup_growth(trajectory, problem.alpha)

    alpha1, alpha2 = decay_inequality_constants(problem.kernel, problem.xi, problem.m)
    margins = dissipation_margins(problem.kernel, problem.xi, problem.m)
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
            "C0_max_margin": problem.c0_max_margin,
            "margin_f": margins[0],
            "margin_xi_over_m": margins[1],
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


SWEEP_FLOAT_KEYS = (
    "mu1", "scale", "tau1", "tau2", "t_end", "dt", "threshold",
    "sample_dt", "decay_factor", "alpha", "eps",
)
SWEEP_INT_KEYS = ("seed", "n_tau", "n_rho")
SWEEP_EXPR_KEYS = ("m", "p")  # swept as constant-exponent fields


def _apply_axis(cfg: RunConfig, key, value) -> RunConfig:
    if key in SWEEP_FLOAT_KEYS:
        return replace(cfg, **{key: float(value)})
    if key in SWEEP_INT_KEYS:
        if not float(value).is_integer():
            raise ConfigError(f"{key} must be an integer, got {value!r}", key=key)
        return replace(cfg, **{key: int(value)})
    if key in SWEEP_EXPR_KEYS:
        return replace(cfg, **{key: repr(float(value))})
    raise ConfigError(
        f"sweep key {key!r} is not a scalar config key; choose one of "
        + ", ".join(SWEEP_FLOAT_KEYS + SWEEP_INT_KEYS + SWEEP_EXPR_KEYS),
        key=key,
    )


def sweep(config: RunConfig, key, values, out_dir=None, max_workers=None):
    """Run one scenario per axis value; failures are recorded, not fatal.

    Returns (rows, table_csv) with rows ordered by axis value, NaN last,
    independent of input and execution order.
    """
    values = [float(v) for v in values]
    for value in values:  # a bad key or value fails before any point runs
        _apply_axis(config, key, value)

    def one(value):
        point_dir = None
        if out_dir is not None:
            point_dir = os.path.join(out_dir, f"point_{key}={_fmt(value)}")
        try:
            result = run_scenario(_apply_axis(config, key, value), point_dir)
            return (value, result.summary, None)
        except Exception as exc:  # recorded per point, sweep continues
            log.warning("sweep point %s=%s failed: %s", key, value, exc)
            return (value, None, f"{type(exc).__name__}: {exc}")

    workers = max_workers or min(4, len(values))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(one, values))
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
