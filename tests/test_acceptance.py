"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria run first in the session (alphabetical module order), so every
preset run is built here and its wall time is charged against the budget of
the criterion that triggers it.
"""

import json
import time
from dataclasses import replace

import numpy as np

from _history import VelocityHistory, advance
from _runs import preset_result

from delaywave.analysis import blowup_lower_bound
from delaywave.config import load_preset, parse_config
from delaywave.energetics import dissipation_check, decay_inequality_constants
from delaywave.scenario import run_scenario, sweep
from delaywave.solver import build_problem, init_state, run
from delaywave.spaces import (ExponentField, GridFunction, l2_norm, luxemburg_norm,
                              make_grid, modular, check_sandwich)


class _Criterion:
    def __init__(self, num, name, budget_s):
        self.num = num
        self.name = name
        self.budget = budget_s
        self.checks = {}
        self.started = time.perf_counter()

    def check(self, label, ok):
        self.checks[label] = bool(ok)

    def finish(self):
        elapsed = time.perf_counter() - self.started
        self.checks[f"runtime <= {self.budget}s"] = elapsed <= self.budget
        ok = all(self.checks.values())
        verdict = "PASS" if ok else "FAIL"
        failed = [k for k, v in self.checks.items() if not v]
        detail = "" if ok else f"  failed: {failed}"
        print(f"ACCEPTANCE {self.num:02d} [{self.name}]: {verdict} "
              f"({elapsed:.1f}s){detail}", flush=True)
        assert ok, f"criterion {self.num} failed: {failed}"


def test_criterion_01_dissipation():
    crit = _Criterion(1, "energy dissipation bound", 10.0)
    decay_result = preset_result("decay_exponential")
    traj = decay_result.trajectory
    prob = decay_result.problem
    dt = prob.config.dt
    verdicts = [dissipation_check(a, b, prob.c0, dt)
                for a, b in zip(traj.reports[:-1], traj.reports[1:])]
    crit.check("dissipation_check true at 100% of pairs",
               all(v.ok for v in verdicts))
    steps_per_sample = round(prob.config.sample_dt / dt)
    slack = 10.0 * dt**3 * steps_per_sample
    crit.check("E nonincreasing with 10*dt^3 per-step slack",
               np.all(np.diff(traj.energies) <= slack))
    crit.finish()


def test_criterion_02_conservation():
    crit = _Criterion(2, "conservation control", 10.0)
    conservation_result = preset_result("conservation")
    traj = conservation_result.trajectory
    e = traj.energies
    drift = abs(e[-1] - e[0])
    crit.check("drift <= 1e-3 * E(0)", drift <= 1e-3 * e[0])

    cfg = conservation_result.config
    half = run(build_problem(replace(cfg, dt=cfg.dt / 2.0)))
    drift_half = abs(half.energies[-1] - half.energies[0])
    crit.check("halving dt reduces drift by >= 3.5x",
               drift >= 3.5 * drift_half)
    crit.finish()


def _transport_error(cfg):
    prob = build_problem(cfg)
    state = init_state(prob)
    history = VelocityHistory(prob, state)
    advance(state, prob, round(2.0 * cfg.tau2 / prob.config.dt), history)
    worst = 0.0
    for j, rho in enumerate(prob.rho_nodes):
        for k, tau in enumerate(prob.kernel.nodes):
            oracle = history.oracle(state, tau, rho)
            diff = GridFunction(prob.grid, state.z[k, j] - oracle.values)
            worst = max(worst, l2_norm(diff))
    return worst


def test_criterion_03_transport_fidelity():
    crit = _Criterion(3, "delay transport fidelity", 30.0)
    base = replace(parse_config(load_preset("decay_exponential")), t_end=2.0)
    coarse = _transport_error(replace(base, dt=0.0025, n_rho=32))
    fine = _transport_error(replace(base, dt=0.00125, n_rho=63))
    ratio = coarse / fine
    crit.check("halving (dt, d_rho) halves the error (ratio in [1.7, 2.3])",
               1.7 <= ratio <= 2.3)
    crit.finish()


def test_criterion_04_blowup_regime():
    crit = _Criterion(4, "blow-up regime", 20.0)
    blowup_result = preset_result("blowup")
    traj = blowup_result.trajectory
    summary = blowup_result.summary
    crit.check("summary verifies E(0) < 0",
               summary["flags"]["negative_initial_energy"])
    crit.check("classification blow-up", summary["classification"] == "blow-up")
    crit.check("terminates before t = 50",
               traj.blowup_time is not None and traj.blowup_time < 50.0)

    lvals = np.array([r.blowup_indicator for r in traj.reports], dtype=float)
    crit.check("blow-up indicator defined at every sample",
               np.all(np.isfinite(lvals)))
    crit.check("indicator nondecreasing at >= 99% of pairs",
               np.mean(np.diff(lvals) >= 0.0) >= 0.99)

    deficit = np.array([r.energy_deficit for r in traj.reports])
    phi = np.array([r.source_potential for r in traj.reports])
    mod_p = np.array([2.0 * r.elastic - r.nehari for r in traj.reports])
    p1 = blowup_result.problem.p.low
    chain = (deficit[0] > 0.0
             and np.all(deficit >= deficit[0])
             and np.all(deficit <= phi + 1e-12 * np.abs(phi))
             and np.all(deficit <= mod_p / p1 + 1e-9 * np.abs(mod_p)))
    crit.check("deficit chain 0 < H(0) <= H(t) <= phi, H(t) <= modular/p1", chain)
    crit.finish()


def test_criterion_05_lower_bound():
    crit = _Criterion(5, "blow-up time lower bound", 60.0)
    blowup_result = preset_result("blowup")
    summary = blowup_result.summary
    crit.check("T_measured >= T_low on the preset",
               summary["T_low"] is not None
               and summary["T_measured"] >= summary["T_low"])

    rows, _ = sweep(blowup_result.config, "scale", [5.5, 6.0, 7.0, 8.0, 10.0])
    ok = True
    for row in rows:
        s = row["summary"]
        ok = ok and s is not None and s["classification"] == "blow-up" \
            and s["T_low"] is not None and s["T_measured"] >= s["T_low"]
    crit.check("T_measured >= T_low across the 5-point amplitude sweep", ok)

    closed = blowup_lower_bound(1.0, 0.0, 1.0, 3.0, 3.0)
    crit.check("closed-form case ln(3/2) to 1e-6 relative",
               abs(closed - np.log(1.5)) <= 1e-6 * np.log(1.5))
    crit.finish()


def test_criterion_06_global_existence_gate():
    crit = _Criterion(6, "global existence gate", 10.0)
    decay_result = preset_result("decay_exponential")
    summary = decay_result.summary
    traj = decay_result.trajectory
    crit.check("gate passes on the decay preset", summary["gate"]["passed"])

    nehari = np.array([r.nehari for r in traj.reports])
    crit.check("I(t) > 0 at every sample", np.all(nehari > 0.0))

    p1 = decay_result.problem.p.low
    bound = 2.0 * p1 / (p1 - 2.0) * traj.energies[0]
    grads = np.array([2.0 * r.elastic for r in traj.reports])
    crit.check("grad-energy bound 2p1/(p1-2) E(0) at every sample",
               np.all(grads <= bound * (1.0 + 1e-12)))
    crit.finish()


def test_criterion_07_decay_rates():
    crit = _Criterion(7, "decay rates", 60.0)  # two presets, 30 s each
    decay_result = preset_result("decay_exponential")
    polynomial_result = preset_result("decay_polynomial")
    fit = decay_result.verdict.fit
    crit.check("m = 2 preset classified global-decay with a fit",
               decay_result.summary["classification"] == "global-decay"
               and fit is not None and fit.kind == "exponential")
    crit.check("log-linear fit R^2 >= 0.99 over the last half of [0, 40]",
               fit is not None and fit.r_squared >= 0.99)

    ptraj = polynomial_result.trajectory
    m2 = polynomial_result.problem.m.high
    t = ptraj.times
    e = ptraj.energies
    window = (t >= 5.0) & (t <= 80.0)
    diag = np.max(e[window] * (1.0 + t[window]) ** (2.0 / (m2 - 2.0))) / e[0]
    crit.check("m2 = 3 preset: sup E (1+t)^2 <= 10 E(0) over [5, 80]",
               diag <= 10.0)
    crit.finish()


def test_criterion_08_variable_exponent_suite():
    crit = _Criterion(8, "variable-exponent space suite", 5.0)
    rng = np.random.default_rng(42)
    grid = make_grid(1.0, 101)

    worst = 0.0
    for _ in range(100):
        q = rng.uniform(1.5, 6.0)
        u = GridFunction(grid, rng.standard_normal(grid.shape))
        p = ExponentField.constant(grid, q)
        classical = float(np.sum(grid.weights * np.abs(u.values) ** q)) ** (1.0 / q)
        worst = max(worst, abs(luxemburg_norm(u, p) - classical) / classical)
    crit.check("Luxemburg matches classical norm to 1e-10 on 100 functions",
               worst <= 1e-10)

    ok_ball = True
    ok_sandwich = True
    for _ in range(200):
        amp = 10.0 ** rng.uniform(-2, 2)
        u = GridFunction(grid, amp * rng.standard_normal(grid.shape))
        split = rng.uniform(0.2, 0.8)
        lo, hi = np.sort(rng.uniform(1.5, 5.0, size=2))
        p = ExponentField(grid, np.where(grid.coords[0] < split, lo, hi))
        lam = luxemburg_norm(u, p)
        rho = modular(u, p)
        if lam <= 1.0 and rho > 1.0 + 1e-9:
            ok_ball = False
        if rho <= 1.0 and lam > 1.0 + 1e-9:
            ok_ball = False
        ok_sandwich = ok_sandwich and check_sandwich(u, p)
    crit.check("unit ball property on 200 randomized pairs", ok_ball)
    crit.check("modular/norm sandwich on 200 randomized pairs", ok_sandwich)

    gridc = make_grid(1.0, 201)
    p = ExponentField(gridc, np.where(gridc.coords[0] < 0.5, 2.0, 4.0))
    u = GridFunction(gridc, np.full(gridc.shape, 2.0))
    crit.check("piecewise closed-form lambda* = 2 to 1e-8",
               abs(luxemburg_norm(u, p) - 2.0) <= 1e-8)
    crit.finish()


def test_criterion_09_weighted_delay_inequality():
    crit = _Criterion(9, "weighted-delay decay inequality", 10.0)
    decay_result = preset_result("decay_exponential")
    traj = decay_result.trajectory
    prob = decay_result.problem
    a1, a2 = decay_inequality_constants(prob.kernel, prob.xi, prob.m)

    f = np.array([r.weighted_delay for r in traj.reports])
    damping = np.array([r.damping_modular for r in traj.reports])
    bulk = np.array([r.delay_bulk_modular for r in traj.reports])
    t = traj.times
    df = np.diff(f) / np.diff(t)
    rhs = (a1 * 0.5 * (damping[1:] + damping[:-1])
           - a2 * 0.5 * (bulk[1:] + bulk[:-1])
           + 50.0 * prob.config.dt)
    crit.check("F' <= a1*damping - a2*bulk + 50dt at >= 99% of pairs",
               np.mean(df <= rhs) >= 0.99)
    crit.finish()


def test_criterion_10_determinism(tmp_path):
    crit = _Criterion(10, "bit-stable outputs", 40.0)  # two blow-up budgets
    cfg = parse_config(load_preset("blowup"))
    first = run_scenario(cfg, out_dir=str(tmp_path / "a"))
    second = run_scenario(cfg, out_dir=str(tmp_path / "b"))
    csv_a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    csv_b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    json_a = (tmp_path / "a" / "summary.json").read_bytes()
    json_b = (tmp_path / "b" / "summary.json").read_bytes()
    crit.check("CSV byte-identical across executions", csv_a == csv_b)
    crit.check("JSON byte-identical across executions", json_a == json_b)
    crit.check("summary parses and carries a config hash",
               json.loads(json_a)["config_hash"]
               == json.loads(json_b)["config_hash"])
    crit.finish()
