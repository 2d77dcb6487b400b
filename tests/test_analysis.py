import numpy as np
import pytest
from pathlib import Path
from types import SimpleNamespace

from _reference_certify import _family_oracle, _ratio_oracle, split_exponents
from delaywave import analysis, parallel
from delaywave.analysis import (
    blowup_lower_bound,
    classify,
    embedding_constant_for_bound,
    embedding_constant_for_gate,
    fit_blowup_growth,
    fit_decay,
    global_existence_gate,
    _max_split_ratio,
)
from delaywave.errors import ConditionError
from delaywave.spaces import GridFunction, gradient_energies, gradient_energy, make_grid

BENCH = Path(__file__).resolve().parents[1] / "bench"


# --- life-span lower bound --------------------------------------------------------

def test_lower_bound_closed_form():
    # c = 1, p1 = p2 = 3, E0 = 0, phi0 = 1: integral of 1/(2y^2 + y) = ln(3/2)
    got = blowup_lower_bound(1.0, 0.0, 1.0, 3.0, 3.0)
    assert got == pytest.approx(np.log(1.5), rel=1e-8)


def test_lower_bound_brute_force_oracle():
    # 1e7-panel trapezoid on [phi0, 2e4] plus the same analytic tail bound
    phi0, e0, c, p1, p2 = 1.0, -0.5, 1.0, 3.0, 4.0
    upper, panels = 2e4, 10_000_000
    edges = np.linspace(phi0, upper, panels + 1)
    total = 0.0
    for lo in range(0, panels, 1_000_000):
        hi = min(lo + 1_000_000, panels)
        y = edges[lo:hi + 1]
        total += np.trapezoid(1.0 / (c * y**(p2 - 1) + c * y**(p1 - 1) + y + e0), y)
    oracle = total + upper**(2.0 - p2) / (c * (p2 - 2.0))
    got = blowup_lower_bound(phi0, e0, c, p1, p2)
    assert got == pytest.approx(oracle, rel=1e-5)


def test_lower_bound_of_the_blowup_preset_is_pinned(blowup_result):
    # the blowup preset's phi0 (source potential at t = 0), E(0),
    # c_embed_bound at seed 2024, p1 and p2; the head is integrated to 1e-9
    pinned = 0.011713628103598394
    assert blowup_lower_bound(121.5, -26.61163679563101, 0.0014318314633613065,
                              4.0, 4.0) == pinned
    assert blowup_result.summary["T_low"] == pinned


def test_lower_bound_monotonicity():
    rng = np.random.default_rng(3)
    for _ in range(25):
        phi0 = rng.uniform(0.5, 5.0)
        c = rng.uniform(0.1, 2.0)
        e0 = rng.uniform(-0.2 * phi0, 2.0)
        p1 = rng.uniform(2.2, 3.5)
        p2 = p1 + rng.uniform(0.0, 1.5)
        base = blowup_lower_bound(phi0, e0, c, p1, p2)
        assert blowup_lower_bound(phi0 * 1.5, e0, c, p1, p2) < base
        assert blowup_lower_bound(phi0, e0, c * 1.5, p1, p2) < base
        assert blowup_lower_bound(phi0, e0 + 0.5, c, p1, p2) < base


def test_lower_bound_domain_errors():
    with pytest.raises(ConditionError):
        blowup_lower_bound(1.0, 0.0, 1.0, 2.0, 2.0)  # p1 must exceed 2
    with pytest.raises(ConditionError):
        blowup_lower_bound(1.0, 0.0, -1.0, 3.0, 4.0)
    with pytest.raises(ConditionError):
        blowup_lower_bound(1.0, -5.0, 0.001, 3.0, 4.0)  # denominator root
    with pytest.raises(ConditionError):
        blowup_lower_bound(-1.0, 0.0, 1.0, 3.0, 4.0)
    with pytest.raises(ConditionError):
        blowup_lower_bound(1.0, 0.0, 1.0, 4.0, 3.0)  # p2 < p1


def test_lifespan_head_matches_quad_oracle():
    # oracle: scipy's adaptive quad in s = log y, the head's former solver,
    # at a tighter epsrel. Every third case puts e0 at -0.999999 of the rest
    # of denom(phi0), a near-pole at the lower end that a fixed rule misses.
    from scipy.integrate import quad

    rng = np.random.default_rng(20)
    for case in range(90):
        phi0 = 10.0 ** rng.uniform(-4.0, 3.0)
        c = 10.0 ** rng.uniform(-3.0, 2.0)
        p1 = rng.uniform(2.05, 6.0)
        p2 = p1 + (rng.uniform(0.0, 3.0) if case % 4 else 0.0)
        rest = c * phi0 ** (p2 - 1.0) + c * phi0 ** (p1 - 1.0) + phi0
        e0 = -0.999999 * rest if case % 3 == 0 else rng.uniform(-0.9, 2.0) * rest
        upper = max(2.0 * phi0, 10.0 ** rng.uniform(0.0, 6.0))

        def integrand(s):
            y = np.exp(s)
            return y / (c * y ** (p2 - 1.0) + c * y ** (p1 - 1.0) + y + e0)

        want, _ = quad(integrand, np.log(phi0), np.log(upper), epsabs=0.0,
                       epsrel=1e-10, limit=200)
        got = analysis._lifespan_head(phi0, e0, c, p1, p2, upper, 1e-9)
        assert got == pytest.approx(want, rel=1e-9), (phi0, e0, c, p1, p2, upper)


# --- certified embedding constants -------------------------------------------------

@pytest.mark.parametrize("kind,lengths,counts,n_samples,seed,fresh_seed,fresh_samples", [
    ("gate", 1.0, 101, 4000, 101, 1234, 1000),
    ("bound", 1.0, 101, 4000, 101, 999, 1000),
    ("gate", (1.0, 1.0), (17, 17), 1000, 77, 4321, 200),
], ids=["gate-1d", "bound-1d", "gate-2d"])
def test_certified_constant_bounds_a_fresh_family(kind, lengths, counts, n_samples, seed,
                                                  fresh_seed, fresh_samples):
    grid = make_grid(lengths, counts)
    embedding = {"gate": embedding_constant_for_gate, "bound": embedding_constant_for_bound}
    c = embedding[kind](grid, 3.0, 4.0, n_samples=n_samples, seed=seed)
    fam = _family_oracle(grid, fresh_samples, np.random.default_rng(fresh_seed))
    ratio = _ratio_oracle(grid, fam, **split_exponents(kind, 3.0, 4.0))
    assert np.all(ratio <= c * (1.0 + 1e-9))


def test_embedding_ratio_monotone_in_family_size():
    # the certified ratio is a running max, so a prefix family can never beat it
    grid = make_grid(1.0, 51)
    kw = split_exponents("gate", 3.0, 4.0)
    small = _max_split_ratio(grid, n_samples=1000,
                             rng=np.random.default_rng(7), **kw)
    large = _max_split_ratio(grid, n_samples=5000,
                             rng=np.random.default_rng(7), **kw)
    assert small <= large * (1.0 + 1e-12)


_GATE = dict(num_low=3.2, num_high=3.5, den_low=3.2, den_high=3.5, num_scale=1.0)
_BOUND = dict(num_low=4.4, num_high=5.0, den_low=4.4, den_high=5.0, num_scale=0.5)
_CERT_GRIDS = [(1.0, 101), ((1.0, 1.0), (65, 65)), ((1.0, 2.0), (33, 21))]


def test_one_dimensional_certification_runs_inline(monkeypatch):
    from delaywave.config import load_preset, parse_config

    cfg = parse_config(load_preset("decay_exponential"))
    grid = make_grid(cfg.lengths, cfg.nodes)

    def no_pool():
        raise AssertionError("the shared pool was used")

    monkeypatch.setattr(parallel, "_executor", no_pool)
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    assert _max_split_ratio(grid, n_samples=1000, rng=np.random.default_rng(1),
                            **_GATE) > 0.0
    # the patch is the pool's only door: a multi-chunk 2-D batch goes through it
    with pytest.raises(AssertionError, match="shared pool"):
        _max_split_ratio(make_grid((1.0, 1.0), (65, 65)), n_samples=100,
                         rng=np.random.default_rng(1), **_GATE)


_LOW_EXPONENT = dict(num_low=1.5, num_high=3.0, den_low=1.5, den_high=3.0, num_scale=1.0)


@pytest.mark.parametrize("exponents", [_GATE, _BOUND, _LOW_EXPONENT],
                         ids=["gate", "bound", "num_low-1.5"])
@pytest.mark.parametrize("lengths,counts", _CERT_GRIDS)
def test_screen_bounds_every_ratio_of_a_batch(lengths, counts, exponents):
    # the screen may skip a sample only if its bound is at least the exact
    # ratio; an all-zero sample (den = 0) and an exponent below 2 are +inf
    grid = make_grid(lengths, counts)
    modes = analysis._axis_modes(grid)
    for seed in (7, 2024, 1234):
        draws = analysis._family_draws(grid, 500, np.random.default_rng(seed), modes)
        draws[3][17] = 0.0  # amplitude 0: an all-zero sample
        bound = analysis._ratio_bounds(grid, modes, draws, slice(None), **exponents)
        fam = analysis._synthesize(grid, modes, draws, slice(None))
        ge = gradient_energies(fam, grid)
        valid = ge ** (exponents["den_high"] / 2.0) + ge ** (exponents["den_low"] / 2.0) > 0.0
        assert not valid[17] and np.isinf(bound[17])
        assert np.all(bound[valid] >= _ratio_oracle(grid, fam, **exponents))
        assert np.all(np.isinf(bound[~valid]))
        if exponents is _LOW_EXPONENT:
            assert np.all(np.isinf(bound))
        else:
            assert np.isfinite(bound).sum() == 499


def test_screen_scores_few_samples_of_the_2d_gate(monkeypatch):
    # box-2d's gate family: the screen leaves under 5% of 10 000 samples to
    # the exact score, and the certified bits stay the recorded ones
    scored = []
    real = analysis._synthesize

    def counted(grid, modes, draws, rows, screen=False):
        if not screen:
            scored.append(draws[2][rows].size)
        return real(grid, modes, draws, rows, screen=screen)

    monkeypatch.setattr(analysis, "_synthesize", counted)
    monkeypatch.setattr(analysis, "_ratio_memo", {})
    grid = make_grid((1.0, 1.0), (65, 65))
    c = embedding_constant_for_gate(grid, 3.2, 3.5, n_samples=10000, seed=1234)
    assert c == 0.014550392754873446
    assert 0 < sum(scored) < 500


def _bench_workloads(monkeypatch):
    """bench/workloads.py's WORKLOADS: the CLI source of each workload."""
    import importlib.util
    import sys

    spec = importlib.util.spec_from_file_location("delaywave_bench_workloads",
                                                  BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass resolves annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS


@pytest.mark.parametrize("name", ["decay-1d", "blowup-sweep", "box-2d"])
def test_certified_constants_equal_the_benchmark_reference(monkeypatch, name):
    # the recorded constants, bit for bit: a change to the draws, the screen
    # or the scoring fails here, not only in the benchmark's rtol check
    import json

    from delaywave.config import parse_config, resolve_config

    monkeypatch.setattr(analysis, "_ratio_memo", {})
    reference = json.loads((BENCH / "reference" / f"{name}.json").read_text())
    resolved = resolve_config(parse_config(
        _bench_workloads(monkeypatch)[name].config_text(BENCH.parent)))
    embeddings = {"c_embed_gate": embedding_constant_for_gate,
                  "c_embed_bound": embedding_constant_for_bound}
    recorded = {(key, value) for scenario in reference["scenarios"].values()
                for key, value in scenario["summary"]["constants"].items()
                if key in embeddings and value is not None}
    assert recorded
    for key, want in recorded:
        got = embeddings[key](resolved.grid, resolved.p.low, resolved.p.high,
                              seed=reference["seed"])
        assert got == want, (name, key)


def test_dirichlet_family_equals_one_batch_oracle():
    for lengths, counts in _CERT_GRIDS:
        grid = make_grid(lengths, counts)
        modes = analysis._axis_modes(grid)
        draws = analysis._family_draws(grid, 300, np.random.default_rng(5), modes)
        got = analysis._synthesize(grid, modes, draws, slice(None))
        assert np.array_equal(got, _family_oracle(grid, 300, np.random.default_rng(5)))


@pytest.fixture
def split_ratio_calls(monkeypatch):
    """Empty certification memo; counts the family maximizations run."""
    monkeypatch.setattr(analysis, "_ratio_memo", {})
    calls = []
    real = analysis._max_split_ratio

    def counted(*args, **kwargs):
        calls.append(kwargs["num_scale"])
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis, "_max_split_ratio", counted)
    return calls


@pytest.mark.parametrize("embedding", [embedding_constant_for_gate,
                                       embedding_constant_for_bound])
def test_embedding_memo_misses_on_every_input(embedding, split_ratio_calls):
    base = dict(grid=make_grid(1.0, 31), p1=3.0, p2=4.0, n_samples=300, seed=5)
    first = embedding(**base)
    assert embedding(**base) == first and len(split_ratio_calls) == 1
    changes = [dict(seed=6), dict(p1=3.5), dict(p2=4.5), dict(n_samples=301),
               dict(grid=make_grid(1.0, 33)), dict(grid=make_grid(1.2, 31))]
    for n, change in enumerate(changes, start=2):
        embedding(**{**base, **change})
        assert len(split_ratio_calls) == n, change
    # the safety factor scales the memoized ratio: a new constant, no new run
    assert embedding(**base, safety=3.0) == 3.0 * (first / 2.0)
    assert len(split_ratio_calls) == 1 + len(changes)


def test_embedding_memo_computes_once_under_thread_contention(split_ratio_calls):
    import sys
    import threading

    grid = make_grid(1.0, 31)
    results = []
    start = threading.Barrier(8)

    def worker():
        start.wait(timeout=30)
        results.append(embedding_constant_for_gate(grid, 3.0, 4.0, n_samples=200, seed=9))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 8 and len(set(results)) == 1
    assert split_ratio_calls == [1.0]


def test_blowup_sweep_certifies_each_constant_once(split_ratio_calls):
    from delaywave.config import load_preset, parse_config
    from delaywave.scenario import sweep

    cfg = parse_config(load_preset("blowup"))
    rows, _ = sweep(cfg, "scale", [5.5, 6.0, 7.0, 8.0, 10.0])
    assert all(row["summary"]["constants"]["c_embed_bound"] is not None
               for row in rows)
    # num_scale 1.0 is the gate family, 0.5 the bound family
    assert sorted(split_ratio_calls) == [0.5, 1.0]


@pytest.mark.parametrize("lengths,counts", [(1.0, 101), ((1.0, 2.0), (17, 23))])
def test_batched_gradient_energy_is_bitwise_per_sample(lengths, counts):
    grid = make_grid(lengths, counts)
    fam = _family_oracle(grid, 300, np.random.default_rng(11))
    per_sample = np.array([gradient_energy(GridFunction(grid, vals)) for vals in fam])
    assert np.array_equal(gradient_energies(fam, grid), per_sample)


def test_embedding_safety_factor_scales_linearly():
    grid = make_grid(1.0, 51)
    base = embedding_constant_for_bound(grid, 3.0, 4.0, n_samples=1000, seed=5)
    doubled = embedding_constant_for_bound(grid, 3.0, 4.0, n_samples=1000,
                                           seed=5, safety=4.0)
    assert doubled == pytest.approx(2.0 * base, rel=1e-14)


# --- smallness gate ----------------------------------------------------------------

def _report0(e0, nehari0):
    return SimpleNamespace(total_energy=e0, nehari=nehari0)


def test_gate_zero_gradient_fails():
    gate = global_existence_gate(_report0(0.01, 0.0), 3.0, 4.0, c_gate=0.05)
    assert not gate.passed and gate.nehari0 == 0.0


def test_gate_small_data_passes_and_scales():
    c = 0.05
    betas = []
    for s in (1.0, 0.5, 0.25, 0.125):
        gate = global_existence_gate(_report0(0.2 * s**2, 0.3 * s**2), 3.0, 4.0, c)
        betas.append(gate.beta)
    assert betas == sorted(betas, reverse=True)
    assert global_existence_gate(_report0(0.2 * 0.125**2, 0.3), 3.0, 4.0, c).passed


def test_gate_negative_energy_fails():
    gate = global_existence_gate(_report0(-1.0, 0.5), 3.0, 4.0, 0.05)
    assert not gate.passed and gate.beta == np.inf


@pytest.mark.parametrize("p1", [2.0, 1.5])
def test_gate_fails_by_construction_when_p1_is_at_most_2(p1):
    # the threshold (p1-2)/(2 p1) is not positive, and 2 p1/(p1-2) E0 is not
    # defined (p1 = 2) or negative (p1 < 2, a complex power)
    gate = global_existence_gate(_report0(0.01, 0.5), p1, 3.0, 0.05)
    assert not gate.passed and gate.beta == np.inf
    assert gate.threshold == (p1 - 2.0) / (2.0 * p1)


def test_gate_grid_stability(decay_result):
    # the certified constant is driven by grid-independent random draws, so
    # the gate quantities agree across refinement well inside 2%
    from dataclasses import replace
    from delaywave.analysis import embedding_constant_for_gate
    from delaywave.solver import build_problem, run

    coarse_cfg = replace(decay_result.config, nodes=(101,), t_end=0.5)
    prob = build_problem(coarse_cfg)
    traj = run(prob)
    c = embedding_constant_for_gate(prob.grid, prob.p.low, prob.p.high,
                                    seed=coarse_cfg.seed)
    gate_coarse = global_existence_gate(traj.reports[0], prob.p.low, prob.p.high, c)
    gate_fine = decay_result.gate
    assert gate_coarse.beta == pytest.approx(gate_fine.beta, rel=0.02)
    assert gate_coarse.nehari0 == pytest.approx(gate_fine.nehari0, rel=0.02)


# --- decay fits --------------------------------------------------------------------

def _fake_traj(times, energies):
    return SimpleNamespace(times=np.asarray(times), energies=np.asarray(energies))


def test_fit_decay_exponential_synthetic():
    t = np.linspace(0.0, 20.0, 400)
    fit = fit_decay(_fake_traj(t, np.exp(-0.7 * t)), m2=2.0)
    assert fit.kind == "exponential"
    assert fit.rate == pytest.approx(0.7, abs=1e-6)
    assert fit.r_squared >= 1.0 - 1e-9


def test_fit_decay_polynomial_synthetic():
    t = np.linspace(0.0, 50.0, 600)
    fit = fit_decay(_fake_traj(t, (1.0 + t) ** -2.0), m2=3.0)
    assert fit.kind == "polynomial"
    assert fit.rate == pytest.approx(-2.0, abs=1e-6)
    assert fit.boundedness == pytest.approx(1.0, rel=1e-9)


def test_fit_decay_window_shrinks_on_floor():
    t = np.linspace(0.0, 10.0, 100)
    e = np.exp(-0.5 * t)
    e[-5:] = 0.0  # hit the positivity floor
    fit = fit_decay(_fake_traj(t, e), m2=2.0)
    assert "window shrunk" in fit.note
    assert fit.rate == pytest.approx(0.5, abs=1e-6)


def test_fit_decay_empty_window_errors():
    t = np.linspace(0.0, 10.0, 100)
    e = np.zeros_like(t)
    with pytest.raises(ConditionError):
        fit_decay(_fake_traj(t, e), m2=2.0)


# --- classification ----------------------------------------------------------------

def _traj(termination, energies, blowup_time=None):
    return SimpleNamespace(termination=termination,
                           energies=np.asarray(energies, dtype=float),
                           blowup_time=blowup_time,
                           times=np.linspace(0.0, 1.0, len(energies)),
                           reports=[])


def test_classify_is_total():
    blow = classify(_traj("blowup-threshold", [1.0, 2.0], 0.5))
    hold = classify(_traj("reached-t-end", [1.0, 0.5]))
    # run raises NumericalError on overflow, so no trajectory ends that way;
    # any termination other than the two known ones is still inconclusive
    over = classify(_traj("stopped-early", [1.0, 2.0]))
    assert blow.classification == "blow-up" and blow.t_measured == 0.5
    assert hold.classification == "inconclusive"
    assert over.classification == "inconclusive"
    decay = classify(_traj("reached-t-end", [1.0, 0.005]))
    assert decay.classification == "global-decay"


def test_classify_zero_data_is_global_decay():
    verdict = classify(_traj("reached-t-end", [0.0, 0.0, 0.0]))
    assert verdict.classification == "global-decay"


def test_classify_negative_energy_finisher_is_inconclusive():
    # for E(0) < 0 the relative decay test is vacuous; a run that only ran
    # out of horizon before crossing the threshold proves nothing
    verdict = classify(_traj("reached-t-end", [-1.0, -5.0]))
    assert verdict.classification == "inconclusive"


def test_classify_negative_energy_short_run_end_to_end():
    from dataclasses import replace
    from delaywave.config import load_preset, parse_config
    from delaywave.scenario import run_scenario

    cfg = replace(parse_config(load_preset("blowup")), t_end=0.05, sample_dt=0.01)
    result = run_scenario(cfg)
    assert result.summary["flags"]["negative_initial_energy"]
    assert result.summary["termination"] == "reached-t-end"
    assert result.summary["classification"] == "inconclusive"


def test_classify_lower_bound_consistency_flag():
    v = classify(_traj("blowup-threshold", [1.0, 2.0], 0.5), t_low=0.1)
    assert v.lower_bound_consistent is True
    v2 = classify(_traj("blowup-threshold", [1.0, 2.0], 0.05), t_low=0.1)
    assert v2.lower_bound_consistent is False


def test_uniform_boundedness_on_gate_passing_run(decay_result):
    # kinetic + gradient energy stays below (2p1/(p1-2) + 1) * 2 E(0)
    traj = decay_result.trajectory
    p1 = decay_result.problem.p.low
    cap = (2.0 * p1 / (p1 - 2.0) + 1.0) * 2.0 * traj.energies[0]
    for rep in traj.reports:
        assert 2.0 * rep.kinetic + 2.0 * rep.elastic <= cap


def test_blowup_growth_fit_positive(blowup_result):
    chi = fit_blowup_growth(blowup_result.trajectory, blowup_result.problem.alpha)
    assert chi is not None and chi > 0.0
