"""Tests of the benchmark's own metric computations, on fake spans, fake
rusage values and hand-written output files.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import sys
import threading
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics as m  # noqa: E402
import outputs  # noqa: E402
from tracer import Tracer  # noqa: E402


def span(id_, name, start, end, parent=None, scenario=None, error=False):
    return [id_, name, start, end, parent, scenario, 0, error]


def test_self_time_subtracts_child_coverage():
    spans = [
        span(1, "solver.run", 0.0, 10.0),
        span(2, "solver.step", 1.0, 3.0, parent=1),
        span(3, "solver.step", 4.0, 5.0, parent=1),
        span(4, "energetics.energy_report", 6.0, 6.5, parent=1),
    ]
    own = m.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 2.0 - 1.0 - 0.5)
    assert own[2] == pytest.approx(2.0)
    totals = m.layer_totals(spans)
    assert totals["solver.step"] == {"s": pytest.approx(3.0), "self_s": pytest.approx(3.0),
                                     "calls": 2}


def test_self_time_counts_overlapping_children_once():
    # Two pool workers overlap inside the sweep; a child also sticks out.
    spans = [
        span(1, "scenario.sweep", 0.0, 10.0),
        span(2, "scenario.run_scenario", 1.0, 6.0, parent=1),
        span(3, "scenario.run_scenario", 2.0, 8.0, parent=1),
        span(4, "scenario.run_scenario", 9.5, 11.0, parent=1),
    ]
    assert m.self_times(spans)[1] == pytest.approx(10.0 - 7.0 - 0.5)


def test_coverage_is_summed_self_time_over_wall():
    spans = [span(1, "solver.run", 0.0, 4.0), span(2, "solver.step", 1.0, 2.0, parent=1)]
    assert m.coverage(spans, 5.0) == pytest.approx(4.0 / 5.0)
    assert m.coverage(spans, 0.0) == 0.0


def test_repeat_share_counts_repeated_inputs_per_function():
    gate, bound = "analysis.embedding_constant_for_gate", "analysis.embedding_constant_for_bound"
    five_points = [[gate, "k"], [bound, "k"]] * 5
    assert m.repeat_share(five_points) == pytest.approx(0.8)
    # the same key under another function is not a repeat
    assert m.repeat_share([[gate, "k"], [bound, "k"]]) == 0.0
    assert m.repeat_share([[gate, "a"], [gate, "b"], [gate, "a"]]) == pytest.approx(1 / 3)
    assert m.repeat_share([]) == 0.0


def test_sweep_speedup_and_concurrency():
    spans = [
        span(1, "scenario.sweep", 0.0, 4.0),
        span(2, "scenario.run_scenario", 0.0, 3.0, parent=1),
        span(3, "scenario.run_scenario", 0.5, 4.0, parent=1, error=True),
        span(4, "scenario.run_scenario", 10.0, 11.0),  # not a point of the sweep
    ]
    stats = m.sweep_stats(spans, serial_s=6.0)
    assert stats["s"] == pytest.approx(4.0)
    assert stats["serial_s"] == pytest.approx(6.0)
    assert stats["speedup"] == pytest.approx(1.5)
    assert stats["concurrency"] == pytest.approx(6.5 / 4.0)
    assert stats["points_failed"] == 1
    assert m.sweep_stats([span(1, "solver.run", 0.0, 1.0)], None)["speedup"] == 0.0


def test_failed_frac():
    assert m.failed_frac(0, 25) == 0.0
    assert m.failed_frac(2, 8) == pytest.approx(0.25)
    assert m.failed_frac(0, 0) == 1.0  # nothing attempted is not a success


def test_peak_rss_from_fake_rusage():
    usage = types.SimpleNamespace(ru_maxrss=90112)  # KiB, as on Linux
    assert m.peak_rss_mb(usage.ru_maxrss) == pytest.approx(88.0)


def _write_scenario(path, times, energies, dt, classification="global-decay", **extra):
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "trajectory.csv"), "w") as handle:
        handle.write("t,E\n")
        for t, e in zip(times, energies):
            handle.write(f"{t!r},{e!r}\n")
    summary = {"classification": classification, "config": {"dt": dt}, **extra}
    with open(os.path.join(path, "summary.json"), "w") as handle:
        json.dump(summary, handle)


def test_steps_are_counted_from_written_outputs(tmp_path):
    # 40 / 0.0025 = 16000 steps, even with the float drift of a long run
    _write_scenario(tmp_path / "a", [0.0, 20.0, 39.999999999999865], [1.0, 0.5, 0.1], 0.0025)
    sc = outputs.read_scenario(str(tmp_path), "a")
    assert sc.ok
    assert sc.steps == 16000
    assert m.steps_from_outputs(0.1385000000000001, 0.00025) == 554


def test_missing_and_malformed_outputs_fail(tmp_path):
    assert not outputs.read_scenario(str(tmp_path), "absent").ok
    _write_scenario(tmp_path / "bad", [0.0], [1.0], 0.1)
    (tmp_path / "bad" / "summary.json").write_text("{not json")
    assert not outputs.read_scenario(str(tmp_path), "bad").ok


def test_invariants(tmp_path):
    _write_scenario(tmp_path / "up", [0.0, 1.0, 2.0], [1.0, 1.1, 0.9], 0.5)
    sc = outputs.read_scenario(str(tmp_path), "up")
    outputs.check_invariants(sc, energy_nonincreasing=True)
    assert not sc.ok
    _write_scenario(tmp_path / "b", [0.0, 0.2], [-1.0, -2.0], 0.1,
                    classification="blow-up", T_measured=0.2, T_low=0.3)
    sc = outputs.read_scenario(str(tmp_path), "b")
    outputs.check_invariants(sc, energy_nonincreasing=False)
    assert not sc.ok and "T_low" in sc.problems[0]


def test_reference_skips_seed_dependent_fields_only_off_the_default_seed(tmp_path):
    _write_scenario(tmp_path / "s", [0.0, 1.0], [1.0, 0.5], 0.5, T_low=0.25,
                    energy={"final": 0.5})
    sc = outputs.read_scenario(str(tmp_path), "s")
    ref = json.loads(json.dumps(outputs.reference_entry(sc)))  # as stored on disk
    ref["summary"]["T_low"] = 0.3
    outputs.check_reference(sc, ref, seed=7, ref_seed=1234, rtol=1e-6, atol=0.0)
    assert sc.ok
    outputs.check_reference(sc, ref, seed=1234, ref_seed=1234, rtol=1e-6, atol=0.0)
    assert not sc.ok
    sc.problems.clear()
    ref["summary"]["energy"]["final"] = 0.5 * (1 + 1e-9)  # within rtol
    ref["summary"]["T_low"] = 0.25
    outputs.check_reference(sc, ref, seed=7, ref_seed=1234, rtol=1e-6, atol=0.0)
    assert sc.ok
    assert outputs.byte_identical(sc, ref, seed=7, ref_seed=1234) == (True, None)


def test_tracer_parents_follow_threads_and_scenarios():
    trace = Tracer()
    mod = types.SimpleNamespace()
    mod.step = lambda: None
    mod.run_scenario = lambda: mod.step()

    def sweep():
        workers = [threading.Thread(target=mod.run_scenario) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in workers)

    mod.sweep = sweep
    trace.wrap(mod, "step", "solver.step")
    trace.wrap(mod, "run_scenario", "scenario.run_scenario")
    trace.wrap(mod, "sweep", "scenario.sweep")
    mod.sweep()
    by_name = {}
    for s in trace.spans:
        by_name.setdefault(s[m.NAME], []).append(s)
    (sweep_span,) = by_name["scenario.sweep"]
    points = by_name["scenario.run_scenario"]
    assert all(p[m.PARENT] == sweep_span[m.ID] for p in points)
    assert sorted(p[m.SCENARIO] for p in points) == [1, 2]
    point_of = {p[m.ID]: p[m.SCENARIO] for p in points}
    for step in by_name["solver.step"]:
        assert point_of[step[m.PARENT]] == step[m.SCENARIO]


def test_tracer_marks_raised_calls():
    trace = Tracer()
    mod = types.SimpleNamespace(fail=lambda: 1 / 0)
    trace.wrap(mod, "fail", "scenario.run_scenario")
    with pytest.raises(ZeroDivisionError):
        mod.fail()
    assert trace.spans[0][m.ERROR] is True
