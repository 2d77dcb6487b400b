"""The bench tracer wraps package functions by module and attribute name
(``bench/tracer.py``'s WRAP_POINTS). A refactor that moves or renames one of
them must fail here instead of silently breaking ``bench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_wrap_points_exist_and_are_callable():
    spec = importlib.util.spec_from_file_location("delaywave_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAP_POINTS
    for module_name, attr, span in tracer.WRAP_POINTS:
        module = importlib.import_module(f"delaywave.{module_name}")
        assert callable(getattr(module, attr, None)), \
            f"delaywave.{module_name}.{attr} (span {span}) is missing"


def test_run_calls_step_and_energy_report_through_module_globals(monkeypatch):
    # the tracer's solver.step and energetics.energy_report spans count these
    # calls by replacing the module globals, so run must look them up there
    from delaywave import solver

    calls = {"step": 0, "energy_report": 0}

    def counting(name):
        real = getattr(solver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(solver, name, counting(name))
    cfg = solver.RunConfig(nodes=(41,), u0="0.2*sin(pi*x)", t_end=0.5, sample_dt=0.05)
    problem = solver.build_problem(cfg)
    traj = solver.run(problem)
    assert calls["step"] == round(cfg.t_end / problem.config.dt)
    # one report per sample: the t = 0 report that sizes the coupling eps is
    # reused as the first sample
    assert calls["energy_report"] == len(traj.reports)
