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
