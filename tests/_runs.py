"""Lazily cached preset scenario runs shared across test modules, and new
interpreters that import delaywave from where the tests do."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import delaywave
from delaywave.config import load_preset, parse_config
from delaywave.scenario import run_scenario


@functools.lru_cache(maxsize=None)
def preset_result(name):
    return run_scenario(parse_config(load_preset(name)))


def run_python(code, *args, env=os.environ, **kwargs):
    """``python -c code args...`` in a new interpreter with ``env`` and the
    directory this process imports delaywave from first on its PYTHONPATH
    (a mutated copy, under tests/mutants.py); its output captured as text."""
    src = str(Path(delaywave.__file__).resolve().parents[1])
    env = {**env, "PYTHONPATH": src + os.pathsep + env.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, **kwargs)
