"""Mutation gate of the two reference oracles and of the process model.

    python tests/mutants.py [NAME ...]

Each mutation below replaces exact texts of one file under src/ and names
the test file that must see it: a reference oracle's for the integrator and
certification, the sweep's or the process model's for what runs in a forked
child. For each one the script copies
src/ to a temporary directory, applies the mutation there, and runs the
fixed cases of that file (``-k "not property"``) against the copy: at least
one must fail. A text that is not found exactly once fails the script, so a
refactor restates its mutations instead of dropping them. Each test file
first runs once on an unmutated copy and must pass.

SURVIVORS are mutations known to pass the tests, each with the reason. They
are run and reported, and do not fail the script, but their texts must
still match.

It is not a test module, so tier-1's collection leaves it out. It takes
about a minute. Exit status 0 when every mutation but the survivors is
caught, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
RUN = "tests/test_reference_run.py"
CERTIFY = "tests/test_reference_certify.py"
SWEEP = "tests/test_sweep.py"
PROCESS = "tests/test_process_model.py"


class Mutation(NamedTuple):
    name: str
    path: str  # under src/delaywave
    edits: tuple  # (text, replacement) pairs, each text found exactly once
    test: str


MUTATIONS = [
    # the integrator and its energy sample, against reference_run
    Mutation("caller-skips-a-lane", "solver.py",
             (("_lane_blocks(plan, range(split, n_tau))",
               "_lane_blocks(plan, range(split + 1, n_tau))"),), RUN),
    Mutation("later-tile-reads-first-m-rows", "energetics.py",
             (("a /= m_values[rows]", "a /= m_values[:rows.stop - rows.start]"),), RUN),
    Mutation("last-kick-damps-v0", "solver.py",
             (("v1 = v_half + half * (g1 - damping_force(v_half, m, mu1))",
               "v1 = v_half + half * (g1 - damping_force(v0, m, mu1))"),), RUN),
    Mutation("helper-contracts-the-callers-half", "solver.py",
             (("_point_halves(plan.z)[0]", "_point_halves(plan.z)[1]"),), RUN),
    Mutation("caller-sums-into-a-fresh-buffer", "energetics.py",
             (("sums = _contract(z, kernel, m, plan.sums, second)",
               "sums = _contract(z, kernel, m, np.zeros(plan.sums.shape), second)"),), RUN),
    Mutation("tile-off-the-gemv-row-group", "energetics.py",
             (("multiple=_GEMV_ROWS)", "multiple=_GEMV_ROWS - 1)"),), RUN),
    # certification, against reference_constant
    Mutation("1d-smooth-product-per-chunk", "analysis.py",
             (("smooth = (rng.standard_normal((batch, _N_MODES)) / decay) @ modes[0]",
               "smooth = rng.standard_normal((batch, _N_MODES)) / decay"),
              ("    smooth = smooth[rows][use_smooth]\n",
               "    smooth = smooth[rows][use_smooth]\n"
               "    if grid.dimension == 1:\n"
               "        smooth = smooth @ modes[0]\n")), CERTIFY),
    Mutation("only-the-last-chunk-maximum", "analysis.py",
             (("np.max(maxima, initial=-np.inf)", "np.max(maxima[-1:], initial=-np.inf)"),),
             CERTIFY),
    Mutation("remainder-chunk-dropped", "parallel.py",
             (("cut = [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]",
               "cut = [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]"
               "[:max(1, n // step)]"),), CERTIFY),
    Mutation("pick-and-amp-swapped", "analysis.py",
             (("    pick = rng.uniform(size=batch)\n"
               "    amp = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=(batch,)))\n",
               "    amp = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=(batch,)))\n"
               "    pick = rng.uniform(size=batch)\n"),), CERTIFY),
    Mutation("top-bound-sample-unscored", "analysis.py",
             (("best = max(best, float(chunk_max(draws, slice(top, top + 1))))",
               "best = best"),), CERTIFY),
    Mutation("bound-num-low-2p1", "analysis.py",
             (("num_low=2.0 * p1 - 2.0,", "num_low=2.0 * p1,"),), CERTIFY),
    # the certifier child's hand-off of the ratio to the calling process
    Mutation("ratio-sent-as-float32", "analysis.py",
             (("lambda: [certify()]", "lambda: [float(np.float32(certify()))]"),), CERTIFY),
    Mutation("ratio-sent-short", "parallel.py",
             (("pickle.dump(value, pipe, pickle.HIGHEST_PROTOCOL)",
               "pipe.write(pickle.dumps(value, pickle.HIGHEST_PROTOCOL)[:-1])"),), CERTIFY),
    Mutation("certifier-closes-its-pipe-end", "parallel.py",
             (("keep=(write,)", "keep=()"),), CERTIFY),
    # the process model: a forked child uses one CPU, and a child that
    # cannot be forked runs its work in the caller
    Mutation("child-keeps-the-callers-cpu-budget", "parallel.py",
             (("_child, code = True, 1", "_child, code = False, 1"),), SWEEP),
    Mutation("child-reraises-the-forks-oserror", "parallel.py",
             (('log.warning("cannot start %s (%s); running its work here", name, exc)',
               "raise"),), PROCESS),
]

SURVIVORS = [
    # no unscored sample's bound comes within the screen's ~1e-13 rounding
    # of the best ratio on these families, so no margin changes the maximum
    Mutation("no-screen-margin", "analysis.py",
             (("_SCREEN_MARGIN = 1e-6", "_SCREEN_MARGIN = 0"),), CERTIFY),
]


def _copy_src(into):
    """src/ copied under ``into``; returns the copy's package directory."""
    shutil.copytree(ROOT / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return into / "src" / "delaywave"


def _apply(package, mutation):
    path = package / mutation.path
    text = path.read_text()
    for old, new in mutation.edits:
        count = text.count(old)
        if count != 1:
            raise LookupError(f"{mutation.name}: {mutation.path} holds {old!r} {count} times")
        text = text.replace(old, new)
    path.write_text(text)


def _pytest(src, test):
    """pytest's exit code for the fixed cases of ``test``, importing delaywave
    from ``src``: 0 all passed, 1 some failed."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "-o", f"pythonpath={src}", "-k", "not property", str(ROOT / test)]
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True).returncode


def _outcome(mutation):
    """'caught', 'survived', or why the mutation could not be judged."""
    with tempfile.TemporaryDirectory() as tmp:
        package = _copy_src(Path(tmp))
        try:
            _apply(package, mutation)
        except LookupError as exc:
            return f"stale: {exc}"
        code = _pytest(package.parent, mutation.test)
    return {0: "survived", 1: "caught"}.get(code, f"pytest exit {code}")


def main(names):
    chosen = [m for m in MUTATIONS + SURVIVORS if not names or m.name in names]
    ok = True
    for test in sorted({m.test for m in chosen}):
        with tempfile.TemporaryDirectory() as tmp:
            code = _pytest(_copy_src(Path(tmp)).parent, test)
        print(f"{'unmutated':36} {test}: {'passed' if code == 0 else f'pytest exit {code}'}")
        ok &= code == 0
    for mutation in chosen:
        start = time.perf_counter()
        outcome = _outcome(mutation)
        survivor = mutation in SURVIVORS
        good = outcome == "caught" or (survivor and outcome == "survived")
        note = "" if good else "  <- fails the gate"
        if survivor and outcome == "caught":
            note = "  <- a known survivor is caught: move it to MUTATIONS"
        print(f"{mutation.name:36} {outcome} in {time.perf_counter() - start:.1f} s{note}")
        ok &= good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
