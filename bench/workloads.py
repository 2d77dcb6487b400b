"""The benchmark's workloads: which CLI arguments each one runs, and why.

Paths are relative to the checkout root, which is the working directory of
every process the benchmark starts.
"""

from __future__ import annotations

from dataclasses import dataclass

BENCH_DIR = "bench"
SRC_DIR = "src"
# The seed every preset and config here leaves at its default. Only at this
# seed do the seed-dependent summary fields have a recorded reference.
DEFAULT_SEED = 1234


@dataclass(frozen=True)
class Workload:
    name: str
    source: tuple  # ("--preset", NAME) or ("--config", PATH)
    sweep_key: str = None
    sweep_values: tuple = ()
    # Sampled energy must be nonincreasing (the admissible decay regime).
    energy_nonincreasing: bool = False
    why: str = ""

    @property
    def is_sweep(self):
        return self.sweep_key is not None

    def cli_args(self, seed):
        args = list(self.source)
        if self.is_sweep:
            values = ",".join(repr(float(v)) for v in self.sweep_values)
            args += ["--sweep", f"{self.sweep_key}={values}"]
        return args + ["--seed", str(seed)]

    def scenario_dirs(self):
        """Output subdirectory of each scenario, relative to --out."""
        if not self.is_sweep:
            return [""]
        return [f"point_{self.sweep_key}={float(v)!r}" for v in self.sweep_values]

    def config_text(self, root):
        """The base config document (before any sweep axis is applied)."""
        kind, value = self.source
        if kind == "--config":
            with open(f"{root}/{value}") as handle:
                return handle.read()
        from delaywave.config import load_preset
        return load_preset(value)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="decay-1d",
            source=("--preset", "decay_exponential"),
            energy_nonincreasing=True,
            why="1-D constant-m decay run, 16000 steps: the integrator hot loop "
                "does nearly all the work; certification and the sweep pool are bypassed",
        ),
        Workload(
            name="blowup-sweep",
            source=("--preset", "blowup"),
            sweep_key="scale",
            sweep_values=(5.5, 6.0, 7.0, 8.0, 10.0),
            why="5-point blow-up sweep in the thread pool: certification, set-up "
                "and the pool dominate, and all points share certification inputs",
        ),
        Workload(
            name="box-2d",
            source=("--config", f"{BENCH_DIR}/box-2d.cfg"),
            why="65x65 damped 2-D box with variable exponents: a 17 MB memory "
                "field beyond L2, the array-exponent path, 2-D log-Hoelder check",
        ),
    )
}
