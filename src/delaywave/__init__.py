"""delaywave: simulate and verify the delayed nonlinear wave equation with
variable-exponent damping and source."""

import os

# Before numpy loads OpenBLAS: its idle threads spin after each call and hold
# the cores that delaywave's own pool (``parallel``) runs its kernels on. A
# value the user has set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analysis import (
    DecayFit,
    GateReport,
    RegimeVerdict,
    blowup_lower_bound,
    classify,
    embedding_constant_for_bound,
    embedding_constant_for_gate,
    fit_decay,
    global_existence_gate,
)
from .config import load_preset, parse_config, serialize_config
from .delay import (
    DelayKernel,
    WeightField,
    build_kernel,
    check_mass_condition,
    check_xi_condition,
    dissipation_constant,
    xi_default,
)
from .energetics import (
    EnergyReport,
    alpha_window,
    dissipation_check,
    energy_report,
)
from .scenario import run_scenario, sweep, trajectory_csv
from .solver import (
    Problem,
    RunConfig,
    SimState,
    Trajectory,
    build_problem,
    damping_force,
    delay_force,
    init_state,
    laplacian,
    run,
    source_force,
    step,
)
from .spaces import (
    ExponentField,
    Grid,
    GridFunction,
    check_sandwich,
    discrete_poincare_constant,
    gradient_energy,
    l2_norm,
    luxemburg_norm,
    make_grid,
    modular,
    validate_exponent_pair,
)

__version__ = "0.1.0"
