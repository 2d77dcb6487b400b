"""delaywave: simulate and verify the delayed nonlinear wave equation with
variable-exponent damping and source."""

import os

# Before numpy loads OpenBLAS: its idle threads spin after each call and hold
# the core that a run's helper process (``solver._Helper``) shifts and
# contracts on. A value the user has set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
