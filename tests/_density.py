"""Delay kernels of a callable density, for tests: ``build_kernel`` takes
density samples only."""

import numpy as np

from delaywave.delay import build_kernel


def density_kernel(mu2, tau1, tau2, n_tau, mu1):
    """build_kernel of mu2 sampled on n_tau nodes spanning [tau1, tau2]."""
    return build_kernel(mu2(np.linspace(tau1, tau2, n_tau)), tau1, tau2, mu1)
