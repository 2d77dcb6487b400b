"""Delay kernels of a callable density, for tests: ``build_kernel`` takes
density samples only."""

from delaywave.delay import build_kernel, tau_quadrature


def density_kernel(mu2, tau1, tau2, n_tau, mu1):
    """build_kernel of mu2 sampled on the n_tau nodes of tau_quadrature."""
    return build_kernel(mu2(tau_quadrature(tau1, tau2, n_tau)[0]), tau1, tau2, mu1)
