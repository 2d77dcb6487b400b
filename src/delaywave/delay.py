"""Distributed-delay kernel: quadrature over the delay window and the
admissibility conditions tying the delayed damping to the instantaneous one.

The kernel holds the window [tau1, tau2], nonnegative density samples
mu2(tau), one per trapezoid node on it, the instantaneous coefficient mu1
and the kernel mass M = integral mu2. Stability of the energy requires
M < mu1 (mass condition) and, node-wise in x,

    M + (tau2 - tau1) * xi(x) / m(x) < mu1

for the positive weight field xi entering the energy. The canonical choice
xi = m * (mu1 - M) / (2 (tau2 - tau1)) satisfies it with margin (mu1 - M)/2.
The dissipation constant C0 of the decay estimate is the smaller of the two
``dissipation_margins``; ``solver.build_problem`` takes it.
``rho_quadrature`` is the memory field's one quadrature over rho in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditionError, GridMismatchError
from .spaces import ExponentField, GridFunction, trapezoid_weights


@dataclass(eq=False)
class DelayKernel:
    tau1: float
    tau2: float
    nodes: np.ndarray
    weights: np.ndarray
    mu2: np.ndarray
    mu1: float
    mass: float

    @property
    def width(self):
        return self.tau2 - self.tau1


def rho_quadrature(n_rho):
    """The memory field's rho nodes on [0, 1], their spacing and their
    composite-trapezoid weights."""
    d_rho = 1.0 / (n_rho - 1)
    return np.linspace(0.0, 1.0, n_rho), d_rho, trapezoid_weights(n_rho, d_rho)


def build_kernel(mu2, tau1, tau2, mu1) -> DelayKernel:
    """The kernel of density samples ``mu2`` on len(mu2) trapezoid nodes
    spanning [tau1, tau2], and its mass.

    A run passes ``resolve_config``'s samples on linspace(tau1, tau2, n_tau).
    """
    tau1 = float(tau1)
    tau2 = float(tau2)
    if not 0.0 < tau1 < tau2:
        raise ConditionError(f"need 0 < tau1 < tau2, got [{tau1}, {tau2}]")
    samples = np.asarray(mu2, dtype=float)
    n_tau = len(samples)
    if n_tau < 2:
        raise ConditionError("need at least 2 delay quadrature nodes")
    if not mu1 >= 0.0:
        raise ConditionError("mu1 must be nonnegative")
    if not np.all(samples >= 0.0):
        raise ConditionError("delay density mu2 must be nonnegative")

    nodes = np.linspace(tau1, tau2, n_tau)
    weights = trapezoid_weights(n_tau, (tau2 - tau1) / (n_tau - 1))
    mass = float(weights @ samples)
    return DelayKernel(tau1, tau2, nodes, weights, samples, float(mu1), mass)


def check_mass_condition(kernel: DelayKernel) -> bool:
    """Strict dominance of the instantaneous damping: mass < mu1."""
    return kernel.mass < kernel.mu1


def xi_default(kernel: DelayKernel, m: ExponentField) -> GridFunction:
    """Canonical weight xi = m * (mu1 - mass) / (2 * width); requires mass < mu1."""
    if not check_mass_condition(kernel):
        raise ConditionError(
            "mass condition fails (mass >= mu1); default weight would not be positive"
        )
    vals = m.values * (kernel.mu1 - kernel.mass) / (2.0 * kernel.width)
    return GridFunction(m.grid, vals)


def check_xi_condition(kernel: DelayKernel, xi: GridFunction, m: ExponentField) -> bool:
    """Node-wise strict inequality mass + width * xi/m < mu1."""
    if xi.grid.counts != m.grid.counts:
        raise GridMismatchError("weight and exponent fields live on different grids")
    lhs = kernel.mass + kernel.width * xi.values / m.values
    return bool(np.all(lhs < kernel.mu1))


def dissipation_margins(kernel: DelayKernel, xi: GridFunction, m: ExponentField):
    """The two node-wise infima controlling the energy decay rate.

    Returns (inf_x f(x), inf_x xi(x)/m(x)) with
    f(x) = mu1 - (mass + width * xi(x)/m(x)).
    """
    ratio = xi.values / m.values
    f = kernel.mu1 - (kernel.mass + kernel.width * ratio)
    return float(f.min()), float(ratio.min())
