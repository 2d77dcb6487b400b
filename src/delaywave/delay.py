"""Distributed-delay kernel: quadrature over the delay window and the
admissibility conditions tying the delayed damping to the instantaneous one.

The kernel holds the window [tau1, tau2], nonnegative density samples
mu2(tau), one per trapezoid node on it, the instantaneous coefficient mu1
and the kernel mass M = integral mu2. Stability of the energy requires
M < mu1 (mass condition) and, node-wise in x,

    M + (tau2 - tau1) * xi(x) / m(x) < mu1,  xi(x) > 0     (weight condition)

for the weight field xi entering the energy. ``xi_default`` gives the weight
a run uses: under the mass condition the canonical choice
xi = m * (mu1 - M) / (2 (tau2 - tau1)), which satisfies the weight condition
with margin (mu1 - M)/2. The weight condition holds exactly when both
``dissipation_margins`` are positive, and the dissipation constant C0 of the
decay estimate is the smaller of them; ``solver.build_problem`` takes both
from there. ``tau_quadrature`` and ``rho_quadrature`` are the one quadrature
over the delay window and over rho in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditionError
from .spaces import ExponentField, GridFunction, _require_same_grid, trapezoid_weights


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


def tau_quadrature(tau1, tau2, n_tau):
    """The n_tau delay nodes spanning [tau1, tau2] and their
    composite-trapezoid weights."""
    nodes, h = np.linspace(tau1, tau2, n_tau, retstep=True)
    return nodes, trapezoid_weights(n_tau, h)


def build_kernel(mu2, tau1, tau2, mu1) -> DelayKernel:
    """The kernel of density samples ``mu2`` on the len(mu2) nodes of
    ``tau_quadrature``, and its mass; a run passes ``resolve_config``'s."""
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

    nodes, weights = tau_quadrature(tau1, tau2, n_tau)
    mass = float(weights @ samples)
    return DelayKernel(tau1, tau2, nodes, weights, samples, float(mu1), mass)


def check_mass_condition(kernel: DelayKernel) -> bool:
    """Strict dominance of the instantaneous damping: mass < mu1."""
    return kernel.mass < kernel.mu1


def xi_default(kernel: DelayKernel, m: ExponentField) -> GridFunction:
    """The weight of a run: xi = m * (mu1 - mass) / (2 * width) under the
    mass condition. Without it no admissible weight exists, so the energy is
    kept well defined with the positive surrogate m * mu1 / (4 * width)
    (zero when damping is disabled entirely)."""
    if check_mass_condition(kernel):
        vals = m.values * (kernel.mu1 - kernel.mass) / (2.0 * kernel.width)
    else:
        vals = m.values * kernel.mu1 / (4.0 * kernel.width)
    return GridFunction(m.grid, vals)


def dissipation_margins(kernel: DelayKernel, xi: GridFunction, m: ExponentField):
    """The two node-wise infima of the weight condition, which holds exactly
    when both are positive; the smaller bounds the energy decay rate.

    Returns (inf_x f(x), inf_x xi(x)/m(x)) with
    f(x) = mu1 - (mass + width * xi(x)/m(x)).
    """
    _require_same_grid(xi, m)
    ratio = xi.values / m.values
    f = kernel.mu1 - (kernel.mass + kernel.width * ratio)
    return float(f.min()), float(ratio.min())
