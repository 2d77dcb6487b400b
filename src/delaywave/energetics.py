"""Scalar functionals of the simulation state.

All integrals are composite-trapezoid quadrature over x, rho and tau. The
elastic term uses the cell-difference gradient energy from ``spaces`` so the
conservative part of the discrete energy balance is exact up to the time
discretization. z is read in the solver's tau-major layout (n_tau, n_rho,
*grid). Report invariants (checked in tests, exact by construction):

    total_energy     = kinetic + potential_energy
    energy_deficit   = -total_energy
    source_potential = integral |u|^{p(x)} / p(x)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import parallel
from .delay import DelayKernel, WeightField
from .errors import ConditionError
from .spaces import ExponentField, gradient_energy

TOL_RATE_STEPS = 50.0  # default dissipation slack is this many dt
# Values per grid-row chunk of _delay_powers: 1 MiB of float64, so a chunk of
# a is still in L2 when b is formed from it.
_CHUNK_VALUES = 1 << 17
# memory_tail's transpose of z[:, -1], keyed by z.ndim (1-D and 2-D grids)
_TAIL_AXES = {3: (1, 0), 4: (1, 2, 0)}


@dataclass(frozen=True)
class EnergyReport:
    """All energy-like functionals at one time instant."""

    t: float
    kinetic: float
    elastic: float
    delay_energy: float
    source_potential: float
    total_energy: float
    energy_deficit: float
    nehari: float
    potential_energy: float
    weighted_delay: float
    blowup_indicator: float
    damping_modular: float
    delay_modular: float
    delay_bulk_modular: float


def _rho_weights(n_rho):
    d = 1.0 / (n_rho - 1)
    w = np.full(n_rho, d)
    w[0] = w[-1] = d / 2.0
    return w


def memory_tail(z):
    """The rho = 1 tail of a tau-major memory field z (n_tau, n_rho, *grid),
    as a C-contiguous (*grid, n_tau) copy: a sum over its last axis keeps
    numpy's pairwise order, which a sum over tau in place would not."""
    return np.ascontiguousarray(z[:, -1].transpose(_TAIL_AXES[z.ndim]))


def _abs_power(w, exponent_values, extra_axes=0, out=None, rows=slice(None)):
    """|w|**exponent on the leading-axis slice ``rows``, with a fast path for
    spatially constant exponents, written into ``out[rows]`` when given.

    The path is chosen on the whole exponent field, so a slice gets the bits
    the whole array would.
    """
    lo = float(exponent_values.min())
    hi = float(exponent_values.max())
    w = w[rows]
    out = None if out is None else out[rows]
    with np.errstate(over="ignore"):
        if lo == hi == 2.0:
            return np.multiply(w, w, out=out)
        out = np.abs(w, out=out)
        if lo == hi:
            out **= lo
        else:
            exponent = exponent_values[rows]
            out **= exponent.reshape(exponent.shape + (1,) * extra_axes)
        return out


def _delay_powers(z, m_values):
    """a = |z|^m and b = a / m as the C-ordered (*grid, n_rho, n_tau)
    transpose of z, so reductions over them run in the grid-major order.

    They are built in grid-row chunks of about _CHUNK_VALUES values on the
    shared pool; each element gets the same operations as in one whole-array
    pass, so the bits are those of that pass. A field of one chunk (any 1-D
    preset) runs inline.
    """
    field = np.moveaxis(z, (0, 1), (-1, -2))
    a = np.empty(field.shape)
    b = np.empty(field.shape)

    def fill(rows):
        _abs_power(field, m_values, extra_axes=2, out=a, rows=rows)
        np.divide(a[rows], m_values[rows][..., None, None], out=b[rows])

    parallel.map(fill, parallel.chunks(field.shape[0], field[0].size, _CHUNK_VALUES))
    return a, b


def _delay_integrals(z, kernel, xi, m, grid_weights):
    """(delay_energy, weighted_delay, bulk_modular) of the memory field.

    delay_energy   = iiint tau (mu2 + xi) |z|^m / m
    weighted_delay = same with an extra exp(-rho tau) factor
    bulk_modular   = iiint (mu2 + xi) |z|^m
    """
    rho_w = _rho_weights(z.shape[1])
    rho_nodes = np.linspace(0.0, 1.0, z.shape[1])
    tau_w = kernel.weights
    tw = kernel.nodes * tau_w
    decay_jk = np.exp(-np.outer(rho_nodes, kernel.nodes))

    # The tensordots take the whole arrays: OpenBLAS picks its kernel by row
    # count, so a row chunk could round differently.
    a, b = _delay_powers(z, m.values)

    def triple(field, jk_weight):
        return np.tensordot(field, jk_weight, axes=([-2, -1], [0, 1]))

    w_mu = np.outer(rho_w, tw * kernel.mu2)
    w_one = np.outer(rho_w, tw)
    energy = float(
        np.sum(grid_weights * (triple(b, w_mu) + xi.values * triple(b, w_one)))
    )
    weighted = float(
        np.sum(grid_weights * (triple(b, w_mu * decay_jk)
                               + xi.values * triple(b, w_one * decay_jk)))
    )
    bulk_mu = np.outer(rho_w, tau_w * kernel.mu2)
    bulk_one = np.outer(rho_w, tau_w)
    bulk = float(
        np.sum(grid_weights * (triple(a, bulk_mu) + xi.values * triple(a, bulk_one)))
    )
    return energy, weighted, bulk


def energy_report(state, m, p, kernel, xi, alpha=None, eps=0.0) -> EnergyReport:
    """Evaluate every functional on one state.

    ``alpha``/``eps`` parameterize the blow-up indicator; it is reported as
    None whenever the energy deficit is not positive (the indicator is only
    meaningful for negative-energy trajectories).
    """
    grid = state.u.grid
    w = grid.weights
    u = state.u.values
    v = state.v.values
    z = state.z

    kinetic = 0.5 * float(np.sum(w * v * v))
    elastic = 0.5 * gradient_energy(state.u)

    abs_u_p = _abs_power(u, p.values)
    source_modular = float(np.sum(w * abs_u_p))
    source_potential = float(np.sum(w * abs_u_p / p.values))

    delay_energy, weighted_delay, delay_bulk = _delay_integrals(z, kernel, xi, m, w)

    tail_pow = _abs_power(memory_tail(z), m.values, extra_axes=1)
    delay_modular = float(np.sum(w * np.sum(tail_pow * kernel.weights, axis=-1)))
    damping_modular = float(np.sum(w * _abs_power(v, m.values)))

    potential_energy = elastic + delay_energy - source_potential
    total_energy = kinetic + potential_energy
    deficit = -total_energy
    nehari = 2.0 * elastic - source_modular

    indicator = None
    if alpha is not None and deficit > 0.0:
        cross = float(np.sum(w * u * v))
        indicator = deficit ** (1.0 - alpha) + eps * cross

    return EnergyReport(
        t=float(state.t),
        kinetic=kinetic,
        elastic=elastic,
        delay_energy=delay_energy,
        source_potential=source_potential,
        total_energy=total_energy,
        energy_deficit=deficit,
        nehari=nehari,
        potential_energy=potential_energy,
        weighted_delay=weighted_delay,
        blowup_indicator=indicator,
        damping_modular=damping_modular,
        delay_modular=delay_modular,
        delay_bulk_modular=delay_bulk,
    )


@dataclass(frozen=True)
class DissipationVerdict:
    """Sampled energy slope versus the decay bound between two reports."""

    rate: float
    bound: float
    tol: float
    applicable: bool
    ok: bool


def dissipation_check(before: EnergyReport, after: EnergyReport, c0: float,
                      dt: float, tol_rate=None) -> DissipationVerdict:
    """Check dE/dt <= -c0 (damping modular + delay modular) + slack.

    The modulars are midpoint-averaged between the two reports; the slack
    (default 50 dt) absorbs the finite-difference estimate of the slope.
    With damping disabled (c0 = 0) the bound is vacuous and the verdict only
    requires |dE/dt| <= slack, flagged not-applicable.
    """
    if after.t <= before.t:
        raise ConditionError("reports must be ordered in time")
    tol = TOL_RATE_STEPS * dt if tol_rate is None else tol_rate
    rate = (after.total_energy - before.total_energy) / (after.t - before.t)
    damping = 0.5 * (before.damping_modular + after.damping_modular)
    tail = 0.5 * (before.delay_modular + after.delay_modular)
    applicable = c0 > 0.0
    bound = -c0 * (damping + tail) if applicable else 0.0
    ok = rate <= bound + tol if applicable else abs(rate) <= tol
    return DissipationVerdict(rate, bound, tol, applicable, bool(ok))


def alpha_window(m: ExponentField, p: ExponentField) -> float:
    """Largest admissible exponent for the blow-up indicator."""
    p1 = p.low
    m2 = m.high
    window = min((p1 - 2.0) / (2.0 * p1), (p1 - m2) / (p1 * (m2 - 1.0)))
    if window <= 0.0:
        raise ConditionError(
            f"exponent bounds (m_high={m2}, p_low={p1}) leave no admissible window"
        )
    return window


def blowup_functional(state, deficit, alpha, eps) -> float:
    """deficit^{1-alpha} + eps * integral(u v); None when deficit <= 0."""
    if deficit <= 0.0:
        return None
    w = state.u.grid.weights
    cross = float(np.sum(w * state.u.values * state.v.values))
    return deficit ** (1.0 - alpha) + eps * cross


def weighted_delay_functional(state, kernel: DelayKernel, xi: WeightField,
                              m: ExponentField) -> float:
    """The exp(-rho tau)-weighted delay energy content."""
    _, weighted, _ = _delay_integrals(state.z, kernel, xi, m, state.u.grid.weights)
    return weighted


def decay_inequality_constants(kernel: DelayKernel, xi: WeightField,
                               m: ExponentField):
    """Constants (alpha1, alpha2) for the weighted-delay decay inequality

        F' <= alpha1 * damping_modular - alpha2 * delay_bulk_modular,

    from the boundary/bulk split of the transport identity:
    alpha1 = (mass + width * max xi) / m_low and alpha2 = exp(-tau2) / m_high.
    """
    alpha1 = (kernel.mass + kernel.width * float(xi.values.max())) / m.low
    alpha2 = float(np.exp(-kernel.tau2)) / m.high
    return alpha1, alpha2
