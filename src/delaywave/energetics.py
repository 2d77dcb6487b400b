"""Scalar functionals of the simulation state.

All integrals are composite-trapezoid quadrature over x, rho and tau. The
elastic term uses the cell-difference gradient energy from ``spaces`` so the
conservative part of the discrete energy balance is exact up to the time
discretization. z is read in the solver's tau-major layout (n_tau, n_rho,
*grid); its integrals are one fused pass over chunks of grid points
(``_delay_integrals``), half of them in a run's helper process, so no
whole-field |z|^m is built. Report invariants
(checked in tests, exact by construction):

    total_energy     = kinetic + potential_energy
    energy_deficit   = -total_energy
    source_potential = integral |u|^{p(x)} / p(x)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import parallel
from .delay import DelayKernel, rho_quadrature
from .errors import ConditionError
from .spaces import ExponentField, GridFunction, _abs_power, _power_into, gradient_energy, \
    modular

TOL_RATE_STEPS = 50.0  # dissipation_check's slack is this many dt
# OpenBLAS's gemv scores rows in groups of 4: a row chunk rounds like the
# whole product when it starts at a multiple of 4 and holds at least 4 rows.
_GEMV_ROWS = 4


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


def _point_halves(z):
    """z's ``parallel.chunks`` of grid points, cut in two lists: a run's
    helper contracts the first, the calling process the second."""
    n_tau, n_rho = z.shape[:2]
    cut = parallel.chunks(z[0, 0].size, n_rho * n_tau, multiple=_GEMV_ROWS)
    return cut[:len(cut) // 2], cut[len(cut) // 2:]


def _contract(z, kernel, m, sums, cut):
    """``sums`` with the columns of the grid-point chunks in ``cut`` written:
    each chunk is powered, contracted, divided by m and contracted again in
    one buffer while it is in L2. Every element gets the operations of one
    whole-array pass and the chunks follow _GEMV_ROWS, so the bits are that
    pass's in either process."""
    n_tau, n_rho = z.shape[:2]
    points = sums.shape[1]
    field = z.reshape(n_tau, n_rho, points).transpose(2, 1, 0)
    rho_nodes, _, rho_w = rho_quadrature(n_rho)
    tau_w = kernel.weights
    tw = kernel.nodes * tau_w
    decay_jk = np.exp(-np.outer(rho_nodes, kernel.nodes))
    w_mu = np.outer(rho_w, tw * kernel.mu2)
    w_one = np.outer(rho_w, tw)
    # (rho, tau) weights of sums rows 0-1 (of |z|^m) and 2-5 (of |z|^m / m)
    weights = [w.ravel() for w in (np.outer(rho_w, tau_w * kernel.mu2), np.outer(rho_w, tau_w),
                                   w_mu, w_one, w_mu * decay_jk, w_one * decay_jk)]
    m_values = m.values.reshape(points, 1, 1)
    # m.power is chosen on the whole field, so a chunk gets the whole array's bits
    exponent = m_values if isinstance(m.power, np.ndarray) else m.power
    # one buffer for every chunk: a fresh one per chunk is paged in again each time
    scratch = np.empty((max((c.stop - c.start for c in cut), default=0), n_rho, n_tau))
    for rows in cut:
        a = _power_into(scratch[:rows.stop - rows.start], field[rows],
                        exponent[rows] if exponent is m_values else exponent)
        flat = a.reshape(len(a), -1)
        for k in (0, 1):
            sums[k, rows] = np.dot(flat, weights[k])
        sums[6, rows] = np.sum(a[:, -1] * tau_w, axis=-1)
        a /= m_values[rows]
        for k in (2, 3, 4, 5):
            sums[k, rows] = np.dot(flat, weights[k])
    return sums


def _delay_integrals(z, kernel, xi, m, grid_weights, plan=None):
    """(delay_energy, weighted_delay, bulk_modular, delay_modular) of the
    memory field.

    delay_energy   = iiint tau (mu2 + xi) |z|^m / m
    weighted_delay = same with an extra exp(-rho tau) factor
    bulk_modular   = iiint (mu2 + xi) |z|^m
    delay_modular  = iint |z(rho = 1)|^m

    ``_contract`` of every chunk, so no whole-field |z|^m is built. When
    ``plan`` (the solver's plan of z) has a helper and there are several
    chunks, the helper contracts the first half into the plan's shared sums
    while this process contracts the second.
    """
    helper = plan.helper if plan is not None else None
    first, second = _point_halves(z)
    if helper is not None and first:
        helper.contract()
        sums = _contract(z, kernel, m, plan.sums, second)
        helper.wait()
    else:
        sums = _contract(z, kernel, m, np.empty((7, grid_weights.size)), first + second)
    bulk_mu, bulk_one, e_mu, e_one, f_mu, f_one, tail = sums.reshape((7,) + grid_weights.shape)
    energy = float(np.sum(grid_weights * (e_mu + xi.values * e_one)))
    weighted = float(np.sum(grid_weights * (f_mu + xi.values * f_one)))
    bulk = float(np.sum(grid_weights * (bulk_mu + xi.values * bulk_one)))
    return energy, weighted, bulk, float(np.sum(grid_weights * tail))


def blowup_indicator(state, deficit, alpha, eps):
    """deficit^(1 - alpha) + eps * integral(u v); None unless alpha is set and
    the deficit positive, as it only means something at negative energy."""
    if alpha is None or not deficit > 0.0:
        return None
    cross = float(np.sum(state.u.grid.weights * state.u.values * state.v.values))
    return deficit ** (1.0 - alpha) + eps * cross


def energy_report(state, m, p, kernel, xi, alpha=None, eps=0.0) -> EnergyReport:
    """Evaluate every functional on one state.

    ``alpha``/``eps`` parameterize the blow-up indicator (``blowup_indicator``).
    """
    grid = state.u.grid
    w = grid.weights
    u = state.u.values
    v = state.v.values

    kinetic = 0.5 * float(np.sum(w * v * v))
    elastic = 0.5 * gradient_energy(state.u)

    abs_u_p = _abs_power(u, p)
    source_modular = float(np.sum(w * abs_u_p))
    source_potential = float(np.sum(w * abs_u_p / p.values))

    delay_energy, weighted_delay, delay_bulk, delay_modular = _delay_integrals(
        state.z, kernel, xi, m, w, getattr(state, "plan", None))
    damping_modular = modular(state.v, m)

    potential_energy = elastic + delay_energy - source_potential
    total_energy = kinetic + potential_energy
    deficit = -total_energy
    nehari = 2.0 * elastic - source_modular

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
        blowup_indicator=blowup_indicator(state, deficit, alpha, eps),
        damping_modular=damping_modular,
        delay_modular=delay_modular,
        delay_bulk_modular=delay_bulk,
    )


@dataclass(frozen=True)
class DissipationVerdict:
    """Sampled energy slope versus the decay bound between two reports."""

    rate: float
    bound: float
    applicable: bool
    ok: bool


def dissipation_check(before: EnergyReport, after: EnergyReport, c0: float,
                      dt: float) -> DissipationVerdict:
    """Check dE/dt <= -c0 (damping modular + delay modular) + slack.

    The modulars are midpoint-averaged between the two reports; the slack
    TOL_RATE_STEPS * dt absorbs the finite-difference estimate of the slope.
    With damping disabled (c0 = 0) the bound is vacuous and the verdict only
    requires |dE/dt| <= slack, flagged not-applicable.
    """
    if after.t <= before.t:
        raise ConditionError("reports must be ordered in time")
    tol = TOL_RATE_STEPS * dt
    rate = (after.total_energy - before.total_energy) / (after.t - before.t)
    damping = 0.5 * (before.damping_modular + after.damping_modular)
    tail = 0.5 * (before.delay_modular + after.delay_modular)
    applicable = c0 > 0.0
    bound = -c0 * (damping + tail) if applicable else 0.0
    ok = rate <= bound + tol if applicable else abs(rate) <= tol
    return DissipationVerdict(rate, bound, applicable, bool(ok))


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


def decay_inequality_constants(kernel: DelayKernel, xi: GridFunction,
                               m: ExponentField):
    """Constants (alpha1, alpha2) for the weighted-delay decay inequality

        F' <= alpha1 * damping_modular - alpha2 * delay_bulk_modular,

    from the boundary/bulk split of the transport identity:
    alpha1 = (mass + width * max xi) / m_low and alpha2 = exp(-tau2) / m_high.
    """
    alpha1 = (kernel.mass + kernel.width * float(xi.values.max())) / m.low
    alpha2 = float(np.exp(-kernel.tau2)) / m.high
    return alpha1, alpha2
