"""Explicit time integration of the delayed nonlinear wave system.

State layout: ``SimState`` holds t, u and v on the spatial grid and the
memory field z(x, rho, tau) = u_t(x, t - rho tau), one C-contiguous array
stored tau-major as (n_tau, n_rho, *grid): each delay node tau owns a
contiguous transport lane, ``z[:, 0]`` is the inflow and ``z[:, -1]`` the
delayed tail. z is the only memory of past velocities; the state holds no
ring buffer of velocity snapshots. The update per step is

    1. kick:  v -> v + dt/2 * a(u, v_half, z),  damping at the half-step
       velocity via one fixed-point pass,
    2. drift: u -> u + dt * v_half,
    3. first-order upwind shift of z along rho (speed 1/tau per lane,
       CFL number dt / (tau * d_rho) <= 1),
    4. kick with the updated u and z tail, then inflow z[:, 0] = v.

The acceleration is

    a = lap(u) - mu1 * v|v|^{m(x)-2} - integral mu2(tau) z_tail|z_tail|^{m(x)-2}
        + u|u|^{p(x)-2},

with homogeneous Dirichlet walls; boundary nodes never move. ``step`` calls
the public force routines ``laplacian``, ``damping_force`` and
``source_force`` on grid arrays; ``delay_force`` is the two halves that step
and the pool lane tasks run apart, ``_delay_terms`` and ``_delay``. Every
per-step choice is resolved once, so a step runs only the ufunc calls that
do arithmetic:
- each ``ExponentField`` resolves its odd power once (m = 2 is the identity
  and copies nothing); ``build_problem`` resolves the tail exponent, the CFL
  numbers and the tail coefficients;
- the state's ``_Plan``, built on the first step, holds dt/2, the source
  switch, the upwind shift's views of z and its scratch, and one reused
  C-ordered (*grid, n_tau) buffer of delay terms. The terms are formed from
  the strided tail ``z[:, -1]`` straight into it, by the shift itself: in one
  whole-tail pass inline, or lane by lane in the pool tasks that shift the
  lanes, so the calling thread only sums them.
``run`` silences floating-point overflow once around its loop and checks
each step's state for finiteness.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import parallel
from .delay import DelayKernel, WeightField, build_kernel, check_mass_condition, \
    check_xi_condition, dissipation_constant, dissipation_margins, xi_default
from .energetics import alpha_window, blowup_indicator, energy_report
from .errors import ConfigError, NumericalError
from .expressions import compile_expression
from .spaces import ExponentField, Grid, GridFunction, make_grid, validate_exponent_pair

log = logging.getLogger(__name__)

TERMINATED_END = "reached-t-end"
TERMINATED_BLOWUP = "blowup-threshold"


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters; expression fields keep their source text."""

    dimension: int = 1
    lengths: tuple = (1.0,)
    nodes: tuple = (201,)
    m: str = "2"
    p: str = "3"
    log_holder_bound: float = 10.0
    log_holder_delta: float = 0.5
    mu1: float = 0.5
    mu2: str = "0.1"
    mu2_table: tuple = None
    tau1: float = 0.5
    tau2: float = 1.0
    n_tau: int = 16
    u0: str = "0"
    u1: str = "0"
    f0: str = "0"
    scale: float = 1.0
    t_end: float = 10.0
    dt: float = None
    n_rho: int = 32
    threshold: float = 1e6
    override_conditions: bool = False
    disable_source: bool = False
    freeze_velocity: bool = False
    seed: int = 1234
    alpha: float = None
    eps: float = None
    sample_dt: float = None
    decay_factor: float = 0.01


def auto_dt(lengths, nodes, tau1, n_rho) -> float:
    """CFL-safe step: 0.5 * min(spatial spacing, tau1 * rho spacing)."""
    h_min = min(L / (n - 1) for L, n in zip(lengths, nodes))
    d_rho = 1.0 / (n_rho - 1)
    return 0.5 * min(h_min, tau1 * d_rho)


class Resolved(NamedTuple):
    """A config that meets every rule, with the fields sampled to check it."""

    config: RunConfig  # dt and sample_dt filled in
    grid: Grid
    m: ExponentField
    p: ExponentField
    mu2: np.ndarray  # delay density on linspace(tau1, tau2, n_tau)
    u0_fn: object


def _grid_keys(dimension):
    """[grid] keys of the axis lengths and node counts; the node default."""
    if dimension == 1:
        return ("length",), ("nodes",), "201"
    return ("length_x", "length_y"), ("nodes_x", "nodes_y"), "65"


def resolve_config(cfg: RunConfig) -> Resolved:
    """Check every config rule; fill dt and sample_dt when unset.

    This is the one validator: ``parse_config`` runs it on each document and
    ``build_problem`` on each config it is given, so sweep points and configs
    built in code meet the same rules. A violation raises ConfigError naming
    the key. The grid and the fields sampled for the checks are returned, so
    ``build_problem`` compiles and samples each of them once.
    """
    if cfg.dimension not in (1, 2):
        raise ConfigError(f"dimension must be 1 or 2, got {cfg.dimension}", key="dimension")
    if not len(cfg.lengths) == len(cfg.nodes) == cfg.dimension:
        raise ConfigError(
            f"dimension {cfg.dimension} needs {cfg.dimension} lengths and node counts, "
            f"got {len(cfg.lengths)} and {len(cfg.nodes)}", key="dimension",
        )
    length_keys, node_keys, _ = _grid_keys(cfg.dimension)
    floats = list(zip(length_keys, cfg.lengths)) + [
        ("log_holder_a", cfg.log_holder_bound), ("log_holder_delta", cfg.log_holder_delta),
        ("mu1", cfg.mu1), ("tau1", cfg.tau1), ("tau2", cfg.tau2), ("scale", cfg.scale),
        ("t_end", cfg.t_end), ("dt", cfg.dt), ("threshold", cfg.threshold),
        ("alpha", cfg.alpha), ("eps", cfg.eps), ("sample_dt", cfg.sample_dt),
        ("decay_factor", cfg.decay_factor),
    ] + [("mu2_table", value) for row in cfg.mu2_table or () for value in row]
    for key, value in floats:
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{key} must be a finite number, got {value!r}", key=key)

    if cfg.t_end <= 0.0:
        raise ConfigError("t_end must be positive", key="t_end")
    if cfg.threshold <= 0.0:
        raise ConfigError("threshold must be positive", key="threshold")
    if not 0.0 < cfg.log_holder_delta < 1.0:
        raise ConfigError("log_holder_delta must lie in (0, 1)", key="log_holder_delta")
    if cfg.log_holder_bound <= 0.0:
        raise ConfigError("log_holder_a must be positive", key="log_holder_a")
    if cfg.mu1 < 0.0:
        raise ConfigError("mu1 must be nonnegative", key="mu1")
    if not 0.0 < cfg.tau1 < cfg.tau2:
        raise ConfigError("need 0 < tau1 < tau2", key="tau1")
    if cfg.n_tau < 2:
        raise ConfigError("n_tau must be at least 2", key="n_tau")
    if cfg.n_rho < 3:
        raise ConfigError("n_rho must be at least 3", key="n_rho")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg.seed}", key="seed")
    if cfg.decay_factor <= 0.0:
        raise ConfigError("decay_factor must be positive", key="decay_factor")

    # make_grid's checks, axis by axis, naming each axis's key
    for axis, (length, n) in enumerate(zip(cfg.lengths, cfg.nodes)):
        if length <= 0.0:
            raise ConfigError(f"domain length must be positive, got {float(length)}",
                              key=length_keys[axis])
        if n < 3:
            raise ConfigError(f"need at least 3 nodes per axis, got {int(n)}",
                              key=node_keys[axis])
    grid = make_grid(cfg.lengths, cfg.nodes)

    # "not >=" also rejects NaN samples.
    svars = _spatial_vars(cfg.dimension)
    m_vals = _sample_spatial(grid, compile_expression(cfg.m, svars))
    if not m_vals.min() >= 2.0:
        raise ConfigError(
            f"damping exponent m(x) must satisfy m(x) >= 2 everywhere; "
            f"sampled minimum is {float(m_vals.min())}", key="m",
        )
    p_vals = _sample_spatial(grid, compile_expression(cfg.p, svars))
    if not p_vals.min() >= 1.0:
        raise ConfigError(
            f"source exponent p(x) must satisfy p(x) >= 1 everywhere; "
            f"sampled minimum is {float(p_vals.min())}", key="p",
        )

    tau = np.linspace(cfg.tau1, cfg.tau2, cfg.n_tau)
    if cfg.mu2_table is None:
        mu2 = np.asarray(compile_expression(cfg.mu2, ("tau",))(tau=tau), dtype=float)
        mu2 = np.broadcast_to(mu2, tau.shape).copy()
        if not mu2.min() >= 0.0:
            raise ConfigError("delay density mu2 must be nonnegative", key="mu2")
    else:
        table_tau, table_mu2 = np.array(cfg.mu2_table, dtype=float).T
        if table_mu2.min() < 0.0:
            raise ConfigError("delay density mu2_table must be nonnegative", key="mu2_table")
        mu2 = np.interp(tau, table_tau, table_mu2)

    u0_fn = compile_expression(cfg.u0, svars)
    sup0 = float(np.max(np.abs(cfg.scale * _sample_spatial(grid, u0_fn))))
    if cfg.threshold <= sup0:
        raise ConfigError(
            f"threshold {cfg.threshold} must exceed the initial sup-norm {sup0}",
            key="threshold",
        )

    dt = cfg.dt
    limit = auto_dt(cfg.lengths, cfg.nodes, cfg.tau1, cfg.n_rho)
    if dt is None:
        dt = limit
    elif dt <= 0.0:
        raise ConfigError("dt must be positive", key="dt")
    elif dt > limit * (1.0 + 1e-9):
        raise ConfigError(
            f"dt={dt} violates the CFL contract dt <= {limit:.6g}", key="dt"
        )
    sample_dt = cfg.sample_dt
    if sample_dt is None:
        sample_dt = max(cfg.t_end / 400.0, dt)

    m = ExponentField(grid, m_vals)
    p = ExponentField(grid, p_vals)
    # alpha is used only under the exponent chain m_high < p_low, p_high < inf
    # (validate_exponent_pair's chain_ok once m >= 2 in 1-D and 2-D).
    if cfg.alpha is not None and m.high < p.low and p.high < math.inf:
        window = alpha_window(m, p)
        if not 0.0 < cfg.alpha <= window:
            raise ConfigError(
                f"alpha={cfg.alpha} outside the admissible window (0, {window:.6g}]",
                key="alpha",
            )

    config = replace(cfg, dt=float(dt), sample_dt=float(sample_dt))
    return Resolved(config, grid, m, p, mu2, u0_fn)


@dataclass(eq=False)
class Problem:
    """Config resolved into grid-level objects, ready to integrate."""

    config: RunConfig
    grid: Grid
    m: ExponentField
    p: ExponentField
    kernel: DelayKernel
    xi: WeightField
    exponent_report: object
    mass_ok: bool
    xi_ok: bool
    c0: float
    c0_max_margin: float
    alpha: float
    rho_nodes: np.ndarray
    u0_fn: object
    u1_fn: object
    f0_fn: object
    # Per-step invariants of the integrator.
    tail_exp: object  # m.odd broadcast against a (*grid, n_tau) tail
    tail_coeff: np.ndarray  # tau-quadrature weight times mu2, per lane
    cfl: np.ndarray  # dt / (tau d_rho), shaped (n_tau, 1, ...) to broadcast over z


def _spatial_vars(dimension):
    return ("x",) if dimension == 1 else ("x", "y")


def _sample_spatial(grid, expr, extra=None):
    env = dict(zip(_spatial_vars(grid.dimension), grid.meshes()))
    if extra:
        env.update(extra)
    vals = np.asarray(expr(**env), dtype=float)
    return np.broadcast_to(vals, grid.shape).copy()


def build_problem(config: RunConfig) -> Problem:
    """Check the config, then build the kernel, weight field and invariants."""
    config, grid, m, p, mu2, u0_fn = resolve_config(config)
    report = validate_exponent_pair(
        m, p, config.dimension, config.log_holder_bound, config.log_holder_delta
    )
    kernel = build_kernel(mu2, config.tau1, config.tau2, config.n_tau, config.mu1)

    mass_ok = check_mass_condition(kernel)
    if mass_ok:
        xi = xi_default(kernel, m)
    else:
        # No admissible weight exists; keep the energy well defined with a
        # positive surrogate (zero when damping is disabled entirely).
        xi = WeightField(grid, m.values * kernel.mu1 / (4.0 * kernel.width))
    xi_ok = check_xi_condition(kernel, xi, m)
    if xi_ok:
        c0 = dissipation_constant(kernel, xi, m)
        c0_max_margin = max(dissipation_margins(kernel, xi, m))
    else:
        c0 = 0.0
        c0_max_margin = 0.0

    alpha = None
    if report.chain_ok:
        alpha = config.alpha if config.alpha is not None else 0.5 * alpha_window(m, p)

    svars = _spatial_vars(config.dimension)
    rho_nodes = np.linspace(0.0, 1.0, config.n_rho)
    d_rho = 1.0 / (config.n_rho - 1)
    u1_fn = compile_expression(config.u1, svars)
    f0_fn = compile_expression(config.f0, svars + ("s",))

    cfl = config.dt / (kernel.nodes * d_rho)

    return Problem(
        config=config,
        grid=grid,
        m=m,
        p=p,
        kernel=kernel,
        xi=xi,
        exponent_report=report,
        mass_ok=mass_ok,
        xi_ok=xi_ok,
        c0=c0,
        c0_max_margin=c0_max_margin,
        alpha=alpha,
        rho_nodes=rho_nodes,
        u0_fn=u0_fn,
        u1_fn=u1_fn,
        f0_fn=f0_fn,
        tail_exp=_tail_exponent(m.odd),
        tail_coeff=kernel.weights * kernel.mu2,
        cfl=cfl.reshape((-1, 1) + (1,) * grid.dimension),
    )


@dataclass(eq=False)
class SimState:
    t: float
    u: GridFunction
    v: GridFunction
    z: np.ndarray  # memory field, tau-major: (n_tau, n_rho, *grid)
    # step() caches the conservative acceleration of the final kick; it is
    # exactly the first-kick value of the next step as long as u and the
    # memory tail are not mutated in between. Reset to None after editing
    # the state by hand.
    accel: np.ndarray = None
    plan: object = None  # step's _Plan for this state's z


def init_state(problem: Problem) -> SimState:
    """Sample initial data and pre-fill the memory field from the history f0."""
    cfg = problem.config
    grid = problem.grid
    scale = cfg.scale

    u_vals = scale * _sample_spatial(grid, problem.u0_fn)
    v_vals = scale * _sample_spatial(grid, problem.u1_fn)
    u_vals[grid.boundary] = 0.0
    v_vals[grid.boundary] = 0.0

    # One spatial environment for every history node. s stays a numpy
    # scalar per node: the array power differs from the scalar one in the
    # last bit, so evaluating f0 over a stacked s would change bytes.
    env = dict(zip(_spatial_vars(grid.dimension), grid.meshes()))
    z = np.empty((problem.kernel.nodes.size, problem.rho_nodes.size) + grid.shape)
    z[:, 0] = v_vals  # rho = 0
    for j, rho in enumerate(problem.rho_nodes[1:], start=1):
        for k, tau in enumerate(problem.kernel.nodes):
            np.multiply(scale, problem.f0_fn(**env, s=-rho * tau), out=z[k, j])
    z[..., grid.boundary] = 0.0

    f0_at_zero = scale * _sample_spatial(grid, problem.f0_fn, {"s": 0.0})
    f0_at_zero[grid.boundary] = 0.0
    gap = float(np.max(np.abs(f0_at_zero - v_vals)))
    if gap > 1e-8:
        log.warning(
            "history f0(x, 0) differs from u1(x) by %.3e; proceeding anyway", gap
        )

    return SimState(
        t=0.0,
        u=GridFunction(grid, u_vals),
        v=GridFunction(grid, v_vals),
        z=z,
    )


def _tail_exponent(exponent):
    """Broadcast a resolved grid exponent against a (*grid, n_tau) tail."""
    return exponent[..., None] if isinstance(exponent, np.ndarray) else exponent


def _odd_power(w, exponent):
    """Sign-preserving power w |w|^{exponent-1}; exactly zero at w = 0.

    ``exponent`` is an ``ExponentField.odd`` (or its tail broadcast): None is
    the identity and returns w itself, not a copy. Overflow is left to the
    caller's np.errstate.
    """
    if exponent is None:
        return w
    return np.sign(w) * np.abs(w) ** exponent


def _delay_terms(tail, coeff, tail_exp, out):
    """The delay integrand coeff * z|z|^{m-2} of a (*grid, n_tau) tail of any
    strides, written into ``out``."""
    return np.multiply(_odd_power(tail, tail_exp), coeff, out=out)


def _delay(terms):
    """Delay kernel: the tau-quadrature sum of ``_delay_terms`` over the last
    axis. The terms must be C-ordered, so the sum takes numpy's pairwise order
    along a contiguous axis."""
    return terms.sum(axis=-1)


def laplacian(vals, grid):
    """Second-order centered stencil of grid values; boundary rows stay zero
    (Dirichlet)."""
    out = np.zeros(vals.shape)
    if grid.dimension == 1:
        h2 = grid.spacing[0] ** 2
        out[1:-1] = (vals[2:] - 2.0 * vals[1:-1] + vals[:-2]) / h2
        return out
    hx2 = grid.spacing[0] ** 2
    hy2 = grid.spacing[1] ** 2
    out[1:-1, 1:-1] = (
        (vals[2:, 1:-1] - 2.0 * vals[1:-1, 1:-1] + vals[:-2, 1:-1]) / hx2
        + (vals[1:-1, 2:] - 2.0 * vals[1:-1, 1:-1] + vals[1:-1, :-2]) / hy2
    )
    return out


def damping_force(v, m: ExponentField, mu1: float):
    """Instantaneous damping mu1 * v |v|^{m(x)-2} of grid values v."""
    return mu1 * _odd_power(v, m.odd)


def delay_force(z_tail, kernel: DelayKernel, m: ExponentField):
    """Delay-window quadrature of mu2(tau) z|z|^{m(x)-2} at the rho = 1 tail.

    ``z_tail`` is the rho = 1 row ``state.z[:, -1]`` moved to (*grid, n_tau).
    """
    return _delay(_delay_terms(z_tail, kernel.weights * kernel.mu2,
                               _tail_exponent(m.odd), np.empty(z_tail.shape)))


def source_force(u, p: ExponentField):
    """Focusing source u |u|^{p(x)-2} of grid values u, always a new array."""
    return u.copy() if p.odd is None else _odd_power(u, p.odd)


# A memory field whose z[:, 1:] is at most this many bytes (any 1-D preset:
# 0.8 MB) is shifted inline: the pool's hand-off would cost more than it saves.
_INLINE_BYTES = 1 << 20


class _Plan:
    """What ``step`` resolves once per problem and memory field z (see the
    module docstring). The shift's scratch is one whole-field buffer inline,
    else one lane-sized buffer per pool worker. A frozen-velocity run uses no
    tail, so its plan allocates no ``terms``."""

    def __init__(self, problem, z):
        cfg = problem.config
        self.problem = problem
        self.z = z
        self.grid = problem.grid
        self.dt = cfg.dt
        self.half_dt = 0.5 * cfg.dt
        self.source = not cfg.disable_source
        self.frozen = cfg.freeze_velocity
        self.inflow = z[:, 0]
        self.tail = np.moveaxis(z[:, -1], 0, -1)  # (*grid, n_tau), strided
        self.terms = None if self.frozen else np.empty(self.tail.shape)
        if z[:, 1:].nbytes <= _INLINE_BYTES:
            self.lanes = None
            self.scratch = [np.empty_like(z[:, 1:])]
            self.rows = (z[:, 1:], z[:, :-1], problem.cfl, self.scratch[0])
        else:
            n_tau = z.shape[0]
            n_groups = min(parallel.workers(), n_tau)
            self.lanes = [range(i * n_tau // n_groups, (i + 1) * n_tau // n_groups)
                          for i in range(n_groups)]
            self.scratch = [np.empty_like(z[0, 1:]) for _ in self.lanes]

    def shift_lanes(self, lanes, scratch):
        """One pool task: the upwind update of each tau lane k in ``lanes``,
        then its delay terms into column k of ``terms``."""
        z, terms, odd = self.z, self.terms, self.problem.m.odd
        cfl, coeff = self.problem.cfl, self.problem.tail_coeff
        with np.errstate(over="ignore", invalid="ignore"):  # per thread
            for k in lanes:
                _shift_rows(z[k, 1:], z[k, :-1], cfl[k], scratch)
                if terms is not None:
                    _delay_terms(z[k, -1], coeff[k], odd, terms[..., k])


def _shift_rows(hi, lo, cfl, scratch):
    """Upwind update of rho-rows ``hi`` = 1.. from ``lo`` = 0..n_rho-2, in
    three ufunc passes through scratch."""
    np.subtract(hi, lo, out=scratch)
    np.multiply(scratch, cfl, out=scratch)
    np.subtract(hi, scratch, out=hi)


def _tail_terms(plan):
    """Delay terms of the whole tail of plan.z into plan.terms."""
    problem = plan.problem
    _delay_terms(plan.tail, problem.tail_coeff, problem.tail_exp, plan.terms)


def _upwind_shift(plan):
    """In-place first-order upwind update of the memory field along rho,
    leaving the delay terms of the shifted tail in plan.terms.

    A field of at most _INLINE_BYTES is one whole-field pass, then one
    whole-tail pass of the terms. A larger field splits its tau lanes into
    one group per worker of the shared pool; each worker updates its lanes
    one at a time through its own lane-sized scratch and forms each lane's
    terms right after it. Each node gets the same operations either way, so
    the result is bitwise that of the whole-field passes.
    """
    if plan.lanes is None:
        _shift_rows(*plan.rows)
        if plan.terms is not None:
            _tail_terms(plan)
        return
    parallel.map(plan.shift_lanes, plan.lanes, plan.scratch)


def _conservative(u_vals, plan):
    """lap(u) - delay force of plan.terms + source: the damping-free acceleration."""
    acc = laplacian(u_vals, plan.grid)
    acc -= _delay(plan.terms)
    if plan.source:
        acc += source_force(u_vals, plan.problem.p)
    return acc


def step(state: SimState, problem: Problem) -> SimState:
    """Advance one dt: kick-drift-kick plus the upwind shift of the memory field.

    The state's ``_Plan`` is rebuilt when the problem or z is replaced.
    Overflow is left to the caller's np.errstate, as ``run`` sets it.
    """
    plan = state.plan
    if plan is None or plan.problem is not problem or plan.z is not state.z:
        plan = state.plan = _Plan(problem, state.z)
    u0 = state.u.values
    v0 = state.v.values

    if plan.frozen:
        _upwind_shift(plan)
        plan.inflow[...] = v0
        state.t += plan.dt
        return state

    g0 = state.accel
    if g0 is None:
        _tail_terms(plan)
        g0 = _conservative(u0, plan)
    half, m, mu1 = plan.half_dt, problem.m, problem.kernel.mu1
    v_half = v0 + half * (g0 - damping_force(v0, m, mu1))
    v_half = v0 + half * (g0 - damping_force(v_half, m, mu1))

    u1 = u0 + plan.dt * v_half

    _upwind_shift(plan)

    g1 = _conservative(u1, plan)
    v1 = v_half + half * (g1 - damping_force(v_half, m, mu1))

    plan.inflow[...] = v1
    state.u.values = u1
    state.v.values = v1
    state.accel = g1
    state.t += plan.dt
    return state


@dataclass(eq=False)
class Trajectory:
    times: np.ndarray
    reports: list
    sup_u: np.ndarray
    termination: str
    blowup_time: float
    eps: float
    problem: Problem

    @property
    def energies(self):
        return np.array([r.total_energy for r in self.reports])


def _auto_eps(report0, state0, problem):
    """Largest coupling keeping the blow-up indicator positive, halved."""
    h0 = report0.energy_deficit
    if problem.alpha is None or h0 <= 0.0:
        return 0.0
    cross = float(np.sum(problem.grid.weights * state0.u.values * state0.v.values))
    if cross >= 0.0:
        return 1.0
    return min(1.0, h0 ** (1.0 - problem.alpha) / (2.0 * abs(cross)))


def run(problem: Problem) -> Trajectory:
    """Integrate to t_end or a threshold crossing.

    Raises NumericalError when u or v stops being finite.
    """
    cfg = problem.config
    state = init_state(problem)

    def report_at(st, eps):
        return energy_report(
            st, problem.m, problem.p, problem.kernel, problem.xi,
            alpha=problem.alpha, eps=eps,
        )

    pre = report_at(state, 0.0)
    eps = cfg.eps if cfg.eps is not None else _auto_eps(pre, state, problem)

    times = [0.0]
    reports = [replace(pre, blowup_indicator=blowup_indicator(
        state, pre.energy_deficit, problem.alpha, eps))]
    sups = [float(np.max(np.abs(state.u.values)))]

    n_steps = int(math.ceil(cfg.t_end / cfg.dt - 1e-9))
    sample_every = max(1, int(round(cfg.sample_dt / cfg.dt)))

    termination = TERMINATED_END
    blowup_time = None
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            step(state, problem)
            sup_u = float(np.abs(state.u.values).max())
            sup_v = float(np.abs(state.v.values).max())
            if not (math.isfinite(sup_u) and math.isfinite(sup_v)):
                raise NumericalError(
                    f"numerical overflow at t={state.t:.6g} (step {i + 1}): "
                    f"sup|u|={sup_u:.6g}, sup|v|={sup_v:.6g}",
                    context={"t": state.t, "step": i + 1, "sup_u": sup_u, "sup_v": sup_v},
                )
            crossed = sup_u >= cfg.threshold
            if crossed or (i + 1) % sample_every == 0 or i == n_steps - 1:
                times.append(state.t)
                reports.append(report_at(state, eps))
                sups.append(sup_u)
            if crossed:
                termination = TERMINATED_BLOWUP
                blowup_time = state.t
                break

    return Trajectory(
        times=np.array(times),
        reports=reports,
        sup_u=np.array(sups),
        termination=termination,
        blowup_time=blowup_time,
        eps=eps,
        problem=problem,
    )
