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

with homogeneous Dirichlet walls; boundary nodes never move. Each force has
one array-level kernel that ``step`` calls and the public ``*_force``
functions wrap; exponents, CFL numbers and tail coefficients are resolved
once, in ``build_problem``.
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
from .energetics import alpha_window, energy_report, memory_tail
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
    lengths = ("length",) if cfg.dimension == 1 else ("length_x", "length_y")
    floats = list(zip(lengths, cfg.lengths)) + [
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
    if cfg.decay_factor <= 0.0:
        raise ConfigError("decay_factor must be positive", key="decay_factor")

    try:
        grid = make_grid(cfg.lengths, cfg.nodes)
    except ValueError as exc:
        raise ConfigError(str(exc), key="nodes")

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
    mexp: object  # m - 1; a float when m is spatially constant
    pexp: object  # p - 1; likewise
    tail_exp: object  # mexp broadcast against a (*grid, n_tau) tail
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

    mexp = _scalar_or_array(m.values - 1.0)
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
        mexp=mexp,
        pexp=_scalar_or_array(p.values - 1.0),
        tail_exp=_tail_exponent(mexp),
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
    scratch: list = None  # _upwind_shift's scratch buffers


def init_state(problem: Problem) -> SimState:
    """Sample initial data and pre-fill the memory field from the history f0."""
    cfg = problem.config
    grid = problem.grid
    scale = cfg.scale

    u_vals = scale * _sample_spatial(grid, problem.u0_fn)
    v_vals = scale * _sample_spatial(grid, problem.u1_fn)
    u_vals[grid.boundary] = 0.0
    v_vals[grid.boundary] = 0.0

    n_rho = problem.rho_nodes.size
    n_tau = problem.kernel.nodes.size
    z = np.zeros((n_tau, n_rho) + grid.shape)
    for j, rho in enumerate(problem.rho_nodes):
        for k, tau in enumerate(problem.kernel.nodes):
            if rho == 0.0:
                z[k, j] = v_vals
                continue
            vals = scale * _sample_spatial(grid, problem.f0_fn, {"s": -rho * tau})
            vals[grid.boundary] = 0.0
            z[k, j] = vals

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


def _scalar_or_array(values):
    """Collapse a spatially constant field to a scalar (fast ufunc path)."""
    if np.ptp(values) == 0.0:
        return float(values.flat[0])
    return values


def _tail_exponent(exponent):
    """Broadcast a grid exponent against a (*grid, n_tau) tail."""
    return exponent if np.ndim(exponent) == 0 else exponent[..., None]


def _odd_power(w, exponent):
    """Sign-preserving power w |w|^{exponent-1}; exactly zero at w = 0.

    With exponent p - 1 this is the source kernel u|u|^{p-2}.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if np.ndim(exponent) == 0:
            q = float(exponent)
            if q == 1.0:
                return np.array(w, copy=True)
            return np.sign(w) * np.abs(w) ** q
        return np.sign(w) * np.abs(w) ** exponent


def _damping(v, mexp, mu1):
    """Damping kernel mu1 v|v|^{m-2} on grid values; mexp is m - 1."""
    return mu1 * _odd_power(v, mexp)


def _delay(tail, coeff, tail_exp):
    """Delay kernel: tau-quadrature of coeff * z|z|^{m-2} over the last axis
    of a C-contiguous (*grid, n_tau) tail (numpy's pairwise order)."""
    return np.sum(_odd_power(tail, tail_exp) * coeff, axis=-1)


def _laplacian_values(vals, grid):
    out = np.zeros_like(vals)
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


def laplacian(u: GridFunction) -> GridFunction:
    """Second-order centered stencil; boundary rows stay zero (Dirichlet)."""
    return GridFunction(u.grid, _laplacian_values(u.values, u.grid))


def damping_force(v: GridFunction, m: ExponentField, mu1: float) -> GridFunction:
    """Instantaneous damping mu1 * v |v|^{m(x)-2}."""
    return GridFunction(v.grid, _damping(v.values, _scalar_or_array(m.values - 1.0), mu1))


def delay_force(z_tail, kernel: DelayKernel, m: ExponentField) -> GridFunction:
    """Delay-window quadrature of mu2(tau) z|z|^{m(x)-2} at the rho = 1 tail.

    ``z_tail`` has shape (*grid, n_tau), as ``memory_tail(state.z)`` returns.
    """
    mexp = _scalar_or_array(m.values - 1.0)
    return GridFunction(m.grid, _delay(z_tail, kernel.weights * kernel.mu2,
                                       _tail_exponent(mexp)))


def source_force(u: GridFunction, p: ExponentField) -> GridFunction:
    """Focusing source u |u|^{p(x)-2}."""
    return GridFunction(u.grid, _odd_power(u.values, _scalar_or_array(p.values - 1.0)))


def _conservative(u_vals, z, problem):
    """lap(u) - delay force of the z tail + source: the damping-free acceleration."""
    acc = _laplacian_values(u_vals, problem.grid)
    acc -= _delay(memory_tail(z), problem.tail_coeff, problem.tail_exp)
    if not problem.config.disable_source:
        acc += _odd_power(u_vals, problem.pexp)
    return acc


# A memory field whose z[:, 1:] is at most this many bytes (any 1-D preset:
# 0.8 MB) is shifted inline: the pool's hand-off would cost more than it saves.
_INLINE_BYTES = 1 << 20


def _shift_rows(z, lane, cfl, scratch):
    """Upwind update of rho-rows 1.. of z[lane] from rows 0..n_rho-2, in
    three ufunc passes through scratch."""
    np.subtract(z[lane, 1:], z[lane, :-1], out=scratch)
    np.multiply(scratch, cfl, out=scratch)
    np.subtract(z[lane, 1:], scratch, out=z[lane, 1:])


def _upwind_shift(state, cfl):
    """In-place first-order upwind update of the memory field along rho.

    A field of at most _INLINE_BYTES is one whole-field pass. A larger field
    splits its tau lanes into one group per worker of the shared pool; each
    worker updates its lanes one at a time through its own lane-sized
    scratch. Each node gets the same three operations either way, so the
    result is bitwise that of the whole-field pass. The scratch buffers live
    in the state, allocated on the first call: allocations in the hot loop
    dominate the runtime otherwise.
    """
    z = state.z
    if z[:, 1:].nbytes <= _INLINE_BYTES:
        if state.scratch is None or state.scratch[0].shape != z[:, 1:].shape:
            state.scratch = [np.empty_like(z[:, 1:])]
        _shift_rows(z, slice(None), cfl, state.scratch[0])
        return
    n_tau = z.shape[0]
    n_groups = min(parallel.workers(), n_tau)
    groups = [range(i * n_tau // n_groups, (i + 1) * n_tau // n_groups)
              for i in range(n_groups)]
    if (state.scratch is None or len(state.scratch) != n_groups
            or state.scratch[0].shape != z[0, 1:].shape):
        state.scratch = [np.empty_like(z[0, 1:]) for _ in groups]

    def shift_lanes(lanes, scratch):
        for k in lanes:
            _shift_rows(z, k, cfl[k], scratch)

    parallel.map(shift_lanes, groups, state.scratch)


def step(state: SimState, problem: Problem) -> SimState:
    """Advance one dt: kick-drift-kick plus the upwind shift of the memory field."""
    dt = problem.config.dt
    mexp = problem.mexp
    mu1 = problem.kernel.mu1

    u0 = state.u.values
    v0 = state.v.values
    z = state.z

    if problem.config.freeze_velocity:
        _upwind_shift(state, problem.cfl)
        z[:, 0] = v0
        state.t += dt
        return state

    g0 = state.accel if state.accel is not None else _conservative(u0, z, problem)
    v_half = v0 + 0.5 * dt * (g0 - _damping(v0, mexp, mu1))
    v_half = v0 + 0.5 * dt * (g0 - _damping(v_half, mexp, mu1))

    u1 = u0 + dt * v_half

    _upwind_shift(state, problem.cfl)

    g1 = _conservative(u1, z, problem)
    v1 = v_half + 0.5 * dt * (g1 - _damping(v_half, mexp, mu1))

    z[:, 0] = v1
    state.u.values = u1
    state.v.values = v1
    state.accel = g1
    state.t += dt
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
    reports = [report_at(state, eps)]
    sups = [float(np.max(np.abs(state.u.values)))]

    n_steps = int(math.ceil(cfg.t_end / cfg.dt - 1e-9))
    sample_every = max(1, int(round(cfg.sample_dt / cfg.dt)))

    termination = TERMINATED_END
    blowup_time = None
    for i in range(n_steps):
        step(state, problem)
        sup_u = float(np.max(np.abs(state.u.values)))
        sup_v = float(np.max(np.abs(state.v.values)))
        if not (np.isfinite(sup_u) and np.isfinite(sup_v)):
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
