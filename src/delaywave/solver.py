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
``source_force`` on grid arrays; ``delay_force`` is the two halves that the
shift and step run apart, ``_delay_terms`` and ``_delay``. Every per-step
choice is resolved once, so a step runs only the ufunc calls that do
arithmetic:
- each ``ExponentField`` resolves its odd power once (m = 2 is the identity
  and copies nothing); ``build_problem`` resolves the tail exponent, the CFL
  numbers and the tail coefficients;
- the state's ``_Plan``, built by ``run`` or on the first step, holds dt/2,
  the source switch, the upwind shift's lane blocks of z with their
  scratch, and one reused C-ordered (*grid, n_tau) buffer of delay terms.
  The shift forms each block's terms from the strided tail ``z[:, -1]``
  straight into it, so step only sums them.
``run`` forks a ``_Helper`` process, where a second CPU is free, that
shifts lanes [0, n_tau // 2) in shared memory while the calling process
kicks, drifts and shifts the other lanes, in the stretches of steps where that
measures faster (the thread pool cannot split the shift: it holds the GIL
between its many small ufunc calls). ``step`` outside ``run`` shifts every
lane itself, through the same lane blocks. ``run`` silences floating-point overflow once around its loop
and checks each step's state for finiteness.
"""

from __future__ import annotations

import logging
import math
import mmap
import os
import select
import signal
import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import parallel
from .delay import DelayKernel, WeightField, build_kernel, check_mass_condition, \
    check_xi_condition, dissipation_constant, dissipation_margins, xi_default
from .energetics import alpha_window, blowup_indicator, energy_report
from .errors import ConfigError, ExpressionError, NumericalError
from .expressions import compile_expression
from .spaces import ExponentField, Grid, GridFunction, make_grid, validate_exponent_pair

log = logging.getLogger(__name__)

TERMINATED_END = "reached-t-end"
TERMINATED_BLOWUP = "blowup-threshold"

# f0's s = 0 as the history fill's s = -rho*tau is typed: a numpy scalar,
# where 1/s is inf and a negative s to a fractional power is nan
_S0 = np.float64(0.0)


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
    u1_fn: object
    f0_fn: object


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
    the key. Each closed form is compiled and sampled once here (f0 at
    s = 0), so one that cannot be parsed or evaluated is a ConfigError too,
    and so is initial data (u0, u1, f0 at s = 0) that is not finite at an
    interior node.
    The grid, the sampled fields and the compiled forms are returned, so
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
    env = dict(zip(svars, grid.meshes()))
    _, m_vals = _field("m", cfg.m, svars, env, grid.shape)
    if not m_vals.min() >= 2.0:
        raise ConfigError(
            f"damping exponent m(x) must satisfy m(x) >= 2 everywhere; "
            f"sampled minimum is {float(m_vals.min())}", key="m",
        )
    _, p_vals = _field("p", cfg.p, svars, env, grid.shape)
    if not p_vals.min() >= 1.0:
        raise ConfigError(
            f"source exponent p(x) must satisfy p(x) >= 1 everywhere; "
            f"sampled minimum is {float(p_vals.min())}", key="p",
        )

    tau = np.linspace(cfg.tau1, cfg.tau2, cfg.n_tau)
    if cfg.mu2_table is None:
        _, mu2 = _field("mu2", cfg.mu2, ("tau",), {"tau": tau}, tau.shape)
        if not mu2.min() >= 0.0:
            raise ConfigError("delay density mu2 must be nonnegative", key="mu2")
    else:
        table_tau, table_mu2 = np.array(cfg.mu2_table, dtype=float).T
        if table_mu2.min() < 0.0:
            raise ConfigError("delay density mu2_table must be nonnegative", key="mu2_table")
        mu2 = np.interp(tau, table_tau, table_mu2)

    u0_fn, u0_vals = _field("u0", cfg.u0, svars, env, grid.shape)
    u1_fn, u1_vals = _field("u1", cfg.u1, svars, env, grid.shape)
    f0_fn, f0_vals = _field("f0", cfg.f0, svars + ("s",), {**env, "s": _S0}, grid.shape)
    # a non-finite initial value would surface only as an overflow after the
    # first step; boundary nodes are not checked, as init_state zeroes them
    for key, text, values in (("u0", cfg.u0, u0_vals), ("u1", cfg.u1, u1_vals),
                              ("f0", cfg.f0, f0_vals)):
        bad = values[~grid.boundary & ~np.isfinite(values)]
        if bad.size:
            raise ConfigError(f"{key}: {text!r} takes the value {float(bad[0])} on the grid",
                              key=key)
    sup0 = float(np.max(np.abs(cfg.scale * u0_vals)))
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
    return Resolved(config, grid, m, p, mu2, u0_fn, u1_fn, f0_fn)


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


def _field(key, text, variables, env, shape):
    """The compiled closed form of a key and its float samples on env.

    Python float constants raise on a zero division or an overflow, and a
    negative one's fractional power is complex. Either, like a text the
    grammar rejects, is a ConfigError naming the key. The variables are
    numpy values (the grid, and f0's s = 0 as _S0, the scalar type of the
    history fill), which give inf or nan without a warning; the caller
    decides which of those it accepts.
    """
    try:
        expr = compile_expression(text, variables)
        with np.errstate(all="ignore"):
            values = np.asarray(expr(**env))
    except ExpressionError as exc:
        raise ConfigError(f"{key}: {exc}", key=key) from None
    except ArithmeticError as exc:
        raise ConfigError(f"{key}: evaluating {text!r} raises {type(exc).__name__}: {exc}",
                          key=key) from None
    if np.iscomplexobj(values):
        raise ConfigError(f"{key}: {text!r} takes complex values", key=key)
    return expr, np.broadcast_to(values, shape).copy()


def _sample_spatial(grid, expr, extra=None):
    env = dict(zip(_spatial_vars(grid.dimension), grid.meshes()))
    if extra:
        env.update(extra)
    # resolve_config has checked the interior samples; a non-finite value on
    # the boundary is zeroed by the caller
    with np.errstate(all="ignore"):
        vals = np.asarray(expr(**env), dtype=float)
    return np.broadcast_to(vals, grid.shape).copy()


def build_problem(config: RunConfig) -> Problem:
    """Check the config, then build the kernel, weight field and invariants."""
    config, grid, m, p, mu2, u0_fn, u1_fn, f0_fn = resolve_config(config)
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

    rho_nodes = np.linspace(0.0, 1.0, config.n_rho)
    d_rho = 1.0 / (config.n_rho - 1)

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


def init_state(problem: Problem, shared: bool = False) -> SimState:
    """Sample initial data and pre-fill the memory field from the history f0.

    ``shared`` puts z in anonymous shared memory, where a shift helper
    forked later writes its lanes (``run``). Otherwise z is private memory,
    which numpy backs with huge pages when it is large, so it costs less to
    fill.
    """
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
    shape = (problem.kernel.nodes.size, problem.rho_nodes.size) + grid.shape
    z = _shared_empty(shape) if shared else np.empty(shape)
    z[:, 0] = v_vals  # rho = 0
    for j, rho in enumerate(problem.rho_nodes[1:], start=1):
        for k, tau in enumerate(problem.kernel.nodes):
            np.multiply(scale, problem.f0_fn(**env, s=-rho * tau), out=z[k, j])
    z[..., grid.boundary] = 0.0

    f0_at_zero = scale * _sample_spatial(grid, problem.f0_fn, {"s": _S0})
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


# Each side of the shift walks its tau lanes in blocks of at most this many
# bytes of z[:, 1:], and never less than one lane: a 1-D preset's lanes are
# one block per side, a 65 x 65 lane one block on its own, so a block's three
# passes stay in one core's 2 MiB L2.
_BLOCK_BYTES = 1 << 20


def _shared_empty(shape):
    """An uninitialised float64 array in anonymous MAP_SHARED memory: a process
    forked after it is made reads and writes the same pages as its maker."""
    count = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * count), count=count).reshape(shape)


class _Plan:
    """What ``step`` resolves once per problem and memory field z (see the
    module docstring). ``terms`` lives in shared memory, as a run's z does
    when it has a helper, so a shift helper forked after the plan writes its
    lanes' terms where this process sums them. ``scratch`` is private, so a
    helper forked after the plan shifts through its own copy. ``own`` holds
    the operands of the lanes this process shifts: every lane unless a
    ``_Helper`` took some. A frozen-velocity run uses no tail, so its plan
    allocates no ``terms``."""

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
        self.terms = None if self.frozen else _shared_empty(self.tail.shape)
        self.block = max(1, min(z.shape[0], _BLOCK_BYTES // z[0, 1:].nbytes))
        self.scratch = np.empty((self.block,) + z[0, 1:].shape)
        self.helper = None
        self.own = _lane_blocks(self, range(z.shape[0]))


def _lane_blocks(plan, lanes):
    """The operands of ``_shift_blocks`` for the tau lanes in ``lanes`` (a
    range), cut into blocks of plan.block lanes: the rows and scratch of
    each block's upwind update, then those of its delay terms (None in a
    frozen-velocity run)."""
    z, problem = plan.z, plan.problem
    blocks = []
    for lo in range(lanes.start, lanes.stop, plan.block):
        k = slice(lo, min(lo + plan.block, lanes.stop))
        rows = (z[k, 1:], z[k, :-1], problem.cfl[k], plan.scratch[:k.stop - lo])
        terms = None
        if plan.terms is not None:
            terms = (plan.tail[..., k], problem.tail_coeff[k], problem.tail_exp,
                     plan.terms[..., k])
        blocks.append((rows, terms))
    return blocks


def _shift_blocks(blocks):
    """The upwind update of each block of ``_lane_blocks``, then its delay
    terms, while the block is in cache."""
    for rows, terms in blocks:
        _shift_rows(*rows)
        if terms is not None:
            _delay_terms(*terms)


def _shift_rows(hi, lo, cfl, scratch):
    """Upwind update of rho-rows ``hi`` = 1.. from ``lo`` = 0..n_rho-2, in
    three ufunc passes through scratch."""
    np.subtract(hi, lo, out=scratch)
    np.multiply(scratch, cfl, out=scratch)
    np.subtract(hi, scratch, out=hi)


# The helper's use is decided per stretch of this many steps, by the wall
# time from each step's start to the next's, which any cost of the helper
# shows in: on a loaded host a step that waits for a second CPU can take
# several times as long as one that does not. A stretch runs the preferred
# way, and the other way is tried after 1, 2, 4, ... stretches, at most
# _MAX_PROBE_GAP; it is taken when its time per step is below _SWITCH_SHARE
# of the preferred way's. A stretch of either way ends early once it has
# taken as long as a whole stretch of the other way would at its last time
# per step; a preferred stretch cut short is followed by a try of the other
# way.
_STRETCH_STEPS = 64
_MAX_PROBE_GAP = 64
_SWITCH_SHARE = 0.9
# A process waiting for its partner's byte polls the pipe this long, yielding
# its CPU between polls, before it blocks: a CPU left idle between two steps
# can take a loaded host longer to wake than a step lasts.
_SPIN_S = 1e-3


class _Helper:
    """A forked process that shifts tau lanes [0, n_tau // 2) of a plan's
    memory field, while the calling process shifts the rest.

    z and the plan's terms are shared memory, so the helper writes its lanes
    in place. One byte on a pipe starts the helper's lanes of a step
    (``go``), one byte on another says they are done (``wait``). The helper
    ignores SIGINT and exits when its pipe reaches EOF, that is, when
    ``close`` closes it, or when this process ends. If the helper dies,
    ``go`` or ``wait`` raises ChildProcessError instead of waiting.

    ``split`` says whether the current stretch of steps uses the helper or
    shifts every lane in this process (see _STRETCH_STEPS); either way gives
    the same bits. ``clock`` times the stretches.
    """

    def __init__(self, plan):
        n_tau = plan.z.shape[0]
        split = n_tau // 2
        go_r, self._go = os.pipe()
        self._done, done_w = os.pipe()
        os.set_blocking(go_r, False)
        os.set_blocking(self._done, False)
        # SIGINT stays blocked across the fork, so it cannot interrupt the
        # child before the child ignores it
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            self.pid = os.fork()
        except OSError:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            for fd in (go_r, self._go, self._done, done_w):
                os.close(fd)
            raise
        if self.pid == 0:
            _serve(plan, range(split), go_r, done_w, mask)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        os.close(go_r)
        os.close(done_w)
        self.plan = plan
        self.clock = time.perf_counter
        self._lanes = {True: _lane_blocks(plan, range(split, n_tau)), False: plan.own}
        self.split = self._prefer = True
        self._cost = {True: math.inf, False: math.inf}  # last time per step of each way
        self._gap = 1  # stretches of the preferred way before the other is tried
        self._since = 0
        self._steps = 0
        self._spent = 0.0
        self._started = None  # when the step before started
        plan.own = self._lanes[True]
        plan.helper = self

    def go(self):
        """Start a step, once its inflow row is written: time the step
        before it, then start the helper's lanes if this stretch is split."""
        now = self.clock()
        if self._started is not None:
            self._spent += now - self._started
            self._steps += 1
            if (self._steps == _STRETCH_STEPS
                    or self._spent > _STRETCH_STEPS * self._cost[not self.split]):
                self._next_stretch()
        self._started = now
        if self.split:
            try:
                os.write(self._go, b"g")
            except BrokenPipeError:
                self._lost()

    def wait(self):
        """Return once the helper's lanes of this step are shifted."""
        if self.split and not _receive(self._done):
            self._lost()

    def _next_stretch(self):
        """Score the stretch just run and choose the way of the next one."""
        way, cut = self.split, self._steps < _STRETCH_STEPS
        self._cost[way] = self._spent / self._steps
        self._steps, self._spent = 0, 0.0
        if way != self._prefer:
            if self._cost[way] < _SWITCH_SHARE * self._cost[self._prefer]:
                self._prefer, self._gap = way, 1
            else:
                self._gap = min(2 * self._gap, _MAX_PROBE_GAP)
            self._since = 0
        else:
            self._since = self._gap if cut else self._since + 1
        self.split = self._prefer if self._since < self._gap else not self._prefer
        self.plan.own = self._lanes[self.split]

    def _lost(self):
        raise ChildProcessError(f"the memory-field shift helper (pid {self.pid}) died")

    def close(self) -> bool:
        """Hand every lane back to the plan, end the helper and reap it;
        whether it exited cleanly, not by a signal or an error."""
        plan = self.plan
        plan.helper = None
        plan.own = self._lanes[False]
        os.close(self._go)
        os.close(self._done)
        return os.waitpid(self.pid, 0)[1] == 0


def _receive(fd):
    """One byte from the non-blocking pipe ``fd``, b"" at EOF: polled for up
    to _SPIN_S, then waited for."""
    deadline = time.perf_counter() + _SPIN_S
    while True:
        try:
            return os.read(fd, 1)
        except BlockingIOError:
            if time.perf_counter() < deadline:
                os.sched_yield()
                continue
            poller = select.poll()
            poller.register(fd, select.POLLIN)
            poller.poll()


def _serve(plan, lanes, go, done, mask):
    """The helper process: shift ``lanes`` of plan once per byte read from
    ``go`` and answer each with a byte on ``done``, until EOF; ``mask`` is
    the signal mask to restore once SIGINT is ignored. Never returns."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        # hold no other process's pipe ends, so each of them sees EOF when
        # its owner closes it
        first, second = sorted((go, done))
        os.closerange(3, first)
        os.closerange(first + 1, second)
        os.closerange(second + 1, os.sysconf("SC_OPEN_MAX"))
        blocks = _lane_blocks(plan, lanes)
        with np.errstate(over="ignore", invalid="ignore"):
            while _receive(go):
                _shift_blocks(blocks)
                os.write(done, b"d")
        code = 0
    finally:
        os._exit(code)


def _tail_terms(plan):
    """Delay terms of the whole tail of plan.z into plan.terms."""
    problem = plan.problem
    _delay_terms(plan.tail, problem.tail_coeff, problem.tail_exp, plan.terms)


def _upwind_shift(plan):
    """In-place first-order upwind update of the memory field along rho,
    leaving the delay terms of the shifted tail in plan.terms.

    This process shifts the lanes of plan.own, then waits for the helper,
    if there is one, which ``step`` started on the other lanes. Every node
    gets the same three ufunc passes and every term the same operations in
    any block and in either process, so the result is bitwise that of one
    whole-field pass and one whole-tail pass.
    """
    _shift_blocks(plan.own)
    if plan.helper is not None:
        plan.helper.wait()


def _local_forces(u_vals, plan):
    """lap(u) and the source (None when switched off): the part of the
    damping-free acceleration that does not read z."""
    return (laplacian(u_vals, plan.grid),
            source_force(u_vals, plan.problem.p) if plan.source else None)


def _conservative(lap, source, plan):
    """lap(u) - delay force of plan.terms + source: the damping-free
    acceleration, in place in ``lap``."""
    lap -= _delay(plan.terms)
    if source is not None:
        lap += source
    return lap


def step(state: SimState, problem: Problem) -> SimState:
    """Advance one dt: kick-drift-kick plus the upwind shift of the memory field.

    The state's ``_Plan`` is rebuilt when the problem or z is replaced. A
    plan's helper, in a split stretch, starts on its lanes first; the kicks,
    the drift and the forces of the new u that do not read z run while it
    shifts them.
    Overflow is left to the caller's np.errstate, as ``run`` sets it.
    """
    plan = state.plan
    if plan is None or plan.problem is not problem or plan.z is not state.z:
        plan = state.plan = _Plan(problem, state.z)
    helper = plan.helper
    u0 = state.u.values
    v0 = state.v.values

    if plan.frozen:
        if helper is not None:
            helper.go()
        _upwind_shift(plan)
        plan.inflow[...] = v0
        state.t += plan.dt
        return state

    g0 = state.accel
    if g0 is None:
        _tail_terms(plan)
        g0 = _conservative(*_local_forces(u0, plan), plan)
    if helper is not None:
        helper.go()
    half, m, mu1 = plan.half_dt, problem.m, problem.kernel.mu1
    v_half = v0 + half * (g0 - damping_force(v0, m, mu1))
    v_half = v0 + half * (g0 - damping_force(v_half, m, mu1))

    u1 = u0 + plan.dt * v_half
    forces = _local_forces(u1, plan)

    _upwind_shift(plan)

    g1 = _conservative(*forces, plan)
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

    Where a second CPU is free (``parallel.spare_cpu``), a ``_Helper``
    process shifts half the memory field's lanes while that is faster. It is
    forked before the t = 0 energy sample, so that a fresh process has no
    pool threads yet, and reaped on the way out, however the run ends.

    Raises NumericalError when u or v stops being finite, and
    ChildProcessError when the helper dies.
    """
    spare = parallel.spare_cpu()
    state = init_state(problem, shared=spare)
    state.plan = _Plan(problem, state.z)
    helper = None
    if spare:
        try:
            helper = _Helper(state.plan)
        except OSError as exc:  # no process or pipe to spare
            log.warning("cannot start the shift helper (%s); shifting every lane here", exc)
    try:
        trajectory = _integrate(state, problem)
    finally:
        clean = helper is None or helper.close()
    if not clean:  # it died in a stretch that ran without it
        helper._lost()
    return trajectory


def _integrate(state, problem):
    """run's loop from the t = 0 sample on, calling the module globals
    ``step`` and ``energy_report``."""
    cfg = problem.config

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
