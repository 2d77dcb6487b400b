"""Explicit time integration of the delayed nonlinear wave system.

The numerics only: ``build_problem`` builds on what ``config.resolve_config``
checked and sampled. ``init_state`` evaluates the history f0 again once per
(rho, tau) node only when f0 reads s; otherwise every node holds the
validator's sample f0(x, 0).

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
``source_force`` on grid arrays; the delay force is two halves that the
shift and step run apart, ``_delay_terms`` and ``_delay``. Every per-step
choice is resolved once, so a step runs only the ufunc calls that do
arithmetic:
- each ``ExponentField`` resolves its odd power once (m = 2 is the identity
  and copies nothing);
- the state's ``_Plan``, built by ``run`` or on the first step, holds every
  per-step invariant: dt/2, the source switch, the CFL number and tail
  coefficient of each lane, the tail exponent, the upwind shift's lane
  blocks of z with their scratch, one reused C-ordered (*grid, n_tau)
  buffer of delay terms and one of an energy sample's sums.
  The shift forms each block's terms from the strided tail ``z[:, -1]``
  straight into it, so step only sums them.
``run`` forks a ``_Helper`` process, where a second CPU is free, that
shifts lanes [0, n_tau // 2) in shared memory while the calling process
kicks, drifts and shifts the other lanes, in the stretches of steps where
that measures faster (a thread could not split the shift: it holds the GIL
between its many small ufunc calls), and contracts half of each energy
sample. ``step`` outside ``run`` shifts every lane itself.
``run`` silences floating-point overflow once around its loop and checks
each step's state for finiteness.
"""

from __future__ import annotations

import logging
import math
import mmap
import os
import select
import time
from dataclasses import dataclass, replace

import numpy as np

from . import parallel
from .config import RunConfig, _spatial_vars, resolve_config
from .delay import DelayKernel, build_kernel, check_mass_condition, dissipation_margins, \
    rho_quadrature, xi_default
from .energetics import _contract, _point_halves, alpha_window, blowup_indicator, \
    energy_report
from .errors import ConfigError, NumericalError
from .spaces import ExponentField, Grid, GridFunction, validate_exponent_pair

log = logging.getLogger(__name__)

TERMINATED_END = "reached-t-end"
TERMINATED_BLOWUP = "blowup-threshold"


@dataclass(eq=False)
class Problem:
    """Config resolved into grid-level objects, ready to integrate."""

    config: RunConfig
    grid: Grid
    m: ExponentField
    p: ExponentField
    kernel: DelayKernel
    xi: GridFunction
    exponent_report: object
    mass_ok: bool
    xi_ok: bool
    c0: float
    margins: tuple  # dissipation_margins: (margin_f, margin_xi_over_m)
    alpha: float
    rho_nodes: np.ndarray
    u0_vals: np.ndarray  # resolve_config's samples of u0, u1 and f0 at s = 0
    u1_vals: np.ndarray
    f0_vals: np.ndarray
    f0_fn: object  # the compiled f0(x, s) of the history fill


def build_problem(config: RunConfig) -> Problem:
    """Check the config, then build the kernel, weight field and conditions."""
    config, grid, m, p, mu2, u0_vals, u1_vals, f0_vals, f0_fn = resolve_config(config)
    report = validate_exponent_pair(m, p, config.log_holder_bound, config.log_holder_delta)
    kernel = build_kernel(mu2, config.tau1, config.tau2, config.mu1)

    xi = xi_default(kernel, m)
    margins = dissipation_margins(kernel, xi, m)
    # the weight condition is both margins positive; C0 bounds the decay
    # rate, so it is the smaller margin
    xi_ok = min(margins) > 0.0

    alpha = None
    if report.chain_ok:
        alpha = config.alpha if config.alpha is not None else 0.5 * alpha_window(m, p)

    return Problem(
        config=config,
        grid=grid,
        m=m,
        p=p,
        kernel=kernel,
        xi=xi,
        exponent_report=report,
        mass_ok=check_mass_condition(kernel),
        xi_ok=xi_ok,
        c0=min(margins) if xi_ok else 0.0,
        margins=margins,
        alpha=alpha,
        rho_nodes=rho_quadrature(config.n_rho)[0],
        u0_vals=u0_vals,
        u1_vals=u1_vals,
        f0_vals=f0_vals,
        f0_fn=f0_fn,
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

    u_vals = scale * problem.u0_vals
    v_vals = scale * problem.u1_vals
    u_vals[grid.boundary] = 0.0
    v_vals[grid.boundary] = 0.0

    shape = (problem.kernel.nodes.size, problem.rho_nodes.size) + grid.shape
    z = _shared_empty(shape) if shared else np.empty(shape)
    z[:, 0] = v_vals  # rho = 0

    def check_lane(lane, k):
        # resolve_config sees f0 only at s = 0; the fill is where the rest of
        # the history is sampled, so its rule is checked here, lane by lane:
        # the first bad node in lane-major (k, j) order is named
        lane[..., grid.boundary] = 0.0
        if not np.isfinite(lane).all():
            j = 1 + np.argwhere(~np.isfinite(lane))[0][0]
            s = -problem.rho_nodes[j] * problem.kernel.nodes[k]
            raise ConfigError(f"f0: {cfg.f0!r} is not finite on the grid at s = {s:.6g}",
                              key="f0")

    with np.errstate(all="ignore"):  # a non-finite value is refused as it is written
        if "s" in problem.f0_fn.names:
            # One spatial environment for every history node. s stays a numpy
            # scalar per node: the array power differs from the scalar one in
            # the last bit, so evaluating f0 over a stacked s would change bytes.
            env = dict(zip(_spatial_vars(grid.dimension), grid.meshes()))
            for k, tau in enumerate(problem.kernel.nodes):
                for j, rho in enumerate(problem.rho_nodes[1:], start=1):
                    np.multiply(scale, problem.f0_fn(**env, s=-rho * tau), out=z[k, j])
                check_lane(z[k, 1:], k)
        else:
            # f0 is the same at every node: resolve_config's sample at s = 0
            row = np.multiply(scale, problem.f0_vals)
            check_lane(row[None], 0)
            z[:, 1:] = row

    gap = float(np.max(np.abs(scale * problem.f0_vals - v_vals)[~grid.boundary]))
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


def source_force(u, p: ExponentField):
    """Focusing source u |u|^{p(x)-2} of grid values u, always a new array."""
    return u.copy() if p.odd is None else _odd_power(u, p.odd)


def _shared_empty(shape):
    """An uninitialised float64 array in anonymous MAP_SHARED memory: a process
    forked after it is made reads and writes the same pages as its maker."""
    count = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * count), count=count).reshape(shape)


class _Plan:
    """What ``step`` resolves once per problem and memory field z (see the
    module docstring). ``terms`` and ``sums`` live in shared memory, as a
    run's z does when it has a helper, so a helper forked after the plan
    writes its lanes' terms where this process sums them, and its tiles'
    energy sums where this process reduces them. ``scratch`` is private, so a
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
        kernel = problem.kernel
        # dt / (tau d_rho), shaped (n_tau, 1, ...) to broadcast over z
        self.cfl = (cfg.dt / (kernel.nodes * rho_quadrature(cfg.n_rho)[1])).reshape(
            (-1, 1) + (1,) * self.grid.dimension)
        self.tail_coeff = kernel.weights * kernel.mu2  # tau-quadrature weight times mu2
        self.tail_exp = _tail_exponent(problem.m.odd)  # against a (*grid, n_tau) tail
        self.source = not cfg.disable_source
        self.frozen = cfg.freeze_velocity
        self.inflow = z[:, 0]
        self.tail = np.moveaxis(z[:, -1], 0, -1)  # (*grid, n_tau), strided
        self.terms = None if self.frozen else _shared_empty(self.tail.shape)
        self.sums = _shared_empty((7, self.grid.weights.size))
        # the first block of lanes is the largest
        first = parallel.chunks(z.shape[0], z[0, 1:].size)[0]
        self.scratch = np.empty((first.stop,) + z[0, 1:].shape)
        self.helper = None
        self.own = _lane_blocks(self, range(z.shape[0]))


def _lane_blocks(plan, lanes):
    """The operands of ``_shift_blocks`` for the tau lanes in ``lanes`` (a
    range), cut by ``parallel.chunks``: the rows and scratch of each block's
    upwind update, then those of its delay terms (None in a frozen-velocity
    run)."""
    z = plan.z
    blocks = []
    for c in parallel.chunks(len(lanes), z[0, 1:].size):
        k = slice(lanes.start + c.start, lanes.start + c.stop)
        rows = (z[k, 1:], z[k, :-1], plan.cfl[k], plan.scratch[:c.stop - c.start])
        terms = None
        if plan.terms is not None:
            terms = (plan.tail[..., k], plan.tail_coeff[k], plan.tail_exp,
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
    memory field, and contracts the first half of an energy sample's tiles
    (``energetics._delay_integrals``), while the calling process does the
    rest.

    z and the plan's terms and sums are shared memory, so the helper writes
    its part in place. One byte on a pipe starts the helper's part of a step
    (``go``) or of a sample (``contract``), one byte on another says it is
    done (``wait``). The helper ignores SIGINT and exits when its pipe
    reaches EOF, that is, when ``close`` closes it, or when this process
    ends. If the helper dies, ``go``, ``contract`` or ``wait`` raises
    ChildProcessError instead of waiting.

    ``split`` says whether the current stretch of steps uses the helper or
    shifts every lane in this process (see _STRETCH_STEPS); either way gives
    the same bits. An energy sample uses the helper in either: it is worth
    far more than the hand-off. ``clock`` times the stretches.
    """

    def __init__(self, plan):
        n_tau = plan.z.shape[0]
        split = n_tau // 2
        go_r, self._go = os.pipe()
        self._done, done_w = os.pipe()
        os.set_blocking(go_r, False)
        os.set_blocking(self._done, False)
        try:
            self.pid = parallel.fork(lambda: _serve(plan, range(split), go_r, done_w),
                                     keep=(go_r, done_w))
        except OSError:
            for fd in (go_r, self._go, self._done, done_w):
                os.close(fd)
            raise
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
            self._send(b"g")

    def contract(self):
        """Start the helper's tiles of an energy sample."""
        self._send(b"e")

    def _send(self, command):
        try:
            os.write(self._go, command)
        except BrokenPipeError:
            self._lost()

    def wait(self):
        """Return once the helper's part of this step or sample is done."""
        if not _receive(self._done):
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


def _serve(plan, lanes, go, done):
    """The helper process's work (``parallel.fork``): per byte read from
    ``go``, shift ``lanes`` of plan (b"g") or contract its tiles of a sample
    into plan.sums (b"e"), and answer with a byte on ``done``, until EOF."""
    blocks = _lane_blocks(plan, lanes)
    kernel, m = plan.problem.kernel, plan.problem.m
    with np.errstate(over="ignore", invalid="ignore"):
        while command := _receive(go):
            if command == b"g":
                _shift_blocks(blocks)
            else:
                _contract(plan.z, kernel, m, plan.sums, _point_halves(plan.z)[0])
            os.write(done, b"d")


def _upwind_shift(plan):
    """In-place first-order upwind update of the memory field along rho,
    leaving the delay terms of the shifted tail in plan.terms.

    This process shifts the lanes of plan.own, then waits for the helper,
    if ``step`` started it on the other lanes. Every node gets the same
    three ufunc passes and every term the same operations in any block and
    in either process, so the result is bitwise that of one whole-field pass
    and one whole-tail pass.
    """
    _shift_blocks(plan.own)
    if plan.helper is not None and plan.helper.split:
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
        _delay_terms(plan.tail, plan.tail_coeff, plan.tail_exp, plan.terms)
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
    process shifts half the memory field's lanes while that is faster, and
    contracts half of each energy sample's tiles. It is forked before the
    t = 0 energy sample, which it serves too, and reaped on the way out,
    however the run ends.

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
    )
