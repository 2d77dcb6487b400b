"""Test-side velocity history: the oracle the memory field z is checked against.

The integrator keeps no past velocities besides z itself. A test that wants
to cross-validate z builds a ``VelocityHistory`` next to the state and calls
``record`` after every ``step``; the recorder keeps a ring buffer of
velocity snapshots spanning the largest delay and interpolates it linearly.
``per_node_history`` is the memory field's first fill made node by node, the
oracle ``init_state``'s fill is checked against byte for byte.
"""

import math

import numpy as np

from delaywave.errors import ConditionError
from delaywave.expressions import compile_expression
from delaywave.solver import step
from delaywave.spaces import GridFunction


def sample_spatial(grid, expr, extra=None):
    """A compiled closed form of x (and y) sampled on the grid, with any
    ``extra`` variables such as f0's s; non-finite values are kept."""
    env = dict(zip(("x", "y"), grid.meshes()))
    if extra:
        env.update(extra)
    with np.errstate(all="ignore"):
        vals = np.asarray(expr(**env), dtype=float)
    return np.broadcast_to(vals, grid.shape).copy()


def per_node_history(problem):
    """The memory field z as first filled, node by node: scale * u1 at rho = 0,
    and at every other (rho, tau) node f0 sampled on the mesh with a numpy
    scalar s = -rho * tau and scaled; then the boundary of the whole field is
    zeroed. Non-finite values are kept."""
    cfg, grid, scale = problem.config, problem.grid, problem.config.scale
    shape = (problem.kernel.nodes.size, problem.rho_nodes.size) + grid.shape
    z = np.empty(shape)
    u1 = compile_expression(cfg.u1, ("x", "y")[:grid.dimension])
    with np.errstate(all="ignore"):
        z[:, 0] = scale * sample_spatial(grid, u1)
        for j, rho in enumerate(problem.rho_nodes[1:], start=1):
            for k, tau in enumerate(problem.kernel.nodes):
                z[k, j] = scale * sample_spatial(grid, problem.f0_fn, {"s": -rho * tau})
    z[..., grid.boundary] = 0.0
    return z


class VelocityHistory:
    """Ring buffer of velocity snapshots at the stepping cadence, pre-filled
    from the history datum f0 on [-tau2, 0) and the state's velocity at 0."""

    def __init__(self, problem, state):
        cfg = problem.config
        grid = problem.grid
        self.grid = grid
        self.depth = int(math.ceil(cfg.tau2 / cfg.dt - 1e-9)) + 2
        self.dt = float(cfg.dt)
        self._snaps = np.zeros((self.depth,) + grid.shape)
        self._times = np.full(self.depth, np.nan)
        self._head = -1
        self._count = 0
        for i in range(self.depth - 1, 0, -1):
            s = state.t - i * cfg.dt
            vals = cfg.scale * sample_spatial(grid, problem.f0_fn, {"s": s})
            vals[grid.boundary] = 0.0
            self.push(s, vals)
        self.record(state)

    def push(self, t, values):
        self._head = (self._head + 1) % self.depth
        self._snaps[self._head] = values
        self._times[self._head] = t
        self._count = min(self._count + 1, self.depth)

    def record(self, state):
        self.push(state.t, state.v.values.copy())

    @property
    def newest_time(self):
        return self._times[self._head]

    @property
    def oldest_time(self):
        return self.newest_time - (self._count - 1) * self.dt

    def velocity_at(self, s):
        """Linear interpolation between stored snapshots at time s."""
        back = (self.newest_time - s) / self.dt
        if back < -1e-9 or back > self._count - 1 + 1e-9:
            raise ConditionError(
                f"time {s} outside the stored history window "
                f"[{self.oldest_time}, {self.newest_time}]"
            )
        back = min(max(back, 0.0), float(self._count - 1))
        k0 = int(math.floor(back))
        frac = back - k0
        i0 = (self._head - k0) % self.depth
        if frac <= 1e-12 or k0 + 1 > self._count - 1:
            return self._snaps[i0].copy()
        i1 = (self._head - k0 - 1) % self.depth
        return (1.0 - frac) * self._snaps[i0] + frac * self._snaps[i1]

    def oracle(self, state, tau, rho):
        """Velocity at time t - tau*rho, the value z(., rho, tau) approximates."""
        return GridFunction(self.grid, self.velocity_at(state.t - tau * rho))


def advance(state, problem, n_steps, history):
    """Step n_steps times, recording every new velocity into history."""
    for _ in range(n_steps):
        step(state, problem)
        history.record(state)
