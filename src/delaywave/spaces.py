"""Discrete variable-exponent Lebesgue machinery on uniform tensor grids.

The domain is a 1-D interval (0, L) or a 2-D box (0, Lx) x (0, Ly), sampled
on a uniform node lattice with composite-trapezoid quadrature. An exponent
field is a node sample of a user-supplied closed form; its essential bounds
and the resolved exponents of its powers are cached at construction. On top
of that sit the modular

    rho_q(u) = integral |u(x)|^{q(x)} dx,

the Luxemburg norm  inf{ lam > 0 : rho_q(u/lam) <= 1 }  (solved by bisection,
the map lam -> rho_q(u/lam) being strictly decreasing), the modular/norm
sandwich bounds, a log-Hoelder continuity estimate for exponent fields, and
the sharp discrete Poincare constant from the closed-form smallest Dirichlet
Laplacian eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditionError, GridMismatchError, NumericalError


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform tensor-product grid with trapezoid quadrature weights.

    Attributes:
        lengths: box extents per axis.
        counts: node counts per axis (boundary nodes included).
        spacing: node spacing per axis.
        coords: 1-D coordinate arrays per axis.
        weights: quadrature weight per node, shape ``counts``.
        boundary: boolean mask of boundary nodes, shape ``counts``.
    """

    lengths: tuple
    counts: tuple
    spacing: tuple
    coords: tuple
    weights: np.ndarray
    boundary: np.ndarray

    @property
    def dimension(self):
        return len(self.counts)

    @property
    def shape(self):
        return self.counts

    @property
    def measure(self):
        out = 1.0
        for length in self.lengths:
            out *= length
        return out

    def meshes(self):
        """Coordinate arrays broadcast to the full grid shape."""
        if self.dimension == 1:
            return (self.coords[0],)
        x, y = np.meshgrid(self.coords[0], self.coords[1], indexing="ij")
        return (x, y)


def trapezoid_weights(n, h):
    """Composite-trapezoid weights of n nodes spaced h apart."""
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def make_grid(lengths, counts) -> Grid:
    """Build a 1-D or 2-D uniform grid over (0, L1) [x (0, L2)]."""
    if np.isscalar(lengths):
        lengths = (float(lengths),)
    else:
        lengths = tuple(float(v) for v in lengths)
    if np.isscalar(counts):
        counts = (int(counts),)
    else:
        counts = tuple(int(v) for v in counts)
    if len(lengths) != len(counts):
        raise ValueError("lengths and counts must have matching dimension")
    if len(lengths) not in (1, 2):
        raise ValueError("only 1-D and 2-D domains are supported")
    for length, n in zip(lengths, counts):
        if length <= 0.0:
            raise ValueError(f"domain length must be positive, got {length}")
        if n < 3:
            raise ValueError(f"need at least 3 nodes per axis, got {n}")

    spacing = tuple(L / (n - 1) for L, n in zip(lengths, counts))
    coords = tuple(np.linspace(0.0, L, n) for L, n in zip(lengths, counts))

    axis_weights = [trapezoid_weights(n, h) for h, n in zip(spacing, counts)]
    if len(counts) == 1:
        weights = axis_weights[0]
        boundary = np.zeros(counts, dtype=bool)
        boundary[0] = boundary[-1] = True
    else:
        weights = np.outer(axis_weights[0], axis_weights[1])
        boundary = np.zeros(counts, dtype=bool)
        boundary[0, :] = boundary[-1, :] = True
        boundary[:, 0] = boundary[:, -1] = True

    grid = Grid(lengths, counts, spacing, coords, weights, boundary)
    measure = grid.measure
    if abs(weights.sum() - measure) > 1e-12 * measure:
        raise NumericalError("quadrature weights do not sum to the domain measure")
    return grid


@dataclass(eq=False)
class GridFunction:
    """One real value per grid node."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise GridMismatchError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape))


@dataclass(eq=False)
class ExponentField:
    """Node-sampled exponent q(x) with cached essential bounds and powers.

    ``low``/``high`` are the node-wise min/max; every value must be >= 1.
    ``power`` is the exponent q of |w|^q and ``odd`` the exponent q - 1 of
    the odd power sign(w)|w|^{q-1} = w|w|^{q-2}. Each is None where q = 2
    everywhere (w*w and the identity), a float where q is constant and
    otherwise ``values`` or ``values - 1``, so every force and energy
    modular takes the same path.
    """

    grid: Grid
    values: np.ndarray
    low: float = field(init=False)
    high: float = field(init=False)
    power: object = field(init=False)
    odd: object = field(init=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise GridMismatchError("exponent samples do not match the grid")
        if np.any(self.values < 1.0):
            raise ConditionError("exponent field must satisfy q(x) >= 1 everywhere")
        self.low = float(self.values.min())
        self.high = float(self.values.max())
        if self.low != self.high:
            self.power, self.odd = self.values, self.values - 1.0
        elif self.low == 2.0:
            self.power = self.odd = None
        else:
            self.power, self.odd = self.low, self.low - 1.0

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def sample(cls, grid, fn):
        vals = np.asarray(fn(*grid.meshes()), dtype=float)
        return cls(grid, np.broadcast_to(vals, grid.shape).copy())


def _power_into(out, w, exponent):
    """out = |w|**exponent for an ``ExponentField.power`` (or a slice of it)."""
    with np.errstate(over="ignore"):
        if exponent is None:
            return np.multiply(w, w, out=out)
        np.abs(w, out=out)
        out **= exponent
        return out


def _abs_power(w, q: ExponentField):
    """|w|**q on grid values w, as a new C-ordered array."""
    return _power_into(np.empty(w.shape), w, q.power)


def _require_same_grid(*objs):
    grid = objs[0].grid
    for other in objs[1:]:
        if other.grid is not grid and (
            other.grid.counts != grid.counts or other.grid.lengths != grid.lengths
        ):
            raise GridMismatchError("operands live on different grids")
    return grid


def l2_norm(u: GridFunction) -> float:
    return float(np.sqrt(np.sum(u.grid.weights * u.values**2)))


def gradient_energies(samples, grid):
    """Squared discrete H1 seminorm, cell-difference form, of each sample in a
    (batch, *grid.shape) stack.

    Defined so that <u, -lap_h(u)> == gradient_energy(u) exactly for
    homogeneous Dirichlet data; this makes discrete energy balances and the
    Poincare constant below mutually consistent. A sample's value does not
    depend on the batch: the axis sums reduce in the same order, and the 2-D
    weighting keeps one dot per sample (a batched gemv rounds differently).
    """
    if grid.dimension == 1:
        d = np.diff(samples, axis=1)
        return np.sum(d * d, axis=1) / grid.spacing[0]
    hx, hy = grid.spacing
    wx = trapezoid_weights(grid.counts[0], hx)
    wy = trapezoid_weights(grid.counts[1], hy)
    dx = np.diff(samples, axis=1)
    dy = np.diff(samples, axis=2)
    ex = np.sum(dx * dx, axis=1) / hx
    ey = np.sum(dy * dy, axis=2) / hy
    return np.array([np.dot(wy, a) + np.dot(wx, b) for a, b in zip(ex, ey)])


def gradient_energy(u: GridFunction) -> float:
    """gradient_energies of one grid function."""
    return float(gradient_energies(u.values[None], u.grid)[0])


def modular(u: GridFunction, p: ExponentField) -> float:
    """Quadrature value of integral |u|^{p(x)} dx."""
    _require_same_grid(u, p)
    return float(np.sum(u.grid.weights * _abs_power(u.values, p)))


def luxemburg_norm(u: GridFunction, p: ExponentField, tol=1e-12, max_iter=200) -> float:
    """Solve inf{ lam > 0 : modular(u/lam) <= 1 } by bracketing + bisection.

    The bracket comes from the modular/norm sandwich: the norm lies between
    modular^{1/p_high} and modular^{1/p_low} (order depending on whether the
    modular exceeds 1). Returns 0 for the zero function. Raises
    NumericalError with the last bracket if the iteration cap is hit.
    """
    _require_same_grid(u, p)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not np.any(u.values):
        return 0.0

    rho = modular(u, p)
    if rho <= 0.0:
        return 0.0

    def modular_scaled(lam):
        with np.errstate(over="ignore"):
            scaled = u.values / lam
        return float(np.sum(u.grid.weights * _abs_power(scaled, p)))

    if rho >= 1.0:
        lo, hi = rho ** (1.0 / p.high), rho ** (1.0 / p.low)
    else:
        lo, hi = rho ** (1.0 / p.low), rho ** (1.0 / p.high)

    # Constant exponent collapses the bracket to the exact root.
    if hi - lo <= 1e-15 * hi:
        return 0.5 * (lo + hi)

    # Guard against roundoff pushing the root outside the sandwich bracket.
    for _ in range(60):
        if modular_scaled(lo) >= 1.0:
            break
        lo *= 0.5
    for _ in range(60):
        if modular_scaled(hi) <= 1.0:
            break
        hi *= 2.0

    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        val = modular_scaled(mid)
        if abs(val - 1.0) <= tol or (hi - lo) <= 1e-15 * mid:
            return mid
        if val > 1.0:
            lo = mid
        else:
            hi = mid
    raise NumericalError(
        "Luxemburg norm bisection did not converge",
        context={"bracket": (lo, hi), "modular": rho},
    )


def check_sandwich(u: GridFunction, p: ExponentField, tol=1e-9) -> bool:
    """min(lam^p_low, lam^p_high) <= modular(u) <= max(...), lam the norm."""
    rho = modular(u, p)
    lam = luxemburg_norm(u, p)
    a = lam**p.low
    b = lam**p.high
    slack = tol * max(1.0, rho)
    return (min(a, b) - slack) <= rho <= (max(a, b) + slack)


def log_holder_modulus(q: ExponentField, delta=0.5) -> float:
    """max over node pairs with 0 < |x-y| < delta of |q(x)-q(y)|*|log|x-y||.

    delta must lie in (0, 1) so the logarithm has one sign on the admissible
    pairs. A constant field scores exactly 0. See ``log_holder_moduli``.
    """
    return log_holder_moduli((q,), delta)[0]


def log_holder_moduli(fields, delta=0.5) -> tuple:
    """``log_holder_modulus`` of each field on one grid, from one offset sweep.

    The sweep runs over lattice offsets (di, dj) instead of all node pairs and
    returns each field's all-pairs maximum bit for bit:

    - Each pair's distance is sqrt(dx*dx + dy*dy) from its own coordinate
      differences, as in the all-pairs form: at a fixed offset the differences
      of non-dyadic coordinates vary in the last bit from pair to pair. An
      offset's distances, mask and |log d| weights serve every field.
    - The score is symmetric: swapping a pair negates dx, dy and q(x)-q(y)
      exactly. So only offsets with di > 0, or di == 0 and dj > 0, are
      visited; the mirrored half repeats their scores.
    - Rounded +, * and sqrt are monotone, so an offset's shortest distance
      d_min is that of its two smallest axis gaps. The gaps grow with the
      offset, so the loops stop once d_min reaches delta.
    - Pruning: |log d| decreases on (0, 1) and rounded multiplication is
      monotone, so no score of an offset exceeds max|dq| * |log d_min|; the
      factor 1 + 2**-40 absorbs any ulp by which math.log and numpy's
      vectorised log differ. A field skips the offset when that bound is
      below its running maximum (ties are scored). A maximum is exact, so the
      skipped scores could not have changed it.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    worst = [0.0] * len(fields)
    live = [i for i, q in enumerate(fields) if q.low != q.high]
    if not live:
        return tuple(worst)
    grid = _require_same_grid(*fields)
    x = grid.coords[0]
    y = grid.coords[1] if grid.dimension == 2 else np.zeros(1)
    nx, ny = x.size, y.size
    vals = {i: fields[i].values.reshape(nx, ny) for i in live}
    for di in range(nx):
        gx = x[di:] - x[:nx - di]
        gx_min = gx.min()
        if gx_min >= delta:
            break
        for dj in range(1 if di == 0 else 0, ny):
            gy = y[dj:] - y[:ny - dj]
            gy_min = gy.min()
            d_min = np.sqrt(gx_min * gx_min + gy_min * gy_min)
            if d_min >= delta:
                break
            log_max = -math.log(d_min) * (1.0 + 2.0**-40) if d_min > 0.0 else math.inf
            weight = None
            for i in live:
                near, far = vals[i][:nx - di], vals[i][di:]
                # (di, dj), and (di, -dj) with the same distances
                dqs = [far[:, dj:] - near[:, :ny - dj]]
                if di > 0 and dj > 0:
                    dqs.append(far[:, :ny - dj] - near[:, dj:])
                for dq in dqs:
                    dq = np.abs(dq)
                    if dq.max() * log_max < worst[i]:
                        continue
                    if weight is None:
                        dist = np.sqrt((gx * gx)[:, None] + gy * gy)
                        mask = (dist > 0.0) & (dist < delta)
                        weight = np.abs(np.log(np.where(mask, dist, 1.0)))
                    score = np.where(mask, dq * weight, 0.0)
                    worst[i] = max(worst[i], float(score.max()))
    return tuple(worst)


@dataclass(frozen=True)
class ExponentValidation:
    """Outcome of the admissibility checks for a damping/source exponent pair."""

    chain_ok: bool
    critical_cap: float
    damping_bounds: tuple
    source_bounds: tuple
    log_modulus_damping: float
    log_modulus_source: float
    log_bound: float
    log_ok: bool

    @property
    def ok(self):
        return self.chain_ok and self.log_ok


def validate_exponent_pair(
    m: ExponentField,
    p: ExponentField,
    dimension: int,
    log_bound=10.0,
    log_delta=0.5,
) -> ExponentValidation:
    """Check the exponent chain and log-Hoelder continuity of both fields.

    Chain: 2 <= m_low <= m_high < p_low <= p_high, plus p_high <= 2(n-1)/(n-2)
    when n >= 3. For n in {1, 2} every finite p_high is admissible, so only
    finiteness is required. The log-Hoelder moduli are measured on the node
    samples and compared against ``log_bound``.
    """
    _require_same_grid(m, p)
    if m.values.size == 0:
        raise GridMismatchError("empty grid")

    cap = np.inf if dimension < 3 else 2.0 * (dimension - 1) / (dimension - 2)
    chain_ok = (
        2.0 <= m.low
        and m.high < p.low
        and np.isfinite(p.high)
        and p.high <= cap
    )
    mod_m, mod_p = log_holder_moduli((m, p), log_delta)
    log_ok = mod_m <= log_bound and mod_p <= log_bound
    return ExponentValidation(
        chain_ok=bool(chain_ok),
        critical_cap=float(cap),
        damping_bounds=(m.low, m.high),
        source_bounds=(p.low, p.high),
        log_modulus_damping=mod_m,
        log_modulus_source=mod_p,
        log_bound=float(log_bound),
        log_ok=bool(log_ok),
    )


def discrete_poincare_constant(grid: Grid) -> float:
    """1/sqrt(lambda_1) for the discrete Dirichlet Laplacian.

    The 3-point (5-point in 2-D) Dirichlet Laplacian on a uniform grid has
    separable sine eigenvectors, so its smallest eigenvalue is exactly
    lambda_1 = sum over axes of (4/h^2) sin^2(pi h / (2L)). The returned
    constant is the sharp one for ``l2_norm(w) <= c * sqrt(gradient_energy(w))``
    over discrete Dirichlet w.
    """
    lam = sum(4.0 / h**2 * np.sin(np.pi * h / (2.0 * L)) ** 2
              for h, L in zip(grid.spacing, grid.lengths))
    return float(1.0 / np.sqrt(lam))
