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
        if not 0.0 < length < math.inf:
            raise ValueError(f"domain length must be positive and finite, got {length}")
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
        if not np.all(self.values >= 1.0):
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


def check_sandwich(u: GridFunction, p: ExponentField) -> bool:
    """min(lam^p_low, lam^p_high) <= modular(u) <= max(...), lam the norm,
    to 1e-9 relative."""
    rho = modular(u, p)
    lam = luxemburg_norm(u, p)
    a = lam**p.low
    b = lam**p.high
    slack = 1e-9 * max(1.0, rho)
    return (min(a, b) - slack) <= rho <= (max(a, b) + slack)


_SLACK = 1.0 + 2.0**-40


def _reachable_offsets(x, y, delta):
    """The lattice offsets the log-Hoelder sweep visits, and their d_min.

    Returns ``d_min`` of shape (n_di, n_dj), the shortest pair distance
    sqrt(gx_min**2 + gy_min**2) of each offset (di, dj) from its two smallest
    axis gaps, and the mask ``reach`` of the offsets with a pair closer than
    delta: di > 0, or di == 0 and dj > 0, cut where the lexicographic loop
    over di and then dj first meets a gap or a d_min of at least delta.
    """
    nx, ny = x.size, y.size
    gx_min = []
    for di in range(nx):
        gap = (x[di:] - x[:nx - di]).min()
        if gap >= delta:
            break
        gx_min.append(gap)
    gx_min = np.array(gx_min)
    gy_min = np.array([(y[dj:] - y[:ny - dj]).min() for dj in range(ny)])
    d_min = np.sqrt((gx_min * gx_min)[:, None] + gy_min * gy_min)
    reach = np.logical_and.accumulate(d_min < delta, axis=1)
    n_dj = int(reach.sum(axis=1).max())
    reach[0, 0] = False
    return d_min[:, :n_dj], reach[:, :n_dj]


def _step_maxima(w, count):
    """out[d, j] = max over i of |w[i + d, j] - w[i, j]|, for d < count."""
    n = w.shape[0]
    return np.array([np.abs(w[d:] - w[:n - d]).max(axis=0) for d in range(count)])


def _running_maxima(diffs, n, count):
    """lo[a, b] = max(diffs[a, :n - b]) and hi[a, b] = max(diffs[a, b:]), b < count."""
    prefix = np.maximum.accumulate(diffs, axis=1)
    suffix = np.maximum.accumulate(diffs[:, ::-1], axis=1)[:, ::-1]
    b = np.arange(count)
    return prefix[:, n - 1 - b], suffix[:, b]


def _offset_bounds(v, d_min):
    """Upper bounds on the log-Hoelder score of one field's pairs per offset.

    ``v`` is the field on an (nx, ny) lattice and ``d_min`` the offsets'
    shortest distances from ``_reachable_offsets``. Returns ``(plus, minus)``
    of d_min's shape: plus[di, dj] bounds the scores of the pairs
    (i, j) -> (i + di, j + dj), minus[di, dj] those of the mirror
    (i, j + dj) -> (i + di, j).

    R[di, j] is the largest |q(i + di, j) - q(i, j)| of row j and C[dj, i]
    the largest |q(i, j + dj) - q(i, j)| of column i. Through the corner
    (i, j + dj) the pair (i, j) -> (i + di, j + dj) takes a column step at
    i <= nx - 1 - di and a row step at j + dj >= dj, and through the corner
    (i + di, j) the other two; so |dq| <= min(Xhi + Ylo, Xlo + Yhi), where
    Xlo, Xhi are the maxima of R[di] over the rows up to ny - 1 - dj and
    from dj, and Ylo, Yhi those of C[dj] over the columns up to nx - 1 - di
    and from di. The mirror's corners give min(Xlo + Ylo, Xhi + Yhi). No
    |dq| exceeds max q - min q. The bound times |log d_min| times the sweep's
    slack bounds every score; the slack once more covers the rounding of the
    triangle inequality. A nan bound, which only a non-finite value gives,
    counts as inf.
    """
    nx, ny = v.shape
    n_di, n_dj = d_min.shape
    # both reduce over a leading axis, which numpy does fastest
    x_lo, x_hi = _running_maxima(_step_maxima(v, n_di), ny, n_dj)
    cols = _step_maxima(np.ascontiguousarray(v.T), n_dj)
    y_lo, y_hi = (a.T for a in _running_maxima(cols, nx, n_di))
    cap = v.max() - v.min()
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = -np.log(d_min) * _SLACK * _SLACK
        plus = np.minimum(np.minimum(x_hi + y_lo, x_lo + y_hi), cap) * weight
        minus = np.minimum(np.minimum(x_lo + y_lo, x_hi + y_hi), cap) * weight
    return np.nan_to_num(plus, nan=np.inf), np.nan_to_num(minus, nan=np.inf)


def _offset_score(v, x, y, di, dj, mirror, d_min, delta, worst):
    """The largest score of one field at one offset (or its mirror), or
    ``worst`` when max|dq| * |log d_min| shows that none reaches it (ties are
    scored)."""
    nx, ny = v.shape
    near, far = v[:nx - di], v[di:]
    dq = np.abs(far[:, :ny - dj] - near[:, dj:] if mirror else far[:, dj:] - near[:, :ny - dj])
    log_max = -math.log(d_min) * _SLACK if d_min > 0.0 else math.inf
    if dq.max() * log_max < worst:
        return worst
    gx, gy = x[di:] - x[:nx - di], y[dj:] - y[:ny - dj]
    dist = np.sqrt((gx * gx)[:, None] + gy * gy)
    mask = (dist > 0.0) & (dist < delta)
    weight = np.abs(np.log(np.where(mask, dist, 1.0)))
    return max(worst, float(np.where(mask, dq * weight, 0.0).max()))


def log_holder_moduli(fields, delta=0.5) -> tuple:
    """max over node pairs with 0 < |x-y| < delta of |q(x)-q(y)|*|log|x-y||,
    for each field on one grid.

    delta must lie in (0, 1) so the logarithm has one sign on the admissible
    pairs. A constant field scores exactly 0. The sweep runs over lattice
    offsets (di, dj) instead of all node pairs and returns each field's
    all-pairs maximum bit for bit:

    - Each pair's distance is sqrt(dx*dx + dy*dy) from its own coordinate
      differences, as in the all-pairs form: at a fixed offset the differences
      of non-dyadic coordinates vary in the last bit from pair to pair.
    - The score is symmetric: swapping a pair negates dx, dy and q(x)-q(y)
      exactly. So only offsets with di > 0, or di == 0 and dj > 0, are
      visited, each with its mirror (di, -dj); the other half repeats them.
    - Rounded +, * and sqrt are monotone, so an offset's shortest distance
      d_min is that of its two smallest axis gaps. The gaps grow with the
      offset; offsets from the first whose d_min reaches delta are dropped.
    - |log d| decreases on (0, 1) and rounded multiplication is monotone, so
      no score of an offset exceeds max|dq| * |log d_min|; the factor
      1 + 2**-40 absorbs any ulp by which math.log and numpy's vectorised
      log differ. ``_offset_bounds`` bounds max|dq| of every offset at once
      from per-row and per-column differences, without scoring it.
    - Each field visits the offsets and mirrors in descending bound and stops
      at the first bound below its running maximum (ties are scored). Inside
      an offset it skips the scoring when max|dq| * |log d_min| is below the
      running maximum. A maximum is exact, so no skipped score could have
      changed it.
    - Fields are scored independently: they share only the offsets and
      their d_min, and each builds the distances and |log d| weights of the
      offsets it scores, so an offset two rough fields both score is
      weighted twice.
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
    d_min, reach = _reachable_offsets(x, y, delta)
    di, dj = np.nonzero(reach)
    mirrored = (di > 0) & (dj > 0)
    n_plus = di.size  # candidates from n_plus on are mirrors
    di, dj = np.concatenate([di, di[mirrored]]), np.concatenate([dj, dj[mirrored]])
    for i in live:
        v = fields[i].values.reshape(x.size, y.size)
        plus, minus = _offset_bounds(v, d_min)
        bound = np.concatenate([plus[reach], minus[reach][mirrored]])
        for k in np.argsort(-bound, kind="stable").tolist():
            if bound[k] < worst[i]:
                break
            a, b = int(di[k]), int(dj[k])
            worst[i] = _offset_score(v, x, y, a, b, k >= n_plus, d_min[a, b], delta, worst[i])
    return tuple(worst)


@dataclass(frozen=True)
class ExponentValidation:
    """Outcome of the admissibility checks for a damping/source exponent pair."""

    chain_ok: bool
    log_modulus_damping: float
    log_modulus_source: float
    log_ok: bool


def exponent_chain(m: ExponentField, p: ExponentField) -> bool:
    """The exponent chain 2 <= m_low <= m_high < p_low <= p_high < inf. The
    paper adds p_high <= 2(n-1)/(n-2) in dimension n >= 3; a grid is 1-D or
    2-D, where every finite p_high is admissible."""
    return bool(2.0 <= m.low and m.high < p.low and np.isfinite(p.high))


def validate_exponent_pair(m: ExponentField, p: ExponentField, log_bound=10.0,
                           log_delta=0.5) -> ExponentValidation:
    """Check the exponent chain and log-Hoelder continuity of both fields.

    The log-Hoelder moduli are measured on the node samples and compared
    against ``log_bound``.
    """
    _require_same_grid(m, p)
    mod_m, mod_p = log_holder_moduli((m, p), log_delta)
    log_ok = mod_m <= log_bound and mod_p <= log_bound
    return ExponentValidation(
        chain_ok=exponent_chain(m, p),
        log_modulus_damping=mod_m,
        log_modulus_source=mod_p,
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
