"""Post-processing: life-span lower bound, global-existence gate, decay-rate
fits and regime classification.

The life-span bound is the improper integral

    T_low = integral_{phi0}^{inf} dy / (c y^{p2-1} + c y^{p1-1} + y + e0),

evaluated as adaptive Gauss-Legendre quadrature on a finite head plus an
analytic tail bound.
The constant c is certified empirically: the ratio the inequality must
dominate is maximized over a large randomized family of grid functions and
doubled. The same machinery certifies the smallness-gate constant. The
maximization screens every sample with a rigorous upper bound of its ratio
and scores exactly only those whose bound can still beat the best exact
ratio so far; as max is exact, the result is bitwise the maximum over the
whole family (_max_split_ratio).
"""

from __future__ import annotations

import functools
import logging
import math
import threading
from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import ConditionError, NumericalError
from .solver import TERMINATED_BLOWUP, TERMINATED_END
from .spaces import Grid, gradient_energies, trapezoid_weights

log = logging.getLogger(__name__)

ENERGY_FLOOR = 1e-290  # below this the log-fit window is cut off

_N_MODES = 6  # sine modes per axis in the certification family
_BATCH = 500  # samples per batch of the family, whose draws' sizes depend on it
# relative inflation of the screen's ratio bound: its samples and energies
# round differently from the exact ones, by about 1e-13 relative
_SCREEN_MARGIN = 1e-6

_GAUSS_POINTS = 10  # coarse rule of the life-span quadrature; the fine one has 20
_MAX_PANELS = 1 << 12  # panel evaluations before the life-span quadrature gives up


@functools.cache
def _gauss_legendre():
    """Nodes and weights on [-1, 1] of the coarse and the fine rule of
    _adaptive_integral."""
    # imported here: only blow-up runs integrate
    from numpy.polynomial.legendre import leggauss

    return leggauss(_GAUSS_POINTS), leggauss(2 * _GAUSS_POINTS)


def _adaptive_integral(f, lo, hi, rel_tol) -> float:
    """integral_lo^hi f for a positive f that maps an array of points to an
    array of values, by panel bisection.

    Each panel is integrated by the _GAUSS_POINTS- and the 2*_GAUSS_POINTS-point
    Gauss-Legendre rules. A panel whose two values agree to rel_tol of the
    finer one is kept with that value; the others are halved and tried again,
    all panels of a round at once. As f > 0, the kept errors add up to at most
    rel_tol of the sum, which is formed with math.fsum, so it does not depend
    on the order panels are kept. Raises NumericalError after _MAX_PANELS
    panel evaluations.
    """
    (xc, wc), (xf, wf) = _gauss_legendre()
    a, b = np.array([lo]), np.array([hi])
    kept = []
    evaluated = 0
    while a.size:
        evaluated += a.size
        if evaluated > _MAX_PANELS:
            raise NumericalError("life-span quadrature did not converge",
                                 context={"lower": lo, "upper": hi, "panels": evaluated})
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        coarse = half * (f(mid[:, None] + half[:, None] * xc) @ wc)
        fine = half * (f(mid[:, None] + half[:, None] * xf) @ wf)
        done = np.abs(fine - coarse) <= rel_tol * fine
        kept.extend(fine[done].tolist())
        a, b = a[~done], b[~done]
        cut = 0.5 * (a + b)
        a, b = np.concatenate([a, cut]), np.concatenate([cut, b])
    return math.fsum(kept)


def _lifespan_head(phi0, e0, c, p1, p2, upper, rel_tol) -> float:
    """integral_{phi0}^{upper} dy / denom(y),  denom(y) = c y^{p2-1} + c y^{p1-1} + y + e0,

    for denom(phi0) > 0, by _adaptive_integral in t = log(y / phi0), where the
    integrand decays exponentially. The denominator is taken as denom(phi0)
    plus the increments of its terms, c phi0^q expm1(q t) and phi0 expm1(t),
    all >= 0. So it keeps its relative accuracy where e0 nearly cancels the
    rest of denom(phi0), and the integrand is smooth there.
    """
    a2, a1 = c * phi0 ** (p2 - 1.0), c * phi0 ** (p1 - 1.0)
    d0 = a2 + a1 + phi0 + e0
    s0 = np.log(phi0)

    def integrand(t):
        # an increment that overflows leaves a value far below the rest: 0
        with np.errstate(over="ignore"):
            return np.exp(s0 + t) / (d0 + a2 * np.expm1((p2 - 1.0) * t)
                                     + a1 * np.expm1((p1 - 1.0) * t) + phi0 * np.expm1(t))

    return _adaptive_integral(integrand, 0.0, np.log(upper) - s0, rel_tol)


def blowup_lower_bound(phi0, e0, c, p1, p2) -> float:
    """Life-span lower bound for negative-energy blow-up data.

    Head on [phi0, Y] by _lifespan_head to 1e-9 relative, plus the analytic
    tail bound Y^{2-p2} / (c (p2 - 2)), with Y chosen so the tail is below
    1e-8 of the head.
    """
    if p2 < p1:
        raise ConditionError("need p2 >= p1")
    if p1 <= 2.0:
        raise ConditionError("need p1 > 2 for an integrable lower-bound kernel")
    if c <= 0.0:
        raise ConditionError("embedding constant must be positive")
    if phi0 <= 0.0:
        raise ConditionError("phi0 must be positive")

    def denom(y):
        return c * y ** (p2 - 1.0) + c * y ** (p1 - 1.0) + y + e0

    if denom(phi0) <= 0.0:
        raise ConditionError("denominator vanishes on the integration range")

    def head(upper):
        return _lifespan_head(phi0, e0, c, p1, p2, upper, 1e-9)

    def tail(upper):
        return upper ** (2.0 - p2) / (c * (p2 - 2.0))

    upper = max(2.0 * phi0, 1.0)
    head_val = head(upper)
    target = 1e-8 * max(head_val, 1e-300)
    # solve tail(Y) = target in closed form, then recheck
    upper = max(upper, (c * (p2 - 2.0) * target) ** (-1.0 / (p2 - 2.0)))
    head_val = head(upper)
    while tail(upper) > 1e-8 * head_val:
        upper *= 4.0
        head_val = head(upper)
    return head_val + tail(upper)


def _axis_modes(grid: Grid):
    """The first _N_MODES Dirichlet sine modes along each axis, (n_modes, n)."""
    return [
        np.stack([np.sin((k + 1) * np.pi * grid.coords[axis] / L)
                  for k in range(_N_MODES)], axis=0)
        for axis, L in enumerate(grid.lengths)
    ]


def _family_draws(grid: Grid, batch, rng, modes):
    """Every random input of a batch of the family, drawn in one fixed order.

    The family is random Dirichlet grid functions: low sine modes, sharp
    bumps and their sums, with amplitudes log-uniform across four decades so
    the certified ratio sees both the small- and the large-argument branch.

    Each array's leading axis is the sample. In 1-D the smooth part is the
    product coef @ modes, taken here on the whole batch: OpenBLAS picks its
    kernel by row count, so the product over a row slice can round
    differently. In 2-D it stays as the coefficients, which _synthesize
    contracts per sample.
    """
    decay = np.arange(1, _N_MODES + 1) ** 2
    if grid.dimension == 1:
        smooth = (rng.standard_normal((batch, _N_MODES)) / decay) @ modes[0]
    else:
        smooth = rng.standard_normal((batch, _N_MODES, _N_MODES))
        smooth /= np.add.outer(decay, decay)
    bumps = []
    for L in grid.lengths:
        centers = rng.uniform(0.15 * L, 0.85 * L, size=batch)
        widths = np.exp(rng.uniform(np.log(0.01 * L), np.log(0.3 * L), size=batch))
        bumps.append((centers, widths))
    pick = rng.uniform(size=batch)
    amp = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=(batch,)))
    return smooth, bumps, pick, amp


def _synthesize(grid: Grid, modes, draws, rows, screen=False, out=None):
    """Samples `rows` (a slice or an index array) of the family drawn by
    _family_draws, in the leading rows of ``out`` if it is given.

    Every step is elementwise or contracts within one sample, so any rows
    give the same bits as the whole batch. screen=True builds the 2-D smooth
    part by two BLAS products instead of the per-sample einsum, about 20
    times faster but rounded differently (by about 1e-14): only the screen's
    bound in _max_split_ratio reads those samples.
    """
    smooth, bumps, pick, amp = draws
    # a sample is smooth (pick < 0.45), a bump (< 0.9) or their sum: each
    # part is built only for the samples that use it
    pick = pick[rows]
    both = pick >= 0.9
    use_smooth = (pick < 0.45) | both
    use_bump = pick >= 0.45

    smooth = smooth[rows][use_smooth]
    if grid.dimension == 2:
        if screen:
            smooth = modes[0].T @ smooth @ modes[1]
        else:
            smooth = np.einsum("bkl,ki,lj->bij", smooth, modes[0], modes[1])

    # sharp bumps, forced to zero at the walls by the first-mode envelope
    profiles = []
    for axis, (L, (centers, widths)) in enumerate(zip(grid.lengths, bumps)):
        x = grid.coords[axis]
        centers = centers[rows][use_bump]
        widths = widths[rows][use_bump]
        prof = np.exp(-((x[None, :] - centers[:, None]) ** 2) / widths[:, None] ** 2)
        prof *= np.sin(np.pi * x / L)[None, :]
        profiles.append(prof)
    if grid.dimension == 1:
        bump = profiles[0]
    else:
        bump = profiles[0][:, :, None] * profiles[1][:, None, :]

    fams = np.empty((pick.size,) + grid.shape) if out is None else out[:pick.size]
    fams[use_smooth] = smooth
    fams[use_bump] = bump
    fams[both] = smooth[both[use_smooth]] + bump[both[use_bump]]
    fams *= amp[rows].reshape([-1] + [1] * grid.dimension)
    fams[:, grid.boundary] = 0.0
    return fams


def _screen_energies(fam, grid: Grid):
    """gradient_energies of a stack, to rounding: in 2-D each axis is
    weighted by one product over the stack, where gradient_energies keeps one
    dot per sample to stay bitwise per sample. For the screen only."""
    if grid.dimension == 1:
        return gradient_energies(fam, grid)
    hx, hy = grid.spacing

    def squares(axis):  # one temporary at a time
        d = np.diff(fam, axis=axis)
        return np.square(d, out=d).sum(axis=axis)
    return (squares(1) @ trapezoid_weights(grid.counts[1], hy) / hx
            + squares(2) @ trapezoid_weights(grid.counts[0], hx) / hy)


def _ratio_bounds(grid, modes, draws, rows, num_low, num_high, den_low, den_high,
                  num_scale, out=None):
    """An upper bound of each split ratio of samples `rows` of the batch drawn
    by _family_draws, built in ``out`` if it is given: the screen of
    _max_split_ratio."""
    if min(num_low, num_high) < 2.0:
        return np.full(draws[2][rows].size, np.inf)
    fam = _synthesize(grid, modes, draws, rows, screen=True, out=out)
    ge = _screen_energies(fam, grid)
    flat = fam.reshape(len(fam), -1)
    peak = np.maximum(flat.max(axis=1), -flat.min(axis=1))
    l2 = np.square(flat) @ grid.weights.ravel()
    den = ge ** (den_high / 2.0) + ge ** (den_low / 2.0)
    with np.errstate(all="ignore"):
        bound = (num_scale * (1.0 + _SCREEN_MARGIN) * l2
                 * np.maximum(peak ** (num_low - 2.0), peak ** (num_high - 2.0)) / den)
    bound[~(den > 0.0) | np.isnan(bound)] = np.inf
    return bound


def _max_split_ratio(grid, num_low, num_high, den_low, den_high, num_scale,
                     n_samples, rng):
    """max over the family of

        num_scale * (int_{|u|>=1} |u|^num_high + int_{|u|<1} |u|^num_low)
        / (ge^{den_high/2} + ge^{den_low/2}),   ge = gradient energy.

    Screen, then score. Each exponent e >= 2 has |u|^e <= u^2 M^(e-2) with
    M = max|u|, so with L2 = int u^2 a sample's ratio is at most

        num_scale * L2 * max(M^(num_low-2), M^(num_high-2)) / den.

    The screen computes this bound for every sample of a batch, from samples
    and energies built by cheaper products (_synthesize's screen=True,
    _screen_energies) and inflated by _SCREEN_MARGIN, which dominates their
    rounding differences. The bound is +inf where an exponent is below 2,
    where den <= 0 and where it is NaN. The sample with the top bound is then
    scored exactly, and after it every sample whose bound is >= the best
    exact ratio so far. A sample left unscored has a ratio below that best,
    and max is exact, so the result is bitwise the maximum over every sample.
    On the 2-D presets about 3% of the samples are scored, in 1-D about 10%.

    Screen and scoring run in ``parallel.chunks`` of samples (a 65x65 batch
    of 500 is 17 chunks of 31), one after another in the calling thread, so
    a chunk's temporaries stay in L2. The exact score is bitwise the
    one-batch one:
    - the batch's draws are made in a fixed order and size, before the batch
      is split;
    - synthesis and scoring are per sample, so any rows give the same bits
      as those rows of the whole batch;
    - the one BLAS product that enters a score (1-D smooth part) is taken on
      the whole batch, since OpenBLAS rounds a row slice differently;
    - max is exact, so chunk maxima fold to the batch's in any order.
    A batch of one block (any 1-D preset) is one chunk.
    """
    modes = _axis_modes(grid)
    w = grid.weights
    axes = tuple(range(1, grid.dimension + 1))
    # one stack of samples for every chunk, so it is not paged in again per chunk
    stack = np.empty((parallel.chunks(_BATCH, w.size)[0].stop,) + grid.shape)
    chunk_bound = functools.partial(
        _ratio_bounds, grid, modes, num_low=num_low, num_high=num_high,
        den_low=den_low, den_high=den_high, num_scale=num_scale, out=stack)

    def chunk_max(draws, rows):
        fam = _synthesize(grid, modes, draws, rows, out=stack)
        absu = np.abs(fam)
        big = absu >= 1.0
        # each branch powers only the nodes it keeps
        high = np.power(absu, num_high, out=np.zeros_like(absu), where=big)
        low = np.power(absu, num_low, out=np.zeros_like(absu), where=~big)
        num = num_scale * (np.sum(high * w, axis=axes) + np.sum(low * w, axis=axes))
        ge = gradient_energies(fam, grid)
        den = ge ** (den_high / 2.0) + ge ** (den_low / 2.0)
        valid = den > 0.0
        return np.max(num[valid] / den[valid], initial=-np.inf)

    best = 0.0
    done = 0
    while done < n_samples:
        b = min(_BATCH, n_samples - done)
        draws = _family_draws(grid, b, rng, modes)
        bound = np.concatenate([chunk_bound(draws, c) for c in parallel.chunks(b, w.size)])
        # the top bound's exact ratio sets the bar the other samples must reach
        top = int(np.argmax(bound))
        best = max(best, float(chunk_max(draws, slice(top, top + 1))))
        rows = np.flatnonzero(bound >= best)
        rows = rows[rows != top]
        maxima = [chunk_max(draws, rows[c]) for c in parallel.chunks(rows.size, w.size)]
        # -inf (no valid sample) leaves best unchanged
        best = max(best, float(np.max(maxima, initial=-np.inf)))
        done += b
    return best


_ratio_memo = {}
_ratio_lock = threading.Lock()


def _certified_ratio(kind, grid: Grid, p1, p2, n_samples, seed, **exponents) -> float:
    """_max_split_ratio over the seeded family, computed once per input.

    The ratio is pure in the key: make_grid builds every Grid, so lengths and
    counts fix the nodes, weights and boundary; kind, p1 and p2 fix the
    exponents, and the seed fixes the family. One lock covers lookup and
    computation, for callers that certify from several threads.
    """
    key = (kind, grid.lengths, grid.counts, float(p1), float(p2), n_samples, seed)
    with _ratio_lock:
        if key not in _ratio_memo:
            _ratio_memo[key] = _max_split_ratio(
                grid, n_samples=n_samples, rng=np.random.default_rng(seed), **exponents)
        return _ratio_memo[key]


def embedding_constant_for_bound(grid: Grid, p1, p2, seed, n_samples=10000,
                                 safety=2.0) -> float:
    """Certified c with (1/2) int |u|^{2p(x)-2} <= c (ge^{p2-1} + ge^{p1-1}).

    Empirical maximization of the split ratio over >= n_samples random
    Dirichlet functions drawn from ``seed``, times the safety factor. Valid
    for every exponent field with bounds [p1, p2] because the integrand is
    split at |u| = 1.
    The ratio is memoized; the safety factor is applied after the lookup.
    """
    ratio = _certified_ratio(
        "bound", grid, p1, p2, n_samples, seed,
        num_low=2.0 * p1 - 2.0,
        num_high=2.0 * p2 - 2.0,
        den_low=2.0 * (p1 - 1.0),
        den_high=2.0 * (p2 - 1.0),
        num_scale=0.5,
    )
    return safety * ratio


def embedding_constant_for_gate(grid: Grid, p1, p2, seed, n_samples=10000,
                                safety=2.0) -> float:
    """Certified c with int |u|^{p(x)} <= c (ge^{p2/2} + ge^{p1/2}).

    Memoized like embedding_constant_for_bound."""
    ratio = _certified_ratio(
        "gate", grid, p1, p2, n_samples, seed,
        num_low=p1,
        num_high=p2,
        den_low=p1,
        den_high=p2,
        num_scale=1.0,
    )
    return safety * ratio


@dataclass(frozen=True)
class GateReport:
    """Smallness gate for global existence."""

    nehari0: float
    beta: float
    threshold: float
    initial_energy: float
    passed: bool


def global_existence_gate(report0, p1, p2, c_gate) -> GateReport:
    """Evaluate the initial smallness condition.

    beta = c_gate [ (2 p1/(p1-2) E0)^{(p2-2)/2} + (2 p1/(p1-2) E0)^{(p1-2)/2} ]
    must stay below (p1-2)/(2 p1), together with a positive initial Nehari
    functional. Negative initial energy, or p1 <= 2, where the threshold is
    not positive, fails the gate by construction: beta is inf.
    """
    threshold = (p1 - 2.0) / (2.0 * p1)
    e0 = report0.total_energy
    i0 = report0.nehari
    if e0 < 0.0 or p1 <= 2.0:
        beta = np.inf
    else:
        base = 2.0 * p1 / (p1 - 2.0) * e0
        beta = c_gate * (base ** ((p2 - 2.0) / 2.0) + base ** ((p1 - 2.0) / 2.0))
    passed = bool(i0 > 0.0 and beta < threshold)
    return GateReport(i0, float(beta), float(threshold), float(e0), passed)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay fit over the tail of a trajectory."""

    kind: str  # "exponential" | "polynomial"
    rate: float  # decay rate (exponential) or log-log slope (polynomial)
    r_squared: float
    boundedness: float  # sup E (1+t)^{2/(m2-2)} / E(0); nan for exponential
    window: tuple
    note: str


def _linear_fit(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return float(slope), r2


def fit_decay(trajectory, m2) -> DecayFit:
    """Fit the sampled energy tail: the samples of the last half of the run.

    m2 == 2: slope of log E versus t (exponential rate). m2 > 2: slope of
    log E versus log(1+t), plus the boundedness diagnostic
    sup E (1+t)^{2/(m2-2)} / E(0). Samples with E below the positivity floor
    shrink the window (logged); fewer than three usable samples is an error.
    """
    times = np.asarray(trajectory.times)
    energies = trajectory.energies
    sel = times >= times[-1] * 0.5
    note = ""
    usable = sel & (energies > ENERGY_FLOOR)
    if usable.sum() < sel.sum():
        note = f"window shrunk: {int(sel.sum() - usable.sum())} samples at or below the energy floor"
        log.info("fit_decay: %s", note)
    if usable.sum() < 3:
        raise ConditionError("decay fit window is empty")
    t = times[usable]
    e = energies[usable]
    e0 = trajectory.energies[0]

    if abs(m2 - 2.0) < 1e-12:
        slope, r2 = _linear_fit(t, np.log(e))
        return DecayFit("exponential", -slope, r2, float("nan"),
                        (float(t[0]), float(t[-1])), note)

    slope, r2 = _linear_fit(np.log1p(t), np.log(e))
    power = 2.0 / (m2 - 2.0)
    bounded = float(np.max(e * (1.0 + t) ** power) / e0) if e0 > 0 else float("inf")
    return DecayFit("polynomial", slope, r2, bounded,
                    (float(t[0]), float(t[-1])), note)


def fit_blowup_growth(trajectory, alpha) -> float:
    """Through-origin regression of dL/dt on L^{1/(1-alpha)} (diagnostic only)."""
    if alpha is None:
        return None
    times = np.asarray(trajectory.times)
    lvals = np.array(
        [np.nan if r.blowup_indicator is None else r.blowup_indicator
         for r in trajectory.reports]
    )
    good = np.isfinite(lvals) & (lvals > 0.0)
    if good.sum() < 3:
        return None
    t = times[good]
    lv = lvals[good]
    dl = np.diff(lv) / np.diff(t)
    mid = 0.5 * (lv[1:] + lv[:-1])
    x = mid ** (1.0 / (1.0 - alpha))
    denom = float(np.sum(x * x))
    if denom == 0.0:
        return None
    return float(np.sum(dl * x) / denom)


@dataclass(frozen=True)
class RegimeVerdict:
    """Final classification of a completed trajectory."""

    classification: str  # "blow-up" | "global-decay" | "inconclusive"
    t_measured: float
    lower_bound_consistent: bool
    fit: DecayFit


def classify(trajectory, t_low=None, decay_factor=0.01, m2=None) -> RegimeVerdict:
    """Total classification: blow-up on threshold crossing, global-decay on a
    finished run whose final energy dropped below decay_factor * E(0), else
    inconclusive. A negative-energy run that merely reaches the horizon is
    inconclusive, never decay (the relative test is vacuous for E(0) < 0)."""
    e = trajectory.energies
    fit = None
    t_measured = None
    if trajectory.termination == TERMINATED_BLOWUP:
        label = "blow-up"
        t_measured = trajectory.blowup_time
    elif (trajectory.termination == TERMINATED_END and e[0] >= 0.0
          and e[-1] <= decay_factor * e[0]):
        label = "global-decay"
        if m2 is not None:
            try:
                fit = fit_decay(trajectory, m2)
            except ConditionError as exc:
                log.info("decay fit unavailable: %s", exc)
    else:
        label = "inconclusive"

    consistent = None
    if t_measured is not None and t_low is not None:
        consistent = bool(t_measured >= t_low)
    return RegimeVerdict(label, t_measured, consistent, fit)
