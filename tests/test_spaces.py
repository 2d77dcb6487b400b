from pathlib import Path

import numpy as np
import pytest

from delaywave import spaces
from delaywave.config import parse_config, resolve_config
from delaywave.errors import ConditionError, GridMismatchError
from delaywave.solver import laplacian
from delaywave.spaces import (
    ExponentField,
    GridFunction,
    _abs_power,
    check_sandwich,
    discrete_poincare_constant,
    gradient_energy,
    l2_norm,
    log_holder_moduli,
    luxemburg_norm,
    make_grid,
    modular,
    validate_exponent_pair,
)


def test_grid_weights_sum_to_measure():
    g1 = make_grid(1.0, 17)
    assert abs(g1.weights.sum() - 1.0) <= 1e-12
    g2 = make_grid((2.0, 3.0), (9, 11))
    assert abs(g2.weights.sum() - 6.0) <= 6e-12
    assert g2.boundary.sum() == 2 * 9 + 2 * 11 - 4


def test_grid_rejects_tiny_axes():
    with pytest.raises(ValueError):
        make_grid(1.0, 2)
    with pytest.raises(ValueError):
        make_grid(-1.0, 11)
    # NaN compares false with 0, and the weight-sum check compares NaN
    for lengths, counts in ((np.nan, 11), (np.inf, 11), ((1.0, np.nan), (11, 11))):
        with pytest.raises(ValueError, match="positive and finite"):
            make_grid(lengths, counts)


def test_grid_function_shape_checked():
    g = make_grid(1.0, 11)
    with pytest.raises(GridMismatchError):
        GridFunction(g, np.zeros(7))


def test_exponent_field_bounds_cached():
    g = make_grid(1.0, 11)
    f = ExponentField(g, 2.0 + g.coords[0])
    assert f.low == 2.0 and f.high == 3.0
    with pytest.raises(ConditionError):
        ExponentField.constant(g, 0.5)


def test_exponent_field_refuses_a_nan_sample():
    g = make_grid(1.0, 11)
    values = np.full(g.shape, 3.0)
    values[4] = np.nan
    with pytest.raises(ConditionError):
        ExponentField(g, values)


# --- exponent pair validation -------------------------------------------------

def test_validate_constant_pair_passes():
    g = make_grid(1.0, 51)
    rep = validate_exponent_pair(ExponentField.constant(g, 2.0),
                                 ExponentField.constant(g, 3.0))
    assert rep.chain_ok and rep.log_ok
    assert rep.log_modulus_damping == 0.0
    assert rep.log_modulus_source == 0.0


def test_validate_rejects_equal_bounds():
    # the chain requires m_high strictly below p_low
    g = make_grid(1.0, 51)
    rep = validate_exponent_pair(ExponentField.constant(g, 2.0),
                                 ExponentField.constant(g, 2.0))
    assert not rep.chain_ok


def test_validate_linear_fields_log_modulus():
    # q(x) linear with slope 0.4: pair modulus max_d 0.4 d |log d| over d < 1/2,
    # attained near d = 1/e (brute-force oracle over all node pairs)
    g = make_grid(1.0, 201)
    m = ExponentField(g, 2.0 + 0.4 * g.coords[0])
    p = ExponentField(g, 3.5 + 0.4 * g.coords[0])
    rep = validate_exponent_pair(m, p, log_bound=1.0, log_delta=0.5)
    assert rep.chain_ok and rep.log_ok
    assert rep.log_modulus_damping < 1.0
    assert rep.log_modulus_damping == pytest.approx(0.4 / np.e, rel=1e-3)


def test_validate_mismatched_grids_error():
    g1 = make_grid(1.0, 11)
    g2 = make_grid(1.0, 13)
    with pytest.raises(GridMismatchError):
        validate_exponent_pair(ExponentField.constant(g1, 2.0),
                               ExponentField.constant(g2, 3.0))


def test_log_holder_delta_range():
    g = make_grid(1.0, 11)
    with pytest.raises(ValueError):
        log_holder_moduli((ExponentField.constant(g, 2.0),), delta=1.5)


def _all_pairs_log_modulus(q, delta, chunk=512):
    """Reference: the score of every ordered node pair, chunked by rows."""
    pts = np.stack([m.ravel() for m in q.grid.meshes()], axis=1)
    vals = q.values.ravel()
    n = pts.shape[0]
    worst = 0.0
    for start in range(0, n, chunk):
        block = slice(start, min(start + chunk, n))
        diff = pts[block, None, :] - pts[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=-1))
        mask = (dist > 0.0) & (dist < delta)
        if not np.any(mask):
            continue
        dq = np.abs(vals[block, None] - vals[None, :])
        score = np.where(mask, dq * np.abs(np.log(np.where(mask, dist, 1.0))), 0.0)
        worst = max(worst, float(score.max()))
    return worst


def _smooth_exponent(*xs):
    out = 2.0 + 0.3 * np.sin(3.0 * xs[0])
    if len(xs) == 2:
        out = out + 0.5 * xs[1] ** 2
    return out


def _random_smooth(g, rng):
    """Random linear, bilinear and quadratic terms in x (and y) plus uniform
    noise whose amplitude may be 0, shifted to a minimum of 1.5."""
    x, y = (g.meshes() + (0.0,))[:2]
    a = rng.uniform(-1.0, 1.0, 5)
    values = a[0] * x + a[1] * y + a[2] * x * y + a[3] * x * x + a[4] * y * y
    values = values + rng.choice([0.0, 1e-6, 1e-2]) * rng.uniform(size=g.shape)
    return values - values.min() + 1.5


@pytest.mark.parametrize("lengths,counts", [
    (1.0, 201),
    (0.37, 53),        # spacing is not a power of two
    ((1.0, 1.0), (33, 33)),
    ((1.3, 0.7), (41, 57)),
    ((2.1, 1.7), (23, 31)),
])
@pytest.mark.parametrize("delta", [0.1, 0.5, 0.9])
def test_log_modulus_equals_all_pairs_bitwise(lengths, counts, delta):
    g = make_grid(lengths, counts)
    fields = (
        ExponentField(g, np.random.default_rng(3).uniform(1.0, 5.0, g.shape)),
        ExponentField(g, _smooth_exponent(*g.meshes())),
    )
    for q in fields:
        assert log_holder_moduli((q,), delta)[0] == _all_pairs_log_modulus(q, delta)


@pytest.mark.parametrize("lengths,counts", [(1.0, 101), ((1.3, 0.7), (21, 17))])
def test_log_modulus_of_constant_field_is_zero(lengths, counts):
    q = ExponentField.constant(make_grid(lengths, counts), 2.7)
    assert log_holder_moduli((q,), 0.5)[0] == 0.0


def test_log_modulus_property_equals_all_pairs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    draws = dict(
        lengths=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=2),
        counts=st.lists(st.integers(3, 24), min_size=2, max_size=2),
        delta=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(**draws)
    def check(lengths, counts, delta, seed):
        g = make_grid(tuple(lengths), tuple(counts[:len(lengths)]))
        q = ExponentField(g, np.random.default_rng(seed).uniform(1.0, 4.0, g.shape))
        assert log_holder_moduli((q,), delta)[0] == _all_pairs_log_modulus(q, delta)

    # random bilinear and quadratic terms plus noise that may vanish: the
    # bounds are tightest here, so the sweep prunes the most
    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(**draws)
    def check_smooth(lengths, counts, delta, seed):
        g = make_grid(tuple(lengths), tuple(counts[:len(lengths)]))
        q = ExponentField(g, _random_smooth(g, np.random.default_rng(seed)))
        assert log_holder_moduli((q,), delta)[0] == _all_pairs_log_modulus(q, delta)

    check()
    check_smooth()


def _pruning_fields(g):
    """Fields where a pruned offset sweep could go wrong: a one-node spike
    (its maximum sits at the smallest offset), a step jump, uniform noise, a
    smooth field (its maximum sits at a long, oblique offset) and, last, a
    constant field."""
    spike = np.full(g.shape, 2.0)
    spike[tuple(n // 3 for n in g.shape)] = 3.5
    meshes = g.meshes()
    step = np.where(meshes[0] < 0.4 * g.lengths[0], 2.0, 2.6)
    noise = np.random.default_rng(7).uniform(1.0, 5.0, g.shape)
    return [ExponentField(g, v) for v in (spike, step, noise, _smooth_exponent(*meshes))] \
        + [ExponentField.constant(g, 2.5)]


@pytest.mark.parametrize("lengths,counts", [
    (1.0, 201),
    ((1.0, 1.0), (65, 65)),
    ((1.3, 0.7), (41, 29)),
])
@pytest.mark.parametrize("delta", [0.1, 0.5, 0.9])
def test_log_moduli_shared_pass_equals_all_pairs(lengths, counts, delta):
    g = make_grid(lengths, counts)
    fields = _pruning_fields(g)
    # the constant field, last, must score exactly 0
    expected = [_all_pairs_log_modulus(q, delta, chunk=128) for q in fields[:-1]] + [0.0]
    assert min(expected[:-1]) > 0.0
    # neighbouring pairs in both orders; the last pairs the constant field
    for a in range(len(fields) - 1):
        for i, j in ((a, a + 1), (a + 1, a)):
            assert log_holder_moduli((fields[i], fields[j]), delta) == (expected[i], expected[j])
    assert log_holder_moduli(fields, delta) == tuple(expected)


def _bilinear_fields(g):
    """1 + 2.5 X Y with X = x or Lx - x and Y = y or Ly - y: in each of the
    four orientations one corner path bounds |dq| exactly. The values span
    more than a factor of 2, so their differences round, and on the
    (1.3, 0.7) box a rounded |dq| exceeds its rounded path sum times
    |log d_min|: only the slack keeps the bound above it."""
    meshes = g.meshes()
    sides = [(m, length - m) for m, length in zip(meshes, g.lengths)] + [(1.0, 1.0)]
    return [ExponentField(g, np.broadcast_to(1.0 + 2.5 * a * b, g.shape))
            for a in sides[0] for b in sides[1]]


def _offsets(g, delta):
    x = g.coords[0]
    y = g.coords[1] if g.dimension == 2 else np.zeros(1)
    d_min, reach = spaces._reachable_offsets(x, y, delta)
    return x, y, d_min, reach


def _pair_scores(q, x, y, di, dj, mirror, delta):
    """The score of every pair at offset (di, dj), or at its mirror (di, -dj),
    from each pair's own coordinates, as the all-pairs reference scores it."""
    v = q.values.reshape(x.size, y.size)
    i = np.arange(x.size - di)[:, None]
    j = np.arange(y.size - dj)[None, :]
    a, b = ((i, j + dj), (i + di, j)) if mirror else ((i, j), (i + di, j + dj))
    dx, dy = x[b[0]] - x[a[0]], y[b[1]] - y[a[1]]
    dist = np.sqrt(dx * dx + dy * dy)
    mask = (dist > 0.0) & (dist < delta)
    return np.where(mask, np.abs(v[b] - v[a]) * np.abs(np.log(np.where(mask, dist, 1.0))), 0.0)


@pytest.mark.parametrize("lengths,counts", [
    (1.0, 201),
    (0.37, 53),
    ((1.3, 0.7), (41, 57)),
])
def test_offset_bounds_cover_every_pair_score(lengths, counts):
    # the sweep stops at the first bound below its running maximum, so a
    # bound below any score of its offset could lose the maximum
    g = make_grid(lengths, counts)
    delta = 0.9
    x, y, d_min, reach = _offsets(g, delta)
    rng = np.random.default_rng(11)
    fields = (_pruning_fields(g)[:-1] + _bilinear_fields(g)
              + [ExponentField(g, _random_smooth(g, rng)) for _ in range(3)])
    for q in fields:
        bounds = spaces._offset_bounds(q.values.reshape(x.size, y.size), d_min)
        for di, dj in zip(*np.nonzero(reach)):
            for mirror, bound in zip((False, True), bounds):
                assert _pair_scores(q, x, y, di, dj, mirror, delta).max() <= bound[di, dj]


def test_offset_bounds_are_exact_on_bilinear_spike_and_step_fields():
    # one corner path is exact on a bilinear field and the range cap on a
    # spike; the larger of an offset's two bounds is then its largest score
    g = make_grid((1.3, 0.7), (41, 57))
    delta = 0.9
    x, y, d_min, reach = _offsets(g, delta)
    for q in _bilinear_fields(g) + _pruning_fields(g)[:2]:
        bounds = spaces._offset_bounds(q.values.reshape(x.size, y.size), d_min)
        for di, dj in zip(*np.nonzero(reach)):
            best = max(_pair_scores(q, x, y, di, dj, mirror, delta).max()
                       for mirror in (False, True))
            assert max(b[di, dj] for b in bounds) == pytest.approx(best, rel=1e-9, abs=0.0)


_BOX_2D = Path(__file__).resolve().parents[1] / "bench" / "box-2d.cfg"


def test_box_2d_exponents_score_few_offsets(monkeypatch):
    # box-2d's m and p are bilinear and linear: the bounds are exact, so the
    # sweep scores the offset that holds each maximum and little else
    resolved = resolve_config(parse_config(_BOX_2D.read_text()))
    scored = []
    score = spaces._offset_score
    monkeypatch.setattr(spaces, "_offset_score",
                        lambda *args: scored.append(args[3:6]) or score(*args))
    moduli = log_holder_moduli((resolved.m, resolved.p), 0.5)
    assert moduli == (0.13714676168622394, 0.11034329096381945)
    assert 2 <= len(scored) <= 4


# --- modular -------------------------------------------------------------------

def test_modular_zero_and_constant():
    g = make_grid(1.0, 31)
    p = ExponentField.constant(g, 3.3)
    assert modular(GridFunction.zeros(g), p) == 0.0
    assert modular(GridFunction(g, np.ones(g.shape)), p) == pytest.approx(1.0, abs=1e-14)


def test_modular_piecewise_closed_form():
    # continuum value 0.5*2^2 + 0.5*2^4 = 10; the interface node carries an
    # O(h) quadrature smear, and the weighted-sum oracle is exact
    g = make_grid(1.0, 201)
    h = g.spacing[0]
    pvals = np.where(g.coords[0] < 0.5, 2.0, 4.0)
    p = ExponentField(g, pvals)
    u = GridFunction(g, np.full(g.shape, 2.0))
    got = modular(u, p)
    oracle = float(np.sum(g.weights * np.abs(u.values) ** pvals))
    assert got == pytest.approx(oracle, rel=1e-14)
    assert got == pytest.approx(10.0, abs=16.0 * h)


@pytest.mark.parametrize("q", ["two", "constant", "variable"])
def test_modular_uses_the_resolved_power(q, monkeypatch):
    # the modular powers with the exponent field's resolved power, as the
    # energy report does: the bits of the weighted sum of _abs_power, and
    # the Luxemburg norm's bisection and the sandwich check through it
    g = make_grid(1.0, 31)
    values = {"two": np.full(g.shape, 2.0), "constant": np.full(g.shape, 3.3),
              "variable": 2.2 + 0.3 * g.coords[0]}[q]
    p = ExponentField(g, values)
    rng = np.random.default_rng(17)
    u = GridFunction(g, rng.standard_normal(g.shape) * rng.uniform(0.1, 10.0, g.shape))
    assert modular(u, p) == float(np.sum(g.weights * _abs_power(u.values, p)))
    powered = []
    monkeypatch.setattr(spaces, "_abs_power",
                        lambda w, field: powered.append(field) or _abs_power(w, field))
    assert check_sandwich(u, p)
    assert len(powered) > 1 and all(field is p for field in powered)


def test_modular_monotone_in_amplitude():
    g = make_grid(1.0, 31)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(g.shape)
    p = ExponentField(g, rng.uniform(1.5, 4.0, g.shape))
    last = 0.0
    for amp in np.linspace(0.0, 3.0, 13):
        cur = modular(GridFunction(g, amp * u), p)
        assert cur >= last - 1e-15
        last = cur


# --- Luxemburg norm -------------------------------------------------------------

def test_luxemburg_zero_function():
    g = make_grid(1.0, 31)
    assert luxemburg_norm(GridFunction.zeros(g), ExponentField.constant(g, 2.5)) == 0.0


def test_luxemburg_requires_positive_tol():
    g = make_grid(1.0, 31)
    u = GridFunction(g, np.ones(g.shape))
    with pytest.raises(ValueError):
        luxemburg_norm(u, ExponentField.constant(g, 2.0), tol=0.0)


def test_luxemburg_iteration_cap_carries_bracket():
    from delaywave.errors import NumericalError

    g = make_grid(1.0, 31)
    p = ExponentField(g, np.where(g.coords[0] < 0.5, 2.0, 4.0))
    u = GridFunction(g, 3.0 * np.ones(g.shape))
    with pytest.raises(NumericalError) as err:
        luxemburg_norm(u, p, tol=1e-15, max_iter=1)
    assert "bracket" in err.value.context


def test_luxemburg_constant_exponent_is_classical():
    g = make_grid(1.0, 101)
    rng = np.random.default_rng(11)
    for _ in range(20):
        q = rng.uniform(1.2, 6.0)
        vals = rng.standard_normal(g.shape) * 10.0 ** rng.uniform(-2, 2)
        u = GridFunction(g, vals)
        classical = float(np.sum(g.weights * np.abs(vals) ** q)) ** (1.0 / q)
        got = luxemburg_norm(u, ExponentField.constant(g, q))
        assert got == pytest.approx(classical, rel=1e-10)


def test_luxemburg_piecewise_closed_form():
    # p = 2 below the midpoint and 4 above, u = 2: with r = (2/lam)^2 the
    # norm equation reads w2 r + w4 r^2 = 1, and w2 + w4 = 1 forces r = 1
    g = make_grid(1.0, 201)
    p = ExponentField(g, np.where(g.coords[0] < 0.5, 2.0, 4.0))
    u = GridFunction(g, np.full(g.shape, 2.0))
    assert luxemburg_norm(u, p) == pytest.approx(2.0, abs=1e-8)


def test_luxemburg_homogeneous():
    g = make_grid(1.0, 61)
    rng = np.random.default_rng(3)
    for _ in range(40):
        vals = rng.standard_normal(g.shape)
        p = ExponentField(g, rng.uniform(1.2, 5.0, g.shape))
        u = GridFunction(g, vals)
        a = 10.0 ** rng.uniform(-3, 3)
        lhs = luxemburg_norm(GridFunction(g, a * vals), p)
        rhs = a * luxemburg_norm(u, p)
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_unit_ball_property_both_sides():
    g = make_grid(1.0, 61)
    rng = np.random.default_rng(9)
    for _ in range(60):
        vals = rng.standard_normal(g.shape) * 10.0 ** rng.uniform(-1.5, 1.5)
        p = ExponentField(g, rng.uniform(1.3, 4.5, g.shape))
        u = GridFunction(g, vals)
        lam = luxemburg_norm(u, p)
        rho = modular(u, p)
        assert (lam <= 1.0) == (rho <= 1.0 + 1e-9)


def test_sandwich_constant_and_random():
    g = make_grid(1.0, 61)
    u = GridFunction(g, np.ones(g.shape))
    p = ExponentField.constant(g, 3.0)
    assert check_sandwich(u, p)
    rng = np.random.default_rng(13)
    for _ in range(200):
        vals = rng.standard_normal(g.shape) * 10.0 ** rng.uniform(-2, 2)
        split = rng.uniform(0.2, 0.8)
        lo, hi = np.sort(rng.uniform(1.2, 5.0, size=2))
        pp = ExponentField(g, np.where(g.coords[0] < split, lo, hi))
        assert check_sandwich(GridFunction(g, vals), pp)


# --- Poincare constant -----------------------------------------------------------

def test_poincare_matches_closed_form_eigenvalue():
    for n in (18, 34, 66, 130):
        g = make_grid(1.0, n)
        h = g.spacing[0]
        exact = 1.0 / np.sqrt((2.0 / h**2) * (1.0 - np.cos(np.pi * h)))
        assert discrete_poincare_constant(g) == pytest.approx(exact, rel=1e-10)


def _inverse_power_poincare(grid, tol=1e-14, max_iter=2000):
    """Oracle: 1/sqrt(lambda_1) of the sparse Dirichlet Laplacian on the
    interior nodes, by inverse power iteration with an LU solve per sweep."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    mats = []
    for h, n in zip(grid.spacing, grid.counts):
        k = n - 2
        off = np.full(k - 1, -1.0 / h**2)
        mats.append(sp.diags([off, np.full(k, 2.0 / h**2), off], [-1, 0, 1], format="csr"))
    if grid.dimension == 1:
        a = mats[0].tocsc()
    else:
        ax, ay = mats
        a = (sp.kron(ax, sp.identity(ay.shape[0])) + sp.kron(sp.identity(ax.shape[0]), ay)).tocsc()
    lu = spla.splu(a)
    x = np.ones(a.shape[0]) / np.sqrt(a.shape[0])
    lam_prev = None
    for _ in range(max_iter):
        y = lu.solve(x)
        x = y / np.linalg.norm(y)
        lam = float(x @ (a @ x))
        if lam_prev is not None and abs(lam - lam_prev) <= tol * lam:
            return 1.0 / np.sqrt(lam)
        lam_prev = lam
    raise AssertionError("oracle iteration did not converge")


@pytest.mark.parametrize("lengths, counts", [
    (1.0, 18), (1.0, 51), (1.0, 101), (1.0, 201), (3.5, 77),
    ((1.0, 1.0), (65, 65)), ((1.0, 1.0), (33, 21)), ((2.0, 0.7), (33, 21)),
])
def test_poincare_closed_form_matches_sparse_oracle(lengths, counts):
    g = make_grid(lengths, counts)
    assert discrete_poincare_constant(g) == pytest.approx(_inverse_power_poincare(g),
                                                          rel=1e-12)


def test_poincare_dilation_scaling():
    g = make_grid(2.0, 201)
    # continuum value 2/pi, approached from above under refinement
    assert discrete_poincare_constant(g) == pytest.approx(2.0 / np.pi, rel=1e-3)


def test_poincare_refinement_monotone():
    # the 3-point stencil underestimates the eigenvalue, so the discrete
    # constant decreases monotonically toward the continuum 1/pi
    values = [discrete_poincare_constant(make_grid(1.0, n + 2))
              for n in (16, 32, 64, 128)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > 1.0 / np.pi


def test_poincare_2d_closed_form():
    g = make_grid((1.0, 1.0), (20, 20))
    h = g.spacing[0]
    lam1 = 2.0 * (2.0 / h**2) * (1.0 - np.cos(np.pi * h))
    assert discrete_poincare_constant(g) == pytest.approx(1.0 / np.sqrt(lam1), rel=1e-9)


def test_poincare_sharp_no_slack():
    g = make_grid(1.0, 40)
    cp = discrete_poincare_constant(g)
    rng = np.random.default_rng(17)
    for _ in range(500):
        vals = rng.standard_normal(g.shape)
        vals[g.boundary] = 0.0
        w = GridFunction(g, vals)
        assert l2_norm(w) <= cp * np.sqrt(gradient_energy(w)) * (1.0 + 1e-12)


def test_gradient_energy_matches_laplacian_pairing():
    # <w, -lap w> == gradient_energy(w) exactly for Dirichlet data; this is
    # the identity that makes the discrete energy balance exact
    rng = np.random.default_rng(23)
    for grid in (make_grid(1.0, 41), make_grid((1.0, 1.5), (17, 23))):
        for _ in range(20):
            vals = rng.standard_normal(grid.shape)
            vals[grid.boundary] = 0.0
            w = GridFunction(grid, vals)
            pairing = -float(np.sum(grid.weights * vals * laplacian(vals, grid)))
            assert pairing == pytest.approx(gradient_energy(w), rel=1e-12)
