import numpy as np
import pytest

from delaywave.delay import (
    build_kernel,
    check_mass_condition,
    dissipation_margins,
    xi_default,
)
from delaywave.errors import ConditionError, GridMismatchError
from delaywave.spaces import ExponentField, GridFunction, make_grid

from _density import density_kernel


def test_kernel_constant_density_mass():
    k = density_kernel(lambda t: np.full_like(t, 0.4), 1.0, 2.0, 11, mu1=1.0)
    assert k.mass == pytest.approx(0.4, abs=1e-14)
    assert abs(k.weights.sum() - 1.0) <= 1e-12


def test_kernel_linear_density_trapezoid_exact():
    k = density_kernel(lambda t: t, 1.0, 2.0, 2, mu1=2.0)
    assert k.mass == pytest.approx(1.5, abs=1e-14)


def test_kernel_exponential_density_closed_form():
    k = density_kernel(lambda t: np.exp(-t), 1.0, 2.0, 101, mu1=1.0)
    exact = np.exp(-1.0) - np.exp(-2.0)
    assert k.mass == pytest.approx(exact, abs=1e-5)


def test_kernel_mass_second_order_convergence():
    exact = np.exp(-1.0) - np.exp(-2.0)
    errs = [abs(density_kernel(lambda t: np.exp(-t), 1.0, 2.0, n, mu1=1.0).mass - exact)
            for n in (9, 17, 33)]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_kernel_validation_errors():
    with pytest.raises(ConditionError):
        density_kernel(lambda t: t, 2.0, 1.0, 8, mu1=1.0)
    with pytest.raises(ConditionError):
        density_kernel(lambda t: -t, 1.0, 2.0, 8, mu1=1.0)
    with pytest.raises(ConditionError):
        density_kernel(lambda t: t, 1.0, 2.0, 1, mu1=1.0)
    # NaN compares false with everything, so "refuse a negative value" would
    # let it through
    density = np.full(16, 0.1)
    with pytest.raises(ConditionError, match="mu1 must be nonnegative"):
        build_kernel(density, 0.5, 1.0, mu1=np.nan)
    density[7] = np.nan
    with pytest.raises(ConditionError, match="mu2 must be nonnegative"):
        build_kernel(density, 0.5, 1.0, mu1=1.0)


def test_mass_condition_strict():
    assert check_mass_condition(density_kernel(lambda t: np.full_like(t, 0.4), 1.0, 2.0, 11, mu1=1.0))
    assert not check_mass_condition(density_kernel(lambda t: t, 1.0, 2.0, 2, mu1=1.0))
    # equality is not enough
    k = density_kernel(lambda t: np.ones_like(t), 1.0, 2.0, 2, mu1=1.0)
    assert k.mass == 1.0
    assert not check_mass_condition(k)


def _grid_and_m(expr=lambda x: np.full_like(x, 2.0), n=41):
    g = make_grid(1.0, n)
    return g, ExponentField(g, expr(g.coords[0]))


def _xi_condition(k, xi, m):
    """The weight condition: both dissipation margins positive."""
    return min(dissipation_margins(k, xi, m)) > 0.0


def test_xi_default_substitutions():
    g, m = _grid_and_m()
    k = density_kernel(lambda t: np.full_like(t, 0.5), 1.0, 2.0, 11, mu1=1.0)
    xi = xi_default(k, m)
    assert np.allclose(xi.values, 0.5)

    g3, m3 = _grid_and_m(lambda x: np.full_like(x, 3.0))
    k3 = density_kernel(lambda t: np.full_like(t, 0.5), 1.0, 3.0, 11, mu1=2.0)
    assert np.allclose(xi_default(k3, m3).values, 0.75)


def test_xi_default_spatially_varying():
    g = make_grid(1.0, 41)
    m = ExponentField(g, 2.0 + g.coords[0])
    k = density_kernel(lambda t: np.full_like(t, 0.5), 1.0, 2.0, 11, mu1=1.0)
    xi = xi_default(k, m)
    assert np.allclose(xi.values, (2.0 + g.coords[0]) / 4.0)


def test_xi_default_surrogate_without_mass_condition():
    # mass 1.5 >= mu1 = 1: no admissible weight, so the surrogate m*mu1/(4*width)
    _, m = _grid_and_m()
    k = density_kernel(lambda t: t, 1.0, 2.0, 2, mu1=1.0)
    xi = xi_default(k, m)
    assert np.array_equal(xi.values, m.values * 1.0 / 4.0)
    assert not _xi_condition(k, xi, m)
    # damping disabled entirely: a zero weight, which fails the condition
    k0 = density_kernel(np.zeros_like, 1.0, 2.0, 11, mu1=0.0)
    assert not np.any(xi_default(k0, m).values)
    assert dissipation_margins(k0, xi_default(k0, m), m) == (0.0, 0.0)


def test_xi_condition_default_always_holds():
    rng = np.random.default_rng(31)
    for _ in range(50):
        tau1 = rng.uniform(0.1, 1.0)
        tau2 = tau1 + rng.uniform(0.1, 2.0)
        mu1 = rng.uniform(0.2, 3.0)
        level = rng.uniform(0.0, 0.95) * mu1 / (tau2 - tau1)
        k = density_kernel(lambda t: np.full_like(t, level), tau1, tau2, 9, mu1=mu1)
        g = make_grid(1.0, 17)
        m = ExponentField(g, rng.uniform(2.0, 4.0, g.shape))
        assert _xi_condition(k, xi_default(k, m), m)


def test_xi_condition_boundary_case_fails():
    g, m = _grid_and_m()
    k = density_kernel(lambda t: np.full_like(t, 0.5), 1.0, 2.0, 11, mu1=1.0)
    doubled = GridFunction(g, 2.0 * xi_default(k, m).values)
    assert not _xi_condition(k, doubled, m)  # equality, not strict


def test_xi_condition_matches_brute_force():
    rng = np.random.default_rng(37)
    g = make_grid(1.0, 17)
    k = density_kernel(lambda t: np.full_like(t, 0.3), 1.0, 2.0, 9, mu1=1.0)
    m = ExponentField(g, rng.uniform(2.0, 4.0, g.shape))
    for _ in range(50):
        xi = GridFunction(g, rng.uniform(0.0, 3.0, g.shape))
        brute = all(k.mass + (k.tau2 - k.tau1) * x / mm < k.mu1 and x > 0.0
                    for x, mm in zip(xi.values, m.values))
        assert _xi_condition(k, xi, m) == brute


def test_dissipation_constant_hand_values():
    g, m = _grid_and_m()
    k = density_kernel(lambda t: np.full_like(t, 0.5), 1.0, 2.0, 11, mu1=1.0)
    xi = xi_default(k, m)
    assert dissipation_margins(k, xi, m) == (pytest.approx(0.25), pytest.approx(0.25))
    assert min(dissipation_margins(k, xi, m)) == pytest.approx(0.25)

    k0 = density_kernel(lambda t: np.zeros_like(t), 1.0, 2.0, 11, mu1=2.0)
    xi0 = xi_default(k0, m)  # canonical weight m*mu1/(2*width) = 2
    assert np.allclose(xi0.values, 2.0)
    assert min(dissipation_margins(k0, xi0, m)) == pytest.approx(1.0)

    # explicit unit weight: f = 2 - (0 + 1*0.5) = 1.5, xi/m = 0.5
    xi1 = GridFunction(g, np.ones(g.shape))
    assert dissipation_margins(k0, xi1, m) == (pytest.approx(1.5), pytest.approx(0.5))
    assert min(dissipation_margins(k0, xi1, m)) == pytest.approx(0.5)


def test_dissipation_constant_positive_whenever_admissible():
    rng = np.random.default_rng(41)
    g = make_grid(1.0, 17)
    for _ in range(50):
        mu1 = rng.uniform(0.2, 3.0)
        level = rng.uniform(0.0, 0.9) * mu1
        k = density_kernel(lambda t: np.full_like(t, level), 0.5, 1.5, 9, mu1=mu1)
        m = ExponentField(g, rng.uniform(2.0, 4.0, g.shape))
        assert min(dissipation_margins(k, xi_default(k, m), m)) > 0.0


def test_dissipation_constant_requires_condition():
    g, m = _grid_and_m()
    k = density_kernel(lambda t: np.full_like(t, 0.5), 1.0, 2.0, 11, mu1=1.0)
    bad = GridFunction(g, 10.0 * np.ones(g.shape))
    assert not _xi_condition(k, bad, m)
    assert min(dissipation_margins(k, bad, m)) < 0.0


def test_dissipation_margins_refuse_fields_on_different_grids():
    g, m = _grid_and_m()
    k = density_kernel(lambda t: np.full_like(t, 0.5), 1.0, 2.0, 11, mu1=1.0)
    with pytest.raises(GridMismatchError):
        dissipation_margins(k, GridFunction(make_grid(1.0, 21), np.ones(21)), m)
    # the same node count on another length is another grid too
    _, m = _grid_and_m(n=11)
    with pytest.raises(GridMismatchError):
        dissipation_margins(k, GridFunction(make_grid(2.0, 11), np.ones(11)), m)
