"""Tests for the group coordinates, transforms, and representation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spqm import fock, group

finite = st.floats(-2.0, 2.0, allow_nan=False)


def _hc_point(nu1, nu2, r, z1, z2, mu1, mu2):
    return group.HCCoords(nu=nu1 + 1j * nu2, r=r, z=z1 + 1j * z2,
                          mu=mu1 + 1j * mu2)


def test_hc_to_cartan_origin():
    y = group.hc_to_cartan(group.HCCoords(nu=0.0, r=1.0, z=0.0, mu=0.0))
    assert y.beta == 0 and y.alpha == 0
    assert y.phi == 0 and y.ell == 0 and y.r == 1.0


def test_hc_to_cartan_equal_real_points():
    # nu = mu = c rescales to beta = alpha = c e^{r/2} / (2 sinh(r/2)).
    c, r = 0.7, 1.3
    y = group.hc_to_cartan(group.HCCoords(nu=c, r=r, z=0.0, mu=c))
    expected = c * np.exp(r / 2) / (2 * np.sinh(r / 2))
    assert abs(y.beta - expected) <= 1e-12
    assert abs(y.alpha - expected) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(finite, finite, st.floats(0.1, 10.0), finite, finite, finite, finite)
def test_round_trip(nu1, nu2, r, z1, z2, mu1, mu2):
    x = _hc_point(nu1, nu2, r, z1, z2, mu1, mu2)
    back = group.cartan_to_hc(group.hc_to_cartan(x))
    scale = max(1.0, abs(x.nu), abs(x.mu), abs(x.z))
    assert abs(back.nu - x.nu) <= 1e-12 * scale
    assert abs(back.mu - x.mu) <= 1e-12 * scale
    assert abs(back.z - x.z) <= 1e-12 * scale
    assert abs(back.r - x.r) <= 1e-12 * scale


def test_cartan_to_hc_equal_phase_points():
    beta, r = 0.4 + 0.2j, 0.9
    y = group.CartanCoords(beta=beta, phi=0.0, r=r, ell=0.0, alpha=beta)
    x = group.cartan_to_hc(y)
    assert abs(x.nu - beta * (1 - np.exp(-r))) <= 1e-14
    assert abs(x.mu - beta * (1 - np.exp(-r))) <= 1e-14
    f, xi = group.gauge_functions(y)
    assert abs(x.s - f) <= 1e-14
    assert abs(x.psi - xi) <= 1e-14


def test_cartan_to_hc_large_r_limit():
    y = group.CartanCoords(beta=1.0, phi=0.0, r=30.0, ell=0.0, alpha=0.0)
    x = group.cartan_to_hc(y)
    f, _ = group.gauge_functions(y)
    assert abs(x.nu - 1.0) <= 1e-12
    assert abs(x.mu) <= 1e-12
    assert abs(f - 0.5) <= 1e-12


def test_cartan_identity_coset():
    y = group.CartanCoords(beta=0.0, phi=0.0, r=0.5, ell=0.0, alpha=0.0)
    x = group.cartan_to_hc(y)
    assert x.nu == 0 and x.mu == 0 and x.z == 0 and x.r == 0.5


def test_gauge_functions_special_values():
    y = group.CartanCoords(beta=0.8, phi=0.0, r=1.0, ell=0.0, alpha=0.8)
    assert group.gauge_functions(y).xi == 0  # beta = alpha real
    y = group.CartanCoords(beta=1.0, phi=0.0, r=30.0, ell=0.0, alpha=1.0)
    assert abs(group.gauge_functions(y).f - 1.0) <= 1e-12
    x = group.HCCoords(nu=0.0, r=1.0, z=0.0, mu=0.0)
    assert group.gauge_functions(x) == (0.0, 0.0)


@settings(max_examples=40, deadline=None)
@given(finite, finite, st.floats(0.1, 8.0), finite, finite)
def test_gauge_functions_chart_agreement(b1, b2, r, a1, a2):
    y = group.CartanCoords(beta=b1 + 1j * b2, phi=0.3, r=r, ell=0.1,
                           alpha=a1 + 1j * a2)
    fc, xic = group.gauge_functions(y)
    fh, xih = group.gauge_functions(group.cartan_to_hc(y))
    assert abs(fc - fh) <= 1e-12 * max(1.0, abs(fc))
    assert abs(xic - xih) <= 1e-12 * max(1.0, abs(xic))


def test_singular_chart_errors():
    x = group.HCCoords(nu=0.1, r=0.0, z=0.0, mu=0.1)
    with pytest.raises(group.ChartSingularityError):
        group.hc_to_cartan(x)
    with pytest.raises(group.ChartSingularityError):
        group.CartanCoords(beta=0.0, phi=0.0, r=0.0, ell=0.0, alpha=0.0)


@pytest.mark.parametrize("r", [np.nan, np.array([0.5, np.nan])])
def test_nan_ruler_is_refused(r):
    with pytest.raises(group.ChartSingularityError):
        group.CartanCoords(beta=0.0, phi=0.0, r=r, ell=0.0, alpha=0.0)
    x = group.HCCoords(nu=0.1, r=r, z=0.0, mu=0.1)
    with pytest.raises(group.ChartSingularityError):
        group.hc_to_cartan(x)
    with pytest.raises(group.ChartSingularityError):
        group.gauge_functions(x)


def test_coordinates_index_like_arrays():
    # Array fields are indexed, the shared scalar r kept; a single point
    # has no index, so iterating stops after the last point.
    nu = np.array([0.1, 0.2j, -0.3])
    x = group.HCCoords(nu=nu, r=0.5, z=2 * nu, mu=-nu)
    assert x[-1] == group.HCCoords(nu=-0.3, r=0.5, z=-0.6, mu=0.3)
    assert [point.nu for point in x] == list(nu)
    for index in (slice(1, None), [2, 0]):
        part = x[index]
        assert part.r == 0.5 and np.array_equal(part.nu, nu[index])
        assert np.array_equal([part.z, part.mu], [2 * part.nu, -part.nu])
    with pytest.raises(IndexError):
        x[1][0]
    # The constructor runs, so a Cartan point checks its r.
    y = group.CartanCoords._regular(beta=nu, phi=0.0, r=np.array([0, 1, 2]),
                                    ell=0.0, alpha=nu)
    assert y[1:].r.tolist() == [1, 2]
    with pytest.raises(group.ChartSingularityError):
        y[0]


@pytest.mark.parametrize("r", [0.0, np.array([0.5, 0.0, 1.0])])
def test_hc_to_cartan_checks_the_chart_once(monkeypatch, r):
    # One chart check per transform, made before any division: r = 0
    # raises with no divide warning, and a regular point is checked
    # once, not again by the gauge functions or the Cartan constructor.
    x = group.HCCoords(nu=0.1 + 0.2j, r=r, z=0.3j, mu=-0.1j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(group.ChartSingularityError):
            group.hc_to_cartan(x)
    check, calls = group._require_regular, []

    def counting(r):
        calls.append(r)
        return check(r)

    monkeypatch.setattr(group, "_require_regular", counting)
    y = group.hc_to_cartan(group.HCCoords(nu=0.1 + 0.2j, r=0.7, z=0.3j,
                                          mu=-0.1j))
    assert len(calls) == 1
    assert y == group.CartanCoords(beta=y.beta, phi=y.phi, r=y.r, ell=y.ell,
                                   alpha=y.alpha)


def test_represent_identity_and_diagonal():
    dim = 10
    ident = group.represent(group.HCCoords.identity(), dim)
    assert np.allclose(ident, np.eye(dim))
    r = 0.8
    x = group.HCCoords(nu=0.0, r=r, z=0.0, mu=0.0)
    want = np.diag(np.exp(-(np.arange(dim) + 0.5) * r))
    assert np.allclose(group.represent(x, dim), want)


def test_represent_cross_decomposition():
    dim = 30
    rng = np.random.default_rng(11)
    for _ in range(3):
        x = group.HCCoords(
            nu=0.5 * (rng.normal() + 1j * rng.normal()), r=1.0,
            z=0.2 * (rng.normal() + 1j * rng.normal()),
            mu=0.5 * (rng.normal() + 1j * rng.normal()))
        r_hc = group.represent(x, dim)
        r_cartan = group.represent(group.hc_to_cartan(x), dim)
        assert np.linalg.norm(fock.interior_block(r_hc - r_cartan)) <= 1e-8


def test_represent_hc_is_truncation_exact():
    # Triangular x diagonal x triangular: the small truncation is the
    # top-left block of the large one, in either chart.
    x = group.HCCoords(nu=0.6 - 0.3j, r=0.7, z=0.2 + 0.4j, mu=-0.4 + 0.5j)
    for point in (x, group.hc_to_cartan(x)):
        small, large = group.represent(point, 12), group.represent(point, 60)
        assert np.max(np.abs(small - large[:12, :12])) <= 1e-14 * np.max(
            np.abs(small))


@pytest.mark.parametrize("dim", [12, 40])
def test_represent_cartan_matches_dense_displacements(dim):
    # Oracle: D_beta e^{i phi - Ho r - ell} D_alpha_dag from dense
    # displacements at dim 80, whose interior holds the small block.
    big = 80
    y = group.CartanCoords(beta=0.8 - 0.5j, phi=0.4, r=0.9, ell=-0.3,
                           alpha=-0.6 + 0.7j)
    dense = fock.cartan_decomposition(big, y.beta, y.phi, y.r, y.ell, y.alpha)
    got = group.represent(y, dim)
    assert np.max(np.abs(got - dense[:dim, :dim])) <= 1e-13 * np.max(
        np.abs(got))


def test_represent_hc_batched_equals_scalar_calls():
    rng = np.random.default_rng(5)
    nu = 0.5 * (rng.normal(size=4) + 1j * rng.normal(size=4))
    z = 0.3 * (rng.normal(size=4) + 1j * rng.normal(size=4))
    mu = 0.5 * (rng.normal(size=4) + 1j * rng.normal(size=4))
    r = rng.uniform(0.1, 2.0, size=4)
    x = group.HCCoords(nu=nu, r=r, z=z, mu=mu)
    got = group.represent(x, 10)
    want = np.stack([group.represent(x[i], 10) for i in range(4)])
    assert got.shape == (4, 10, 10)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("r, z", [(np.nan, 0j), (0.5, np.inf + 0j),
                                  (-800.0, 0j), (np.inf, 0j),
                                  (0.5, -np.inf + 0j)])
def test_represent_hc_rejects_non_finite(r, z):
    x = group.HCCoords(nu=0j, r=r, z=z, mu=0j)
    with pytest.raises(fock.NumericalDomainError):
        group.represent(x, 3)


@pytest.mark.parametrize("nu, mu", [(np.nan, 0j), (0j, np.inf + 0j),
                                    (1e200 + 0j, 0j)])
def test_represent_names_the_failing_ladder(nu, mu):
    # A non-finite or overflowing nu or mu is reported by the ladder.
    x = group.HCCoords(nu=np.array([0.1, nu]), r=0.5, z=0j, mu=mu)
    with pytest.raises(fock.NumericalDomainError, match="ladder"):
        group.represent(x, 6)


@pytest.mark.parametrize("nu, mu", [(np.nan, 0j), (0j, np.inf + 0j)])
def test_represent_dim_one_rejects_non_finite_ladder(nu, mu):
    # At dim 1 the ladders hold no power of nu or mu, so the check
    # reads the coordinates themselves.
    x = group.HCCoords(nu=nu, r=0.5, z=0j, mu=mu)
    with pytest.raises(fock.NumericalDomainError, match="ladder"):
        group.represent(x, 1)


def test_represent_dim_one_is_the_diagonal_factor():
    x = group.HCCoords(nu=0.3 + 0.1j, r=0.5, z=0.2 - 0.4j, mu=-0.2j)
    assert np.allclose(group.represent(x, 1), np.exp(-0.25 + 0.2 - 0.4j),
                       rtol=1e-15, atol=0)


def test_represent_rejects_overflowing_product():
    # Each ladder is finite here; their product is not.
    x = group.HCCoords(nu=1e7 + 0j, r=0.0, z=0j, mu=1e7 + 0j)
    assert np.all(np.isfinite(fock.ladder_exponential(40, x.nu)))
    with pytest.raises(fock.NumericalDomainError, match="represent"):
        group.represent(x, 40)


def test_represent_cartan_batched_equals_scalar_calls():
    rng = np.random.default_rng(6)
    beta = 0.5 * (rng.normal(size=4) + 1j * rng.normal(size=4))
    alpha = 0.5 * (rng.normal(size=4) + 1j * rng.normal(size=4))
    phi, ell = rng.normal(size=4), 0.3 * rng.normal(size=4)
    r = rng.uniform(0.1, 2.0, size=4)
    y = group.CartanCoords(beta=beta, phi=phi, r=r, ell=ell, alpha=alpha)
    got = group.represent(y, 10)
    want = np.stack([group.represent(y[i], 10) for i in range(4)])
    assert got.shape == (4, 10, 10)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_povm_element_form():
    # R(y)_dag R(y) = D_alpha e^{-2 r Ho - 2 ell} D_alpha_dag, the
    # Cartan element (alpha, 0, 2r, 2 ell, alpha).
    dim = 30
    y = group.CartanCoords(beta=0.3 - 0.1j, phi=0.7, r=1.2, ell=0.25,
                           alpha=0.2 + 0.4j)
    rep = group.represent(y, dim)
    want = fock.cartan_decomposition(dim, y.alpha, 0.0, 2 * y.r, 2 * y.ell,
                                     y.alpha)
    got = rep.conj().T @ rep
    assert np.linalg.norm(fock.interior_block(got - want)) <= 1e-8


def test_increment_first_step():
    dw, kappa, dt = 0.02 + 0.01j, 1.0, 1e-3
    x = group.increment_left_multiply(group.HCCoords.identity(), dw, kappa, dt)
    assert abs(x.nu - np.sqrt(kappa) * dw) <= 1e-15
    assert abs(x.mu - np.sqrt(kappa) * dw) <= 1e-15
    assert abs(x.z - 0.5 * kappa * abs(dw) ** 2) <= 1e-18
    assert x.r == 2 * kappa * dt


def test_increment_zero_noise():
    x = group.HCCoords(nu=0.3 + 0.1j, r=0.5, z=0.2 - 0.4j, mu=0.1j)
    y = group.increment_left_multiply(x, 0.0, 1.0, 1e-3)
    assert abs(y.nu - x.nu * np.exp(-2e-3)) <= 1e-16
    assert y.mu == x.mu and y.z == x.z
    assert abs(y.r - (x.r + 2e-3)) <= 1e-16


@pytest.mark.parametrize("kappa, dt", [
    (np.nan, 1e-3), (1.0, np.nan), (np.inf, 1e-3), (1.0, np.inf),
    (0.0, 1e-3), (1.0, -1e-3)])
def test_increment_rejects_bad_rate_or_step(kappa, dt):
    with pytest.raises(ValueError, match="must be positive"):
        group.increment_left_multiply(group.HCCoords.identity(), 0.01j,
                                      kappa, dt)


def test_single_increment_cartan_leading_order():
    # One step at small kappa dt: beta + alpha ~ sqrt(k) dw/(k dt),
    # beta - alpha ~ -k dt sqrt(k) dw, ell ~ -k|dw|^2/(2 k dt).
    kappa, dt = 1.0, 1e-4
    dw = 0.008 + 0.003j
    x = group.increment_left_multiply(group.HCCoords.identity(), dw, kappa, dt)
    y = group.hc_to_cartan(x)
    root = np.sqrt(kappa) * dw
    assert abs((y.beta + y.alpha) / (root / (kappa * dt)) - 1) <= 0.01
    assert abs(y.ell / (-kappa * abs(dw) ** 2 / (2 * kappa * dt)) - 1) <= 0.01
    # After the exact first step nu = mu, so beta - alpha is identically
    # zero; the O(kappa dt) difference variable shows up once the OU
    # decay acts, e.g. after a further noiseless increment.
    assert y.beta - y.alpha == 0
    x2 = group.increment_left_multiply(x, 0.0, kappa, dt)
    y2 = group.hc_to_cartan(x2)
    assert abs((y2.beta - y2.alpha) / (-kappa * dt * root) - 1) <= 0.01


def test_haar_density_values():
    y = group.CartanCoords(beta=0.0, phi=0.0, r=1.0, ell=0.0, alpha=0.0)
    assert abs(group.haar_density(y) - np.sinh(1.0) ** 2 / np.pi ** 2) <= 1e-12
    x = group.HCCoords(nu=0.0, r=0.0, z=0.0, mu=0.0)
    assert abs(group.haar_density(x) - 1 / (2 * np.pi) ** 2) <= 1e-16


@pytest.mark.parametrize("r", [50.0, 400.0, 800.0])
def test_chart_round_trips_at_large_r(r):
    # The Cartan pair in decaying factors stays finite where e^r does not.
    x = group.HCCoords(nu=0.6 - 0.3j, r=r, z=-1.2 + 0.4j, mu=-0.4 + 0.5j)
    y = group.hc_to_cartan(x)
    assert np.all(np.isfinite(group._components(y)))
    back = group.cartan_to_hc(y)
    assert abs(back.nu - x.nu) <= 1e-14 and abs(back.mu - x.mu) <= 1e-14
    assert abs(back.z - x.z) <= 1e-14
    y = group.CartanCoords(beta=0.3 + 0.8j, phi=0.5, r=r, ell=-0.7,
                           alpha=-0.9 + 0.2j)
    again = group.hc_to_cartan(group.cartan_to_hc(y))
    assert np.max(np.abs(group._components(again)
                         - group._components(y))) <= 1e-14 * r


@pytest.mark.parametrize("r", [400.0, 800.0])
def test_haar_density_raises_where_it_overflows(r):
    with pytest.raises(fock.NumericalDomainError):
        group.haar_density(group.HCCoords(nu=0j, r=r, z=0j, mu=0j))
    with pytest.raises(fock.NumericalDomainError):
        group.haar_density(group.CartanCoords(beta=0j, phi=0.0, r=r,
                                              ell=0.0, alpha=0j))


def test_jacobian_consistency_near_and_far():
    rng = np.random.default_rng(5)
    for r, tol in ((0.2, 1e-5), (5.0, 1e-6), (1.0, 1e-6)):
        x = group.HCCoords(
            nu=0.3 * (rng.normal() + 1j * rng.normal()), r=r,
            z=0.3 * (rng.normal() + 1j * rng.normal()),
            mu=0.3 * (rng.normal() + 1j * rng.normal()))
        assert group.jacobian_consistency_residual(x) <= tol


def test_frame_derivative_examples():
    dim = 24
    x = group.HCCoords(nu=0.2 + 0.1j, r=0.9, z=0.1 - 0.2j, mu=0.3)
    scale = np.linalg.norm(fock.interior_block(group.represent(x, dim)))
    # psi direction: generator is exactly i.
    assert group.frame_derivative_residual(x, dim, "psi") <= 1e-6 * scale
    # r direction with nu = 0: generator reduces to -Ho.
    x0 = group.HCCoords(nu=0.0, r=0.9, z=0.1 - 0.2j, mu=0.3)
    assert group.frame_derivative_residual(x0, dim, "r") <= 1e-6 * scale
    y = group.hc_to_cartan(x)
    scale_y = np.linalg.norm(fock.interior_block(group.represent(y, dim)))
    assert group.frame_derivative_residual(y, dim, "phi") <= 1e-6 * scale_y


_POINTS = [group.HCCoords(nu=0.2 + 0.1j, r=0.9, z=0.1 - 0.2j, mu=0.3 - 0.5j),
           group.CartanCoords(beta=0.3 - 0.4j, phi=0.5, r=0.9, ell=-0.2,
                              alpha=-0.1 + 0.6j)]


@pytest.mark.parametrize("x, direction", [(_POINTS[0], "r"), (_POINTS[1], "r"),
                                          (_POINTS[1], "phi"),
                                          (_POINTS[1], "ell")],
                         ids=["hc-r", "cartan-r", "cartan-phi", "cartan-ell"])
def test_move_along_a_real_field(x, direction):
    # A real coordinate moves by h and no other field moves at all.
    moved = group._moved(x, direction, 0.25)
    for name, value in vars(x).items():
        want = value + 0.25 if name == direction else value
        assert getattr(moved, name) == want, name


@pytest.mark.parametrize("x", _POINTS, ids=["hc", "cartan"])
def test_move_changes_one_component(x):
    # Along each direction the components change in that one only, by h.
    h = 0.125
    before = group._components(x)
    for j, direction in enumerate(group._TABLES[type(x)]):
        change = group._components(group._moved(x, direction, h)) - before
        want = np.zeros(7)
        want[j] = h
        assert np.max(np.abs(change - want)) <= 1e-15, direction


def test_components_are_the_named_coordinates():
    # x = (x1 + i x2)/sqrt(2) for a complex coordinate, and s = -Re z.
    x, y = _POINTS
    root2 = np.sqrt(2)
    want = [(x, [root2 * x.nu.real, root2 * x.nu.imag, x.r, x.s, x.psi,
                 root2 * x.mu.real, root2 * x.mu.imag]),
            (y, [root2 * y.beta.real, root2 * y.beta.imag, y.phi, y.r, y.ell,
                 root2 * y.alpha.real, root2 * y.alpha.imag])]
    for point, components in want:
        assert np.max(np.abs(group._components(point) - components)) <= 1e-15
