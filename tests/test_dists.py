"""Tests for the reduced distributions and Feynman-Kac estimators."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spqm import dists, fock, moments, paths

coord = st.floats(-2.0, 2.0, allow_nan=False)


def test_sigma_width_values():
    assert dists.sigma_width(0.0) == 0.0
    assert abs(dists.sigma_width(1.0) - 0.2384058) <= 1e-7
    assert abs(dists.sigma_width(0.1) - 3.3201e-4) <= 1e-7
    assert abs(dists.sigma_width(0.1) / (0.1 ** 3 / 3) - 1) <= 0.02


def test_sigma_width_rate_ode():
    ts = np.linspace(0.05, 3.0, 40)
    h = 1e-4
    fd = (dists.sigma_width(ts + h) - dists.sigma_width(ts - h)) / (2 * h)
    assert np.max(np.abs(fd - dists.sigma_width_rate(ts))) <= 1e-6


def test_normalization_factor_value():
    assert abs(dists.normalization_factor(1.0) - np.exp(2) / 2) <= 1e-12


@pytest.mark.parametrize("kT", [355.0, 1000.0, -1.0, np.nan,
                                np.array([1.0, 400.0])])
def test_normalization_factor_refuses_non_finite(kT):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(fock.NumericalDomainError, match="not finite"):
            dists.normalization_factor(kT)


def test_reduced_point_charts_agree():
    point = dists.ReducedPoint(r=1.4, beta=0.3 - 0.2j, alpha=0.1 + 0.5j)
    back = dists.ReducedPoint.from_hc(point.r, point.nu, point.mu)
    assert abs(back.beta - point.beta) <= 1e-12
    assert abs(back.alpha - point.alpha) <= 1e-12


@pytest.mark.parametrize("r", [50.0, 400.0, 800.0])
def test_reduced_point_from_hc_at_large_r(r):
    point = dists.ReducedPoint.from_hc(r, 0.6 - 0.3j, -0.4 + 0.5j)
    assert abs(point.nu - (0.6 - 0.3j)) <= 1e-15
    assert abs(point.mu - (-0.4 + 0.5j)) <= 1e-15


def test_off_shell_rejected():
    point = dists.ReducedPoint(r=1.0, beta=0.0, alpha=0.0)
    with pytest.raises(dists.OffShellError):
        dists.density_cartan_reduced(point, kT=1.0)
    with pytest.raises(dists.OffShellError):
        dists.ReducedPoint(r=-1.0, beta=0.0, alpha=0.0)


def test_density_cartan_peak_and_value():
    kT = 1.0
    peak = dists.ReducedPoint(r=2.0, beta=0.4 + 0.1j, alpha=0.4 + 0.1j)
    val = dists.density_cartan_reduced(peak, kT)
    assert val.gaussian_exponent == 0
    sigma = dists.sigma_width(kT)
    shifted = dists.ReducedPoint(r=2.0, beta=np.sqrt(sigma), alpha=0.0)
    val = dists.density_cartan_reduced(shifted, kT)
    assert abs(val.gaussian_exponent + 1.0) <= 1e-12
    assert abs(val.prefactor - 2 / (np.sinh(2.0) * sigma)) <= 1e-12


def test_density_cartan_translation_invariant():
    kT = 0.7
    c = 0.9 - 1.3j
    a = dists.ReducedPoint(r=1.4, beta=0.2 + 0.1j, alpha=-0.3j)
    b = dists.ReducedPoint(r=1.4, beta=a.beta + c, alpha=a.alpha + c)
    va = dists.density_cartan_reduced(a, kT)
    vb = dists.density_cartan_reduced(b, kT)
    assert abs(va.value - vb.value) <= 1e-12 * va.value


@settings(max_examples=50, deadline=None)
@given(coord, coord, coord, coord, st.floats(0.2, 4.0))
def test_density_hc_variable_forms_agree(b1, b2, a1, a2, kT):
    point = dists.ReducedPoint(r=2 * kT, beta=b1 + 1j * b2, alpha=a1 + 1j * a2)
    hc = dists.density_hc_reduced(point, kT, variables="hc")
    cartan = dists.density_hc_reduced(point, kT, variables="cartan")
    assert abs(hc.gaussian_exponent - cartan.gaussian_exponent) <= 1e-12 * max(
        1.0, abs(hc.gaussian_exponent))


def _reduced_quadrature(kT, nodes=32):
    """Moments of B over the coset measure e^{2r}/(2pi)^2 d2nu d2mu.

    Gauss-Hermite in the sum/difference variables, each axis scaled to
    its analytic Gaussian width, so the integrands are polynomials
    times the weight and the quadrature is exact up to rounding.
    Returns (mass, <|nu|^2>, <|mu|^2>, Re<nu* mu>) with mass the full
    integral of B (i.e. N_T).
    """
    y, w = np.polynomial.hermite_e.hermegauss(nodes)
    sigma = dists.sigma_width(kT)
    a_sum = np.exp(kT) / (4 * np.sinh(kT))
    a_diff = np.exp(kT) * (1 + kT) / (4 * np.cosh(kT) * sigma)
    s_sum, s_diff = np.sqrt(2 * a_sum), np.sqrt(2 * a_diff)
    p1 = (y / s_sum)[:, None, None, None]
    p2 = (y / s_sum)[None, :, None, None]
    m1 = (y / s_diff)[None, None, :, None]
    m2 = (y / s_diff)[None, None, None, :]
    weight = (w[:, None, None, None] * w[None, :, None, None]
              * w[None, None, :, None] * w[None, None, None, :]
              * np.exp((p1 * s_sum) ** 2 / 2 + (p2 * s_sum) ** 2 / 2
                       + (m1 * s_diff) ** 2 / 2 + (m2 * s_diff) ** 2 / 2)
              / (s_sum ** 2 * s_diff ** 2))
    p = (p1 + 1j * p2) / np.sqrt(2)
    m = (m1 + 1j * m2) / np.sqrt(2)
    nu, mu = (p + m) / 2, (p - m) / 2
    point = dists.ReducedPoint.from_hc(2 * kT, nu, mu)
    density = dists.density_hc_reduced(point, kT, variables="hc").value
    # d2nu d2mu = (1/4) d2p d2m with d2p = (1/2) dp1 dp2, and the coset
    # volume carries e^{2r}/(2pi)^2.
    measure = np.exp(4 * kT) / (2 * np.pi) ** 2 / 16
    vals = weight * density * measure
    mass = vals.sum()
    nu2 = (vals * np.abs(nu) ** 2).sum() / mass
    mu2 = (vals * np.abs(mu) ** 2).sum() / mass
    cross = (vals * np.real(np.conj(nu) * mu)).sum() / mass
    return mass, nu2, mu2, cross


def test_density_hc_normalization_by_quadrature():
    for kT in (0.5, 1.0):
        mass, _, _, _ = _reduced_quadrature(kT)
        n_t = dists.normalization_factor(kT)
        assert abs(mass / n_t - 1) <= 1e-6


def test_normalized_density_moments_by_quadrature():
    kT = 1.0
    mass, nu2, mu2, cross = _reduced_quadrature(kT)
    triple = moments.analytic_moments(kT)
    assert abs(nu2 - triple.n) <= 1e-8
    assert abs(mu2 - triple.m) <= 1e-8
    assert abs(cross - triple.q) <= 1e-8


@settings(max_examples=50, deadline=None)
@given(coord, coord, coord, coord, st.sampled_from([0.2, 0.5, 1.0, 5.0]))
def test_gauge_relation(b1, b2, a1, a2, kT):
    point = dists.ReducedPoint(r=2 * kT, beta=b1 + 1j * b2, alpha=a1 + 1j * a2)
    assert dists.gauge_relation_residual(point, kT) <= 1e-12


def test_feynman_kac_unweighted_unit_observable():
    est = dists.feynman_kac_estimate("plain", "none", "one", n_paths=500,
                                     N=20, dt=1e-2, kappa=1.0, seed=17)
    assert est.mean == 1.0
    assert est.stderr == 0.0
    assert est.ess == 500
    assert est.kish_ess == 500


def test_feynman_kac_plain_moment():
    N, dt = 500, 2e-3
    est = dists.feynman_kac_estimate("plain", "none", "nu_abs2",
                                     n_paths=40_000, N=N, dt=dt,
                                     kappa=1.0, seed=18)
    # Exact discrete Ito isometry for the geometric sum; the continuum
    # value (1 - e^{-4})/4 differs by O(dt).
    target = dt * (1 - np.exp(-4 * dt * N)) / (1 - np.exp(-4 * dt))
    assert abs(est.mean - target) <= 3 * est.stderr


def test_feynman_kac_modified_cross_moment():
    # Sum and difference variables are uncorrelated under the modified
    # measure: <(nu+mu)*(nu-mu)> consistent with zero.
    est = dists.feynman_kac_estimate("modified", "none", "cross_pm_real",
                                     n_paths=40_000, N=500, dt=2e-3,
                                     kappa=1.0, seed=19)
    assert abs(est.mean) <= 3 * est.stderr


def test_feynman_kac_ess_collapse_warns():
    with pytest.warns(UserWarning, match="effective sample size"):
        dists.feynman_kac_estimate("plain", "exp_neg_2s", "one",
                                   n_paths=2000, N=40, dt=5e-2, kappa=1.0,
                                   seed=5)


def test_feynman_kac_weight_overflow_is_typed():
    # kappa T = 800: e^{-2 ell} overflows on every path.  (The weight
    # e^{-2s} is refused there before drawing; see below.)
    with pytest.raises(fock.NumericalDomainError, match="overflowed"):
        dists.feynman_kac_estimate("plain", "exp_neg_2ell", "one", 50, 8000,
                                   0.1, 1.0, 0)


class _Drawn(Exception):
    """Raised by a stand-in block loop: the estimator got as far as drawing.

    Every draw of records, weighted or not, goes through
    `paths._each_block`, so patching it catches both routes.
    """


def _refuse_to_draw(*args, **kwargs):
    raise _Drawn


@pytest.mark.parametrize("N, dt", [
    (26, 0.1), (80, 0.05),  # first N past the tilt's edge
    (8000, 0.1),  # kappa T = 800, where e^{-2s} used to overflow
])
def test_feynman_kac_tilt_regime_raises_before_drawing(monkeypatch, N, dt):
    monkeypatch.setattr(paths, "_each_block", _refuse_to_draw)
    with pytest.raises(moments.RegimeError, match="tilt"):
        dists.feynman_kac_estimate("plain", "exp_neg_2s", "one", 10, N, dt,
                                   1.0, 0)


@pytest.mark.parametrize("N, dt", [
    (25, 0.1), (79, 0.05),  # last N inside the tilt's edge
    (50, 1e-2),  # verify check 9
    (500, 1e-3),  # the benchmark's normalization job
])
def test_feynman_kac_tilt_regime_admits(monkeypatch, N, dt):
    monkeypatch.setattr(paths, "_each_block", _refuse_to_draw)
    with pytest.raises(_Drawn):
        dists.feynman_kac_estimate("plain", "exp_neg_2s", "one", 10, N, dt,
                                   1.0, 0)


@pytest.mark.parametrize("measure, weight", [
    ("plain", "none"), ("plain", "exp_neg_2ell"), ("modified", "exp_neg_2s")])
def test_feynman_kac_tilt_guard_is_plain_exp_neg_2s_only(monkeypatch,
                                                         measure, weight):
    monkeypatch.setattr(paths, "_each_block", _refuse_to_draw)
    with pytest.raises(_Drawn):
        dists.feynman_kac_estimate(measure, weight, "one", 10, 26, 0.1, 1.0,
                                   0)


@pytest.mark.parametrize("N, dt", [
    (7, 0.1), (14, 0.05), (783, 1e-3),  # first N of infinite variance
])
def test_feynman_kac_warns_where_variance_is_infinite(monkeypatch, N, dt):
    monkeypatch.setattr(paths, "_each_block", _refuse_to_draw)
    with pytest.warns(UserWarning, match="infinite variance"):
        with pytest.raises(_Drawn):
            dists.feynman_kac_estimate("plain", "exp_neg_2s", "one", 10, N,
                                       dt, 1.0, 0)


@pytest.mark.parametrize("N, dt", [
    (6, 0.1), (13, 0.05), (782, 1e-3),  # last N of finite variance
    (50, 1e-2),  # verify check 9 and the reduced-distributions demo
    (500, 1e-3),  # the benchmark's normalization job
])
def test_feynman_kac_finite_variance_does_not_warn(monkeypatch, N, dt):
    monkeypatch.setattr(paths, "_each_block", _refuse_to_draw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(_Drawn):
            dists.feynman_kac_estimate("plain", "exp_neg_2s", "one", 10, N,
                                       dt, 1.0, 0)


def test_feynman_kac_unweighted_skips_the_centre(monkeypatch):
    # Weight "none" projects the records onto (nu, mu) and never runs
    # the centre sum; the estimate is that of sample_endpoints' nu.
    n_paths, chunk, N, dt = 700, 300, 60, 1e-3
    want = [np.abs(paths.sample_endpoints("modified", N, dt, 1.0, 29,
                                          min(chunk, n_paths - start),
                                          stream=stream).nu) ** 2
            for stream, start in enumerate(range(0, n_paths, chunk))]
    want = np.concatenate(want)

    def refuse(*args, **kwargs):
        raise AssertionError("centre sum formed")

    monkeypatch.setattr(paths, "_row_sums", refuse)
    est = dists.feynman_kac_estimate("modified", "none", "nu_abs2", n_paths,
                                     N, dt, 1.0, 29, chunk=chunk)
    assert abs(est.mean - want.mean()) <= 1e-14 * want.mean()
    assert est.ess == n_paths
    with pytest.raises(AssertionError, match="centre"):
        dists.feynman_kac_estimate("modified", "exp_neg_2s", "nu_abs2", 10,
                                   N, dt, 1.0, 29)


def test_feynman_kac_unweighted_modified_never_correlates(monkeypatch):
    # Weight "none" under the modified measure projects white records
    # onto the kernel's whitened loads; the weighted route still
    # correlates them, since its centre z needs the record.
    n_paths, chunk, N, dt = 700, 300, 60, 1e-3
    want = np.concatenate([
        np.abs(paths.sample_endpoints("modified", N, dt, 1.0, 29,
                                      min(chunk, n_paths - start),
                                      stream=stream).nu) ** 2
        for stream, start in enumerate(range(0, n_paths, chunk))])

    def refuse(self, white):
        raise AssertionError("record correlated")

    monkeypatch.setattr(moments.Kernel, "correlate", refuse)
    est = dists.feynman_kac_estimate("modified", "none", "nu_abs2", n_paths,
                                     N, dt, 1.0, 29, chunk=chunk)
    assert abs(est.mean - want.mean()) <= 1e-14 * want.mean()
    with pytest.raises(AssertionError, match="correlated"):
        dists.feynman_kac_estimate("modified", "exp_neg_2s", "nu_abs2", 10,
                                   N, dt, 1.0, 29)


def test_feynman_kac_rejects_empty():
    with pytest.raises(ValueError):
        dists.feynman_kac_estimate("plain", "none", "one", n_paths=0,
                                   N=10, dt=1e-3, kappa=1.0, seed=0)


def test_feynman_kac_equals_sample_then_reduce():
    # Two chunks (600 and 400 paths), each streamed in several blocks.
    n_paths, chunk, N, dt = 1000, 600, 60, 1e-3
    est = dists.feynman_kac_estimate("plain", "exp_neg_2s", "nu_abs2",
                                     n_paths, N, dt, 1.0, 23, chunk=chunk)
    wf = []
    for stream, start in enumerate(range(0, n_paths, chunk)):
        size = min(chunk, n_paths - start)
        batch = paths.sample_wiener(N, dt, 1.0, 23, n_paths=size,
                                    stream=stream)
        end = paths.closed_form_hc(batch)
        wf.append(np.exp(-2 * end.s) * np.abs(end.nu) ** 2)
    wf = np.concatenate(wf)
    assert abs(est.mean - wf.mean()) <= 1e-15 * abs(wf.mean())
    want_se = wf.std(ddof=1) / np.sqrt(n_paths)
    assert abs(est.stderr - want_se) <= 1e-14 * want_se


def test_feynman_kac_kish_ess_from_sampled_weights():
    # The weighted route through `paths.sample_endpoints`, one chunk.
    n_paths, N, dt = 3000, 40, 1e-2
    est = dists.feynman_kac_estimate("plain", "exp_neg_2s", "one", n_paths,
                                     N, dt, 1.0, 31)
    w = np.exp(-2 * paths.sample_endpoints("plain", N, dt, 1.0, 31,
                                           n_paths).s)
    kish = w.sum() ** 2 / np.sum(w ** 2)
    assert abs(est.kish_ess - kish) <= 1e-12 * kish
    assert 1 < kish < n_paths


@pytest.mark.parametrize("measure, weight", [
    ("plain", "none"), ("modified", "none"), ("plain", "exp_neg_2s")])
def test_feynman_kac_several_observables_from_one_draw(monkeypatch, measure,
                                                       weight):
    # Each estimate of a tuple is bitwise that of its observable alone,
    # and the records are drawn once: two chunks, one call per chunk.
    def real_mu(nu, mu):
        return np.real(mu)

    observables = ("nu_abs2", real_mu, "numu_real")
    kw = dict(n_paths=700, N=60, dt=1e-3, kappa=1.0, seed=37, chunk=400)
    alone = [dists.feynman_kac_estimate(measure, weight, obs, **kw)
             for obs in observables]
    calls = []
    for name in ("_phase_sums", "sample_endpoints"):
        def counted(*args, _func=getattr(paths, name), **kwargs):
            calls.append(args)
            return _func(*args, **kwargs)
        monkeypatch.setattr(paths, name, counted)
    together = dists.feynman_kac_estimate(measure, weight, observables, **kw)
    assert len(calls) == 2
    assert isinstance(together, tuple) and len(together) == 3
    for got, want in zip(together, alone):
        assert type(got) is dists.FKEstimate
        assert tuple(got) == tuple(want)
    with pytest.raises(ValueError, match="observable"):
        dists.feynman_kac_estimate(measure, weight, (), **kw)
    with pytest.raises(ValueError, match="unknown observable"):
        dists.feynman_kac_estimate(measure, weight, ("one", "nu_abs3"), **kw)


@pytest.mark.parametrize("measure, weight, observable", [
    ("uniform", "none", "one"),
    ("plain", "exp_neg_2x", "one"),
    ("modified", "none", "nu_abs3"),
])
def test_feynman_kac_validates_before_drawing(monkeypatch, measure, weight,
                                              observable):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before validating")

    monkeypatch.setattr(paths, "_each_block", refuse)
    with pytest.raises(ValueError, match="unknown"):
        dists.feynman_kac_estimate(measure, weight, observable, n_paths=10,
                                   N=10, dt=1e-3, kappa=1.0, seed=0)
