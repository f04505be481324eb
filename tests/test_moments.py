"""Tests for the modified-measure kernel, determinants, and moments."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from spqm import moments, paths


def test_build_kernel_smallest():
    kernel = moments.build_kernel(1, 0.1, 1.0)
    assert np.allclose(kernel.matrix, [[0.9]])


def test_build_kernel_entries():
    kernel = moments.build_kernel(3, 0.1, 1.0)  # kappa dt = 0.1
    off = -0.1 * np.exp(-0.2)
    assert abs(kernel.matrix[0, 1] - off) <= 1e-15
    assert abs(kernel.matrix[2, 1] - off) <= 1e-15
    assert np.allclose(np.diag(kernel.matrix), 1 - 0.1)


def test_build_kernel_zero_kappa():
    kernel = moments.build_kernel(5, 1e-3, 0.0)
    assert np.array_equal(kernel.matrix, np.eye(5))


def test_build_kernel_regime_guard():
    with pytest.raises(moments.RegimeError):
        moments.build_kernel(10, 1.0, 0.5)
    with pytest.warns(UserWarning):
        moments.build_kernel(10, 0.2, 1.0)


def _dense_kernel(N, kdt):
    k = np.arange(N)
    return np.eye(N) - kdt * np.exp(-2 * kdt * np.abs(k[:, None] - k[None, :]))


def test_regime_guard_is_exact():
    # At kappa dt = 0.1 the kernel stays positive definite through
    # N = 261 and loses it at N = 262, well inside kappa dt < 0.5.
    # direct_moments takes a Kernel, which cannot be built there.
    assert np.linalg.eigvalsh(moments.build_kernel(261, 0.1, 1.0).matrix
                              ).min() > 0
    assert np.linalg.eigvalsh(_dense_kernel(262, 0.1)).min() < 0
    for call in (lambda: moments.build_kernel(262, 0.1, 1.0),
                 lambda: moments.Kernel(300, 0.1, 1.0),
                 lambda: moments.recursive_determinant(300, 0.1, 1.0),
                 lambda: paths.sample_modified(300, 0.1, 1.0, seed=0)):
        with pytest.raises(moments.RegimeError):
            call()


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 60), st.floats(1e-4, 5e-2))
def test_kernel_symmetries(N, kdt):
    kernel = moments.build_kernel(N, kdt, 1.0)
    m = kernel.matrix
    assert np.array_equal(m, m.T)  # symmetric
    assert np.max(np.abs(m - m[::-1, ::-1])) == 0  # persymmetric
    first = m[0]
    for k in range(1, N):  # Toeplitz
        assert np.array_equal(m[k, k:], first[: N - k])


def test_direct_moments_continuum_values():
    kernel = moments.build_kernel(1000, 1e-3, 1.0)
    triple = moments.direct_moments(kernel)
    assert abs(triple.n - 0.5) <= 5e-3
    assert abs(triple.m - 0.5) <= 5e-3
    assert abs(triple.q - (0.5 - np.exp(-2))) <= 5e-3
    assert abs(triple.n - triple.m) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 400), st.floats(1e-4, 0.1))
def test_direct_moments_vs_dense(N, kdt):
    try:
        kernel = moments.build_kernel(N, kdt, 1.0)
    except moments.RegimeError:
        assume(False)
    dense = kernel.matrix
    k = np.arange(N)
    loads = np.column_stack([np.exp(-2 * kdt * (N - 1 - k)),
                             np.exp(-2 * kdt * k)])
    solved = scipy.linalg.cho_solve(
        scipy.linalg.cho_factor(dense, lower=True), loads)
    want = kdt * np.array([loads[:, 0] @ solved[:, 0],
                           loads[:, 1] @ solved[:, 1],
                           loads[:, 0] @ solved[:, 1]])
    got = np.array(moments.direct_moments(kernel))
    # Forward error of either route grows like cond(M) eps.
    tol = 1e-12 * max(1.0, np.max(np.abs(want))) / np.linalg.eigvalsh(
        dense).min()
    assert np.max(np.abs(got - want)) <= tol


@pytest.mark.parametrize("N, kdt", [(1, 1e-3), (2, 1e-3), (33, 0.03),
                                    (1000, 1e-3), (4000, 2.5e-4),
                                    (261, 0.1), (27000, 0.01)])
def test_direct_moments_vs_banded_solve(N, kdt):
    # The banded LAPACK solve of U^T W = D [u+, u-] that the forward
    # substitution replaces; (261, 0.1) and (27000, 0.01) sit at the
    # regime edge, where the pivots are smallest.
    kernel = moments.build_kernel(N, kdt, 1.0)
    root, off = kernel._bidiagonal()
    lower = np.zeros((2, N))
    lower[0], lower[1, :-1] = root, off
    loads = np.zeros((N, 2))
    loads[:, 0] = -np.expm1(-4 * kdt) * np.exp(
        -2 * kdt * np.arange(N - 1, -1, -1))
    loads[0] = np.exp(-2 * kdt * (N - 1)), 1.0
    w = scipy.linalg.solve_banded((1, 0), lower, loads)
    (n, q), (_, m) = kdt * (w.T @ w)
    got = moments.direct_moments(kernel)
    assert np.max(np.abs(np.array(got) / [n, m, q] - 1)) <= 1e-13


def test_direct_moments_single_step():
    kdt = 1e-3
    kernel = moments.build_kernel(1, 1e-3, 1.0)
    triple = moments.direct_moments(kernel)
    expected = kdt / (1 - kdt)
    assert abs(triple.n - expected) <= 1e-15
    assert abs(triple.m - expected) <= 1e-15
    assert abs(triple.q - expected) <= 1e-15


def test_kernel_inverse_persymmetric():
    kernel = moments.build_kernel(400, 1e-3, 1.0)
    inv = scipy.linalg.inv(kernel.matrix)
    assert np.max(np.abs(inv - inv[::-1, ::-1].T)) <= 1e-12


def test_recursive_determinant_trivial_and_closed():
    assert np.array_equal(moments.recursive_determinant(0, 1e-3, 1.0), [1.0])
    dets = moments.recursive_determinant(1000, 1e-3, 1.0)
    closed = 2 * np.exp(-2)  # kT = 1
    assert abs(dets[-1] - closed) / closed <= 5e-3


def test_recursive_determinant_vs_dense():
    N = 300
    dets = moments.recursive_determinant(N, 1e-3, 1.0)
    dense = moments.build_kernel(N, 1e-3, 1.0).matrix
    for k in range(1, N + 1):
        sign, logdet = np.linalg.slogdet(dense[:k, :k])
        assert sign == 1
        assert abs(np.log(dets[k]) - logdet) <= 1e-12


def test_determinant_step_ratio_identity():
    # Appending one increment advances the determinant by the Schur
    # complement 1 - kappa dt (1 + e^{-4 kappa dt} n_k), with n_k from
    # the k-step moments.  The e^{-4 kappa dt} factor is the exact
    # discrete load-vector decay; without it the ratio is only O(kdt^2)
    # accurate.
    dt, kappa, N = 1e-3, 1.0, 40
    kdt = kappa * dt
    dets = moments.recursive_determinant(N, dt, kappa)
    for k in range(2, N):
        n_k = moments.direct_moments(moments.build_kernel(k, dt, kappa)).n
        ratio = dets[k + 1] / dets[k]
        exact = 1 - kdt * (1 + np.exp(-4 * kdt) * n_k)
        assert abs(ratio - exact) <= 1e-12
        assert abs(ratio - (1 - kdt * (1 + n_k))) <= 1e-5


class _BasisDraws:
    """Stands in for the generator of one row block: unit-vector rows.

    Block b holds paths from b * `paths._PATH_BLOCK` on, and path k's
    real and imaginary white rows (drawn one after the other) are both
    the k-th unit vector: the rows of the identity, each stacked twice.
    Each fill continues where the last one stopped, as a generator's
    stream does.
    """

    def __init__(self, block):
        self.next = 2 * block * paths._PATH_BLOCK

    def standard_normal(self, out):
        rows, n = out.shape
        out[...] = np.repeat(np.eye(n), 2, axis=0)[self.next:
                                                   self.next + rows]
        self.next += rows


def _banded_correlate(kernel, white):
    """Reference: F = D^T U^-1 by one banded solve and one product."""
    root, off = kernel._bidiagonal()
    upper = np.zeros((2, kernel.N))
    upper[0, 1:] = off
    upper[1] = root
    x = scipy.linalg.solve_banded((0, 1), upper, white.T).T
    x[:, :-1] -= kernel.rho * x[:, 1:]
    return x


@pytest.mark.parametrize("N", [1, 31, 32, 33, 1000])
def test_correlate_matches_banded_solve(N):
    # Blocks of 32 steps: one short block, one short of a block, one
    # exact block, a block plus one step, and many blocks plus a tail.
    kernel = moments.build_kernel(N, 1e-3, 1.0)
    got = np.random.default_rng(N).standard_normal((70, N))
    want = _banded_correlate(kernel, got)
    kernel.correlate(got)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_correlate_matches_banded_solve_near_regime_edge(seed):
    # kappa dt = 0.1, N = 261: the last N before the kernel loses
    # positive definiteness, smallest pivot 0.33.  Measured agreement
    # 1.6e-15 to 3.2e-15 relative over 20 seeds.
    kernel = moments.build_kernel(261, 0.1, 1.0)
    assert kernel.pivots.min() < 0.34
    got = np.random.default_rng(seed).standard_normal((64, 261))
    want = _banded_correlate(kernel, got)
    kernel.correlate(got)
    assert np.max(np.abs(got - want)) <= 2e-14 * np.max(np.abs(want))


def test_correlate_factors_are_read_only():
    kernel = moments.build_kernel(70, 1e-3, 1.0)
    for _, head, edge in kernel._blocks:
        for a in (head, edge):
            if a is not None:
                with pytest.raises(ValueError):
                    a[0] = 0


def _dense_tilt(N, kdt):
    """W = I - kappa dt H, H_kl = delta_kl + (1 - delta_kl) rho^(|k-l|-1)."""
    lag = np.abs(np.subtract.outer(np.arange(N), np.arange(N)))
    h = np.where(lag == 0, 1.0, np.exp(-2 * kdt * (lag - 1.0)))
    return np.eye(N) - kdt * h


@pytest.mark.parametrize("kdt, edge", [(0.1, 26), (0.05, 80)])
def test_tilted_pivots_regime_edge(kdt, edge):
    pivots = moments.tilted_pivots(edge - 1, kdt, 1.0)
    dense = _dense_tilt(edge - 1, kdt)
    assert np.linalg.eigvalsh(dense).min() > 0
    assert abs(np.prod(pivots) / np.linalg.det(dense) - 1) <= 1e-12
    assert np.linalg.eigvalsh(_dense_tilt(edge, kdt)).min() < 0
    with pytest.raises(moments.RegimeError, match=f"N = {edge}"):
        moments.tilted_pivots(edge, kdt, 1.0)


@pytest.mark.parametrize("kdt, edge", [(0.1, 7), (0.05, 14), (1e-3, 783)])
def test_square_tilt_regime_edge(kdt, edge):
    # e^{-4s} tilts the plain measure by 2W - I = I - 2 kappa dt H; its
    # edge is where e^{-2s} stops having a finite variance.
    # Next to the edge det(2W - I) is small, and LAPACK's determinant
    # carries a relative error of order eps ||2W - I|| / lambda_min.
    form = "square tilt"
    pivots = moments._tilt_pivots(edge - 1, kdt, 1.0, 2, form)
    dense = 2 * _dense_tilt(edge - 1, kdt) - np.eye(edge - 1)
    assert np.linalg.eigvalsh(dense).min() > 0
    assert abs(np.prod(pivots) / np.linalg.det(dense) - 1) <= 1e-10
    past = 2 * _dense_tilt(edge, kdt) - np.eye(edge)
    assert np.linalg.eigvalsh(past).min() < 0
    with pytest.raises(moments.RegimeError, match=f"{form}.*N = {edge}"):
        moments._tilt_pivots(edge, kdt, 1.0, 2, form)


@pytest.mark.parametrize("N, dt", [(200, 0.01), (1000, 1e-3)])
def test_sample_modified_exact_covariance(monkeypatch, N, dt):
    # With the draws replaced by an orthonormal basis (real and
    # imaginary parts alike), the sum of dw* dw^T over the N paths is
    # the covariance the sampler's factors produce, with no Monte Carlo.
    monkeypatch.setattr(paths, "_rng",
                        lambda seed, stream, block: _BasisDraws(block))
    dw = paths.sample_modified(N, dt, 1.0, seed=0, n_paths=N).increments
    cov = dw.conj().T @ dw
    dense = moments.build_kernel(N, dt, 1.0).matrix
    expected = dt * scipy.linalg.cho_solve(
        scipy.linalg.cho_factor(dense, lower=True), np.eye(N))
    assert np.max(np.abs(cov - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_riccati_closed_forms():
    _, n, m, q = moments.riccati_integrate(1.0, 1.0, 1000)
    assert abs(n[-1] - 0.5) <= 1e-8
    assert abs(m[-1] - 0.5) <= 1e-8
    assert abs(q[-1] - (0.5 - np.exp(-2))) <= 1e-8
    _, n5, _, q5 = moments.riccati_integrate(1.0, 5.0, 5000)
    assert abs(n5[-1] - 5 / 6) <= 1e-8
    assert abs(q5[-1] - (1 / 6 - np.exp(-10))) <= 1e-8


def _generic_rk4(kappa, T, steps):
    """Classical RK4 of the moment system through a generic stage loop."""
    h = T / steps
    times = h * np.arange(steps + 1)

    def rhs(t, n, m, q):
        e = math.exp(-2 * kappa * t)
        return (kappa * (1 - n) ** 2, kappa * (q + e) ** 2,
                kappa * (-q * (1 - n) + e * (1 + n)))

    out = np.zeros((steps + 1, 3))
    y = (0.0, 0.0, 0.0)
    for i, t in enumerate(times[:-1].tolist()):
        k1 = rhs(t, *y)
        k2 = rhs(t + h / 2, *(a + h / 2 * b for a, b in zip(y, k1)))
        k3 = rhs(t + h / 2, *(a + h / 2 * b for a, b in zip(y, k2)))
        k4 = rhs(t + h, *(a + h * b for a, b in zip(y, k3)))
        y = [a + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        out[i + 1] = y
    return times, out[:, 0], out[:, 1], out[:, 2]


@pytest.mark.parametrize("kappa, T, steps", [
    (1.0, 5.0, 5000), (1.0, 1.0, 1), (0.3, 2.0, 137), (2.5, 0.7, 400)])
def test_riccati_matches_generic_rk4(kappa, T, steps):
    # The written-out stages keep the generic loop's operation order.
    got = moments.riccati_integrate(kappa, T, steps)
    want = _generic_rk4(kappa, T, steps)
    for a, b in zip(got, want):
        assert a.shape == b.shape == (steps + 1,)
        assert np.array_equal(a, b)


def test_riccati_monotone_and_bounded():
    _, n, _, _ = moments.riccati_integrate(1.0, 5.0, 2000)
    assert np.all(np.diff(n) >= 0)
    assert np.all(n < 1)


def test_analytic_moments_values():
    triple = moments.analytic_moments(0.0)
    assert triple == (0.0, 0.0, 0.0)
    triple = moments.analytic_moments(1.0)
    assert abs(triple.n - 0.5) <= 1e-15
    assert abs(triple.q - (0.5 - np.exp(-2))) <= 1e-15


def test_analytic_sum_difference_small_time():
    kT = 0.01
    plus, minus = moments.analytic_sum_difference(kT)
    assert abs(minus / ((2 / 3) * kT ** 3) - 1) <= 0.02
    triple = moments.analytic_moments(kT)
    assert abs(plus - (triple.n + triple.q)) <= 1e-15
    assert abs(minus - (triple.n - triple.q)) <= 1e-15


def test_direct_vs_riccati():
    dt, kappa, T = 1e-3, 1.0, 1.0
    kernel = moments.build_kernel(int(T / dt), dt, kappa)
    triple = moments.direct_moments(kernel)
    _, n, m, q = moments.riccati_integrate(kappa, T, 1000)
    tol = 10 * dt * kappa
    assert abs(triple.n - n[-1]) <= tol
    assert abs(triple.m - m[-1]) <= tol
    assert abs(triple.q - q[-1]) <= tol


def test_analytic_determinant_matches_sum_forms():
    kts = np.linspace(0.1, 4.0, 20)
    dets = moments.analytic_determinant(kts)
    assert np.allclose(dets, np.exp(-2 * kts) * (1 + kts))
