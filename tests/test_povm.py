"""Tests for POVM completeness and channel verification."""

import numpy as np
import pytest

from spqm import dists, fock, povm


def test_partition_function_values():
    report = povm.partition_function_check(0.5, 60)
    assert abs(report["trace"] - 1 / (2 * np.sinh(1.0))) <= 1e-10
    assert report["residual"] <= 1e-10
    assert not report["truncation_warning"]
    report = povm.partition_function_check(1.0, 40)
    assert report["residual"] <= 1e-12


def test_partition_function_ground_state_dominated():
    kT = 3.0
    report = povm.partition_function_check(kT, 20)
    assert abs(report["trace"] / np.exp(-2 * kT) - 1) <= np.exp(-4 * kT) * 1.01


def test_partition_function_truncation_warning():
    report = povm.partition_function_check(0.05, 20)  # dim 4kT = 4 << 30
    assert report["truncation_warning"]


def test_partition_function_rejects_nonpositive():
    with pytest.raises(ValueError):
        povm.partition_function_check(0.0, 10)


def test_completeness_identity():
    dev = povm.completeness_quadrature(1.0, 16)
    assert dev <= 1e-3
    # Doubling radial nodes keeps the deviation at the converged floor.
    dev2 = povm.completeness_quadrature(1.0, 16, radial_nodes=80)
    assert dev2 <= 1e-3


def _completeness_angular_loop(kT, dim, radial_nodes=40, angular_nodes=64):
    """Reference: the completeness quadrature with one exponential per angle."""
    c = 1 - np.exp(-4 * kT)
    alpha_sq_max = 2.0 * dim
    dim_work = max(dim, int(np.ceil(2 * alpha_sq_max)))
    nodes, weights = np.polynomial.laguerre.laggauss(radial_nodes)
    keep = nodes / c <= alpha_sq_max
    core = np.diag(np.exp(-4 * kT * (np.arange(dim_work) + 0.5)))
    theta = 2 * np.pi * np.arange(angular_nodes) / angular_nodes
    total = np.zeros((dim_work, dim_work), dtype=complex)
    for u, w in zip(nodes[keep], weights[keep]):
        for th in theta:
            d = fock.displacement_operator(dim_work,
                                           np.sqrt(u / c) * np.exp(1j * th))
            total += (w * np.exp(u)) * (d @ core @ d.conj().T)
    total *= 2 * np.sinh(2 * kT) / (c * angular_nodes)
    half = dim // 2
    return np.linalg.norm(total[:half, :half] - np.eye(half), ord=2)


@pytest.mark.parametrize("kT,dim,nodes", [
    (1.0, 4, dict(radial_nodes=8, angular_nodes=8)),  # aliased: 8 < 16 levels
    # aliased inside the reported 4 x 4 block: entries with m - n = 3 stay
    (1.0, 8, dict(radial_nodes=8, angular_nodes=3)),
    (0.5, 6, {}),
])
def test_completeness_mask_matches_angular_loop(kT, dim, nodes):
    got = povm.completeness_quadrature(kT, dim, **nodes)
    want = _completeness_angular_loop(kT, dim, **nodes)
    assert abs(got - want) <= 1e-12


def test_completeness_coherent_state_limit():
    # At large kT the weighted element collapses to |alpha><alpha| and
    # the integral reduces to coherent-state completeness.
    dev = povm.completeness_quadrature(4.0, 12)
    assert dev <= 1e-3


def test_beta_marginalization_is_unit_gaussian():
    # The extra beta integral in the completeness relation is a
    # normalized Gaussian of width Sigma; its quadrature mass is 1.
    kT = 1.0
    sigma = dists.sigma_width(kT)
    alpha = 0.7 - 0.4j
    y, w = np.polynomial.hermite_e.hermegauss(40)
    scale = np.sqrt(sigma)  # each real coordinate has variance Sigma
    b1 = alpha.real * np.sqrt(2) + scale * y[:, None]
    b2 = alpha.imag * np.sqrt(2) + scale * y[None, :]
    beta = (b1 + 1j * b2) / np.sqrt(2)
    gauss = np.exp(-np.abs(beta - alpha) ** 2 / sigma)
    # d2beta = (1/2) db1 db2; undo the Gauss-Hermite weight.
    integrand = gauss * np.exp((y[:, None] ** 2 + y[None, :] ** 2) / 2)
    mass = (w[:, None] * w[None, :] * integrand).sum() * scale ** 2 / (
        2 * np.pi * sigma)
    assert abs(mass - 1) <= 1e-10


def test_channel_superoperator_identity_limit():
    dim = 6
    super_op = povm.channel_superoperator(1e-12, dim)
    assert np.linalg.norm(super_op - np.eye(dim * dim)) <= 1e-10


def test_channel_superoperator_trace_preserving():
    dim = 6
    super_op = povm.channel_superoperator(0.4, dim)
    rng = np.random.default_rng(23)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    out = (super_op @ rho.reshape(-1)).reshape(dim, dim)
    # Trace preservation holds up to truncation leakage at the boundary.
    assert abs(np.trace(out) - 1) <= 1e-6 or abs(np.trace(out) - 1) <= 0.05
    assert np.linalg.norm(out - out.conj().T) <= 1e-10


def test_channel_monte_carlo_small():
    dim = 6
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    report = povm.channel_monte_carlo(rho, kT=0.2, n_paths=4000, dt=2e-3,
                                      dim=dim, seed=77)
    assert report.trace_distance <= 0.05
    assert abs(report.trace_mean - 1.0) <= 3 * report.trace_stderr


def test_channel_monte_carlo_input_validation():
    dim = 6
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 0.5  # wrong trace
    with pytest.raises(ValueError):
        povm.channel_monte_carlo(rho, 0.2, 100, 1e-3, dim, seed=1)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[-1, -1] = 1.0  # boundary support
    with pytest.raises(fock.NumericalDomainError):
        povm.channel_monte_carlo(rho, 0.2, 100, 1e-3, dim, seed=1)


def test_late_time_residual_ground():
    for kT in (2.0, 3.0):
        res = povm.late_time_coherent_residual(kT, 0.0, 0.0, 40)
        assert abs(res - np.exp(-2 * kT)) <= 1e-10


def test_late_time_residual_displaced():
    res = povm.late_time_coherent_residual(3.0, 1.0, 1.0, 40)
    assert res <= 5e-3
    # Exponential collapse rate e^{-2kT} between successive times.
    r2 = povm.late_time_coherent_residual(2.0, 0.5, 0.3, 40)
    r3 = povm.late_time_coherent_residual(3.0, 0.5, 0.3, 40)
    assert abs(r3 / r2 / np.exp(-2) - 1) <= 0.1
