"""Tests for POVM completeness and channel verification."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from spqm import dists, fock, group, paths, povm


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


@pytest.mark.parametrize("kT", [400.0, 1e4])
def test_partition_function_finite_at_large_kt(kT):
    # 2 sinh 2kT overflows here; the decaying forms stay finite.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = povm.partition_function_check(kT, 8)
    assert all(np.isfinite(report[k])
               for k in ("trace", "closed_form", "residual"))
    assert report["residual"] <= 1e-15
    assert not report["truncation_warning"]


def test_partition_function_rejects_nonpositive():
    with pytest.raises(ValueError):
        povm.partition_function_check(0.0, 10)


@pytest.mark.parametrize("dim", [0, 1])
def test_completeness_rejects_empty_block(dim):
    with pytest.raises(ValueError, match="dim"):
        povm.completeness_quadrature(1.0, dim)


@pytest.mark.parametrize("dim", [2, 3])
def test_completeness_smallest_blocks(dim):
    # The reported block of dim // 2 = 1 level is represented at dim 1.
    dev = povm.completeness_quadrature(1.0, dim)
    assert np.isfinite(dev) and dev <= 1e-12


@pytest.mark.parametrize("kT", [400.0, 2000.0])
def test_completeness_finite_at_large_kt(kT):
    # 2 sinh 2kT overflows past kT ~ 355; the prefactor e^{2kT} rides
    # in the elements' centre, so the deviation stays at its floor.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dev = povm.completeness_quadrature(kT, 8)
    assert np.isfinite(dev) and dev <= 1e-12


def test_completeness_identity():
    dev = povm.completeness_quadrature(1.0, 16)
    assert dev <= 1e-3
    # Doubling radial nodes keeps the deviation at the converged floor.
    dev2 = povm.completeness_quadrature(1.0, 16, radial_nodes=80)
    assert dev2 <= 1e-3


def _completeness_angular_loop(kT, dim, radial_nodes=40, angular_nodes=64):
    """Reference: the completeness operator summed angle by angle.

    Each term is the exact Cartan element D_a e^{-4kT Ho} D_a_dag, with
    its e^{-u} factor, reweighted by e^u against the Gauss-Laguerre
    weight; the whole dim x dim operator is returned.
    """
    c = 1 - np.exp(-4 * kT)
    nodes, weights = np.polynomial.laguerre.laggauss(radial_nodes)
    total = np.zeros((dim, dim), dtype=complex)
    for th in 2 * np.pi * np.arange(angular_nodes) / angular_nodes:
        alpha = np.sqrt(nodes / c) * np.exp(1j * th)
        elements = group.represent(group.CartanCoords(
            beta=alpha, phi=0.0, r=4 * kT, ell=0.0, alpha=alpha), dim)
        total += np.tensordot(weights * np.exp(nodes), elements, axes=1)
    return total * 2 * np.sinh(2 * kT) / (c * angular_nodes)


@pytest.mark.parametrize("kT,dim,nodes", [
    (1.0, 4, dict(radial_nodes=8, angular_nodes=8)),  # aliased: 8 < 16 levels
    # the guard's edge: entries with m - n = 4 are aliased just outside
    # the reported 4 x 4 block
    (1.0, 8, dict(radial_nodes=8, angular_nodes=4)),
    (0.5, 6, {}),
])
def test_completeness_mask_matches_angular_loop(kT, dim, nodes):
    got = povm.completeness_quadrature(kT, dim, **nodes)
    half = dim // 2
    block = _completeness_angular_loop(kT, dim, **nodes)[:half, :half]
    want = np.linalg.norm(block - np.eye(half), ord=2)
    assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("kT,dim", [(1.0, 16), (0.5, 12), (0.1, 16),
                                    (1.0, 40)])
def test_completeness_full_block(kT, dim):
    # Exact entries: the top dim x dim block at 2 dim is the whole block
    # at dim, so no truncation edge is left out of the comparison.
    assert povm.completeness_quadrature(kT, 2 * dim) <= 1e-12
    full = _completeness_angular_loop(kT, dim)
    assert np.linalg.norm(full - np.eye(dim), ord=2) <= 1e-12


@pytest.mark.parametrize("kT,dim,nodes", [
    (1.0, 130, {}),  # 65 levels reported, 64 angular nodes
    (1.0, 34, dict(angular_nodes=16)),
    (1.0, 8, dict(radial_nodes=8, angular_nodes=3)),
])
def test_completeness_rejects_aliased_block(kT, dim, nodes):
    # Entries with |m - n| = angular_nodes would alias into the block.
    with pytest.raises(ValueError):
        povm.completeness_quadrature(kT, dim, **nodes)


def test_completeness_large_dim_with_enough_angular_nodes():
    # The default 40 radial nodes suffice at dim 140 once the angular
    # grid covers the reported block.
    assert povm.completeness_quadrature(1.0, 129) <= 1e-12
    assert povm.completeness_quadrature(1.0, 140, angular_nodes=128) <= 1e-12


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


def _dense_channel(kT, dim):
    """e^{-kT (ad_Q^2 + ad_P^2)/2} by kron products and expm."""
    ops = fock.canonical_operators(dim)
    eye = np.eye(dim)

    def adjoint(x):
        return np.kron(x, eye) - np.kron(eye, x.T)

    ad_q, ad_p = adjoint(ops.q), adjoint(ops.p)
    return scipy.linalg.expm(-0.5 * kT * (ad_q @ ad_q + ad_p @ ad_p))


@pytest.mark.parametrize("dim", [2, 3, 8, 10, 16])
def test_channel_superoperator_matches_dense(dim):
    for kT in (0.05, 0.3, 2.0):
        got = povm.channel_superoperator(kT, dim)
        assert np.max(np.abs(got - _dense_channel(kT, dim))) <= 1e-13


def test_channel_superoperator_rejects_bad_input():
    with pytest.raises(ValueError, match="dim"):
        povm.channel_superoperator(0.3, 1)
    with pytest.raises(fock.NumericalDomainError):
        povm.channel_superoperator(np.nan, 4)


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


def test_channel_monte_carlo_rejects_no_paths():
    rho = np.zeros((6, 6), dtype=complex)
    rho[0, 0] = 1.0
    with pytest.raises(ValueError, match="path"):
        povm.channel_monte_carlo(rho, 0.2, 0, 1e-3, 6, seed=1)


def test_channel_monte_carlo_one_path_has_infinite_stderr():
    rho = np.zeros((6, 6), dtype=complex)
    rho[0, 0] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = povm.channel_monte_carlo(rho, 0.2, 1, 1e-3, 6, seed=1)
    assert report.n_paths == 1
    assert np.isfinite(report.trace_mean)
    assert report.trace_stderr == np.inf


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


def _channel_oracle(rho, kT, n_paths, dt, dim, seed):
    """The channel average as a loop over chunks of `CHANNEL_CHUNK` paths.

    Each chunk's endpoints are the closed form of the records that
    `paths.sample_wiener` draws on its own substream, represented by
    `group.represent` and summed by einsum.  Returns (rho_mc, traces,
    trace_distance, trace_mean, trace_stderr).
    """
    factor, N = _rho_factor(rho), int(round(kT / dt))
    rho_mc = np.zeros((dim, dim), dtype=complex)
    traces = []
    for stream, start in enumerate(range(0, n_paths, povm.CHANNEL_CHUNK)):
        size = min(povm.CHANNEL_CHUNK, n_paths - start)
        ends = paths.closed_form_hc(paths.sample_wiener(
            N, dt, 1.0, seed, n_paths=size, stream=stream))
        v = group.represent(ends, dim) @ factor
        rho_mc += np.einsum("pij,pkj->ik", v, np.conj(v))
        traces.append(np.einsum("pij,pij->p", v, np.conj(v)).real)
    rho_mc /= n_paths
    traces = np.concatenate(traces)
    rho_ref = (povm.channel_superoperator(kT, dim)
               @ rho.reshape(-1)).reshape(dim, dim)
    distance = 0.5 * np.abs(np.linalg.eigvalsh(rho_mc - rho_ref)).sum()
    stderr = (traces.std(ddof=1) / np.sqrt(n_paths) if n_paths > 1
              else np.inf)
    return rho_mc, traces, distance, traces.mean(), stderr


def _rho_factor(rho):
    """F with rho = F F_dag, from the eigenvalues above 1e-14."""
    evals, evecs = np.linalg.eigh(rho)
    keep = evals > 1e-14
    return evecs[:, keep] * np.sqrt(evals[keep])


def _mixed_state(dim, top):
    """A rank-3 density matrix on levels top-2 .. top with coherences;
    the vacuum at dim 2, where level 0 is the only interior one."""
    rho = np.zeros((dim, dim), dtype=complex)
    if dim == 2:
        rho[0, 0] = 1.0
        return rho
    a = np.random.default_rng(dim + top).normal(size=(3, 6)).view(complex)
    block = a @ a.conj().T
    rho[top - 2:top + 1, top - 2:top + 1] = block / np.trace(block)
    return rho


def _close(got, want, rtol=1e-13):
    return got == want or abs(got - want) <= rtol * abs(want)


@pytest.mark.parametrize("dim", [2, 6, 8])
@pytest.mark.parametrize("n_paths", [1, 255, 256, 257, 1000, 1001, 2500])
def test_channel_matches_chunk_loop(n_paths, dim):
    # One block schedule over all chunks: the same records as the chunk
    # loop, so the same traces bit for bit; only the order in which the
    # sum of L rho L_dag is added up differs.
    rho, kT, dt, seed = _mixed_state(dim, 2 if dim > 2 else 0), 0.05, 1e-3, 9
    rho_mc, traces, distance, mean, stderr = _channel_oracle(
        rho, kT, n_paths, dt, dim, seed)
    total, got_traces = povm._channel_sums(_rho_factor(rho), round(kT / dt),
                                           dt, dim, seed, n_paths)
    assert np.array_equal(got_traces, traces)
    assert (np.linalg.norm(total / n_paths - rho_mc)
            <= 1e-13 * np.linalg.norm(rho_mc))
    report = povm.channel_monte_carlo(rho, kT, n_paths, dt, dim, seed)
    assert _close(report.trace_distance, distance)
    assert _close(report.trace_mean, mean)
    assert _close(report.trace_stderr, stderr)


@pytest.mark.parametrize("dim, top", [(6, 0), (6, 4), (8, 6)])
def test_channel_boundary_population(dim, top):
    # The averaged population of level dim - 1, against the chunk loop,
    # for the vacuum and for a state reaching level dim - 2.
    if top == 0:
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
    else:
        rho = _mixed_state(dim, top)
    report = povm.channel_monte_carlo(rho, 0.05, 1300, 1e-3, dim, 4)
    want = _channel_oracle(rho, 0.05, 1300, 1e-3, dim, 4)[0][-1, -1].real
    got = report.metadata["boundary_population"]
    assert isinstance(got, float) and got > 0
    assert abs(got - want) <= 1e-13 * want
    if top:
        assert got > 1e-3


@pytest.mark.parametrize("kT, dt, match", [
    (0.0, 1e-3, "kT"), (-0.2, 1e-3, "kT"), (np.nan, 1e-3, "kT"),
    (np.inf, 1e-3, "kT"), (0.2, 0.0, "dt"), (0.2, -1e-3, "dt"),
    (0.2, np.nan, "dt"), (0.2, np.inf, "dt"),
])
def test_channel_rejects_bad_time_before_drawing(monkeypatch, kT, dt, match):
    def refuse(*args, **kwargs):
        raise AssertionError("drew before validating")

    monkeypatch.setattr(paths, "_each_block", refuse)
    rho = np.zeros((6, 6), dtype=complex)
    rho[0, 0] = 1.0
    with pytest.raises(ValueError,
                       match=f"^{match} must be positive and finite"):
        povm.channel_monte_carlo(rho, kT, 10, dt, 6, seed=1)


def test_channel_rejects_kt_below_one_step():
    rho = np.zeros((6, 6), dtype=complex)
    rho[0, 0] = 1.0
    with pytest.raises(ValueError, match="multiple of dt"):
        povm.channel_monte_carlo(rho, 1e-13, 10, 1e-3, 6, seed=1)


def test_late_time_residual_ground():
    for kT in (2.0, 3.0):
        res = povm.late_time_coherent_residual(kT, 0.0, 0.0, 40)
        assert abs(res - np.exp(-2 * kT)) <= 1e-10


@pytest.mark.parametrize("kT,beta,alpha", [(2.0, 0.5, 0.3),
                                            (6.0, 1.0 - 0.5j, -0.7j)])
def test_late_time_residual_matches_dense_oracle(kT, beta, alpha):
    # Dense displacements at dim 80, cut to the top 40 x 40 block.
    big, dim = 80, 40
    d_beta = fock.displacement_operator(big, beta)
    d_alpha = fock.displacement_operator(big, alpha)
    core = np.diag(np.exp(kT - 2 * kT * (np.arange(big) + 0.5)))
    element = d_beta @ core @ d_alpha.conj().T
    outer = np.outer(d_beta[:, 0], d_alpha[:, 0].conj())
    want = np.linalg.norm((element - outer)[:dim, :dim], ord=2)
    got = povm.late_time_coherent_residual(kT, beta, alpha, dim)
    assert abs(got - want) <= 1e-13


def test_late_time_residual_displaced():
    res = povm.late_time_coherent_residual(3.0, 1.0, 1.0, 40)
    assert res <= 5e-3
    # Exponential collapse rate e^{-2kT} between successive times.
    r2 = povm.late_time_coherent_residual(2.0, 0.5, 0.3, 40)
    r3 = povm.late_time_coherent_residual(3.0, 0.5, 0.3, 40)
    assert abs(r3 / r2 / np.exp(-2) - 1) <= 0.1
