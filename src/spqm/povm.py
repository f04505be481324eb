"""POVM completeness and channel checks in the truncated representation.

The measurement's POVM elements at time T integrate to the identity;
the scalar core of that statement is the partition-function identity
tr e^{-4 kappa T Ho} = 1/(2 sinh 2 kappa T).  This module checks the
identity directly, performs the phase-space completeness integral by
quadrature over the exact entries of the POVM elements (angular sum by
rotation covariance), compares a Monte Carlo average over the exact
Kraus operators of record endpoints against the superoperator of the
total channel, exponentiated block by block in the offset m - n that
the channel keeps, and measures the late-time collapse of the POVM
elements onto coherent state outer products.
"""

from dataclasses import dataclass, field

import numpy as np

from . import fock, group, paths

__all__ = [
    "ChannelReport",
    "partition_function_check",
    "completeness_quadrature",
    "channel_superoperator",
    "channel_monte_carlo",
    "late_time_coherent_residual",
]

#: Paths per record batch of `channel_monte_carlo`; bounds its memory.
CHANNEL_CHUNK = 1000


@dataclass(frozen=True)
class ChannelReport:
    """Deviations of the Monte Carlo channel from the analytic one."""

    dim: int
    kT: float
    trace_distance: float
    trace_mean: float
    trace_stderr: float
    n_paths: int
    seed: int
    metadata: dict = field(default_factory=dict)


def partition_function_check(kT, dim):
    """Check tr e^{-4 kT Ho} (2 sinh 2kT) = 1 on the truncated space.

    Returns a dict with the truncated trace, the closed form
    1/(2 sinh 2kT), the residual of the identity, and a truncation
    warning flag when the dropped geometric tail exceeds ~1e-12
    (dim * 4kT below about 30).  With 2 sinh 2kT = e^{2kT}(1 - e^{-4kT})
    every field is a product of decaying factors, finite at any kT: the
    residual is |(1 - e^{-4kT}) sum_n e^{-4kT n} - 1| and the dropped
    tail, relative to the closed form, is e^{-2kT (2 dim - 1)}.
    """
    if kT <= 0:
        raise ValueError("need kT > 0")
    powers = np.exp(-4 * kT * np.arange(dim))
    gap = -np.expm1(-4 * kT)
    return {
        "trace": np.exp(-2 * kT) * powers.sum(),
        "closed_form": np.exp(-2 * kT) / gap,
        "residual": abs(gap * powers.sum() - 1),
        "truncation_warning": bool(np.exp(-2 * kT * (2 * dim - 1)) > 1e-12),
    }


def completeness_quadrature(kT, dim, radial_nodes=40, angular_nodes=64):
    """Deviation of the completeness integral from the identity.

    Evaluates 2 sinh(2kT) int (d2alpha/pi) D_a e^{-4kT Ho} D_a_dag by
    Gauss-Laguerre quadrature in u = (1 - e^{-4kT}) |alpha|^2 and a
    uniform angular grid, and returns the operator-norm deviation from
    the identity on the top-left dim/2 block; dim < 2 leaves that block
    empty and raises ValueError.

    The POVM elements are the Cartan elements (alpha, 0, 4kT, 0, alpha),
    one batched `group.represent` over the radial nodes, exact at any
    truncation: their top dim/2 block is the element represented at
    dim/2, which is all that is built.  Their HC center carries exactly
    e^{-u}; setting ell = -u adds u to z, which leaves that factor to
    the Gauss-Laguerre weight.  D(r e^{i th}) = e^{i th n} D(r)
    e^{-i th n}, so the angular mean keeps the entries (m, n) with
    m - n = 0 mod angular_nodes.  That aliases entries with
    |m - n| = angular_nodes into the reported block once
    dim // 2 > angular_nodes (the default 64 nodes serve dim <= 129),
    so such input raises ValueError; below that the mean keeps only
    the diagonal of the block, and the deviation is the largest
    |diagonal - 1|.
    """
    if kT <= 0:
        raise ValueError("need kT > 0")
    if dim < 2:
        raise ValueError(f"dim must be at least 2, got {dim}")
    if dim // 2 > angular_nodes:
        raise ValueError(f"reported block of {dim // 2} levels is aliased "
                         f"by {angular_nodes} angular nodes; need "
                         f"angular_nodes >= dim // 2")
    c = -np.expm1(-4 * kT)
    nodes, weights = np.polynomial.laguerre.laggauss(radial_nodes)
    alpha = np.sqrt(nodes / c)
    elements = group.represent(group.CartanCoords(
        beta=alpha, phi=0.0, r=4 * kT, ell=-nodes, alpha=alpha), dim // 2)
    diagonals = np.diagonal(elements, axis1=-2, axis2=-1).copy()
    total = np.tensordot(weights, diagonals, axes=1)
    return np.max(np.abs(total * (2 * np.sinh(2 * kT) / c) - 1), initial=0.0)


def channel_superoperator(kT, dim):
    """Superoperator e^{-kT (ad_Q^2 + ad_P^2)/2} on the dim^2 space.

    Row-major vectorization: vec(rho)[m dim + n] = rho_mn.  The
    generator is ad_Q^2 + ad_P^2 = ad_a ad_a_dag + ad_a_dag ad_a, that is

        rho -> (a a_dag + a_dag a) rho + rho (a a_dag + a_dag a)
               - 2 (a rho a_dag + a_dag rho a),

    also on the truncated space, where a a_dag + a_dag a is diagonal:
    d_n = 2n + 1, but d_{dim-1} = dim - 1.  It keeps the offset m - n
    of |m><n| fixed, so the superoperator is block diagonal in the
    2 dim - 1 offsets.  The block of offset k >= 0 acts on
    rho_{n+k, n}, n = 0 .. dim-1-k, as the real symmetric tridiagonal
    matrix with diagonal d_{n+k} + d_n and coupling
    -2 sqrt((n+1)(n+k+1)) between n and n + 1; offset -k has the same
    block.  Each block is exponentiated by its eigendecomposition, an
    O(dim^3) total; the result is real.  Raises ValueError for dim < 2
    and NumericalDomainError for non-finite kT.
    """
    if dim < 2:
        raise ValueError(f"dim must be at least 2, got {dim}")
    if not np.isfinite(kT):
        raise fock.NumericalDomainError("channel of non-finite kT")
    levels = np.arange(dim)
    d = 2.0 * levels + 1
    d[-1] = dim - 1
    out = np.zeros((dim * dim, dim * dim))
    for k in range(dim):
        n = levels[:dim - k]
        coupling = -2 * np.sqrt(n[1:] * (n[1:] + k))
        block = (np.diag(d[n + k] + d[n]) + np.diag(coupling, 1)
                 + np.diag(coupling, -1))
        lam, vecs = np.linalg.eigh(block)
        exp_block = (vecs * np.exp(-0.5 * kT * lam)) @ vecs.T
        for index in ((n + k) * dim + n, n * dim + n + k):
            out[np.ix_(index, index)] = exp_block
    return out


def channel_monte_carlo(rho, kT, n_paths, dt, dim, seed):
    """Monte Carlo channel average against the analytic superoperator.

    Averages L rho L_dag, with L = represent(closed_form_hc(record)) the
    exact Kraus operator of a record (kappa = 1), and reports the trace
    distance to `channel_superoperator` applied to rho and the trace
    preservation statistics.  Records come in batches of
    `CHANNEL_CHUNK` paths, batch j from substream j of `seed` and its
    block b of `paths._PATH_BLOCK` paths from its own generator, seeded
    from (seed, j, b), so the result depends on that chunking as well
    as on the seed.  Each batch is reduced to its endpoints by
    `paths.sample_endpoints`, so the records take O(`paths._PATH_BLOCK`
    N) memory.  Raises ValueError for n_paths < 1; with one path the
    trace standard error is inf.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError("rho must be a dim x dim matrix")
    if abs(np.trace(rho) - 1) > 1e-10:
        raise ValueError("rho must have unit trace")
    boundary = np.abs(rho[-1, :]).sum() + np.abs(rho[:, -1]).sum()
    if boundary > 1e-3:
        raise fock.NumericalDomainError(
            "rho has support on the truncation boundary")
    evals, evecs = np.linalg.eigh(rho)
    keep = evals > 1e-14
    if np.any(evals < -1e-10):
        raise ValueError("rho must be positive semidefinite")
    factor = evecs[:, keep] * np.sqrt(evals[keep])

    # Work in units kappa = 1: N steps of size dt cover T = kT.
    N = int(round(kT / dt))
    if abs(N * dt - kT) > 1e-12:
        raise ValueError("kT must be a multiple of dt")

    rho_mc = np.zeros((dim, dim), dtype=complex)
    traces = []
    for stream, start in enumerate(range(0, n_paths, CHANNEL_CHUNK)):
        size = min(CHANNEL_CHUNK, n_paths - start)
        ends = paths.sample_endpoints("plain", N, dt, 1.0, seed, size,
                                      stream=stream)
        v = group.represent(ends, dim) @ factor
        rho_mc += np.einsum("pij,pkj->ik", v, np.conj(v))
        traces.append(np.einsum("pij,pij->p", v, np.conj(v)).real)
    rho_mc /= n_paths
    traces = np.concatenate(traces)

    super_op = channel_superoperator(kT, dim)
    rho_ref = (super_op @ rho.reshape(-1)).reshape(dim, dim)
    diff_evals = np.linalg.eigvalsh(rho_mc - rho_ref)
    trace_distance = 0.5 * np.abs(diff_evals).sum()
    return ChannelReport(
        dim=dim, kT=kT, trace_distance=trace_distance,
        trace_mean=traces.mean(),
        trace_stderr=(traces.std(ddof=1) / np.sqrt(n_paths) if n_paths > 1
                      else np.inf),
        n_paths=n_paths, seed=seed,
        metadata={"dt": dt, "chunk": CHANNEL_CHUNK},
    )


def late_time_coherent_residual(kT, beta, alpha, dim):
    """Distance of e^{kT} D_b e^{-2kT Ho} D_a_dag from |beta><alpha|.

    The element (Cartan (beta, 0, 2kT, -kT, alpha)) and the coherent
    vectors e^{-|c|^2/2} exp(c a_dag)|0> are exact under truncation.  At
    late times the element collapses onto the outer product at rate
    e^{-2kT}; at beta = alpha = 0 the residual is exactly e^{-2kT}.
    """
    element = group.represent(group.CartanCoords(
        beta=beta, phi=0.0, r=2 * kT, ell=-kT, alpha=alpha), dim)
    pair = np.array([beta, alpha], dtype=complex)
    ket, bra = (np.exp(-np.abs(pair) ** 2 / 2)[:, None]
                * fock.ladder_exponential(dim, pair)[..., 0])
    return np.linalg.norm(element - np.outer(ket, np.conj(bra)), ord=2)
