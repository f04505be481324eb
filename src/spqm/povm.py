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

The Monte Carlo average never holds a record or an endpoint array:
each block of records is drawn, reduced to its endpoints, represented
and summed on one of the two threads of `paths._each_block`, into slots
that the calling thread adds up in block order.
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

#: Paths per chunk of `channel_monte_carlo`: chunk j of the records is
#: drawn from substream j of the seed, so the chunk fixes the records.
#: Memory is bounded by the two whole-block row buffers of
#: `paths._each_block` instead, O(`paths._PATH_BLOCK` N).
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
    preservation statistics.  Records come in chunks of
    `CHANNEL_CHUNK` paths, chunk j from substream j of `seed` and its
    block b of `paths._PATH_BLOCK` paths from its own generator, seeded
    from (seed, j, b), so the result depends on that chunking as well
    as on the seed.  The blocks of all chunks are one schedule of the
    two threads of `paths._each_block`: the thread that draws a block
    also reduces it to its endpoints, represents them and writes the
    block's sum of L rho L_dag and its traces into slots of its own
    (`_channel_rows`), and the calling thread adds the slots in block
    order.  So the result does not depend on the schedule, and the
    records take O(`paths._PATH_BLOCK` N) memory: whole blocks, as the
    reduction makes one pass along the record per call.  `metadata` holds
    `boundary_population`, the averaged population of the top level
    dim - 1, where the truncation acts.  Raises ValueError for
    n_paths < 1 and for a kT or dt that is not positive and finite,
    before anything is drawn; with one path the trace standard error
    is inf.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    if not (np.isfinite(kT) and kT > 0):
        raise ValueError(f"kT must be positive and finite, got {kT}")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
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
    if N < 1 or abs(N * dt - kT) > 1e-12:
        raise ValueError("kT must be a positive multiple of dt")

    rho_mc, traces = _channel_sums(factor, N, dt, dim, seed, n_paths)
    rho_mc /= n_paths
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
        metadata={"dt": dt, "chunk": CHANNEL_CHUNK,
                  "boundary_population": rho_mc[-1, -1].real},
    )


def _channel_sums(factor, N, dt, dim, seed, n_paths):
    """Sum of L rho L_dag over `n_paths` records, and each record's trace.

    rho = factor factor_dag; the records are those of
    `channel_monte_carlo`, one `paths._each_block` stream per chunk of
    `CHANNEL_CHUNK` paths, and each block is summed on the thread that
    drew it (`_channel_rows`).  The block sums are added in block order.
    """
    streams = [(j, min(CHANNEL_CHUNK, n_paths - start))
               for j, start in enumerate(range(0, n_paths, CHANNEL_CHUNK))]
    sums, traces = {}, np.empty(n_paths)
    paths._each_block(None, N, seed, streams, _channel_rows, dt, 2 * dt * N,
                      dim, factor, sums, traces)
    total = np.zeros((dim, dim), dtype=complex)
    for start in sorted(sums):
        total += sums[start]
    return total, traces


def _channel_rows(rows, start, dt, r, dim, factor, sums, traces):
    """Write the Kraus sums of the records of `rows` into their slots.

    The records (kappa = 1, scale sqrt(dt/2)) are reduced to their HC
    endpoints (`paths._row_sums`), whose width is r = 2 dt N, and
    represented (`group._represent`); with v = L factor, sums[start]
    gets the block's sum of v v_dag and traces[start:] each record's
    tr v v_dag.  Calls no public function, so that `paths._each_block`
    can run it on its worker thread.
    """
    nu, z, mu = paths._row_sums(rows, np.sqrt(dt / 2), 1.0, dt)
    v = group._represent(nu, r, z, mu, dim) @ factor
    sums[start] = np.einsum("pij,pkj->ik", v, np.conj(v))
    traces[start:start + len(v)] = np.einsum("pij,pij->p", v,
                                             np.conj(v)).real


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
