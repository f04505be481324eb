"""Wiener paths and the stochastic flow they drive on the group.

The measurement record is a sequence of complex increments
dw = (dW^q + i dW^p)/sqrt(2) with <|dw|^2> = dt under the plain Wiener
measure.  This module draws such records (plain and modified measure),
integrates the resulting SDEs in either chart, evaluates the
stochastic-integral closed forms for the endpoint, and forms the
time-ordered Kraus product in a truncated Fock representation, as one
`group.represent` of its composed HC coordinates.

Inside the samplers a block of records is a real array of rows, each
path's real row followed by its imaginary row, as the generator draws
them; complex increments are formed only for the caller.  One block
loop serves four uses: the record samplers store the blocks, the
plain endpoint sampler reduces them to (nu, z, mu), the unweighted
Feynman-Kac estimate of `dists` projects them onto the linear sums
(nu, mu) alone, skipping the quadratic centre z, and the channel Monte
Carlo of `povm` reduces, represents and sums them in one schedule over
all its chunks of records.  The projection takes the white blocks
under either measure: under the modified one it projects onto the
kernel's whitened loads of (nu, mu), so it never correlates a record.
Steps that act row by row (storing plain records, projecting) get each
block in panels of `_PANEL_ROWS` rows, drawn one after another from
the block's generator, so their rows take O(`_PANEL_ROWS` N) memory;
steps that make one pass along the record per call (correlating,
reducing) get whole blocks, O(`_PATH_BLOCK` N).  The same two threads
(`_run_blocks`) share the path blocks of `closed_form_hc`'s records.

Increment arrays may carry leading batch axes: shape (..., N) with the
step index last.  All closed forms broadcast over the batch.
"""

import itertools
import math
import threading
from concurrent import futures
from dataclasses import dataclass, replace

import numpy as np

from . import group, moments

__all__ = [
    "WienerPath",
    "sample_wiener",
    "sample_modified",
    "sample_endpoints",
    "propagate_sde",
    "closed_form_hc",
    "closed_form_cartan",
    "kraus_time_ordered",
    "refine_path",
]

#: Steps per block in the blocked evaluation of `closed_form_hc`.
_BLOCK = 32

#: Taylor coefficients 1/(k+2)! of `_kraus_centre` in powers of -eps.
_CENTRE_SERIES = tuple(1 / math.factorial(k + 2) for k in range(17))

#: Paths per row block that the samplers draw (`_each_block`) and that
#: `closed_form_hc` reduces at once.
_PATH_BLOCK = 256

#: Rows per panel of a block that `_each_block` hands to a row-wise step
#: (`_store_rows` of plain records, `_project_rows`).  A panel of N = 1000
#: steps is 512 KB, so it stays in a core's L2 cache between the draw
#: and the step; and a product of 64 rows keeps OpenBLAS (0.3.31,
#: default threads) on the calling thread, where one of a whole block
#: woke its thread pool, whose spinning helper thread then took the
#: second core from the samplers' worker thread.
_PANEL_ROWS = 64

#: The one worker thread of `_run_blocks`, shared by every sampler, the
#: channel Monte Carlo and `closed_form_hc`, and made on first use.
_worker = None


@dataclass(frozen=True)
class WienerPath:
    """A discretized measurement record.

    Attributes
    ----------
    dt : float
        Time step, > 0.
    kappa : float
        Measurement rate, > 0.
    increments : ndarray
        Complex array of shape (..., N); leading axes index a batch of
        independent paths.
    """

    dt: float
    kappa: float
    increments: np.ndarray

    def __post_init__(self):
        _check_step(self.dt, self.kappa)

    @property
    def n_steps(self):
        return self.increments.shape[-1]


def _check_step(dt, kappa):
    """Raise ValueError unless dt and kappa are both positive and finite."""
    if not (0 < dt < np.inf and 0 < kappa < np.inf):
        raise ValueError("dt and kappa must be positive and finite")


def _rng(seed, stream, block):
    """The generator of row block `block` of substream `stream` of `seed`.

    SFC64 (ships with numpy and passes the standard test batteries),
    seeded from SeedSequence([seed, stream, block]), so every block of
    `_PATH_BLOCK` paths has a stream of its own.
    """
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence([seed, stream, block])))


def _complex_normal(rng, shape, dt):
    """Complex Gaussians of shape `shape` with <|x|^2> = dt.

    One real standard-normal draw with the last axis doubled, scaled in
    place and viewed as interleaved (re, im) pairs, so the real and
    imaginary parts are i.i.d. N(0, dt/2).
    """
    x = rng.standard_normal(shape[:-1] + (2 * shape[-1],))
    x *= np.sqrt(dt / 2)
    return x.view(complex)


class _Claims:
    """Block indices 0..count-1, each handed out once, in order.

    `claim` returns the next index, or None once all are out or after
    `stop`.  Shared by the two threads of `_run_blocks`.
    """

    def __init__(self, count):
        self._next, self._count = 0, count
        self._lock = threading.Lock()

    def claim(self):
        with self._lock:
            if self._next >= self._count:
                return None
            self._next += 1
            return self._next - 1

    def stop(self):
        with self._lock:
            self._next = self._count


def _run_blocks(count, task):
    """Call task(b, thread) once for every block index b < `count`.

    The calling thread (thread 0) and the worker thread `_worker`
    (thread 1) claim block indices from one shared counter, so the two
    run on two cores wherever `task` releases the GIL.  `task` must
    write block b to a slot of its own, so that the result does not
    depend on which thread took which block, and must call no public
    function, so that a tracer of the public functions sees the whole
    cost inside the caller's span.  A single block runs on the calling
    thread alone, as handing it to the worker would cost more than the
    block.  A failure on either thread stops the other from claiming
    more blocks and is raised here, with no job left running.  Serves
    the path blocks of `_each_block` and of `closed_form_hc`.
    """
    global _worker
    if _worker is None:
        _worker = futures.ThreadPoolExecutor(1)
    claims = _Claims(count)

    def work(thread):
        try:
            while (b := claims.claim()) is not None:
                task(b, thread)
        except BaseException:
            claims.stop()
            raise

    jobs = [_worker.submit(work, 1)] if count > 1 else []
    try:
        work(0)
    finally:
        futures.wait(jobs)
    for job in jobs:
        job.result()


def _chunks(n_paths, chunk):
    """(j, paths of chunk j) for `n_paths` records in chunks of `chunk`.

    Chunk j is drawn from substream j of the seed; None is one chunk.
    """
    chunk = n_paths if chunk is None else chunk
    if chunk < 1:
        raise ValueError("need at least one path per chunk")
    return [(j, min(chunk, n_paths - first))
            for j, first in enumerate(range(0, n_paths, chunk))]


def _each_block(kernel, N, seed, streams, step, *args, panel=2 * _PATH_BLOCK):
    """Call step(rows, start, *args) on each panel of the records of `streams`.

    `streams` lists (stream, n_paths) pairs; the records are those of
    each stream in turn, so start counts the paths of the earlier
    streams too.  `step` is `_store_rows` (the record samplers),
    `_reduce_rows` (`sample_endpoints`), `_project_rows`
    (`_phase_sums`) or `povm._channel_rows` (`povm.channel_monte_carlo`),
    the last three with one stream per chunk of records (`_chunks`).
    Block b of a stream holds its paths from b `_PATH_BLOCK` on, at
    most `_PATH_BLOCK` of them, as (2 paths, N) white rows drawn from
    its own generator `_rng(seed, stream, b)`: path p's real row 2p and
    its imaginary row 2p+1.  The block reaches `step` in panels of
    `panel` rows (even; the default is the whole block), filled one
    after another from the block's generator, so the rows are those of
    one draw of the whole block.  With `kernel` given each panel is
    correlated in place by `kernel.correlate` (modified measure) before
    `step` sees it; only `_draw` passes one, with whole blocks, as the
    correlation makes one blocked pass along the record per call.  The
    blocks of all streams are
    shared by the two threads of one `_run_blocks` schedule, and each
    thread draws the blocks it claims into its own row buffer of one
    panel; each block has its own generator and `step` writes it to
    its own slot.  Both row buffers are made here, in the calling
    thread, because a buffer freed by the worker would stay in that
    thread's heap arena and raise the peak memory.
    """
    blocks, offset = [], 0
    for stream, n_paths in streams:
        for b, first in enumerate(range(0, n_paths, _PATH_BLOCK)):
            blocks.append((stream, b, offset + first,
                           min(_PATH_BLOCK, n_paths - first)))
        offset += n_paths
    width = max((size for *_, size in blocks), default=0)
    buffers = np.empty((min(len(blocks), 2), min(panel, 2 * width), N))

    def draw(k, thread):
        stream, b, start, size = blocks[k]
        rng = _rng(seed, stream, b)
        for first in range(0, 2 * size, panel):
            rows = buffers[thread][:min(panel, 2 * size - first)]
            rng.standard_normal(out=rows)
            if kernel is not None:
                kernel.correlate(rows)
            step(rows, start + first // 2, *args)

    _run_blocks(len(blocks), draw)


def _store_rows(rows, start, dw, scale):
    """Write the records of `rows`, times `scale`, into dw[start:]."""
    block = dw[start:start + len(rows) // 2]
    np.multiply(rows[0::2], scale, out=block.real)
    np.multiply(rows[1::2], scale, out=block.imag)


def _reduce_rows(rows, start, ends, kappa, dt):
    """Write the (nu, z, mu) of the records of `rows` into ends[:, start:]."""
    ends[:, start:start + len(rows) // 2] = _row_sums(rows, np.sqrt(dt / 2),
                                                      kappa, dt)


def _project_rows(rows, start, sums, loads):
    """Write rows @ loads into sums[2 start:], one product per panel."""
    np.matmul(rows, loads, out=sums[2 * start:2 * start + len(rows)])


def _draw(measure, N, dt, kappa, seed, n_paths, stream):
    """Complex increments of `n_paths` records (one record for None).

    Arguments are checked by `_measure_kernel`; the rows of
    `_each_block` are scaled by sqrt(dt/2) into their slots.  Plain
    records come in panels of `_PANEL_ROWS` rows, so memory beyond the
    result is O(`_PANEL_ROWS` N); modified ones in whole blocks, which
    `Kernel.correlate` takes in one pass, O(`_PATH_BLOCK` N).
    """
    count = 1 if n_paths is None else n_paths
    kernel = _measure_kernel(measure, N, dt, kappa, count)
    dw = np.empty((count, N), dtype=complex)
    _each_block(kernel, N, seed, [(stream, count)], _store_rows, dw,
                np.sqrt(dt / 2),
                panel=_PANEL_ROWS if kernel is None else 2 * _PATH_BLOCK)
    return dw[0] if n_paths is None else dw


def sample_wiener(N, dt, kappa, seed, n_paths=None, stream=0):
    """Draw plain-measure increments dw = (dW^q + i dW^p)/sqrt(2).

    Real and imaginary parts are independent N(0, dt/2).  Paths come in
    blocks of `_PATH_BLOCK`; block b draws white rows of shape
    (2 paths, N) from its own generator `_rng(seed, stream, b)`, and
    its path p is sqrt(dt/2) (rows[2p] + 1j rows[2p+1]), the layout of
    `sample_modified` and `sample_endpoints`.  Two or more blocks are
    drawn on two threads, the calling one and one worker
    (`_each_block`), and the increments do not depend on which thread
    took which block.  A single path is the first path of a batch.  Deterministic for a
    given (seed, stream); `stream` selects an independent substream, so
    a chunked Monte Carlo is reproducible for a fixed chunking, and its
    result depends on the chunking as well as on the seed.
    """
    dw = _draw("plain", N, dt, kappa, seed, n_paths, stream)
    return WienerPath(dt=dt, kappa=kappa, increments=dw)


def sample_modified(N, dt, kappa, seed, n_paths=None, stream=0):
    """Draw increments under the modified (correlated) Gaussian measure.

    The real and imaginary increment vectors each carry covariance
    (dt/2) M^-1, so <dw_k* dw_l> = dt (M^-1)_{kl} with M the
    exponential-Toeplitz kernel of `moments.build_kernel`.  Sampling
    goes through the kernel's O(N) factor M^-1 = F F^T with
    F = D^T U^-1 (`moments.Kernel.correlate`, blocked GEMMs, in place):
    x = sqrt(dt/2) F z for white z.  The white rows are drawn as in
    `sample_wiener`, block b of `_PATH_BLOCK` paths from
    `_rng(seed, stream, b)`, each path's real row directly followed by
    its imaginary row, and each block is correlated on the thread that
    drew it; as there, two threads share the blocks and the increments
    do not depend on the schedule.  Raises `moments.RegimeError` where
    the kernel is not positive definite.
    """
    dw = _draw("modified", N, dt, kappa, seed, n_paths, stream)
    return WienerPath(dt=dt, kappa=kappa, increments=dw)


def sample_endpoints(N, dt, kappa, seed, n_paths, chunk=None):
    """Plain-measure HC endpoints of `n_paths` records, without the records.

    Returns, in chunk order, what `closed_form_hc` gives for
    `sample_wiener` with the n_paths and stream of each chunk
    (`_chunks`).  The blocks of all chunks are drawn as there, in one
    schedule of the same two threads (`_each_block`), and
    each is scaled and reduced (`_row_sums`) into its fixed slot of the
    result, so the endpoints do not depend on the schedule either.
    Callers that need only nu and mu take `_phase_sums`, which draws
    the same blocks and skips the centre sum.
    Memory is O(`_PATH_BLOCK` N) for the two whole-block row buffers,
    as `_row_sums` makes one blocked pass along the record per call,
    plus the endpoints, 48 B per path.
    """
    _measure_kernel("plain", N, dt, kappa, n_paths)
    ends = np.empty((3, n_paths), dtype=complex)
    _each_block(None, N, seed, _chunks(n_paths, chunk), _reduce_rows, ends,
                kappa, dt)
    nu, z, mu = ends
    return group.HCCoords(nu=nu, r=2 * kappa * dt * N, z=z, mu=mu)


def _measure_kernel(measure, N, dt, kappa, n_paths):
    """Check the arguments of an endpoint draw; the measure's kernel.

    None for the plain measure, `moments.build_kernel` for the modified
    one.  Raises ValueError for N < 1, n_paths < 1, a dt or kappa that
    is not positive and finite (`WienerPath`'s rule) or an unknown
    measure, before anything is drawn.
    """
    if N < 1:
        raise ValueError("need at least one increment")
    if n_paths < 1:
        raise ValueError("need at least one path")
    _check_step(dt, kappa)
    if measure == "plain":
        return None
    if measure == "modified":
        return moments.build_kernel(N, dt, kappa)
    raise ValueError(f"unknown measure {measure!r}")


def _phase_sums(measure, N, dt, kappa, seed, n_paths, chunk=None):
    """The (nu, mu) of `sample_endpoints` with the same arguments, no z.

    Under the modified measure those of the same chunks of
    `sample_modified` records, all in one schedule, 32 B per path.
    nu and mu are linear in the record, so each panel of
    `_PANEL_ROWS` white rows, drawn as there, is projected onto (N, 2)
    loads (`_project_rows`), the sampler's scale sqrt(dt/2) folded in;
    the rows take O(`_PANEL_ROWS` N) memory.  Under the plain measure
    the loads are sqrt(kappa dt/2) [rho^(N-1-k), rho^k] of
    `closed_form_hc`.  Under the modified measure a record is F z for
    white z, F = D^T U^-1 the kernel's factor, and l^T (F z) =
    (F^T l)^T z, so the white rows are projected onto the whitened
    loads sqrt(kappa dt/2) F^T [rho^(N-1-k), rho^k]
    (`moments.Kernel._whitened_loads`, O(N), made on the calling
    thread) and no record is ever correlated.  Row 2p gives the real
    parts of path p's (nu, mu), row 2p+1 the imaginary parts.  The
    centre z, the only part that is quadratic in the record, is never
    formed.
    """
    kernel = _measure_kernel(measure, N, dt, kappa, n_paths)
    if kernel is None:
        decay = np.exp(-2 * kappa * dt) ** np.arange(N)
        loads = np.stack([decay[::-1], decay], axis=1)
    else:
        loads = kernel._whitened_loads()
    loads = np.sqrt(kappa * dt / 2) * loads
    sums = np.empty((2 * n_paths, 2))
    _each_block(None, N, seed, _chunks(n_paths, chunk), _project_rows, sums,
                loads, panel=_PANEL_ROWS)
    return (sums[0::2, 0] + 1j * sums[1::2, 0],
            sums[0::2, 1] + 1j * sums[1::2, 1])


def propagate_sde(path, chart="hc"):
    """Integrate the measurement SDEs along a single path.

    Returns array-valued coordinates; point k lies at t = r/(2 kappa).
    The HC chart gives one `HCCoords` of N + 1 points, from the identity
    through each increment: the exact recursion of
    `group.increment_left_multiply`, keeping the literal |dw|^2 term in
    the center, as a scan.  nu runs nu <- rho nu + sqrt(kappa) dw over
    Python complex numbers, mu and z are cumulative sums, and
    r = 2 kappa dt k.

    The Cartan chart gives one `CartanCoords` of N points from t = dt,
    as the chart is singular at t = 0: the transform of the HC scan,
    whose ell and phi are then replaced by the transform's seed at
    t = dt plus cumulative sums of discretely consistent kernels.  The
    singular csch/coth coefficients of the continuum SDEs become their
    exact one-increment counterparts, which agree with the continuum
    forms to O(dt) at fixed t but stay finite through the early steps
    where 2 kappa t is itself O(dt); a naive Euler scheme accumulates an
    O(1) endpoint error in ell there no matter how small dt is.
    """
    dw = np.asarray(path.increments)
    if dw.ndim != 1:
        raise ValueError("propagate_sde integrates one path at a time")
    if chart not in ("hc", "cartan"):
        raise ValueError(f"unknown chart {chart!r}")
    kappa, dt = path.kappa, path.dt
    d = math.exp(-2 * kappa * dt)
    root = np.sqrt(kappa) * dw
    r = 2 * kappa * dt * np.arange(len(dw) + 1)
    nu = np.array(list(itertools.accumulate(
        root.tolist(), lambda state, c: d * state + c, initial=0j)))
    mu = np.concatenate(([0j], np.cumsum(np.exp(-r[:-1]) * root)))
    z = np.concatenate(([0j], np.cumsum(0.5 * kappa * np.abs(dw) ** 2
                                        + nu[:-1] * np.conj(root))))
    if chart == "hc":
        return group.HCCoords(nu=nu, r=r, z=z, mu=mu)

    y = group.hc_to_cartan(group.HCCoords(nu=nu[1:], r=r[1:], z=z[1:],
                                          mu=mu[1:]))
    # Step k = 1 .. N-1 takes the HC point at r_k to the one at r_{k+1}.
    nu, mu, root = nu[1:-1], mu[1:-1], root[1:]
    u, v = np.exp(-r[1:-1]), np.exp(-r[2:])
    # 1/(2 sinh r) at r_k and at r_{k+1}, in decaying factors.
    csch = np.exp(-r[1:]) / -np.expm1(-2 * r[1:])
    csch_r, csch_next = csch[:-1], csch[1:]

    # The singular continuum kernels coth/csch(2 kappa t) appear in the
    # center increments through these discrete counterparts, written in
    # the phase-plane difference variables p = nu + mu, m = nu - mu.
    plus, minus = nu + mu, nu - mu
    plus_next = plus - (1 - d) * nu
    minus_next = minus - (1 - d) * nu
    coth_disc = (u + v) ** 2 / (2 * (1 - v ** 2)) + 1
    b_noise = ((1 + u) * plus_next / (4 * (1 - v))
               + (1 - u) * minus_next / (4 * (1 + v)) + nu / 2)
    drift = (np.abs(plus_next) ** 2 / (4 * (1 - v))
             - np.abs(plus) ** 2 / (4 * (1 - u))
             + np.abs(minus_next) ** 2 / (4 * (1 + v))
             - np.abs(minus) ** 2 / (4 * (1 + u)))
    d_ell = -(coth_disc * kappa * np.abs(dw[1:]) ** 2 + drift
              + 2 * np.real(np.conj(b_noise) * root))
    d_phi = (np.imag(nu * np.conj(root)) * (1 + d * u * csch_next)
             - np.imag(mu * np.conj(root)) * csch_next
             - np.imag(np.conj(nu) * mu) * (d * csch_next - csch_r))
    return replace(y, ell=np.cumsum(np.concatenate((y.ell[:1], d_ell))),
                   phi=np.cumsum(np.concatenate((y.phi[:1], d_phi))))


def _block_weights(rho, n):
    """Real n x (n+2) weights of one block of n increments.

    Columns 0..n-1 hold A = I/2 + the strict lower Toeplitz
    rho^(j-1-i) (row j, column i), so sum_i dw_i conj((dw A)_i) is the
    block's own part of the center sum; column n holds rho^(n-1-j),
    the block's contribution to the state at its end; column n+1 holds
    rho^j, its weights from its start.  Every entry is at most 1.
    """
    j = np.arange(n)
    w = np.empty((n, n + 2))
    w[:, :n] = np.tril(rho ** np.abs(j[:, None] - j - 1), -1)
    w[j, j] = 0.5
    w[:, n] = rho ** (n - 1 - j)
    w[:, n + 1] = rho ** j
    return w


def closed_form_hc(path):
    """Endpoint HC coordinates as explicit stochastic-integral sums.

    nu is the Ornstein-Uhlenbeck sum weighting recent increments, mu
    the heterodyne-style sum weighting early increments, and z a
    quadratic functional of the record:

        nu_N = sum_k sqrt(kappa) dw_k rho^(N-1-k)
        mu_N = sum_k sqrt(kappa) dw_k rho^k
        z_N  = sum_k (kappa/2)|dw_k|^2
               + kappa sum_{k>l} dw_k* dw_l rho^(k-l-1)

    with rho = e^{-2 kappa dt}.  The exponents carry the one-increment
    offsets of the exact discrete recursion, so the result equals the
    iterated `group.increment_left_multiply` to floating-point
    accuracy, not just to O(dt).  Broadcasts over batch axes of the
    increments.  A record of no steps gives the identity's coordinates.

    The kernel rho^(k-l-1) is semiseparable (rank one off the
    diagonal), so the record is cut into blocks of `_BLOCK` steps.  One
    real-weight GEMM per block (`_block_weights`) gives the block's
    local center sum, its end-of-block state E_b and its
    start-weighted sum G_b; the state S_b carried across blocks is E
    times the block-level Toeplitz matrix rho^(end_b - end_b').  Every
    factor is at most 1, so the sums stay finite at any kappa T.  Each
    block of `_PATH_BLOCK` paths of the complex record goes to
    `_row_sums` as it is, with no real copy of the record (batch axes
    that do not flatten to a view are copied once by the reshape), so
    the temporaries are O(`_BLOCK` `_PATH_BLOCK`) per block.  The
    blocks are shared by the two threads of `_run_blocks`, each written
    to its own slot, so this must not be called from a `_run_blocks`
    task, whose nested schedule would wait on its own worker.
    """
    dw = np.asarray(path.increments, dtype=complex)
    batch, N = dw.shape[:-1], dw.shape[-1]
    flat = dw.reshape(math.prod(batch), N)
    ends = np.zeros((3, len(flat)), dtype=complex)

    def reduce(b, thread):
        block = slice(b * _PATH_BLOCK, (b + 1) * _PATH_BLOCK)
        ends[:, block] = _row_sums(flat[block], 1.0, path.kappa, path.dt)

    if N:
        _run_blocks(-(-len(flat) // _PATH_BLOCK), reduce)
    nu, z, mu = ends.reshape((3,) + batch)
    return group.HCCoords(nu=nu, r=2 * path.kappa * path.dt * N, z=z, mu=mu)


def _row_sums(rows, scale, kappa, dt):
    """(nu, z, mu) of `closed_form_hc` for the records in `rows`.

    `rows` is real, shape (2P, N), in any memory order: path p's
    increments are scale * (rows[2p] + 1j rows[2p+1]); or complex,
    shape (P, N), in any memory order, path p's increments scale *
    rows[p].  Block by block the scaled record is copied step-major
    into a contiguous (n, 2P) slab, which is also the block's complex
    (n, P) record, the transpose of a complex (P, n) slice; the real
    weights act on it as one real GEMM, half the flops of the complex
    product, and the slab stays in cache for the local sum.  The
    block-level state is a real GEMM on the interleaved edges too, and
    the start-weighted sum an einsum: complex numbers are formed only
    for the per-block sums.  A complex GEMM or a GEMV there woke
    OpenBLAS's thread pool (0.3.31, default threads), whose spinning
    helper thread then took the second core from the samplers' worker
    thread; these real products stay on the calling thread.  Calls no
    public function, so that `_each_block` can run it on its worker
    thread.
    """
    N = rows.shape[1]
    rho = np.exp(-2 * kappa * dt)
    start = np.arange(0, N, _BLOCK)
    slab = np.empty((_BLOCK, len(rows)), dtype=rows.dtype)
    width = slab.view(float).shape[1]
    y = np.empty((_BLOCK + 2, width))
    edges = np.empty((2, len(start), width))
    weights = _block_weights(rho, _BLOCK).T
    local = 0
    for b, s in enumerate(start):
        n = min(_BLOCK, N - s)
        if n < _BLOCK:
            weights = _block_weights(rho, n).T
        np.multiply(rows[:, s:s + n].T, scale, out=slab[:n])
        x, out = slab[:n].view(float), y[:n + 2]
        np.matmul(weights, x, out=out)
        local = local + np.einsum("jp,jp->p", x.view(complex),
                                  out[:n].view(complex).conj())
        edges[:, b] = out[n:]
    ends, sums = edges

    last = np.minimum(start + _BLOCK, N) - 1
    state = (np.tril(rho ** np.abs(last[:, None] - last)) @ ends).view(complex)
    sums = sums.view(complex)
    root = np.sqrt(kappa)
    nu = root * state[-1]
    mu = root * np.einsum("b,bp->p", rho ** start, sums)
    z = kappa * (local + np.einsum("bp,bp->p", sums[1:].conj(), state[:-1]))
    return nu, z, mu


def closed_form_cartan(path):
    """Endpoint Cartan coordinates of the record.

    The Cartan transform of the HC endpoint,
    hc_to_cartan(closed_form_hc(path)): beta and alpha are the
    sinh-kernel combinations of the HC sums nu and mu, and the center
    follows from the gauge functions, ell = s - f, phi = psi - xi.
    Requires at least one step (the chart is singular at T=0).  Both
    steps carry decaying factors only, so it is finite at any kappa T.
    """
    return group.hc_to_cartan(closed_form_hc(path))


def _kraus_centre(eps):
    """(eps - 1 + e^-eps)/eps^2 for a scalar eps > 0, without cancellation.

    Below eps = 1 the Taylor series sum_k (-eps)^k/(k+2)!, whose first
    17 terms reach double precision there; above it the direct form,
    which then loses at most a few units in the last place.
    """
    if eps >= 1:
        return (eps + math.expm1(-eps)) / eps ** 2
    return np.polynomial.polynomial.polyval(-eps, _CENTRE_SERIES)


def kraus_time_ordered(path, dim):
    """Time-ordered product of one-increment Kraus factors.

    Each factor is exp(-Ho eps + a conj(c_k) + a_dag c_k), eps =
    2 kappa dt and c_k = sqrt(kappa) dw_k, a positive group element;
    the latest factor stands leftmost.  Its HC coordinates are closed
    forms,

        nu = mu = g c_k,  r = eps,  z = kappa_c |c_k|^2,

    with g = (1 - e^-eps)/eps and kappa_c = (eps - 1 + e^-eps)/eps^2
    (`_kraus_centre`).  The factors are elements of one group, so their
    product is one too, and the HC group law composes its coordinates
    exactly.  `closed_form_hc` composes the increments (c_k, eps,
    |c_k|^2/2, c_k) of `group.increment_left_multiply` by the same law;
    nu and mu are linear in the c_k and the centre's cross terms
    bilinear, so with (nu, r, z, mu) = `closed_form_hc(path)` and
    S = sum_k |c_k|^2 the product is

        (g nu, r, g^2 z + (kappa_c - g^2/2) S, g mu),

    and the matrix is one `group.represent` of it: exact under
    truncation at any dim, with no product of truncated matrices.  An
    empty record gives the identity.  As dt -> 0 at fixed record, g ->
    1 and kappa_c -> 1/2, so the product converges at first order in dt
    to represent(closed_form_hc(path)).  Raises
    `fock.NumericalDomainError` where a coordinate is not finite or the
    matrix overflows.

    The truncation should keep the state support interior; as a
    guideline dim >= 8 (1 + max(|nu_t|, |mu_t|))^2.
    """
    dw = np.asarray(path.increments)
    if dw.ndim != 1:
        raise ValueError("kraus_time_ordered takes one path at a time")
    eps = 2 * path.kappa * path.dt
    g = -math.expm1(-eps) / eps
    with np.errstate(over="ignore", invalid="ignore"):  # represent raises
        x = closed_form_hc(path)
        total = path.kappa * np.sum(np.abs(dw) ** 2)
        z = g * g * x.z + (_kraus_centre(eps) - g * g / 2) * total
        return group.represent(group.HCCoords(nu=g * x.nu, r=x.r, z=z,
                                              mu=g * x.mu), dim)


def refine_path(path, factor, seed):
    """Split each increment into `factor` conditioned sub-increments.

    Brownian-bridge refinement: within each original step the
    sub-increments are i.i.d. Gaussians re-centered so that they sum
    exactly to the original dw.  The refined path lives on the same
    Brownian record, which makes fixed-record convergence checks
    (dt vs dt/factor) meaningful.
    """
    if factor < 2:
        raise ValueError("refinement factor must be at least 2")
    dw = np.asarray(path.increments)
    dt_fine = path.dt / factor
    g = _complex_normal(_rng(seed, 1, 0), dw.shape + (factor,), dt_fine)
    g -= g.mean(axis=-1, keepdims=True)
    g += dw[..., None] / factor
    fine = g.reshape(dw.shape[:-1] + (dw.shape[-1] * factor,))
    return WienerPath(dt=dt_fine, kappa=path.kappa, increments=fine)
