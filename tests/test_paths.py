"""Tests for path sampling, SDE integration, and the Kraus product."""

import decimal
import inspect
import sys
import threading
import tracemalloc
import warnings
from concurrent import futures

import numpy as np
import pytest

from spqm import dists, fock, group, moments, paths, povm, verify


def test_sample_wiener_statistics():
    batch = paths.sample_wiener(100, 1e-3, 1.0, seed=1, n_paths=10_000)
    dw = batch.increments.ravel()  # 1e6 increments
    dt = 1e-3
    assert abs(dw.mean()) <= 3 * np.sqrt(dt / len(dw))
    assert abs(np.mean(np.abs(dw) ** 2) / dt - 1) <= 0.01
    # Independent real and imaginary parts of variance dt/2 each: the
    # pseudo-variance E dw^2 vanishes (each part has standard error
    # dt/sqrt(n)).
    assert abs(np.mean(dw ** 2)) <= 4 * dt / np.sqrt(len(dw))
    assert abs(np.mean(dw.real ** 2) / (dt / 2) - 1) <= 0.01


def test_sample_wiener_deterministic():
    a = paths.sample_wiener(50, 1e-3, 1.0, seed=9)
    b = paths.sample_wiener(50, 1e-3, 1.0, seed=9)
    assert np.array_equal(a.increments, b.increments)
    c = paths.sample_wiener(50, 1e-3, 1.0, seed=10)
    assert not np.array_equal(a.increments, c.increments)


# First three increments of two paths at seed 17 (N = 40, dt = 1e-3,
# kappa = 1), drawn from block 0's generator `paths._rng(17, 0, 0)`:
# SFC64 rows, path p's real row 2p and imaginary row 2p+1.
_MODIFIED_SEED_17 = [
    [0.06340470309718925 + 0.022952654067577318j,
     -0.0070378173707709235 - 0.009639477493059961j,
     -0.0014377667417930064 + 0.007126985236242573j],
    [0.0314642377888511 - 0.006952149825552851j,
     0.012176574016873073 - 0.02779352545324794j,
     0.004293640751210913 + 0.00941101277273353j]]
_PLAIN_SEED_17 = [
    [0.06321272582919081 + 0.022944960957582427j,
     -0.007202090463192275 - 0.009640508210641097j,
     -0.0016067871303202372 + 0.007124684482644406j],
    [0.03149469230170078 - 0.00713352977547297j,
     0.01222900216093736 - 0.02799285826597897j,
     0.0043544929781408346 + 0.00920184486125922j]]


def test_sample_modified_stream_is_pinned():
    got = paths.sample_modified(40, 1e-3, 1.0, seed=17, n_paths=2)
    want = np.array(_MODIFIED_SEED_17)
    assert np.max(np.abs(got.increments[:, :3] - want)) <= (
        1e-13 * np.max(np.abs(want)))


def test_sample_wiener_stream_is_pinned():
    got = paths.sample_wiener(40, 1e-3, 1.0, seed=17, n_paths=2)
    assert np.array_equal(got.increments[:, :3], np.array(_PLAIN_SEED_17))


def test_sample_wiener_blocks_are_substreams():
    # Block b of 256 paths holds the rows of its own generator
    # _rng(seed, stream, b), rows[2p] + 1j rows[2p+1] for its path p,
    # and one path is the first path of a batch.
    N, dt, scale = 40, 1e-3, np.sqrt(1e-3 / 2)
    got = paths.sample_wiener(N, dt, 1.0, seed=17, n_paths=600, stream=2)
    for b, size in enumerate((256, 256, 88)):
        rows = paths._rng(17, 2, b).standard_normal((2 * size, N)) * scale
        block = got.increments[256 * b:256 * b + size]
        assert np.array_equal(block, rows[0::2] + 1j * rows[1::2])
    single = paths.sample_wiener(N, dt, 1.0, seed=17, stream=2)
    assert np.array_equal(single.increments, got.increments[0])


def test_sample_modified_small_kappa_is_plain():
    # kappa -> 0 collapses the kernel to the identity, so the modified
    # increments carry the plain variance dt.
    kernel = moments.build_kernel(20, 1e-3, 0.0)
    assert np.array_equal(kernel.matrix, np.eye(20))
    batch = paths.sample_modified(20, 1e-3, 1e-12, seed=2, n_paths=50_000)
    var = np.mean(np.abs(batch.increments) ** 2)
    assert abs(var / 1e-3 - 1) <= 0.01


def test_sample_modified_endpoint_moment():
    batch = paths.sample_modified(500, 2e-3, 1.0, seed=3, n_paths=100_000)
    end = paths.closed_form_hc(batch)
    n_est = np.mean(np.abs(end.nu) ** 2)
    m_est = np.mean(np.abs(end.mu) ** 2)
    assert abs(n_est - 0.5) <= 0.02 * 0.5  # kT=1 -> n = 1/2 within 2%
    se = np.std(np.abs(end.nu) ** 2 - np.abs(end.mu) ** 2) / np.sqrt(100_000)
    assert abs(n_est - m_est) <= 3 * se


def test_propagate_hc_zero_noise():
    path = paths.WienerPath(dt=1e-2, kappa=1.0, increments=np.zeros(50, complex))
    end = paths.propagate_sde(path)[-1]
    assert end.nu == 0 and end.mu == 0 and end.z == 0
    assert abs(end.r - 1.0) <= 1e-12


def test_propagate_trajectory_shapes():
    # N + 1 HC points from the identity, and their transform after it,
    # N Cartan points from t = dt; point k's time is r/(2 kappa).
    path = paths.sample_wiener(10, 1e-3, 2.0, seed=4)
    hc = paths.propagate_sde(path)
    assert isinstance(hc, group.HCCoords)
    for name in ("nu", "r", "z", "mu"):
        assert np.shape(getattr(hc, name)) == (11,)
    assert np.array_equal(hc.r / (2 * 2.0), 1e-3 * np.arange(11))
    cartan = group.hc_to_cartan(hc[1:])
    assert isinstance(cartan, group.CartanCoords)
    for name in ("beta", "phi", "r", "ell", "alpha"):
        assert np.shape(getattr(cartan, name)) == (10,)
    assert np.array_equal(cartan.r, hc.r[1:])
    with pytest.raises(TypeError, match="chart"):
        paths.propagate_sde(path, chart="cartan")
    with pytest.raises(ValueError, match="one path"):
        paths.propagate_sde(paths.sample_wiener(10, 1e-3, 2.0, 4, n_paths=2))


@pytest.mark.parametrize("N, dt, kappa", [
    (1, 1e-3, 1.0), (300, 1e-3, 1.5), (2000, 0.1, 1.0)])  # kappa T up to 200
def test_propagate_hc_equals_recursion_at_every_step(N, dt, kappa):
    path = paths.sample_wiener(N, dt, kappa, seed=N)
    got = paths.propagate_sde(path)
    x = group.HCCoords.identity()
    for k in range(N + 1):
        if k:
            x = group.increment_left_multiply(x, path.increments[k - 1],
                                              kappa, dt)
        for name in ("nu", "r", "z", "mu"):
            want = getattr(x, name)
            assert abs(getattr(got, name)[k] - want) <= 1e-12 * abs(want)


def _cartan_loop_oracle(path):
    """Reference: the independent step-by-step discretisation of the
    Cartan SDE, one increment at a time, each step recovering the HC
    pair from (beta, alpha) and advancing ell and phi by the discrete
    counterparts of the singular coth/csch kernels."""
    dw, kappa, dt = path.increments, path.kappa, path.dt
    y = group.hc_to_cartan(group.increment_left_multiply(
        group.HCCoords.identity(), dw[0], kappa, dt))
    beta, phi, r, ell, alpha = y.beta, y.phi, y.r, y.ell, y.alpha
    states = [[beta, phi, r, ell, alpha]]
    d = np.exp(-2 * kappa * dt)
    for k in range(1, len(dw)):
        r_next = r + 2 * kappa * dt
        root = np.sqrt(kappa) * dw[k]
        u, v = np.exp(-r), np.exp(-r_next)
        csch_r, csch_next = u / -np.expm1(-2 * r), v / -np.expm1(-2 * r_next)
        nu, mu = beta - u * alpha, alpha - u * beta
        beta, alpha = group.coset_pair(r_next, d * nu + root, mu + u * root)
        plus, minus = nu + mu, nu - mu
        plus_next, minus_next = plus - (1 - d) * nu, minus - (1 - d) * nu
        coth_disc = (u + v) ** 2 / (2 * (1 - v ** 2)) + 1
        b_noise = ((1 + u) * plus_next / (4 * (1 - v))
                   + (1 - u) * minus_next / (4 * (1 + v)) + nu / 2)
        drift = (np.abs(plus_next) ** 2 / (4 * (1 - v))
                 - np.abs(plus) ** 2 / (4 * (1 - u))
                 + np.abs(minus_next) ** 2 / (4 * (1 + v))
                 - np.abs(minus) ** 2 / (4 * (1 + u)))
        ell = ell - (coth_disc * kappa * np.abs(dw[k]) ** 2 + drift
                     + 2 * np.real(np.conj(b_noise) * root))
        phi = phi + (np.imag(nu * np.conj(root)) * (1 + d * u * csch_next)
                     - np.imag(mu * np.conj(root)) * csch_next
                     - np.imag(np.conj(nu) * mu) * (d * csch_next - csch_r))
        r = r_next
        states.append([beta, phi, r, ell, alpha])
    return np.array(states).T


@pytest.mark.parametrize("N, dt", [(1, 1e-3), (2, 1e-2), (1000, 1e-3),
                                   (4000, 0.1)])  # kappa T up to 400
def test_propagate_cartan_equals_step_loop(N, dt):
    path = paths.sample_wiener(N, dt, 1.0, seed=N)
    got = group.hc_to_cartan(paths.propagate_sde(path)[1:])
    want = _cartan_loop_oracle(path)
    for name, row in zip(("beta", "phi", "r", "ell", "alpha"), want):
        # Relative, but absolute below 1: phi is 0 after one step.
        err = np.max(np.abs(getattr(got, name) - row))
        assert err <= 1e-12 * max(np.max(np.abs(row)), 1.0), name


@pytest.mark.parametrize("N", [500, 4000])  # kappa T = 50 and 400
def test_cross_chart_endpoint_at_long_times(N):
    # The Cartan step works in decaying factors, so it stays finite and
    # on the transformed HC endpoint where e^r overflows.
    path = paths.sample_wiener(N, 0.1, 1.0, seed=3)
    ref = group.hc_to_cartan(paths.closed_form_hc(path))
    got = group.hc_to_cartan(paths.propagate_sde(path)[1:])[-1]
    assert np.all(np.isfinite(group._components(got)))
    assert np.max(np.abs(group._components(got) - group._components(ref))
                  ) <= 1e-12 * np.max(np.abs(group._components(ref)))


def test_endpoint_batch_keeps_its_r_on_indexing():
    ends = paths.closed_form_hc(paths.sample_wiener(50, 1e-3, 1.0, 8, 3))
    assert ends[1] == group.HCCoords(ends.nu[1], ends.r, ends.z[1], ends.mu[1])


def test_closed_form_single_increment():
    dw = np.array([0.03 - 0.02j])
    path = paths.WienerPath(dt=1e-3, kappa=2.0, increments=dw)
    end = paths.closed_form_hc(path)
    assert abs(end.nu - np.sqrt(2.0) * dw[0]) <= 1e-16
    assert abs(end.mu - np.sqrt(2.0) * dw[0]) <= 1e-16
    assert abs(end.z - 0.5 * 2.0 * abs(dw[0]) ** 2) <= 1e-18


@pytest.mark.parametrize("batch", [(), (3, 2)])
def test_closed_form_of_no_steps_is_identity(batch):
    path = paths.WienerPath(dt=1e-3, kappa=1.0,
                            increments=np.zeros(batch + (0,), complex))
    end = paths.closed_form_hc(path)
    for part in (end.nu, end.z, end.mu):
        assert part.shape == batch and not part.any()
    assert end.r == 0


def test_closed_form_equals_recursion():
    batch = paths.sample_wiener(300, 1e-3, 1.0, seed=6, n_paths=100)
    closed = paths.closed_form_hc(batch)
    for p in range(0, 100, 17):
        single = paths.WienerPath(dt=1e-3, kappa=1.0,
                                  increments=batch.increments[p])
        end = _recursion_endpoint(single)
        assert abs(end.nu - closed.nu[p]) <= 1e-10
        assert abs(end.mu - closed.mu[p]) <= 1e-10
        assert abs(end.z - closed.z[p]) <= 1e-10


def _recursion_endpoint(path):
    x = group.HCCoords.identity()
    for k in range(path.n_steps):
        x = group.increment_left_multiply(x, path.increments[..., k],
                                          path.kappa, path.dt)
    return x


@pytest.mark.parametrize("shape", [None, (3, 2)])
@pytest.mark.parametrize("N", [1, 31, 32, 33, 300])
def test_blocked_closed_form_matches_recursion(N, shape):
    # Block edges at 32 steps: no full block, one short of a block, one
    # exact block, one block plus a tail, and many blocks plus a tail.
    rng = np.random.default_rng(N)
    size = (N,) if shape is None else shape + (N,)
    dw = 0.03 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    path = paths.WienerPath(dt=1e-3, kappa=1.5, increments=dw)
    got = paths.closed_form_hc(path)
    want = _recursion_endpoint(path)
    for name in ("nu", "mu", "z"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.shape(a) == np.shape(b)
        assert np.max(np.abs(a - b)) <= 1e-13


def _deinterleaved_closed_form(path):
    """(nu, z, mu) of `closed_form_hc` with each 256-path block of the
    record first copied into real rows, real part then imaginary part
    per path."""
    dw = path.increments
    flat = dw.reshape(-1, dw.shape[-1])
    ends = []
    for start in range(0, len(flat), paths._PATH_BLOCK):
        block = flat[start:start + paths._PATH_BLOCK]
        rows = np.empty((2 * len(block), dw.shape[-1]))
        rows[0::2] = block.real
        rows[1::2] = block.imag
        ends.append(paths._row_sums(rows, 1.0, path.kappa, path.dt))
    return np.concatenate(ends, axis=1).reshape((3,) + dw.shape[:-1])


@pytest.mark.parametrize("view", ["contiguous", "strided"])
def test_closed_form_reduces_complex_blocks(view):
    # 600 paths, three blocks of 256 + 256 + 88, handed to `_row_sums`
    # as complex slices of the record: bitwise the sums of the
    # de-interleaved rows, with leading batch axes and with a view
    # whose batch and step axes are both strided.
    record = paths.sample_wiener(140, 1e-3, 1.0, 6, n_paths=1200).increments
    dw = (record[:600, :70].reshape(2, 300, 70) if view == "contiguous"
          else record.reshape(4, 300, 140)[::2, :, ::2])
    assert dw.shape == (2, 300, 70)
    path = paths.WienerPath(dt=1e-3, kappa=1.0, increments=dw)
    got = paths.closed_form_hc(path)
    want = _deinterleaved_closed_form(path)
    for a, b in zip((got.nu, got.z, got.mu), want):
        assert a.shape == (2, 300)
        assert np.array_equal(a, b)


def test_closed_forms_at_kappa_t_400():
    # kappa T = 400: the HC sums carry only decaying factors and stay
    # finite.
    batch = paths.sample_wiener(4000, 0.1, 1.0, 0, n_paths=2)
    got = paths.closed_form_hc(batch)
    want = _recursion_endpoint(batch)
    for name in ("nu", "mu", "z"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.all(np.isfinite(a))
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_closed_form_cartan_zero_path():
    path = paths.WienerPath(dt=1e-2, kappa=1.0, increments=np.zeros(30, complex))
    end = paths.closed_form_cartan(path)
    assert end.beta == 0 and end.alpha == 0
    assert end.ell == 0 and end.phi == 0
    assert abs(end.r - 0.6) <= 1e-12


SAMPLERS = {"plain": paths.sample_wiener, "modified": paths.sample_modified}


@pytest.mark.parametrize("N", [1, 33, 1000])
@pytest.mark.parametrize("n_paths", [1, 255, 256, 257, 2500])
@pytest.mark.parametrize("measure", ["plain"])  # its only measure
def test_sample_endpoints_matches_sampled_records(measure, n_paths, N):
    # Blocks of 256 paths: one short block, one short of a block, one
    # exact block, a block plus one path, and many blocks plus a tail.
    # One chunk is substream 0; the same rows and the same reduction
    # give the closed form of the sampled records bit for bit.
    got = paths.sample_endpoints(N, 1e-3, 1.0, 7, n_paths)
    want = paths.closed_form_hc(SAMPLERS[measure](N, 1e-3, 1.0, 7,
                                                  n_paths=n_paths))
    assert got.r == want.r
    for name in ("nu", "mu", "z"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape == (n_paths,)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("n_paths, chunk", [
    (700, 300),  # two whole chunks and a ragged one
    (600, 256),  # chunks of one block each, the last of 88 paths
    (5, 1),  # one path per chunk
    (300, 1000),  # one chunk, larger than the run
])
def test_sample_endpoints_chunk_j_is_substream_j(n_paths, chunk):
    # Chunk j's endpoints are those of the records that sample_wiener
    # draws on substream j, in chunk order and bit for bit.
    got = paths.sample_endpoints(40, 1e-3, 1.0, 7, n_paths, chunk=chunk)
    parts = [paths.closed_form_hc(paths.sample_wiener(
        40, 1e-3, 1.0, 7, n_paths=min(chunk, n_paths - start), stream=j))
        for j, start in enumerate(range(0, n_paths, chunk))]
    for name in ("nu", "mu", "z"):
        want = np.concatenate([getattr(part, name) for part in parts])
        assert np.array_equal(getattr(got, name), want)


@pytest.mark.parametrize("chunk", [0, -5])
def test_chunks_need_a_path_each(chunk):
    with pytest.raises(ValueError, match="per chunk"):
        paths._chunks(10, chunk)
    for run in (paths.sample_endpoints, lambda *args, **kw: (
            paths._phase_sums("plain", *args, **kw))):
        with pytest.raises(ValueError, match="per chunk"):
            run(10, 1e-3, 1.0, 0, 10, chunk=chunk)


#: Time steps of the record lengths just inside the modified kernel's
#: regime edge (N = 262 loses positive definiteness at kappa dt = 0.1,
#: 1068 at 0.05); every other length of the test below takes 1e-3.
_EDGE_DT = {261: 0.1, 1067: 0.05}


@pytest.mark.parametrize("chunk", [None, 200])
@pytest.mark.parametrize("N", [1, 31, 32, 33, 1000, 261, 1067])
@pytest.mark.parametrize("n_paths", [1, 255, 256, 257, 700])
@pytest.mark.parametrize("measure", ["plain", "modified"])
def test_phase_sums_match_sampled_records(measure, n_paths, N, chunk):
    # The projection onto (nu, mu) of all chunks in one call, as
    # `dists.feynman_kac_estimate` makes it, against the closed form of
    # the records the public sampler draws on substream j for chunk j.
    dt = _EDGE_DT.get(N, 1e-3)
    nu, mu = paths._phase_sums(measure, N, dt, 1.0, 7, n_paths, chunk=chunk)
    size = chunk or n_paths
    parts = [paths.closed_form_hc(SAMPLERS[measure](
        N, dt, 1.0, 7, n_paths=min(size, n_paths - start), stream=stream))
        for stream, start in enumerate(range(0, n_paths, size))]
    for got, name in ((nu, "nu"), (mu, "mu")):
        want = np.concatenate([getattr(part, name) for part in parts])
        assert got.shape == want.shape == (n_paths,)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_modified_phase_sums_never_correlate(monkeypatch):
    # Under the modified measure the white rows are projected onto the
    # kernel's whitened loads, so no record is correlated; the sums
    # are those of the correlated records all the same.
    want = paths.closed_form_hc(paths.sample_modified(300, 1e-2, 1.0, 3,
                                                      n_paths=600))

    def refuse(self, white):
        raise AssertionError("record correlated")

    monkeypatch.setattr(moments.Kernel, "correlate", refuse)
    nu, mu = paths._phase_sums("modified", 300, 1e-2, 1.0, 3, 600)
    for a, b in ((nu, want.nu), (mu, want.mu)):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
    with pytest.raises(AssertionError, match="correlated"):
        paths.sample_modified(300, 1e-2, 1.0, 3, n_paths=600)


def _one_draw_rows(seed, stream, n_paths, N):
    """The white rows of every block, each block drawn by one call of
    its generator `paths._rng(seed, stream, b)`."""
    sizes = [min(paths._PATH_BLOCK, n_paths - first)
             for first in range(0, n_paths, paths._PATH_BLOCK)]
    return np.concatenate([paths._rng(seed, stream, b).standard_normal(
        (2 * size, N)) for b, size in enumerate(sizes)])


def test_sample_wiener_panels_are_one_draw_per_block():
    # Ragged sizes: blocks of 256 + 256 + 88 paths, and N = 1001 steps.
    rows = _one_draw_rows(5, 2, 600, 1001)
    dw = paths.sample_wiener(1001, 1e-3, 1.0, 5, n_paths=600,
                             stream=2).increments
    scale = np.sqrt(1e-3 / 2)
    assert np.array_equal(dw.real, rows[0::2] * scale)
    assert np.array_equal(dw.imag, rows[1::2] * scale)


@pytest.mark.parametrize("measure", ["plain", "modified"])
def test_phase_sum_panels_are_one_draw_per_block(measure):
    # The projection of each block's one-call draw onto the loads of
    # `paths._phase_sums`, product by product over `_PANEL_ROWS` rows:
    # chunk 0 of two blocks on substream 0, chunk 1 of 88 paths on 1.
    N, dt = 1001, 1e-3
    rows = np.concatenate([_one_draw_rows(5, 0, 512, N),
                           _one_draw_rows(5, 1, 88, N)])
    if measure == "plain":
        decay = np.exp(-2 * dt) ** np.arange(N)
        loads = np.stack([decay[::-1], decay], axis=1)
    else:
        loads = moments.build_kernel(N, dt, 1.0)._whitened_loads()
    loads = np.sqrt(dt / 2) * loads
    sums = np.concatenate([rows[i:i + paths._PANEL_ROWS] @ loads
                           for i in range(0, len(rows), paths._PANEL_ROWS)])
    nu, mu = paths._phase_sums(measure, N, dt, 1.0, 5, 600, chunk=512)
    assert np.array_equal(nu, sums[0::2, 0] + 1j * sums[1::2, 0])
    assert np.array_equal(mu, sums[0::2, 1] + 1j * sums[1::2, 1])


def _traced_peak(run):
    """run() and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        out = run()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: Record length of the memory bounds below: a whole 256-path block of
#: white rows is 82 MB there, one panel of `_PANEL_ROWS` rows 10 MB.
_LONG_N = 20_000


@pytest.mark.parametrize("measure", ["plain", "modified"])
def test_phase_sums_hold_panels_not_blocks(measure):
    # Three blocks on two threads: two panel buffers, and O(N) loads.
    _, peak = _traced_peak(lambda: paths._phase_sums(
        measure, _LONG_N, 1e-4, 1.0, 3, 600))
    assert peak <= 3 * paths._PANEL_ROWS * _LONG_N * 8


def test_sample_wiener_holds_panels_not_blocks():
    # Two blocks on two threads; the record itself is excluded.
    path, peak = _traced_peak(lambda: paths.sample_wiener(
        _LONG_N, 1e-4, 1.0, 3, n_paths=258))
    assert peak - path.increments.nbytes <= 3 * paths._PANEL_ROWS * _LONG_N * 8


def test_phase_sums_reject_bad_arguments():
    for args in (("uniform", 10, 5), ("plain", 0, 5), ("plain", 10, 0)):
        measure, N, n_paths = args
        with pytest.raises(ValueError):
            paths._phase_sums(measure, N, 1e-3, 1.0, 0, n_paths)


_SAMPLERS = {
    "sample_wiener": lambda N, n, dt=1e-3, kappa=1.0: paths.sample_wiener(
        N, dt, kappa, 0, n),
    "sample_modified": lambda N, n, dt=1e-3, kappa=1.0: paths.sample_modified(
        N, dt, kappa, 0, n),
    "sample_endpoints": lambda N, n, dt=1e-3, kappa=1.0: (
        paths.sample_endpoints(N, dt, kappa, 0, n)),
    "_phase_sums": lambda N, n, dt=1e-3, kappa=1.0: paths._phase_sums(
        "plain", N, dt, kappa, 0, n),
}

#: Steps and rates that are not positive and finite, as (dt, kappa).
BAD_STEPS = [(-1e-3, 1.0), (np.nan, 1.0), (1e-3, -1.0), (1e-3, np.inf)]


@pytest.mark.parametrize("N, n_paths, message", [
    (10, 0, "need at least one path"), (10, -1, "need at least one path"),
    (0, 5, "need at least one increment")])
@pytest.mark.parametrize("sampler", sorted(_SAMPLERS))
def test_samplers_share_one_argument_check(sampler, N, n_paths, message):
    # All four samplers check through `_measure_kernel`: no empty batch
    # for zero paths and no numpy shape error for a negative count.
    with pytest.raises(ValueError, match=f"^{message}$"):
        _SAMPLERS[sampler](N, n_paths)


@pytest.mark.parametrize("dt, kappa", BAD_STEPS)
@pytest.mark.parametrize("sampler", sorted(_SAMPLERS))
def test_samplers_check_step_and_rate_before_drawing(monkeypatch, sampler,
                                                     dt, kappa):
    def refuse(*args, **kwargs):
        raise AssertionError("drew before checking")

    monkeypatch.setattr(paths, "_rng", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be positive and finite"):
            _SAMPLERS[sampler](10, 5, dt, kappa)


@pytest.mark.parametrize("dt, kappa", [
    (np.nan, 1.0), (1e-3, np.nan), (np.inf, 1.0), (1e-3, np.inf),
    (0.0, 1.0), (1e-3, -1.0)])
def test_wiener_path_rejects_bad_step_or_rate(dt, kappa):
    with pytest.raises(ValueError, match="must be positive"):
        paths.WienerPath(dt=dt, kappa=kappa, increments=np.zeros(3, complex))


class _RecordingPool(futures.ThreadPoolExecutor):
    """A one-thread pool that keeps every job it was handed."""

    def __init__(self):
        super().__init__(1)
        self.jobs = []

    def submit(self, *args, **kwargs):
        job = super().submit(*args, **kwargs)
        self.jobs.append(job)
        return job


# Per sampler: a call drawing 8 blocks of 256 paths and the private
# per-block step (`paths._each_block`) it runs on either thread.
_FAILING_RUNS = {
    "endpoints": ("_reduce_rows", lambda: paths.sample_endpoints(
        40, 1e-3, 1.0, 2, 2000)),
    "records": ("_store_rows", lambda: paths.sample_wiener(
        40, 1e-3, 1.0, 2, n_paths=2000)),
}


def _arrays(out):
    """The arrays of a sampler's result: increments, (nu, mu, z) or
    the (nu, mu) of `paths._phase_sums`, a Kraus product, or the
    figures of a channel report."""
    if isinstance(out, np.ndarray):
        return [out]
    if isinstance(out, povm.ChannelReport):
        return [out.trace_distance, out.trace_mean, out.trace_stderr,
                out.metadata["boundary_population"]]
    if isinstance(out, paths.WienerPath):
        return [out.increments]
    if isinstance(out, tuple):
        return list(out)
    return [out.nu, out.mu, out.z]


class _BlockingPool(futures.ThreadPoolExecutor):
    """A one-thread pool that finishes each job before handing it back,
    so its thread claims every block."""

    def __init__(self):
        super().__init__(1)

    def submit(self, *args, **kwargs):
        job = super().submit(*args, **kwargs)
        futures.wait([job])
        return job


def _fail_on_one_thread(monkeypatch, failing, sampler):
    """Run `sampler`'s 8 blocks with `failing` ("worker" or "caller")
    raising.

    Each thread holds one block when the failing one raises; the other
    must then claim no further block, and the error must be raised
    with no job in flight.  Afterwards the result is the same again.
    A block may reach the step in several panels, so the blocks are
    counted by the (stream, block) their generator is seeded from
    (`_recording_rng`).
    """
    hook, run = _FAILING_RUNS[sampler]
    want = run()
    step, caller = getattr(paths, hook), threading.current_thread()
    inside, stopped = threading.Event(), threading.Event()

    def role():
        return "caller" if threading.current_thread() is caller else "worker"

    class Claims(paths._Claims):
        def stop(self):
            super().stop()
            stopped.set()

    def step_or_fail(rows, start, *args):
        if role() == failing:
            inside.wait(10)
            raise RuntimeError(f"{failing} block")
        inside.set()
        stopped.wait(10)
        return step(rows, start, *args)

    pool = _RecordingPool()
    calls = _recording_rng(monkeypatch, role)
    monkeypatch.setattr(paths, "_worker", pool)
    monkeypatch.setattr(paths, "_Claims", Claims)
    monkeypatch.setattr(paths, hook, step_or_fail)
    with pytest.raises(RuntimeError, match=f"{failing} block"):
        run()
    assert stopped.is_set()
    assert sorted(role for role, _ in set(calls)) == ["caller", "worker"]
    assert len(pool.jobs) == 1 and pool.jobs[0].done()

    monkeypatch.setattr(paths, hook, step)
    for got, ref in zip(_arrays(run()), _arrays(want)):
        assert np.array_equal(got, ref)
    pool.shutdown()


def test_sample_endpoints_worker_error_propagates(monkeypatch):
    _fail_on_one_thread(monkeypatch, "worker", "endpoints")


def test_sample_endpoints_caller_error_stops_worker(monkeypatch):
    _fail_on_one_thread(monkeypatch, "caller", "endpoints")


def test_sample_wiener_worker_error_propagates(monkeypatch):
    _fail_on_one_thread(monkeypatch, "worker", "records")


def test_sample_wiener_caller_error_stops_worker(monkeypatch):
    _fail_on_one_thread(monkeypatch, "caller", "records")


class _EagerPool:
    """Runs each job at once, so the worker's part claims every block
    before the calling thread asks for one.  `taken` counts the blocks
    its job reached, from the entries appended to `calls`."""

    def __init__(self, calls):
        self.calls, self.taken = calls, None

    def submit(self, fn, *args):
        before = len(self.calls)
        job = futures.Future()
        job.set_result(fn(*args))
        self.taken = len(set(self.calls[before:]))
        return job


class _IdlePool:
    """Never runs its jobs, so the calling thread claims every block."""

    def submit(self, fn, *args):
        job = futures.Future()
        job.set_result(None)
        return job


def _recording_rng(monkeypatch, tag=lambda: None):
    """Wrap `paths._rng` to append (tag(), (stream, block)) to the list
    it returns for every block generator seeded: (stream, block) is a
    block's one identity, in any chunking."""
    rng, calls = paths._rng, []

    def seeded(seed, stream, block):
        calls.append((tag(), (stream, block)))
        return rng(seed, stream, block)

    monkeypatch.setattr(paths, "_rng", seeded)
    return calls


def _check_schedules(monkeypatch, run):
    # Bitwise the same result whether the two threads interleave, the
    # calling thread takes every block, or the worker does; each run
    # draws six blocks.
    with monkeypatch.context() as patch:
        calls = _recording_rng(patch)
        runs = [run()]
        patch.setattr(paths, "_worker", _IdlePool())
        runs.append(run())
        pool = _EagerPool(calls)
        patch.setattr(paths, "_worker", pool)
        runs.append(run())
    assert pool.taken == 6
    for got in runs[1:]:
        for a, b in zip(_arrays(got), _arrays(runs[0])):
            assert np.array_equal(a, b)


# Two chunkings of 1300 paths into six blocks: 1280 + 20, the last
# block on substream 1, and 1044 + 256, where chunk 1's one block
# starts inside the fifth block of 256 paths.
_SCHEDULE_CHUNKS = (1280, 1044)


@pytest.mark.parametrize("measure", ["plain"])  # its only measure
def test_sample_endpoints_do_not_depend_on_schedule(monkeypatch, measure):
    for chunk in _SCHEDULE_CHUNKS:
        _check_schedules(monkeypatch, lambda: paths.sample_endpoints(
            40, 1e-3, 1.0, 5, 1300, chunk=chunk))


@pytest.mark.parametrize("measure", ["plain", "modified"])
def test_phase_sums_do_not_depend_on_schedule(monkeypatch, measure):
    for chunk in _SCHEDULE_CHUNKS:
        _check_schedules(monkeypatch, lambda: paths._phase_sums(
            measure, 40, 1e-3, 1.0, 5, 1300, chunk=chunk))


@pytest.mark.parametrize("measure", ["plain", "modified"])
def test_sampled_records_do_not_depend_on_schedule(monkeypatch, measure):
    _check_schedules(monkeypatch, lambda: SAMPLERS[measure](
        40, 1e-3, 1.0, 5, n_paths=1300, stream=1))


class _RefusingPool:
    def submit(self, *args, **kwargs):
        raise AssertionError("worker thread used")


@pytest.mark.parametrize("n_paths", [None, 1, 256])
def test_single_block_uses_no_worker(monkeypatch, n_paths):
    # One block is drawn on the calling thread alone.
    runs = [lambda: paths.sample_wiener(40, 1e-3, 1.0, 5, n_paths=n_paths),
            lambda: paths.sample_modified(40, 1e-3, 1.0, 5, n_paths=n_paths),
            lambda: paths.sample_endpoints(40, 1e-3, 1.0, 5, n_paths or 1)]
    want = [run() for run in runs]
    monkeypatch.setattr(paths, "_worker", _RefusingPool())
    for run, ref in zip(runs, want):
        for a, b in zip(_arrays(run()), _arrays(ref)):
            assert np.array_equal(a, b)


def test_claims_hand_out_each_block_once():
    # Eight threads race for 20,000 claims with a short switch interval;
    # a lost update would hand out some index twice.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        claims = paths._Claims(20_000)
        taken = [[] for _ in range(8)]

        def take(mine):
            while (b := claims.claim()) is not None:
                mine.append(b)

        threads = [threading.Thread(target=take, args=(t,)) for t in taken]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(sum(taken, [])) == list(range(20_000))
    claims = paths._Claims(3)
    assert claims.claim() == 0
    claims.stop()
    assert claims.claim() is None


def test_sample_endpoints_calls_no_public_path_function(monkeypatch):
    # Endpoints are reduced from the blocks, never from a record: no
    # thread may call the public samplers or closed_form_hc, whether
    # the threads interleave, the calling thread takes every block, or
    # the worker does.
    want = paths.sample_endpoints(50, 1e-3, 1.0, 4, 600, chunk=500)

    def refuse(*args, **kwargs):
        raise AssertionError("public function called")

    for name in ("closed_form_hc", "sample_wiener", "sample_modified"):
        monkeypatch.setattr(paths, name, refuse)
    blocking = _BlockingPool()
    for pool in (paths._worker, _IdlePool(), blocking):
        monkeypatch.setattr(paths, "_worker", pool)
        got = paths.sample_endpoints(50, 1e-3, 1.0, 4, 600, chunk=500)
        for a, b in zip(_arrays(got), _arrays(want)):
            assert np.array_equal(a, b)
    blocking.shutdown()


def test_worker_thread_calls_no_public_function(monkeypatch):
    # The worker thread of every sampler, and of the closed form, may
    # call no traced (public) function of any layer, so the whole cost
    # stays inside the span of the caller on the calling thread.  The
    # pool's thread takes every block.
    runs = [lambda: paths.sample_endpoints(50, 1e-3, 1.0, 4, 600, chunk=500)]
    runs += [lambda f=f: f(50, 1e-3, 1.0, 4, n_paths=600)
             for f in SAMPLERS.values()]
    runs += [lambda m=m: paths._phase_sums(m, 50, 1e-3, 1.0, 4, 600,
                                           chunk=500)
             for m in SAMPLERS]
    record = paths.sample_wiener(500, 1e-3, 1.0, 4)
    runs.append(lambda: paths.kraus_time_ordered(record, 12))
    records = paths.sample_wiener(50, 1e-3, 1.0, 4, n_paths=600)
    runs.append(lambda: paths.closed_form_hc(records))
    rho = np.zeros((6, 6), dtype=complex)
    rho[0, 0] = 1.0
    runs.append(lambda: povm.channel_monte_carlo(rho, 0.05, 1300, 1e-3, 6,
                                                 4))
    want = [run() for run in runs]
    caller = threading.current_thread()

    def guarded(name, func):
        def call(*args, **kwargs):
            if threading.current_thread() is not caller:
                raise AssertionError(f"{name} called on the worker thread")
            return func(*args, **kwargs)
        return call

    for layer in (fock, group, moments, dists, paths, povm):
        for name in layer.__all__:
            func = getattr(layer, name)
            if inspect.isfunction(func):
                monkeypatch.setattr(layer, name, guarded(name, func))
    pool = _BlockingPool()
    monkeypatch.setattr(paths, "_worker", pool)
    for run, ref in zip(runs, want):
        for a, b in zip(_arrays(run()), _arrays(ref)):
            assert np.array_equal(a, b)
    pool.shutdown()


def test_ito_isometry_plain_measure():
    kT = 1.0
    batch = paths.sample_wiener(500, 2e-3, 1.0, seed=12, n_paths=50_000)
    end = paths.closed_form_hc(batch)
    nu2 = np.abs(end.nu) ** 2
    cross = np.real(np.conj(end.nu) * end.mu)
    t_nu2 = (1 - np.exp(-4 * kT)) / 4
    t_cross = kT * np.exp(-2 * kT)
    assert abs(nu2.mean() - t_nu2) <= 3 * nu2.std() / np.sqrt(nu2.size)
    assert abs(cross.mean() - t_cross) <= 3 * cross.std() / np.sqrt(cross.size)


def test_pfaffian_per_step_combinations():
    # Two per-step coordinate combinations that close at O(dt): the
    # Cartan pair differences and the HC center-vs-mu pairing, whose
    # residual is exactly the -k|dw|^2/2 center term.
    dt, kappa, N = 1e-3, 1.0, 1000
    path = paths.sample_wiener(N, dt, kappa, seed=42)
    x = paths.propagate_sde(path)
    y = group.hc_to_cartan(x[1:])
    pair = np.diff(y.beta) - np.cosh(y.r[:-1]) * np.diff(y.alpha)
    assert np.max(np.abs(pair)) <= dt
    combo = (np.diff(x.s)
             + 0.5 * np.exp(x.r[:-1]) * 2 * np.real(np.conj(x.nu[:-1])
                                                   * np.diff(x.mu)))
    assert np.max(np.abs(combo + 0.5 * kappa * np.abs(path.increments) ** 2)
                  ) <= dt ** 1.5


def _kraus_dense_oracle(path, dim):
    """Reference: the product of dense expm of each step's generator."""
    ops = fock.canonical_operators(dim)
    root = np.sqrt(path.kappa)
    drift = -2 * path.kappa * path.dt * ops.h_osc
    product = np.eye(dim, dtype=complex)
    for w in path.increments:
        generator = drift + ops.a * (root * np.conj(w)) + ops.a_dag * (root * w)
        product = fock.matrix_exponential(generator) @ product
    return product


@pytest.mark.parametrize("N", [1, 63, 64, 65, 500])
def test_kraus_matches_dense_oracle(N):
    path = paths.sample_wiener(N, 1e-3, 1.0, seed=40 + N)
    got = fock.interior_block(paths.kraus_time_ordered(path, 24))
    want = fock.interior_block(_kraus_dense_oracle(path, 24))
    assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)


@pytest.mark.parametrize("dt,dw", [(1e-3, 0.05 + 0.03j), (0.25, 0.7 - 0.2j),
                                   (1e-6, 1e-3j)])
def test_kraus_factor_matches_dense_generator(dt, dw):
    # One factor is exact under truncation: it equals the top block of
    # the dense exponential of the generator at a much larger dim.
    path = paths.WienerPath(dt=dt, kappa=1.0, increments=np.array([dw]))
    got = paths.kraus_time_ordered(path, 24)
    want = _kraus_dense_oracle(path, 80)[:24, :24]
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _check_kraus_against_loop(path, dim):
    # The composed coordinates are exact under truncation: the product
    # equals the top block of the factors' product at a much larger
    # dim, where the truncation has not reached the top block.
    got = paths.kraus_time_ordered(path, dim)
    want = verify._kraus_step_product(path, 80)[:dim, :dim]
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("N", [1, 63, 64, 65, 500, 2000])
def test_kraus_tree_matches_loop(N):
    _check_kraus_against_loop(paths.sample_wiener(N, 1e-3, 1.0, seed=60 + N),
                              20)


def test_kraus_matches_loop_at_tiny_step():
    # kappa dt = 1e-9: g and the centre coefficient near their limits.
    _check_kraus_against_loop(paths.sample_wiener(300, 1e-9, 1.0, seed=61),
                              16)


def test_kraus_empty_record_is_identity():
    path = paths.WienerPath(dt=1e-3, kappa=1.0,
                            increments=np.zeros(0, complex))
    assert np.array_equal(paths.kraus_time_ordered(path, 6), np.eye(6))


def test_channel_does_not_depend_on_schedule(monkeypatch):
    # The blocks of two chunks (1000 + 300 paths) are one schedule:
    # bitwise the same sums, traces and report whether the two threads
    # interleave, the calling thread takes every block, or the worker
    # does.
    rho = np.zeros((6, 6), dtype=complex)
    rho[:2, :2] = [[0.7, 0.2j], [-0.2j, 0.3]]
    factor = np.linalg.cholesky(rho[:2, :2] + 0j)
    factor = np.vstack([factor, np.zeros((4, 2))])

    def run():
        return (povm._channel_sums(factor, 40, 1e-3, 6, 8, 1300),
                povm.channel_monte_carlo(rho, 0.04, 1300, 1e-3, 6, 8))

    (want_sum, want_traces), want = run()
    blocking = _BlockingPool()
    for pool in (paths._worker, _IdlePool(), blocking):
        monkeypatch.setattr(paths, "_worker", pool)
        (total, traces), report = run()
        assert np.array_equal(total, want_sum)
        assert np.array_equal(traces, want_traces)
        for a, b in zip(_arrays(report), _arrays(want)):
            assert a == b
    blocking.shutdown()


def test_kraus_huge_increment_raises():
    # The overflow is reported as a domain error, with no warning.
    dw = np.zeros(100, complex)
    dw[70] = 1e200
    path = paths.WienerPath(dt=1e-3, kappa=1.0, increments=dw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(fock.NumericalDomainError):
            paths.kraus_time_ordered(path, 12)


@pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6, 2.5e-4, 2e-3, 0.1, 1.0])
def test_kraus_centre_coefficient(eps):
    # (eps - 1 + e^-eps)/eps^2 against 60-digit decimal arithmetic.
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x = decimal.Decimal(eps)
        want = (x - 1 + (-x).exp()) / (x * x)
        got = decimal.Decimal(paths._kraus_centre(eps))
        assert abs(got - want) <= decimal.Decimal(1e-15) * want


def test_kraus_zero_path_diagonal():
    path = paths.WienerPath(dt=1e-2, kappa=1.0, increments=np.zeros(25, complex))
    product = paths.kraus_time_ordered(path, 12)
    want = np.diag(np.exp(-(np.arange(12) + 0.5) * 0.5))
    assert np.linalg.norm(product - want) <= 1e-12


def test_kraus_convergence_under_refinement():
    dim = 16
    path = paths.sample_wiener(250, 2e-3, 1.0, seed=30)

    def err(p):
        product = paths.kraus_time_ordered(p, dim)
        ref = group.represent(paths.closed_form_hc(p), dim)
        diff = fock.interior_block(product - ref)
        return np.linalg.norm(diff) / np.linalg.norm(fock.interior_block(ref))

    coarse = err(path)
    fine = err(paths.refine_path(path, 4, seed=31))
    assert coarse <= 0.05
    assert coarse / fine >= 2.0


def test_refine_path_preserves_record():
    path = paths.sample_wiener(40, 1e-3, 1.0, seed=13)
    fine = paths.refine_path(path, 4, seed=14)
    assert fine.dt == path.dt / 4
    assert fine.n_steps == 4 * path.n_steps
    sums = fine.increments.reshape(40, 4).sum(axis=1)
    assert np.max(np.abs(sums - path.increments)) <= 1e-15
    batch = paths.sample_wiener(40, 1e-3, 1.0, seed=15, n_paths=3)
    fine = paths.refine_path(batch, 4, seed=16)
    sums = fine.increments.reshape(3, 40, 4).sum(axis=-1)
    assert np.max(np.abs(sums - batch.increments)) <= 1e-15


def test_refine_path_rejects_factor_one():
    path = paths.sample_wiener(10, 1e-3, 1.0, seed=1)
    with pytest.raises(ValueError):
        paths.refine_path(path, 1, seed=2)


@pytest.mark.parametrize("stream", [0, 1, 2])
def test_refine_path_draws_apart_from_the_record(stream):
    # The bridge noise Re(fine[2k] - fine[2k+1]) once equalled a stream-1
    # record's own Re(dw[4k] - dw[4k+2]) up to scale, for k < N/4.
    path = paths.sample_wiener(2000, 1e-3, 1.0, 7, stream=stream)
    fine = paths.refine_path(path, 2, 7).increments
    noise = (fine[0::2] - fine[1::2]).real[:500]
    own = (path.increments[0::4] - path.increments[2::4]).real
    assert abs(np.corrcoef(noise, own)[0, 1]) <= 0.2
