"""End-to-end verification suite.

Each check exercises one headline identity of the library at fixed
parameters and tolerances and reports pass/fail with a short detail
string.  The suite is deterministic: every Monte Carlo check derives
its randomness from a fixed seed.  `run_all` executes everything
(about a minute); the CLI `verify` subcommand and the acceptance
tests both drive this module.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import dists, fock, group, moments, paths, povm

__all__ = ["CheckResult", "CHECKS", "run_all", "format_report"]


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def _random_coset(rng, r):
    scale = 1.0
    beta = (rng.normal(scale=scale) + 1j * rng.normal(scale=scale))
    alpha = (rng.normal(scale=scale) + 1j * rng.normal(scale=scale))
    return dists.ReducedPoint(r=r, beta=beta, alpha=alpha)


def check_direct_moments():
    """Kernel quadratic forms reproduce (n, m, q) at kT=1, order-dt."""
    target = np.array([0.5, 0.5, 0.364665])
    errors = {}
    for dt in (1e-3, 5e-4):
        kernel = moments.build_kernel(int(round(1 / dt)), dt, 1.0)
        triple = np.array(moments.direct_moments(kernel))
        errors[dt] = np.max(np.abs(triple - target))
    ratio = errors[1e-3] / errors[5e-4]
    passed = errors[1e-3] <= 5e-3 and 1.5 <= ratio <= 2.6
    return passed, (f"max error {errors[1e-3]:.2e} at dt=1e-3 (tol 5e-3), "
                    f"halving ratio {ratio:.2f} (want ~2)")


def check_riccati():
    """RK4 matches the closed-form moment solutions over kT in [0, 5]."""
    times, n, m, q = moments.riccati_integrate(1.0, 5.0, 5000)
    ref = moments.analytic_moments(times)
    err = max(np.max(np.abs(n - ref.n)), np.max(np.abs(m - ref.m)),
              np.max(np.abs(q - ref.q)))
    return err <= 1e-8, f"max error {err:.2e} over kT in [0,5] (tol 1e-8)"


def check_determinant():
    """Schur-complement determinants vs dense and closed form at kT=1."""
    N, dt = 1000, 1e-3
    dets = moments.recursive_determinant(N, dt, 1.0)
    kernel = moments.build_kernel(N, dt, 1.0)
    sign, logdet = np.linalg.slogdet(kernel.matrix)
    dense = sign * np.exp(logdet)
    rel_dense = abs(dets[-1] - dense) / abs(dense)
    closed = float(moments.analytic_determinant(1.0))
    rel_closed = abs(dets[-1] - closed) / closed
    passed = rel_dense <= 1e-10 and rel_closed <= 5e-3
    return passed, (f"vs dense {rel_dense:.2e} (tol 1e-10), "
                    f"vs closed form {rel_closed:.2e} (tol 5e-3)")


def check_persymmetry():
    """n = m and anti-diagonal symmetry of the kernel inverse at N=2000."""
    kernel = moments.build_kernel(2000, 1e-3, 1.0)
    triple = moments.direct_moments(kernel)
    inv = np.linalg.inv(kernel.matrix)
    persym = np.max(np.abs(inv - inv[::-1, ::-1].T))
    passed = abs(triple.n - triple.m) <= 1e-12 and persym <= 1e-12
    return passed, (f"|n-m| = {abs(triple.n - triple.m):.2e}, "
                    f"persymmetry defect {persym:.2e} (tol 1e-12)")


def check_recursion_vs_sums():
    """Iterated one-step recursion equals the stochastic-integral sums."""
    n_paths, N, dt = 1000, 1000, 1e-3
    batch = paths.sample_wiener(N, dt, 1.0, seed=20230, n_paths=n_paths)
    dw = batch.increments
    x = group.HCCoords(nu=np.zeros(n_paths, complex), r=0.0,
                       z=np.zeros(n_paths, complex),
                       mu=np.zeros(n_paths, complex))
    for k in range(N):
        x = group.increment_left_multiply(x, dw[:, k], 1.0, dt)
    closed = paths.closed_form_hc(batch)
    err = max(np.max(np.abs(x.nu - closed.nu)),
              np.max(np.abs(x.mu - closed.mu)),
              np.max(np.abs(x.z - closed.z)))
    return err <= 1e-10, f"max per-path deviation {err:.2e} (tol 1e-10)"


def check_cross_chart():
    """Cartan-integrated SDE matches the transformed HC trajectory.

    It compares ell and phi alone, which the Cartan chart integrates
    by kernels of its own: its beta and alpha are the transform of the
    HC scan, equal by construction (`test_propagate_cartan_equals_step_loop`
    checks them at every step), and the transform's ell is s - f.
    """
    dt, N = 1e-3, 2000  # kT = 2
    tol = 10 * dt
    worst = 0.0
    for seed in (11, 12, 13):
        path = paths.sample_wiener(N, dt, 1.0, seed=seed)
        hc = paths.propagate_sde(path, chart="hc")
        ref = group.hc_to_cartan(group.HCCoords(
            nu=hc.nu[-1], r=hc.r[-1], z=hc.z[-1], mu=hc.mu[-1]))
        cartan = paths.propagate_sde(path, chart="cartan")
        worst = max(worst, abs(cartan.ell[-1] - ref.ell),
                    abs(cartan.phi[-1] - ref.phi))
    return worst <= tol, f"worst endpoint error {worst:.2e} (tol {tol:.0e})"


def check_plain_isometry():
    """Plain-measure MC second moments match the Ito-isometry values.

    The targets are exact for the discrete sums: with rho = e^{-2 kappa
    dt}, <|nu|^2> = kappa dt (1 - rho^2N)/(1 - rho^2) and
    <Re nu* mu> = kappa dt N rho^(N-1).
    """
    N, dt = 1000, 1e-3
    kw = dict(n_paths=100_000, N=N, dt=dt, kappa=1.0, seed=77, chunk=10000)
    nu2, numu = dists.feynman_kac_estimate(
        "plain", "none", ("nu_abs2", "numu_real"), **kw)
    rho = np.exp(-2 * dt)
    t_nu2 = dt * (1 - rho ** (2 * N)) / (1 - rho ** 2)
    t_numu = dt * N * rho ** (N - 1)
    d1, d2 = abs(nu2.mean - t_nu2), abs(numu.mean - t_numu)
    passed = d1 <= 3 * nu2.stderr and d2 <= 3 * numu.stderr
    return passed, (f"<|nu|^2> off by {d1:.1e} (3SE {3 * nu2.stderr:.1e}); "
                    f"<nu*mu> off by {d2:.1e} (3SE {3 * numu.stderr:.1e})")


def check_modified_measure():
    """Modified-measure increments carry covariance dt M^-1; n near 1/2.

    The covariance half draws correlated records (`paths.sample_modified`,
    through `moments.Kernel.correlate`).  The moment half's target is
    the discrete n of the same kernel, `moments.direct_moments`
    (0.501001 at kT = 1, dt = 1e-3), the Gram matrix of the kernel's
    whitened loads; its estimate projects white draws onto those same
    loads (`paths._phase_sums`), so it checks the projection and the
    draw, not the correlating factor.  That factor is covered by the
    covariance half, and against the projection by the tests'
    `test_phase_sums_match_sampled_records`.
    """
    # Increment covariance at N=200, dt=0.01.
    N, dt, n_paths = 200, 0.01, 100_000
    kernel = moments.build_kernel(N, dt, 1.0)
    expected = dt * np.linalg.inv(kernel.matrix)
    acc = np.zeros((N, N), dtype=complex)
    mean = np.zeros(N, dtype=complex)
    for stream, size in paths._chunks(n_paths, 20000):
        dw = paths.sample_modified(N, dt, 1.0, seed=88, n_paths=size,
                                   stream=stream).increments
        acc += dw.conj().T @ dw
        mean += dw.sum(axis=0)
    mean /= n_paths
    cov = acc / n_paths - np.outer(mean.conj(), mean)
    # Entrywise tolerance relative to the largest entry of dt M^-1; the
    # far off-diagonal entries are orders of magnitude below the Monte
    # Carlo floor, so a per-entry relative test would be vacuous there.
    cov_err = np.max(np.abs(cov - expected)) / np.max(np.abs(expected))

    # Endpoint moment at kT = 1.
    est = dists.feynman_kac_estimate("modified", "none", "nu_abs2",
                                     n_paths=100_000, N=1000, dt=1e-3,
                                     kappa=1.0, seed=89, chunk=10000)
    target = moments.direct_moments(moments.build_kernel(1000, 1e-3, 1.0)).n
    d = abs(est.mean - target)
    passed = cov_err <= 0.05 and d <= 3 * est.stderr
    return passed, (f"covariance error {cov_err:.3f} of max entry (tol 0.05); "
                    f"<|nu|^2> off by {d:.1e} (3SE {3 * est.stderr:.1e})")


def check_feynman_kac():
    """Weighted path average reproduces the total normalization.

    E[e^{-2s}] over the plain Wiener measure equals N(kT) in the
    continuum: the weight e^{-2s} is a Gaussian functional of the
    record whose expectation is a reciprocal determinant.  For the
    discrete record it is exactly 1/det W, W the tilt of
    `moments.tilted_pivots` (1.820268 at N = 50, dt = 1e-2, against
    N(0.5) = 1.812188), and that is the target.  (Jensen gives the
    sanity bound E[e^{-2s}] >= e^{-2 E[s]} = e^{kT} > 1, so the target
    sits above 1.)
    """
    est = dists.feynman_kac_estimate("plain", "exp_neg_2s", "one",
                                     n_paths=100_000, N=50, dt=1e-2,
                                     kappa=1.0, seed=99, chunk=50000)
    target = 1 / np.prod(moments.tilted_pivots(50, 1e-2, 1.0))
    d = abs(est.mean - target)
    passed = d <= 3 * est.stderr
    return passed, (f"E[e^(-2s)] off by {d:.1e} from 1/det W "
                    f"(3SE {3 * est.stderr:.1e}, ESS {est.ess:.0f})")


def check_gauge_relation():
    """C = e^{2f} B pointwise on random cosets at three times."""
    rng = np.random.default_rng(123)
    worst = 0.0
    for kT in (0.2, 1.0, 5.0):
        for _ in range(1000):
            point = _random_coset(rng, r=2 * kT)
            worst = max(worst, dists.gauge_relation_residual(point, kT))
    return worst <= 1e-12, f"worst relative residual {worst:.2e} (tol 1e-12)"


def check_sigma_width():
    """Sigma value, growth-rate ODE, and small-time cubic behavior."""
    v1 = abs(dists.sigma_width(1.0) - 0.2384058)
    ts = np.linspace(0.05, 3.0, 60)
    h = 1e-4
    fd = (dists.sigma_width(ts + h) - dists.sigma_width(ts - h)) / (2 * h)
    v2 = np.max(np.abs(fd - dists.sigma_width_rate(ts)))
    v3 = abs(dists.sigma_width(0.1) / (0.1 ** 3 / 3) - 1)
    passed = v1 <= 1e-6 and v2 <= 1e-6 and v3 <= 0.02
    return passed, (f"Sigma(1) off by {v1:.1e}; dSigma/dt off by {v2:.1e} "
                    f"(tol 1e-6); cubic law off by {v3:.1%} (tol 2%)")


def check_partition_function():
    """tr e^{-4kT Ho} 2 sinh 2kT = 1 at dim 60."""
    worst = 0.0
    for kT in (0.5, 1.0, 2.0):
        worst = max(worst, povm.partition_function_check(kT, 60)["residual"])
    return worst <= 1e-10, f"worst residual {worst:.2e} (tol 1e-10)"


def check_completeness():
    """Phase-space completeness integral hits the identity at dim 16.

    On the top block and on the whole block, which (entries being exact
    under truncation) is the top 16 x 16 block at dim 32.
    """
    dev, full = (povm.completeness_quadrature(1.0, dim, radial_nodes=40,
                                              angular_nodes=64)
                 for dim in (16, 32))
    return max(dev, full) <= 1e-3, (f"top-block deviation {dev:.2e}, "
                                    f"full-block {full:.2e} (tol 1e-3)")


def check_channel():
    """MC Kraus average matches the channel superoperator at dim 8.

    Kraus operators are exact endpoint representations; check 15 covers
    the per-step factor exp(generator), O(dt) off the group increment.
    """
    dim = 8
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    report = povm.channel_monte_carlo(rho, kT=0.3, n_paths=20_000, dt=1e-3,
                                      dim=dim, seed=314)
    trace_dev = abs(report.trace_mean - 1.0)
    passed = (report.trace_distance <= 0.02
              and trace_dev <= 3 * report.trace_stderr)
    return passed, (f"trace distance {report.trace_distance:.3f} (tol 0.02); "
                    f"trace off by {trace_dev:.1e} "
                    f"(3SE {3 * report.trace_stderr:.1e})")


def _kraus_error(path, dim):
    product = paths.kraus_time_ordered(path, dim)
    reference = group.represent(paths.closed_form_hc(path), dim)
    diff = fock.interior_block(product - reference)
    return np.linalg.norm(diff) / np.linalg.norm(fock.interior_block(reference))


def check_kraus_product():
    """Time-ordered product converges to the closed-form representation.

    The error must shrink by at least 2x under dt -> dt/4 (half-order
    convergence would give exactly 2x).  The rate is first order, ratio
    ~4: the product's coordinates are (g nu, r, g^2 z +
    (kappa_c - g^2/2) S, g mu) with (nu, r, z, mu) the closed form and
    S = kappa sum |dw|^2 (`paths.kraus_time_ordered`), and with
    eps = 2 kappa dt, g = 1 - eps/2 + O(eps^2) and
    kappa_c - g^2/2 = eps/3 + O(eps^2).  So every coordinate is off
    by a deterministic O(dt) multiple of its closed-form value, not by
    a fluctuating O(sqrt(dt)) term.
    """
    dim = 24
    path = paths.sample_wiener(500, 1e-3, 1.0, seed=555)
    coarse = _kraus_error(path, dim)
    fine = _kraus_error(paths.refine_path(path, 4, seed=556), dim)
    ratio = coarse / fine
    passed = coarse <= 0.05 and ratio >= 2.0
    return passed, (f"relative error {coarse:.2e} at dt=1e-3 (tol 0.05), "
                    f"dt -> dt/4 error ratio {ratio:.2f} "
                    "(want >= 2; ~4 = first order)")


def check_frame_derivatives():
    """All 14 frame directions match their analytic generators."""
    dim = 24
    rng = np.random.default_rng(246)
    worst = -np.inf
    for _ in range(10):
        r = rng.uniform(0.3, 1.5)
        x = group.HCCoords(
            nu=0.4 * (rng.normal() + 1j * rng.normal()), r=r,
            z=0.3 * (rng.normal() + 1j * rng.normal()),
            mu=0.4 * (rng.normal() + 1j * rng.normal()))
        y = group.CartanCoords(
            beta=0.4 * (rng.normal() + 1j * rng.normal()),
            phi=rng.normal(), r=rng.uniform(0.3, 1.5), ell=0.3 * rng.normal(),
            alpha=0.4 * (rng.normal() + 1j * rng.normal()))
        for point, directions in ((x, group.HC_DIRECTIONS),
                                  (y, group.CARTAN_DIRECTIONS)):
            scale = np.linalg.norm(
                fock.interior_block(group.represent(point, dim)))
            for direction in directions:
                res = group.frame_derivative_residual(point, dim, direction)
                worst = max(worst, res / scale)
    return worst <= 1e-6, f"worst residual {worst:.2e} of ||R|| (tol 1e-6)"


def check_haar_jacobian():
    """Chart-transform Jacobian ties the two Haar densities together."""
    rng = np.random.default_rng(369)
    worst = 0.0
    for _ in range(20):
        x = group.HCCoords(
            nu=0.5 * (rng.normal() + 1j * rng.normal()),
            r=rng.uniform(0.2, 5.0),
            z=0.5 * (rng.normal() + 1j * rng.normal()),
            mu=0.5 * (rng.normal() + 1j * rng.normal()))
        worst = max(worst, group.jacobian_consistency_residual(x))
    return worst <= 1e-6, f"worst residual {worst:.2e} (tol 1e-6)"


CHECKS = [
    (1, "direct moments (n, m, q) at kT=1, order-dt", check_direct_moments),
    (2, "Riccati RK4 vs closed-form moments", check_riccati),
    (3, "Schur determinant vs dense and closed form", check_determinant),
    (4, "kernel-inverse persymmetry and n=m", check_persymmetry),
    (5, "recursion vs stochastic-integral sums", check_recursion_vs_sums),
    (6, "cross-chart SDE integration", check_cross_chart),
    (7, "plain-measure Ito isometry (MC)", check_plain_isometry),
    (8, "modified-measure covariance and moment (MC)", check_modified_measure),
    (9, "Feynman-Kac normalization E[e^(-2s)] = N(kT) (MC)",
     check_feynman_kac),
    (10, "gauge relation C = e^(2f) B", check_gauge_relation),
    (11, "Sigma width value, rate, and cubic law", check_sigma_width),
    (12, "partition-function identity", check_partition_function),
    (13, "completeness quadrature", check_completeness),
    (14, "channel MC vs dense superoperator", check_channel),
    (15, "time-ordered Kraus product convergence", check_kraus_product),
    (16, "frame derivatives, both charts", check_frame_derivatives),
    (17, "Haar/Jacobian consistency", check_haar_jacobian),
]


def run_check(number):
    """Run a single numbered check and wrap its outcome."""
    for num, name, func in CHECKS:
        if num == number:
            start = time.perf_counter()
            passed, detail = func()
            return CheckResult(number=num, name=name, passed=bool(passed),
                               detail=detail,
                               elapsed=time.perf_counter() - start)
    raise ValueError(f"no check numbered {number}")


def run_all():
    """Run every check, in order; returns the list of results."""
    return [run_check(num) for num, _, _ in CHECKS]


def format_report(results):
    """One pass/fail line per check, plus a summary line."""
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"[{status}] {res.number:2d} {res.name}: {res.detail} "
                     f"({res.elapsed:.1f}s)")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} checks passed")
    return "\n".join(lines)
