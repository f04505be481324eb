"""The benchmark's workloads: jobs that call spqm at fixed sizes.

Every job is a `Job`: `run()` calls the library on inputs made from the
workload seed and returns a dict of named outputs; `check(out)` compares
those outputs with closed forms computed here, independently of the
library.  `values` names the outputs that hold results (the ones a
perturbation test shifts); `path_steps` is n_paths x N of the records
the job draws, zero for jobs without records.

Sizes are fixed module constants so that a pass is the same work on
every commit; see README.md for why each workload exists.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from spqm import dists, fock, group, moments, paths, povm

KAPPA = 1.0
DT = 1e-3
#: Paths per sampler call inside Feynman-Kac estimates; bounds memory.
CHUNK = 2500

# endpoint_mc
FK_PATHS, FK_N = 8000, 1000
NORM_PATHS, NORM_N = 8000, 500
REC_PATHS, REC_N = 1000, 1000
# kernel_modified
MOMENT_SIZES = (1000, 2000, 4000)
DET_N = 1000
RICCATI_T, RICCATI_STEPS = 5.0, 5000
MOD_PATHS, MOD_N = 4000, 1000
# fock_dense
REP_ELEMENTS, REP_N, REP_DT, REP_DIM = 200, 200, 5e-3, 40
# kraus_mc
CHANNEL_PATHS, CHANNEL_KT, CHANNEL_DIM = 4000, 0.3, 8
KRAUS_N, KRAUS_DIM, KRAUS_REFINE = 500, 24, 4


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], dict]
    check: Callable[[dict], list]
    values: tuple
    path_steps: int = 0


def at_most(label, value, limit):
    return (f"{label} = {value:.3e} (<= {limit:.1e})",
            bool(value <= limit))


def at_least(label, value, limit):
    return (f"{label} = {value:.3e} (>= {limit:.1e})",
            bool(value >= limit))


def evaluate(job, out):
    """(passed, detail) of one job output.

    Fails on any non-finite output, then on any criterion of the job's
    check that does not hold.
    """
    for key, value in out.items():
        if not np.all(np.isfinite(value)):
            return False, f"non-finite output {key!r}"
    criteria = job.check(out)
    detail = "; ".join(text for text, _ in criteria)
    return all(ok for _, ok in criteria), detail


# ---------------------------------------------------------------- targets
# Closed forms, written out here so that a change to the library's own
# analytic helpers cannot move a target.

def discrete_nu_abs2(N, dt, kappa):
    """E|nu_N|^2 under the plain measure, exact for the discrete sums."""
    rho2 = np.exp(-4 * kappa * dt)
    return kappa * dt * (1 - rho2 ** N) / (1 - rho2)


def discrete_numu_real(N, dt, kappa):
    """E Re(conj(nu_N) mu_N) under the plain measure, exact."""
    return kappa * dt * N * np.exp(-2 * kappa * dt * (N - 1))


def continuum_moments(kT):
    """(n, m, q) = (kT/(1+kT), kT/(1+kT), 1/(1+kT) - e^{-2kT})."""
    kT = np.asarray(kT, dtype=float)
    n = kT / (1 + kT)
    return n, n, 1 / (1 + kT) - np.exp(-2 * kT)


def continuum_determinant(kT):
    return np.exp(-2 * kT) * (1 + kT)


def normalization(kT):
    """N(kT) = e^{2kT}/(1 + kT) = E[e^{-2s}]."""
    return np.exp(2 * kT) / (1 + kT)


def _relative_interior(a, b):
    """||a - b|| / ||b|| on the top-left ceil(dim/2) block(s)."""
    half = -(-a.shape[-1] // 2)
    a, b = a[..., :half, :half], b[..., :half, :half]
    return np.linalg.norm(a - b, axis=(-2, -1)) / np.linalg.norm(
        b, axis=(-2, -1))


# ------------------------------------------------------------------- jobs

def fk_job(name, measure, weight, observable, n_paths, N, seed, target):
    def run():
        est = dists.feynman_kac_estimate(measure, weight, observable,
                                         n_paths, N, DT, KAPPA, seed,
                                         chunk=CHUNK)
        return {"mean": est.mean, "stderr": est.stderr, "ess": est.ess}

    def check(out):
        return [at_most("|mean - target|/SE",
                        abs(out["mean"] - target) / out["stderr"], 5.0)]

    return Job(name, run, check, ("mean",), path_steps=n_paths * N)


def recursion_job(seed):
    def run():
        batch = paths.sample_wiener(REC_N, DT, KAPPA, seed, n_paths=REC_PATHS)
        dw = batch.increments
        zeros = np.zeros(REC_PATHS, dtype=complex)
        x = group.HCCoords(nu=zeros, r=0.0, z=zeros, mu=zeros)
        for k in range(REC_N):
            x = group.increment_left_multiply(x, dw[:, k], KAPPA, DT)
        closed = paths.closed_form_hc(batch)
        return {"nu": x.nu, "mu": x.mu, "z": x.z, "closed_nu": closed.nu,
                "closed_mu": closed.mu, "closed_z": closed.z}

    def check(out):
        dev = max(np.max(np.abs(out[k] - out["closed_" + k]))
                  for k in ("nu", "mu", "z"))
        return [at_most("max |recursion - closed_form_hc|", dev, 1e-10)]

    return Job("recursion_vs_closed_form", run, check,
               ("nu", "mu", "z", "closed_nu", "closed_mu", "closed_z"),
               path_steps=REC_PATHS * REC_N)


CARTAN_FIELDS = ("beta", "alpha", "phi", "ell")


def cartan_job(seed):
    def run():
        batch = paths.sample_wiener(REC_N, DT, KAPPA, seed, n_paths=REC_PATHS)
        direct = paths.closed_form_cartan(batch)
        via_hc = group.hc_to_cartan(paths.closed_form_hc(batch))
        out = {f: getattr(direct, f) for f in CARTAN_FIELDS}
        out.update({"hc_" + f: getattr(via_hc, f) for f in CARTAN_FIELDS})
        return out

    def check(out):
        dev = max(np.max(np.abs(out[f] - out["hc_" + f]))
                  for f in CARTAN_FIELDS)
        return [at_most("max |closed_form_cartan - hc_to_cartan|", dev,
                        1e-10)]

    return Job("closed_form_cartan", run, check,
               CARTAN_FIELDS + tuple("hc_" + f for f in CARTAN_FIELDS),
               path_steps=REC_PATHS * REC_N)


def moments_job(N):
    def run():
        n, m, q = moments.direct_moments(moments.build_kernel(N, 1 / N,
                                                              KAPPA))
        return {"n": n, "m": m, "q": q}

    def check(out):
        target = continuum_moments(1.0)
        dev = max(abs(out[k] - t) for k, t in zip("nmq", target))
        return [at_most("max |(n,m,q) - closed form|", dev, 5e-3)]

    return Job(f"direct_moments_N{N}", run, check, ("n", "m", "q"))


def determinant_job():
    def run():
        return {"det": moments.recursive_determinant(DET_N, DT, KAPPA)[-1]}

    def check(out):
        target = continuum_determinant(KAPPA * DET_N * DT)
        return [at_most("relative |det - closed form|",
                        abs(out["det"] - target) / target, 5e-3)]

    return Job(f"recursive_determinant_N{DET_N}", run, check, ("det",))


def riccati_job():
    def run():
        t, n, m, q = moments.riccati_integrate(KAPPA, RICCATI_T,
                                               RICCATI_STEPS)
        return {"t": t, "n": n, "m": m, "q": q}

    def check(out):
        target = continuum_moments(KAPPA * out["t"])
        dev = max(np.max(np.abs(out[k] - t)) for k, t in zip("nmq", target))
        return [at_most("max |Riccati RK4 - closed form|", dev, 1e-8)]

    return Job("riccati_integrate", run, check, ("n", "m", "q"))


def completeness_job(kT, dim):
    def run():
        return {"deviation": povm.completeness_quadrature(kT, dim)}

    def check(out):
        return [at_most("||completeness - I||", out["deviation"], 1e-3)]

    return Job(f"completeness_kT{kT}_dim{dim}", run, check, ("deviation",))


def represent_job(seed):
    def run():
        batch = paths.sample_wiener(REP_N, REP_DT, KAPPA, seed,
                                    n_paths=REP_ELEMENTS)
        ends = paths.closed_form_hc(batch)
        hc, cartan = [], []
        for i in range(REP_ELEMENTS):
            x = group.HCCoords(nu=ends.nu[i], r=ends.r, z=ends.z[i],
                               mu=ends.mu[i])
            hc.append(group.represent(x, REP_DIM))
            cartan.append(group.represent(group.hc_to_cartan(x), REP_DIM))
        return {"hc": np.array(hc), "cartan": np.array(cartan)}

    def check(out):
        dev = np.max(_relative_interior(out["cartan"], out["hc"]))
        return [at_most("max relative |R_cartan - R_hc| (interior)", dev,
                        1e-6)]

    return Job("represent_hc_vs_cartan", run, check, ("hc", "cartan"),
               path_steps=REP_ELEMENTS * REP_N)


def late_time_job():
    kT = 3.0

    def run():
        return {"residual": povm.late_time_coherent_residual(kT, 0, 0, 30)}

    def check(out):
        return [at_most("|residual - e^{-2kT}|",
                        abs(out["residual"] - np.exp(-2 * kT)), 1e-10)]

    return Job("late_time_coherent", run, check, ("residual",))


def channel_job(seed):
    def run():
        rho = np.zeros((CHANNEL_DIM, CHANNEL_DIM), dtype=complex)
        rho[0, 0] = 1.0
        report = povm.channel_monte_carlo(rho, CHANNEL_KT, CHANNEL_PATHS, DT,
                                          CHANNEL_DIM, seed)
        return {"trace_distance": report.trace_distance,
                "trace_mean": report.trace_mean,
                "trace_stderr": report.trace_stderr}

    def check(out):
        return [at_most("trace distance", out["trace_distance"], 0.05),
                at_most("|trace - 1|/SE",
                        abs(out["trace_mean"] - 1) / out["trace_stderr"],
                        5.0)]

    steps = int(round(CHANNEL_KT / DT))
    return Job("channel_monte_carlo", run, check,
               ("trace_distance", "trace_mean"),
               path_steps=CHANNEL_PATHS * steps)


def kraus_job(seed):
    def product_and_reference(path):
        product = paths.kraus_time_ordered(path, KRAUS_DIM)
        reference = group.represent(paths.closed_form_hc(path), KRAUS_DIM)
        return product, reference

    def run():
        path = paths.sample_wiener(KRAUS_N, DT, KAPPA, seed)
        fine = paths.refine_path(path, KRAUS_REFINE, seed + 1)
        coarse_product, coarse_ref = product_and_reference(path)
        fine_product, fine_ref = product_and_reference(fine)
        return {"coarse": coarse_product, "coarse_ref": coarse_ref,
                "fine": fine_product, "fine_ref": fine_ref}

    def check(out):
        coarse = _relative_interior(out["coarse"], out["coarse_ref"])
        fine = _relative_interior(out["fine"], out["fine_ref"])
        return [at_most("relative Kraus error at dt", coarse, 0.05),
                at_least("error ratio dt -> dt/4", coarse / fine, 2.0)]

    return Job("kraus_time_ordered_refined", run, check,
               ("coarse", "coarse_ref", "fine", "fine_ref"),
               path_steps=KRAUS_N * (1 + KRAUS_REFINE))


# -------------------------------------------------------------- workloads

def endpoint_mc(seed):
    base = 100 * seed
    return [
        fk_job("fk_plain_nu_abs2", "plain", "none", "nu_abs2", FK_PATHS,
               FK_N, base + 1, discrete_nu_abs2(FK_N, DT, KAPPA)),
        fk_job("fk_plain_numu_real", "plain", "none", "numu_real", FK_PATHS,
               FK_N, base + 2, discrete_numu_real(FK_N, DT, KAPPA)),
        fk_job("fk_plain_normalization", "plain", "exp_neg_2s", "one",
               NORM_PATHS, NORM_N, base + 3,
               normalization(KAPPA * NORM_N * DT)),
        recursion_job(base + 4),
        cartan_job(base + 5),
    ]


def kernel_modified(seed):
    base = 100 * seed
    return [moments_job(N) for N in MOMENT_SIZES] + [
        determinant_job(),
        riccati_job(),
        fk_job("fk_modified_nu_abs2", "modified", "none", "nu_abs2",
               MOD_PATHS, MOD_N, base + 1,
               continuum_moments(KAPPA * MOD_N * DT)[0]),
    ]


def fock_dense(seed):
    return [
        completeness_job(1.0, 16),
        completeness_job(0.5, 12),
        represent_job(100 * seed + 1),
        late_time_job(),
    ]


def kraus_mc(seed):
    base = 100 * seed
    return [channel_job(base + 1), kraus_job(base + 2)]


WORKLOADS = {
    "endpoint_mc": endpoint_mc,
    "kernel_modified": kernel_modified,
    "fock_dense": fock_dense,
    "kraus_mc": kraus_mc,
}


def warm_up():
    """One tiny call per layer, so that lazy imports and caches are ready."""
    fock.displacement_operator(4, 0.1)
    group.represent(group.HCCoords.identity(), 4)
    paths.closed_form_hc(paths.sample_wiener(8, DT, KAPPA, 0))
    moments.direct_moments(moments.build_kernel(8, DT, KAPPA))
    dists.feynman_kac_estimate("plain", "none", "one", 100, 8, DT, KAPPA, 0)
    povm.partition_function_check(1.0, 8)
