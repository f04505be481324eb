"""Reduced Kraus-operator distributions and Feynman-Kac estimators.

At time T the distribution over reduced group elements (cosets that
forget the central phase and normalization) is ballistic in the ruler,
r = 2 kappa T exactly, and Gaussian in the phase-plane coordinates.
Two closely related densities appear:

* C : the Cartan-natural form, a Gaussian in beta - alpha alone;
* B : the HC-natural unnormalized form, Gaussian in the sum and
  difference variables separately.

C and B differ by the positive gauge factor e^{2f}.  The delta factor
in the ruler is handled structurally: densities are evaluated on shell
(r = 2 kappa T) and the returned value excludes the delta.

Weighted path expectations tie these closed forms to Monte Carlo: the
plain Wiener measure with weight e^{-2s} reproduces the normalization
and moments of B.  C is flat along beta + alpha, so it has no finite
normalization (nor has e^{-2 ell} a finite mean under that measure).
"""

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fock, group, moments, paths

__all__ = [
    "OffShellError",
    "ReducedPoint",
    "DensityValue",
    "FKEstimate",
    "sigma_width",
    "sigma_width_rate",
    "normalization_factor",
    "density_cartan_reduced",
    "density_hc_reduced",
    "gauge_relation_residual",
    "feynman_kac_estimate",
    "OBSERVABLES",
]

#: On-shell tolerance for the structural delta(r - 2 kappa T).
_R_SHELL_TOL = 1e-9


class OffShellError(ValueError):
    """Reduced density evaluated away from the shell r = 2 kappa T."""


@dataclass(frozen=True)
class ReducedPoint:
    """A coset point: ruler r plus the phase-plane pair (beta, alpha).

    The central phase and normalization are forgotten.  The equivalent
    HC pair (nu, mu) is exposed as properties; `from_hc` builds a point
    from that chart.
    """

    r: float
    beta: complex
    alpha: complex

    def __post_init__(self):
        if not (self.r > 0):
            raise OffShellError("reduced Cartan evaluation needs r > 0")

    @classmethod
    def from_hc(cls, r, nu, mu):
        return cls(r, *group.coset_pair(r, nu, mu))

    @property
    def nu(self):
        return self.beta - np.exp(-self.r) * self.alpha

    @property
    def mu(self):
        return self.alpha - np.exp(-self.r) * self.beta


@dataclass(frozen=True)
class DensityValue:
    """A reduced density value prefactor * exp(exponent), delta factored out.
    """

    prefactor: float
    gaussian_exponent: float

    @property
    def value(self):
        return self.prefactor * np.exp(self.gaussian_exponent)


class FKEstimate(NamedTuple):
    """Weighted Monte Carlo estimate with its standard error.

    `ess` is the effective sample size sum(w)/max(w); a collapse to
    O(1) signals that a few heavy-tailed weights dominate and the
    standard error is unreliable.  `kish_ess` is the Kish effective
    sample size (sum w)^2 / sum w^2 = n / (1 + var(w) / mean(w)^2),
    which tracks the weights' relative variance; both are `n_paths`
    for equal weights.
    """

    mean: float
    stderr: float
    ess: float
    n_paths: int
    kish_ess: float


def sigma_width(kT):
    """Gaussian width Sigma = kT - tanh kT of the difference variable.

    Grows as (kT)^3/3 at early times and linearly at late times.
    """
    out = moments._kt_minus_tanh(kT)
    return out[()] if out.ndim == 0 else out


def sigma_width_rate(t, kappa=1.0):
    """Growth rate dSigma/dt = kappa tanh^2(kappa t)."""
    t = np.asarray(t, dtype=float)
    out = kappa * np.tanh(kappa * t) ** 2
    return float(out) if out.ndim == 0 else out


def normalization_factor(kT):
    """N(kT) = e^{2kT}/(1 + kT), the total weight integrating B.

    Raises `fock.NumericalDomainError` where it is not finite: past
    kT ~ 354.9, where e^{2kT} overflows, and at kT = -1 or NaN.
    """
    kT = np.asarray(kT, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = np.exp(2 * kT) / (1 + kT)
    if not np.all(np.isfinite(out)):
        raise fock.NumericalDomainError(
            "normalization factor e^(2kT)/(1 + kT) is not finite at this kT")
    return float(out) if out.ndim == 0 else out


def _check_on_shell(point, kT):
    if kT <= 0:
        raise OffShellError("need kT > 0")
    if abs(point.r - 2 * kT) > _R_SHELL_TOL * max(1.0, 2 * kT):
        raise OffShellError(
            f"point has r = {point.r}, off the shell r = 2kT = {2 * kT}")


def _prefactor(kT, sigma):
    """2/(sinh(2kT) Sigma) = 4 e^{-2kT}/((1 - e^{-4kT}) Sigma), finite."""
    return 4 * np.exp(-2 * kT) / (-np.expm1(-4 * kT) * sigma)


def density_cartan_reduced(point, kT):
    """On-shell Cartan-form reduced density C.

    C depends on the phase points only through their difference:
    prefactor 2/(sinh(2kT) Sigma), exponent -|beta - alpha|^2 / Sigma.
    """
    _check_on_shell(point, kT)
    sigma = sigma_width(kT)
    prefactor = _prefactor(kT, sigma)
    exponent = -np.abs(point.beta - point.alpha) ** 2 / sigma
    return DensityValue(prefactor=prefactor, gaussian_exponent=exponent)


def density_hc_reduced(point, kT, variables="hc"):
    """On-shell HC-form reduced density B.

    The exponent splits over the uncorrelated sum and difference
    variables.  Both variable forms are implemented and agree on the
    same coset:

        hc:     -|nu+mu|^2 e^{kT}/(4 sinh kT)
                -|nu-mu|^2 e^{kT}(1+kT)/(4 cosh kT Sigma)
        cartan: -|beta+alpha|^2 e^{-kT} sinh kT
                -|beta-alpha|^2 e^{-kT} cosh kT (1+kT)/Sigma

    Both forms are evaluated in decaying factors (e^{-kT} sinh kT =
    (1 - e^{-2kT})/2 and so on), so they are finite at any kT > 0.
    """
    _check_on_shell(point, kT)
    sigma = sigma_width(kT)
    prefactor = _prefactor(kT, sigma)
    odd, even = -np.expm1(-2 * kT), 1 + np.exp(-2 * kT)
    if variables == "hc":
        plus = np.abs(point.nu + point.mu) ** 2
        minus = np.abs(point.nu - point.mu) ** 2
        exponent = -(plus / (2 * odd) + minus * (1 + kT) / (2 * even * sigma))
    elif variables == "cartan":
        plus = np.abs(point.beta + point.alpha) ** 2
        minus = np.abs(point.beta - point.alpha) ** 2
        exponent = -(plus * odd / 2 + minus * even * (1 + kT) / (2 * sigma))
    else:
        raise ValueError(f"unknown variable form {variables!r}")
    return DensityValue(prefactor=prefactor, gaussian_exponent=exponent)


def gauge_relation_residual(point, kT):
    """Relative residual of the gauge relation C = e^{2f} B at one coset.

    Computed in log space (C and B share the same prefactor), so the
    result stays meaningful where both Gaussians underflow.  The three
    pieces are evaluated in extended precision: the B and C exponents
    each carry terms of size |beta - alpha|^2 / Sigma, which at small
    kT dwarf their (analytically exact) cancellation, so plain double
    rounding alone would leave a spurious residual of order
    eps |beta - alpha|^2 / Sigma.
    """
    kT = np.longdouble(kT)
    point = ReducedPoint(r=np.longdouble(point.r),
                         beta=np.clongdouble(point.beta),
                         alpha=np.clongdouble(point.alpha))
    c = density_cartan_reduced(point, kT)
    b = density_hc_reduced(point, kT, variables="cartan")
    f, _ = group.gauge_functions(group.CartanCoords(
        beta=point.beta, phi=0.0, r=point.r, ell=0.0, alpha=point.alpha))
    log_ratio = 2 * f + b.gaussian_exponent - c.gaussian_exponent
    return float(abs(np.expm1(log_ratio)))


def _obs_one(nu, mu):
    return np.ones(np.broadcast(nu, mu).shape)


OBSERVABLES = {
    "one": _obs_one,
    "nu_abs2": lambda nu, mu: np.abs(nu) ** 2,
    "mu_abs2": lambda nu, mu: np.abs(mu) ** 2,
    "numu_real": lambda nu, mu: np.real(np.conj(nu) * mu),
    "cross_pm_real": lambda nu, mu: np.real(np.conj(nu + mu) * (nu - mu)),
}


def _variance_finite(N, dt, kappa):
    """Whether the weight e^{-2s} has finite variance under the plain measure.

    Its square e^{-4s} tilts the plain measure by 2W - I, W the tilt of
    `moments.tilted_pivots`, so E[e^{-4s}] = 1/det(2W - I) while 2W - I
    is positive definite and is infinite past that.  2W - I loses that
    near kappa T = 0.7 - 0.8, far before W: from N = 7 at
    kappa dt = 0.1, 14 at 0.05, 783 at 1e-3.
    """
    try:
        moments._tilt_pivots(N, dt, kappa, 2,
                             "e^{-4s} tilt of the plain measure")
    except moments.RegimeError:
        return False
    return True


def feynman_kac_estimate(measure, weight, observable, n_paths, N, dt, kappa,
                         seed, chunk=20000):
    """Weighted path-expectation Monte Carlo with standard error.

    Parameters
    ----------
    measure : {"plain", "modified"}
        Sampling law for the increments.
    weight : {"none", "exp_neg_2s"}
        Per-path weight from the endpoint center coordinate.
    observable : str or callable, or a tuple of them
        Key into OBSERVABLES, or a callable f(nu, mu) -> real array
        evaluated at the endpoint.  A tuple estimates every observable
        in it from one draw of the records.
    n_paths, N, dt, kappa, seed
        Monte Carlo size and path parameters; all randomness derives
        from `seed`.  Chunk j of `chunk` paths is substream j, and its
        block b of `paths._PATH_BLOCK` paths has its own generator,
        seeded from (seed, j, b), so the result depends on the chunking
        as well as on the seed, but not on which thread drew which
        block.  All chunks are one schedule; with a weight they go through
        `paths.sample_endpoints`; with weight "none" only the linear
        sums (nu, mu) are needed, and each block of white records is
        projected onto their loads (`paths._phase_sums`) without
        forming the centre z; under the modified measure those are
        the kernel's whitened loads, so no record is correlated
        either.  Both draw the same white records, so the endpoints
        agree to rounding.  The records take O(`paths._PANEL_ROWS` N)
        memory with weight "none", which draws them in panels, and
        O(`paths._PATH_BLOCK` N) with a weight, which reduces whole
        blocks; the endpoints of all paths take 48 B per path with a
        weight and 32 B without, besides the 16 B per path of w and f.

    Returns
    -------
    FKEstimate, or a tuple of them for a tuple of observables
        Mean of w*f over paths, its standard error, and the effective
        sample sizes sum(w)/max(w) and (sum w)^2 / sum w^2.  With
        weight "none" this is the plain expectation of the observable;
        with a weight and observable "one" it estimates the weight's
        normalization.  Each estimate of a tuple equals, bitwise, the
        one that a call with that observable alone returns.

    Raises ValueError, before drawing anything, for an unknown measure,
    weight or observable name, and for a weight under the modified
    measure, where no tilt guard bounds its mean; `moments.RegimeError`,
    also before drawing, for weight "exp_neg_2s" where its tilt W is
    not positive definite (`moments.tilted_pivots`), so that
    E[e^{-2s}] is infinite and no sample mean means anything; and
    `fock.NumericalDomainError` when a path weight overflows.  Warns,
    also before drawing, where that weight's mean is finite but its
    variance is not (`_variance_finite`), so that the standard error
    means nothing; and after drawing when the effective sample size
    collapses below 100.
    """
    if measure not in ("plain", "modified"):
        raise ValueError(f"unknown measure {measure!r}")
    if weight not in ("none", "exp_neg_2s"):
        raise ValueError(f"unknown weight {weight!r}")
    if measure == "modified" and weight != "none":
        raise ValueError(f"weight {weight!r} is for the plain measure only")
    several = isinstance(observable, tuple)
    observables = observable if several else (observable,)
    if not observables:
        raise ValueError("need at least one observable")
    for obs in observables:
        if isinstance(obs, str) and obs not in OBSERVABLES:
            raise ValueError(f"unknown observable {obs!r}")
    funcs = [OBSERVABLES[obs] if isinstance(obs, str) else obs
             for obs in observables]
    if weight == "none":
        nu, mu = paths._phase_sums(measure, N, dt, kappa, seed, n_paths,
                                   chunk=chunk)
        w = np.ones(n_paths)
    else:
        moments.tilted_pivots(N, dt, kappa)
        if not _variance_finite(N, dt, kappa):
            warnings.warn(
                f"e^(-2s) has infinite variance at N = {N}, kappa*T = "
                f"{kappa * N * dt:.3g}; the standard error is meaningless",
                stacklevel=2)
        end = paths.sample_endpoints(N, dt, kappa, seed, n_paths, chunk=chunk)
        with np.errstate(over="ignore"):  # overflow raises below
            w = np.exp(-2 * end.s)
        nu, mu = end.nu, end.mu
        if not np.all(np.isfinite(w)):
            raise fock.NumericalDomainError(
                "path weights overflowed; reduce kappa*T")
    ess = w.sum() / w.max()
    kish_ess = w.sum() ** 2 / (w @ w)
    if ess < 100:
        warnings.warn(f"effective sample size collapsed to {ess:.1f}; "
                      "the weighted estimate is unreliable", stacklevel=2)
    estimates = []
    for func in funcs:
        wf = w * np.asarray(func(nu, mu), dtype=float)
        mean = wf.mean()
        stderr = wf.std(ddof=1) / np.sqrt(n_paths) if n_paths > 1 else np.inf
        estimates.append(FKEstimate(mean=mean, stderr=stderr, ess=ess,
                                    n_paths=n_paths, kish_ess=kish_ess))
    return tuple(estimates) if several else estimates[0]
