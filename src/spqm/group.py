"""Coordinates on the instrumental Weyl-Heisenberg group.

The group element x carries two decompositions:

* Harish-Chandra (HC):  x = exp(a_dag nu) exp(-Ho r + z) exp(a conj(mu)),
  with center z = -s + i psi.  Regular everywhere, including r = 0.
* Cartan:  x = D_beta exp(i phi) exp(-Ho r - ell) D_alpha_dag.
  The transform between the charts is singular at r = 0, so Cartan
  operations refuse r <= R_MIN with ChartSingularityError.

The central element is represented by the identity, so the center only
rescales and rephases the Fock-space representation.

Complex phase-plane coordinates split into real components with the
convention nu = (nu1 + i nu2)/sqrt(2), and the phase-plane measure is
d2nu = (1/2) dnu1 dnu2 (likewise for mu, beta, alpha).
"""

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import fock

__all__ = [
    "ChartSingularityError",
    "HCCoords",
    "CartanCoords",
    "GaugePair",
    "R_MIN",
    "gauge_functions",
    "hc_to_cartan",
    "cartan_to_hc",
    "represent",
    "increment_left_multiply",
    "haar_density",
    "frame_derivative_residual",
    "jacobian_consistency_residual",
    "HC_DIRECTIONS",
    "CARTAN_DIRECTIONS",
]

#: Cartan-chart cutoff; the r = 0 singularity is structural, not numerical.
R_MIN = 1e-12


class ChartSingularityError(ValueError):
    """Cartan-chart operation attempted at (or across) the r = 0 singularity."""


def _require_regular(r):
    if np.any(np.asarray(r) <= R_MIN):
        raise ChartSingularityError(
            f"Cartan chart is singular at r = 0; need r > {R_MIN}")


@dataclass(frozen=True)
class HCCoords:
    """Harish-Chandra coordinates (nu, r, z, mu), z = -s + i psi.

    Fields may be scalars or broadcastable arrays (batched elements).
    """

    nu: complex
    r: float
    z: complex
    mu: complex

    @property
    def s(self):
        return -np.real(self.z)

    @property
    def psi(self):
        return np.imag(self.z)

    @classmethod
    def identity(cls):
        return cls(nu=0j, r=0.0, z=0j, mu=0j)


@dataclass(frozen=True)
class CartanCoords:
    """Cartan coordinates (beta, phi, r, ell, alpha), r > 0."""

    beta: complex
    phi: float
    r: float
    ell: float
    alpha: complex

    def __post_init__(self):
        _require_regular(self.r)

    @classmethod
    def _regular(cls, **fields):
        """Coordinates whose r the caller has already checked, unchecked."""
        y = object.__new__(cls)
        y.__dict__.update(fields)
        return y


class GaugePair(NamedTuple):
    f: float
    xi: float


def gauge_functions(coords):
    """Gauge functions (f, xi) of the reduced group element.

    f is the positive quadratic form relating the two center
    normalizations (ell = s - f) and xi the phase analogue
    (phi = psi - xi).  Accepts either chart; the two closed forms agree
    on the same group element.
    """
    r = coords.r
    _require_regular(r)
    if isinstance(coords, HCCoords):
        return _hc_gauge(coords)
    beta, alpha = coords.beta, coords.alpha
    f = (0.5 * (np.abs(beta) ** 2 + np.abs(alpha) ** 2)
         - np.exp(-r) * np.real(np.conj(beta) * alpha))
    xi = np.exp(-r) * np.imag(np.conj(beta) * alpha)
    return GaugePair(f, xi)


def _hc_gauge(x):
    """`gauge_functions` of HC coordinates whose r is already checked."""
    r = x.r
    u = x.nu + x.mu
    v = x.nu - x.mu
    f = (np.abs(u) ** 2 / (-4 * np.expm1(-r))
         + np.abs(v) ** 2 / (4 * (1 + np.exp(-r))))
    xi = np.imag(np.conj(x.nu) * x.mu) * np.exp(-r) / -np.expm1(-2 * r)
    return GaugePair(f, xi)


def coset_pair(r, nu, mu):
    """Cartan (beta, alpha) = ((nu, mu) + e^{-r} (mu, nu)) / (1 - e^{-2r}).

    Decaying factors only, so the pair stays finite at any r > 0.
    """
    decay, denom = np.exp(-r), -np.expm1(-2 * r)
    return (nu + decay * mu) / denom, (mu + decay * nu) / denom


def hc_to_cartan(x):
    """Transform Harish-Chandra to Cartan coordinates (requires r > 0).

    The chart is checked once, before any division.
    """
    _require_regular(x.r)
    beta, alpha = coset_pair(x.r, x.nu, x.mu)
    f, xi = _hc_gauge(x)
    return CartanCoords._regular(beta=beta, phi=x.psi - xi, r=x.r,
                                 ell=x.s - f, alpha=alpha)


def cartan_to_hc(y):
    """Transform Cartan to Harish-Chandra coordinates (requires r > 0)."""
    nu = y.beta - np.exp(-y.r) * y.alpha
    mu = y.alpha - np.exp(-y.r) * y.beta
    f, xi = gauge_functions(y)
    z = -(y.ell + f) + 1j * (y.phi + xi)
    return HCCoords(nu=nu, r=y.r, z=z, mu=mu)


def represent(x, dim):
    """Fock-space representation matrix of a group element.

    exp(a_dag nu) exp(-Ho r + z) exp(a conj(mu)), triangular x diagonal x
    triangular from the finite ladder series (Cartan input goes through
    `cartan_to_hc`): exact under truncation and batched over array
    coordinates.  Raises `fock.NumericalDomainError` where a coordinate
    is not finite or a factor or the product overflows.  The work is
    `_represent`; where it refuses, the ladders are rebuilt by
    `fock.ladder_exponential`, so that a non-finite or overflowing nu or
    mu is reported by the ladder's own error.
    """
    if isinstance(x, CartanCoords):
        x = cartan_to_hc(x)
    try:
        return _represent(x.nu, x.r, x.z, x.mu, dim)
    except fock.NumericalDomainError:
        fock.ladder_exponential(dim, x.nu)
        fock.ladder_exponential(dim, x.mu)
        raise


def _represent(nu, r, z, mu, dim):
    """`represent` of the HC coordinates (nu, r, z, mu), broadcast together.

    Both ladders, exp(a_dag nu) and the transpose of exp(a_dag conj(mu)),
    come from one stacked `fock._ladders`, and the diagonal factor
    exp(-Ho r + z) is multiplied into the left one in place.  One check
    covers nu, mu, the exponent (so r and z) and the product, which
    every overflow reaches; nu and mu are checked themselves because at
    dim 1 the ladders hold no power of them.  Calls no public function,
    so that `povm._channel_rows` can run it on the worker thread of
    `paths._run_blocks`.
    """
    shape = np.broadcast(nu, r, z, mu).shape
    ladders = fock._ladders(dim, shape, nu, np.conj(mu))
    left, right = ladders[..., 0, :, :], ladders[..., 1, :, :]
    levels = np.arange(dim) + 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = -levels * np.expand_dims(r, -1) + np.expand_dims(z, -1)
        left *= np.exp(exponent)[..., None, :]
        out = left @ np.swapaxes(right, -1, -2)
    if not (np.isfinite(nu).all() and np.isfinite(mu).all()
            and np.isfinite(exponent).all() and np.isfinite(out).all()):
        raise fock.NumericalDomainError(
            "represent: a coordinate is not finite, or it overflows")
    return out


def increment_left_multiply(x, dw, kappa, dt):
    """One exact measurement increment, acting from the left, in HC coordinates.

    The update keeps the literal |dw|^2 term in the center; it is not
    replaced by its mean dt.
    """
    if not (0 < dt < np.inf and 0 < kappa < np.inf):
        raise ValueError("kappa and dt must be positive")
    root = np.sqrt(kappa) * dw
    decay = np.exp(-2 * kappa * dt)
    return HCCoords(
        nu=decay * x.nu + root,
        r=x.r + 2 * kappa * dt,
        z=x.z + 0.5 * kappa * np.abs(dw) ** 2 + x.nu * np.conj(root),
        mu=x.mu + np.exp(-x.r) * root,
    )


def haar_density(coords):
    """Haar density w.r.t. the flat coordinate volume of the given chart.

    Cartan: sinh(r)^2 / pi^2 against dphi dell d2beta dr d2alpha.
    HC: exp(2r) / (2 pi)^2 against dpsi ds d2nu dr d2mu.
    Raises `fock.NumericalDomainError` where it overflows (r above ~355).
    """
    with np.errstate(over="ignore"):
        density = (np.sinh(coords.r) ** 2 / np.pi ** 2
                   if isinstance(coords, CartanCoords)
                   else np.exp(2 * coords.r) / (2 * np.pi) ** 2)
    if not np.all(np.isfinite(density)):
        raise fock.NumericalDomainError("Haar density overflows at this r")
    return density


# Real coordinate vectors.  Complex coordinates carry the
# x = (x1 + i x2)/sqrt(2) component convention.

HC_DIRECTIONS = ("nu1", "nu2", "r", "s", "psi", "mu1", "mu2")
CARTAN_DIRECTIONS = ("beta1", "beta2", "phi", "r", "ell", "alpha1", "alpha2")

_SQRT2 = np.sqrt(2)


def _split(c):
    return _SQRT2 * np.real(c), _SQRT2 * np.imag(c)


def _join(c1, c2):
    return (c1 + 1j * c2) / _SQRT2


def hc_vector(x):
    """Real 7-vector (nu1, nu2, r, s, psi, mu1, mu2)."""
    nu1, nu2 = _split(x.nu)
    mu1, mu2 = _split(x.mu)
    return np.array([nu1, nu2, x.r, x.s, x.psi, mu1, mu2])


def hc_from_vector(v):
    nu1, nu2, r, s, psi, mu1, mu2 = v
    return HCCoords(nu=_join(nu1, nu2), r=r, z=-s + 1j * psi,
                    mu=_join(mu1, mu2))


def cartan_vector(y):
    """Real 7-vector (beta1, beta2, phi, r, ell, alpha1, alpha2)."""
    b1, b2 = _split(y.beta)
    a1, a2 = _split(y.alpha)
    return np.array([b1, b2, y.phi, y.r, y.ell, a1, a2])


def cartan_from_vector(v):
    b1, b2, phi, r, ell, a1, a2 = v
    return CartanCoords(beta=_join(b1, b2), phi=phi, r=r, ell=ell,
                        alpha=_join(a1, a2))


def _perturbed(x, direction, h):
    if isinstance(x, HCCoords):
        names, to_vec, from_vec = HC_DIRECTIONS, hc_vector, hc_from_vector
    else:
        names, to_vec, from_vec = CARTAN_DIRECTIONS, cartan_vector, cartan_from_vector
    v = to_vec(x)
    v[names.index(direction)] += h
    return from_vec(v)


def frame_derivative_generator(x, direction, dim):
    """Analytic generator G with d/d(direction) R(x) = G R(x).

    The generators follow from differentiating the decomposition and
    conjugating the canonical operators through the outer factors.
    """
    ops = fock.canonical_operators(dim)
    eye = np.eye(dim, dtype=complex)
    if isinstance(x, HCCoords):
        nu1, nu2 = _split(x.nu)
        er = np.exp(x.r)
        table = {
            "nu1": ops.a_dag / _SQRT2,
            "nu2": 1j * ops.a_dag / _SQRT2,
            "s": -eye,
            "psi": 1j * eye,
            "r": -(ops.h_osc - x.nu * ops.a_dag),
            "mu1": er * (ops.a / _SQRT2 - 0.5 * (nu1 + 1j * nu2) * eye),
            "mu2": er * (-1j * ops.a / _SQRT2 + 0.5 * (-nu2 + 1j * nu1) * eye),
        }
        return table[direction]
    b1, b2 = _split(x.beta)
    a1, a2 = _split(x.alpha)
    ch, sh = np.cosh(x.r), np.sinh(x.r)
    table = {
        "phi": 1j * eye,
        "ell": -eye,
        "beta1": -1j * ops.p + 0.5j * b2 * eye,
        "beta2": 1j * ops.q - 0.5j * b1 * eye,
        "r": -(ops.h_osc - b1 * ops.q - b2 * ops.p
               + 0.5 * (b1 ** 2 + b2 ** 2) * eye),
        "alpha1": (1j * ch * ops.p + sh * ops.q
                   - (b1 * sh + 1j * (b2 * ch - 0.5 * a2)) * eye),
        "alpha2": (-1j * ch * ops.q + sh * ops.p
                   - (b2 * sh - 1j * (b1 * ch - 0.5 * a1)) * eye),
    }
    return table[direction]


def frame_derivative_residual(x, dim, direction, step=1e-5):
    """Interior-block norm of (finite-difference minus analytic) derivative.

    Central differences of `represent` along one real coordinate are
    compared with the analytic generator acting on R(x).  The step
    1e-5 balances truncation against roundoff for O(1) coordinates.
    """
    plus = represent(_perturbed(x, direction, step), dim)
    minus = represent(_perturbed(x, direction, -step), dim)
    finite = (plus - minus) / (2 * step)
    analytic = frame_derivative_generator(x, direction, dim) @ represent(x, dim)
    return np.linalg.norm(fock.interior_block(finite - analytic))


def jacobian_consistency_residual(x, step=1e-5):
    """Check the two Haar densities against the chart-transform Jacobian.

    Returns |det(J) * density_cartan / density_hc - 1| with J the
    numerical 7x7 Jacobian of hc_to_cartan in the real coordinate
    vectors.  The 1/4 phase-plane measure factors cancel between the
    charts, so the flat-coordinate densities compare directly.
    """
    _require_regular(x.r)
    jac = np.empty((7, 7))
    for j in range(7):
        vp = hc_vector(x)
        vm = vp.copy()
        vp[j] += step
        vm[j] -= step
        yp = cartan_vector(hc_to_cartan(hc_from_vector(vp)))
        ym = cartan_vector(hc_to_cartan(hc_from_vector(vm)))
        jac[:, j] = (yp - ym) / (2 * step)
    ratio = (np.abs(np.linalg.det(jac))
             * haar_density(hc_to_cartan(x)) / haar_density(x))
    return abs(ratio - 1.0)
