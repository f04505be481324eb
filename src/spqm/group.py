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
    if not np.all(np.asarray(r) > R_MIN):
        raise ChartSingularityError(
            f"Cartan chart is singular at r = 0; need r > {R_MIN}")


class _Points:
    """Array-style indexing shared by `HCCoords` and `CartanCoords`.

    x[k], x[1:] or x[idx] index every array field and keep scalar ones,
    such as the shared r of a batch of endpoints.  The constructor
    runs, so a Cartan point checks its r; a single point has no index.
    """

    def __getitem__(self, index):
        fields = vars(self)
        if not any(np.ndim(value) for value in fields.values()):
            raise IndexError("a single point has no index")
        return type(self)(**{name: value[index] if np.ndim(value) else value
                             for name, value in fields.items()})


@dataclass(frozen=True)
class HCCoords(_Points):
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
class CartanCoords(_Points):
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


# Real coordinate directions: a step h along a direction adds h * unit
# to its field, so complex coordinates carry the x = (x1 + i x2)/sqrt(2)
# component convention.

_SQRT2 = np.sqrt(2)

_TABLES = {
    HCCoords: {
        "nu1": ("nu", 1 / _SQRT2), "nu2": ("nu", 1j / _SQRT2),
        "r": ("r", 1), "s": ("z", -1), "psi": ("z", 1j),
        "mu1": ("mu", 1 / _SQRT2), "mu2": ("mu", 1j / _SQRT2),
    },
    CartanCoords: {
        "beta1": ("beta", 1 / _SQRT2), "beta2": ("beta", 1j / _SQRT2),
        "phi": ("phi", 1), "r": ("r", 1), "ell": ("ell", 1),
        "alpha1": ("alpha", 1 / _SQRT2), "alpha2": ("alpha", 1j / _SQRT2),
    },
}

HC_DIRECTIONS = tuple(_TABLES[HCCoords])
CARTAN_DIRECTIONS = tuple(_TABLES[CartanCoords])

#: Central-difference step of the frame and Jacobian checks; it
#: balances truncation against roundoff for O(1) coordinates.
_STEP = 1e-5


def _moved(x, direction, h):
    """The point x moved by h along one real direction of its chart."""
    field, unit = _TABLES[type(x)][direction]
    return replace(x, **{field: getattr(x, field) + h * unit})


def _components(x):
    """The real 7-vector of x: each field over each of its units, real part."""
    return np.array([np.real(getattr(x, field) / unit)
                     for field, unit in _TABLES[type(x)].values()])


def frame_derivative_generator(x, direction, dim):
    """Analytic generator G with d/d(direction) R(x) = G R(x).

    The generators follow from differentiating the decomposition and
    conjugating the canonical operators through the outer factors.
    """
    ops = fock.canonical_operators(dim)
    eye = np.eye(dim, dtype=complex)
    if isinstance(x, HCCoords):
        er = np.exp(x.r)
        table = {
            "nu1": ops.a_dag / _SQRT2,
            "nu2": 1j * ops.a_dag / _SQRT2,
            "s": -eye,
            "psi": 1j * eye,
            "r": -(ops.h_osc - x.nu * ops.a_dag),
            "mu1": er * (ops.a - x.nu * eye) / _SQRT2,
            "mu2": -1j * er * (ops.a - x.nu * eye) / _SQRT2,
        }
        return table[direction]
    b1, b2, _, _, _, a1, a2 = _components(x)
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


def frame_derivative_residual(x, dim, direction):
    """Interior-block norm of (finite-difference minus analytic) derivative.

    Central differences of `represent` along one real coordinate, step
    `_STEP`, are compared with the analytic generator acting on R(x).
    """
    plus = represent(_moved(x, direction, _STEP), dim)
    minus = represent(_moved(x, direction, -_STEP), dim)
    finite = (plus - minus) / (2 * _STEP)
    analytic = frame_derivative_generator(x, direction, dim) @ represent(x, dim)
    return np.linalg.norm(fock.interior_block(finite - analytic))


def jacobian_consistency_residual(x):
    """Check the two Haar densities against the chart-transform Jacobian.

    Returns |det(J) * density_cartan / density_hc - 1| with J the
    numerical 7x7 Jacobian of hc_to_cartan in the real components
    (central differences, step `_STEP`).  The 1/4 phase-plane measure
    factors cancel between the charts, so the flat-coordinate densities
    compare directly.
    """
    jac = np.empty((7, 7))
    for j, direction in enumerate(HC_DIRECTIONS):
        yp = _components(hc_to_cartan(_moved(x, direction, _STEP)))
        ym = _components(hc_to_cartan(_moved(x, direction, -_STEP)))
        jac[:, j] = (yp - ym) / (2 * _STEP)
    ratio = (np.abs(np.linalg.det(jac))
             * haar_density(hc_to_cartan(x)) / haar_density(x))
    return abs(ratio - 1.0)
