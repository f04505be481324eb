"""Truncated Fock-space operators and dense matrix kernels.

All operators are dense complex matrices on the truncated number basis
|0>, ..., |dim-1>.  The truncation dimension is always an explicit
argument.  Group elements go through the ladder exponential
exp(c a_dag), whose finite series is exact; comparisons with the dense
routes, which carry a truncation artifact in the bottom rows, use the
top-left "interior" block of size ``interior_dim(dim)``.  Those dense
routes are test oracles: the displacement operator, exponentiated by
the eigendecomposition of its Hermitian generator, and the general
matrix exponential, the one place that imports scipy (inside the
function, so that importing the package does not load it).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "NumericalDomainError",
    "CanonicalOperators",
    "canonical_operators",
    "displacement_operator",
    "matrix_exponential",
    "ladder_exponential",
    "interior_dim",
    "interior_block",
]


class NumericalDomainError(ValueError):
    """Raised when a matrix kernel receives non-finite input."""


def interior_dim(dim):
    """Size of the truncation-tolerant comparison block, ceil(dim/2)."""
    return -(-dim // 2)


def interior_block(mat, size=None):
    """Top-left block of a square matrix, default size ``interior_dim``.

    The bottom rows and columns of truncated operators carry the
    truncation artifact (e.g. the corner of [a, a_dag]), so tolerance
    comparisons are made on this block only.
    """
    if size is None:
        size = interior_dim(mat.shape[-1])
    return mat[..., :size, :size]


@dataclass(frozen=True)
class CanonicalOperators:
    """The canonical operator set on a truncated Fock space.

    Attributes
    ----------
    dim : int
        Truncation dimension.
    a, a_dag : ndarray
        Annihilation operator a|n> = sqrt(n)|n-1> and its adjoint.
    q, p : ndarray
        Quadratures Q = (a + a_dag)/sqrt(2), P = -i(a - a_dag)/sqrt(2).
    h_osc : ndarray
        Oscillator operator with diagonal n + 1/2 (a_dag a + I/2).
    """

    dim: int
    a: np.ndarray
    a_dag: np.ndarray
    q: np.ndarray
    p: np.ndarray
    h_osc: np.ndarray


def canonical_operators(dim):
    """Build a, a_dag, Q, P, and the oscillator operator at dimension `dim`.

    Parameters
    ----------
    dim : int
        Truncation dimension, at least 2.

    Returns
    -------
    CanonicalOperators
    """
    if dim < 2:
        raise ValueError(f"truncation dimension must be at least 2, got {dim}")
    n = np.arange(dim)
    a = np.diag(np.sqrt(n[1:]).astype(complex), k=1)
    a_dag = a.conj().T
    q = (a + a_dag) / np.sqrt(2)
    p = -1j * (a - a_dag) / np.sqrt(2)
    h_osc = np.diag((n + 0.5).astype(complex))
    return CanonicalOperators(dim=dim, a=a, a_dag=a_dag, q=q, p=p, h_osc=h_osc)


def displacement_operator(dim, alpha):
    """Dense D_alpha = exp(a_dag*alpha - a*conj(alpha)), a test oracle.

    `group.represent` gives group elements exactly.  This one is unitary
    at any truncation, but only acts like the untruncated displacement
    on states whose displaced support stays well inside the basis; keep
    |alpha|^2 small relative to dim.  `alpha` is one scalar.  The
    generator A is anti-Hermitian, so with i A = V diag(lam) V_dag,
    D_alpha = V diag(e^{-i lam}) V_dag.
    """
    if np.ndim(alpha):
        raise ValueError("displacement_operator takes one alpha at a time")
    if not np.isfinite(alpha):
        raise NumericalDomainError("displacement of non-finite alpha")
    ops = canonical_operators(dim)
    generator = ops.a_dag * alpha - ops.a * np.conj(alpha)
    lam, vecs = np.linalg.eigh(1j * generator)
    return (vecs * np.exp(-1j * lam)) @ vecs.conj().T


def matrix_exponential(x):
    """Dense matrix exponential.

    Scaling-and-squaring with a degree-13 Pade core and squaring count
    chosen from the 1-norm (scipy.linalg.expm).  A test oracle: scipy
    is imported here, on the first call, and by nothing else in the
    package.

    Raises
    ------
    NumericalDomainError
        If the input contains non-finite entries.
    """
    import scipy.linalg

    x = np.asarray(x)
    if not np.all(np.isfinite(x)):
        raise NumericalDomainError("matrix exponential of non-finite input")
    return scipy.linalg.expm(x)


@lru_cache(maxsize=64)
def _ladder_tables(dim):
    """Read-only power index max(m - n, 0) and coefficients (0 above)."""
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
    m, n = np.indices((dim, dim))
    k = np.maximum(m - n, 0)
    coeff = np.tril(np.exp(0.5 * (log_fact[m] - log_fact[n]) - log_fact[k]))
    k.flags.writeable = coeff.flags.writeable = False
    return k, coeff


def _ladders(dim, shape, *values):
    """Unchecked exp(c a_dag) of each c in `values`, broadcast to `shape`.

    Shape `shape` + (len(values), dim, dim): the powers of every c come
    from one `cumprod`, spread over the matrix by one `take` of the
    power index, and the coefficients are multiplied in place.  A
    non-finite c or an overflow leaves non-finite entries (for
    dim >= 2); the caller checks.  Calls no public function.
    """
    k, coeff = _ladder_tables(dim)
    powers = np.ones(shape + (len(values), dim), dtype=complex)
    for i, c in enumerate(values):
        powers[..., i, 1:] = np.asarray(c)[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumprod(powers, axis=-1, out=powers)
        out = powers.take(k, axis=-1)
        out *= coeff
    return out


def ladder_exponential(dim, c):
    """exp(c a_dag), batched over `c`: shape c.shape + (dim, dim).

    The series is finite and lower triangular, entry (m, n) being
    c^(m-n) sqrt(m!/n!) / (m-n)!, so truncation keeps every entry
    exact.  Raises NumericalDomainError on non-finite input or overflow.
    """
    c = np.asarray(c)
    if not np.all(np.isfinite(c)):
        raise NumericalDomainError("ladder exponential of non-finite input")
    out = _ladders(dim, c.shape, c)[..., 0, :, :]
    if not np.all(np.isfinite(out)):
        raise NumericalDomainError("ladder exponential overflowed")
    return out
