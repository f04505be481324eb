"""The modified-measure kernel, its determinant, and the second moments.

The modified Gaussian measure over a record of N increments has the
real symmetric Toeplitz kernel

    M_{kl} = delta_{kl} - kappa dt rho^{|k-l|},   rho = e^{-2 kappa dt},

that is M = I - kappa dt K with K the correlation matrix of a discrete
Ornstein-Uhlenbeck (AR(1)) record.  Its inverse fixes the increment
correlations <dw_k* dw_l> = dt (M^-1)_{kl}, its determinant the
path-weight normalization, and quadratic forms in M^-1 the three
nonzero second moments (n, m, q) of the endpoint phase points.

Nothing here forms M.  The AR(1) whitening filter D (unit lower
bidiagonal, -rho below the diagonal) takes K to diag(1, g, ..., g) with
g = 1 - rho^2, so

    B = D M D^T = tridiag(-rho; 1 - kappa dt, b, ..., b; -rho),
    b = 1 + rho^2 - kappa dt g,

is tridiagonal.  D is lower triangular, so every leading block M_k is
congruent to the leading block B_k: the LDL^T pivots s_k of B are the
Schur complements det M_k / det M_{k-1}, all of them are positive
exactly when M is positive definite, and with B = U^T U (U upper
bidiagonal, U_kk = sqrt(s_k)) the inverse factors as
M^-1 = F F^T with F = D^T U^-1.  Determinants, moments and the
modified-measure sampler of `paths` are thus O(N) in time and memory.
The moments are the Gram matrix of the two whitened loads
F^T [u+, u-] of nu and mu.  Because nu and mu are linear in the
record, the unweighted modified-measure estimate of `paths` projects
white records onto those same loads and never correlates a record;
only the record samplers apply F itself (`Kernel.correlate`).
The same whitening makes W = a I - b K, the form by which the weight
e^{-2s} tilts the plain measure, tridiagonal too (`tilted_pivots`).
The pivot recursion is the discrete form of the Riccati system that
the same moments solve in continuous time, which this module also
integrates and evaluates in closed form.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "RegimeError",
    "Kernel",
    "MomentTriple",
    "build_kernel",
    "direct_moments",
    "recursive_determinant",
    "tilted_pivots",
    "riccati_integrate",
    "analytic_moments",
    "analytic_sum_difference",
    "analytic_determinant",
]


#: Steps per block of the blocked factor that `Kernel.correlate` applies.
_BLOCK = 32

#: Series of (kT - tanh kT)/kT^3 in kT^2, which `_kt_minus_tanh` sums.
_SERIES = (1 / 3, -2 / 15, 17 / 315, -62 / 2835, 1382 / 155925,
           -21844 / 6081075, 929569 / 638512875)


class RegimeError(ValueError):
    """Kernel parameters outside the positive-definite working regime."""


class MomentTriple(NamedTuple):
    """Second moments n = <|nu|^2>, m = <|mu|^2>, q = Re<nu* mu>."""

    n: float
    m: float
    q: float


def _schur_pivots(N, kdt, load=None, form="kernel"):
    """Pivots s_k = det M_k / det M_{k-1} for k = 1..N.

    M = I - c K with c = `load`, kappa dt by default, and K the AR(1)
    correlation of decay rho = e^{-2 kappa dt}.  Iterates the deficit
    e_k = 1 - s_k, which for c = kappa dt is kappa dt (1 + rho^2 n_{k-1})
    with n_{k-1} the recent-load moment of the (k-1)-step record:

        e_1 = c,   e_k = c g + rho^2 e_{k-1} / (1 - e_{k-1}).

    This is the LDL^T recursion of B written about its O(1) part.  The
    plain form s_k = b - rho^2 / s_{k-1} rounds that part afresh at
    every step, and its map is nearly parabolic, so the rounding adds
    up to an N^2 eps error in the determinant; the deficit form keeps
    it to N eps.  Raises RegimeError, naming `form`, at the first
    non-positive pivot.
    """
    load = kdt if load is None else load
    rho2 = math.exp(-4 * kdt)
    gain = -load * math.expm1(-4 * kdt)
    deficits = []
    e = load
    for k in range(N):
        if e >= 1:
            raise RegimeError(
                f"{form} loses positive definiteness at N = {k + 1} "
                f"(kappa*dt = {kdt:.3g}, kappa*T = {kdt * (k + 1):.3g})")
        deficits.append(e)
        e = gain + rho2 * e / (1 - e)
    return 1 - np.array(deficits)


def _check_arguments(N, dt, kappa):
    """Raise ValueError for N < 0, dt <= 0, kappa < 0 or either not finite."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    if not (0 < dt < math.inf and 0 <= kappa < math.inf):
        raise ValueError("need finite dt > 0 and kappa >= 0")


@dataclass(frozen=True)
class Kernel:
    """The N x N modified-measure kernel, held by the pivots of D M D^T.

    Construction checks the regime: ValueError for N < 0, dt <= 0,
    kappa < 0 or either not finite, RegimeError for kappa dt >= 0.5
    and for any record length at which the kernel is not positive
    definite.
    `pivots[k]` is det M_{k+1} / det M_k.  `matrix` assembles the dense
    M on demand, as an O(N^2) reference for tests, checks and demos.
    """

    N: int
    dt: float
    kappa: float
    pivots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_arguments(self.N, self.dt, self.kappa)
        kdt = self.kappa * self.dt
        if kdt >= 0.5:
            raise RegimeError(
                f"kappa*dt = {kdt:.3g} outside working regime (< 0.5)")
        object.__setattr__(self, "pivots", _schur_pivots(self.N, kdt))

    @property
    def rho(self):
        """Per-step decay e^{-2 kappa dt} of the kernel's entries."""
        return np.exp(-2 * self.kappa * self.dt)

    @property
    def matrix(self):
        """Dense M_{kl} = delta_{kl} - kappa dt rho^{|k-l|}."""
        k = np.arange(self.N)
        kdt = self.kappa * self.dt
        return np.eye(self.N) - kdt * np.exp(
            -2 * kdt * np.abs(k[:, None] - k[None, :]))

    def _bidiagonal(self):
        """Diagonal and superdiagonal of U, where D M D^T = U^T U."""
        root = np.sqrt(self.pivots)
        return root, -self.rho / root[:-1]

    def _whitened_loads(self):
        """F^T [u+, u-] with F = D^T U^-1, as an (N, 2) array, N >= 1.

        u+_k = rho^{N-1-k} weights recent increments, u-_k = rho^k
        early ones: the loads of nu and mu in `paths.closed_form_hc`.
        F^T [u+, u-] = U^-T D [u+, u-] is one lower-bidiagonal forward
        substitution.  D u- = e_1 (u- is the first column of K) and
        D u+ = g u+ but for its first entry rho^{N-1}; both are written
        in closed form, since differencing the loads would cost digits.
        The step multiplier -U_{k-1,k} / U_kk = rho / (U_{k-1,k-1} U_kk)
        is positive, so the early column is its running product and the
        recent column a recurrence of positive terms, run over Python
        floats like `_schur_pivots`.  Columns are contiguous (Fortran
        order).  Since F F^T = M^-1, the Gram matrix of the columns is
        the quadratic forms of M^-1 in the loads (`direct_moments`), and
        a white row z projected on them gives the loads' sums of the
        correlated row F z.  Calls no public function.
        """
        N, kdt = self.N, self.kappa * self.dt
        out = np.empty((N, 2), order="F")
        root, off = self._bidiagonal()
        step = -off / root[1:]
        out[:, 1] = np.cumprod(np.concatenate(([1 / root[0]], step)))
        recent = -np.expm1(-4 * kdt) * np.exp(-2 * kdt * np.arange(N)[::-1])
        recent[0] = math.exp(-2 * kdt * (N - 1))
        recent /= root
        w = 0.0
        column = []
        for load, factor in zip(recent.tolist(), [0.0] + step.tolist()):
            w = load + factor * w
            column.append(w)
        out[:, 0] = column
        return out

    @cached_property
    def _blocks(self):
        """Read-only factors of `correlate`, one (start, head, edge) per block.

        With y = U^-1 z, the block [s, e) of U y = z reads
        U_b y_b = z_b - U_{e-1,e} y_e on its last row, and x = D^T y adds
        -rho y_e to x_{e-1}.  So x_b = A_b z_b + y_e edge_b with
        A_b = D_b^T U_b^-1, and y_s = u_b z_b + y_e g_b with u_b the
        first row of U_b^-1.  `head` stacks [u_b; A_b] (A_b alone for
        the first block, whose y_s nothing needs) and `edge` stacks
        [g_b; edge_b] likewise (None for the last block).  U_b^-1 is
        built for all blocks at once by back substitution, padding the
        tail block with unit rows.  `head` is kept in Fortran order:
        against the strided block of the record OpenBLAS (0.3.31,
        default threads) runs that product on the calling thread,
        while C order woke its thread pool, whose spinning helper
        thread then took the second core from `paths.sample_endpoints`.
        """
        N, rho = self.N, self.rho
        n_blocks = -(-N // _BLOCK)
        root, off = np.ones(n_blocks * _BLOCK), np.zeros(n_blocks * _BLOCK)
        root[:N], off[:N - 1] = self._bidiagonal()
        root = root.reshape(n_blocks, _BLOCK)
        off = off.reshape(n_blocks, _BLOCK)
        inv = np.zeros((n_blocks, _BLOCK, _BLOCK))
        for i in range(_BLOCK - 1, -1, -1):
            inv[:, i, i] = 1
            if i < _BLOCK - 1:
                inv[:, i, i + 1:] = -off[:, i, None] * inv[:, i + 1, i + 1:]
            inv[:, i, i:] /= root[:, i, None]
        blocks = []
        for b, start in enumerate(range(0, N, _BLOCK)):
            n = min(_BLOCK, N - start)
            head = np.empty((n + 1, n))
            head[0] = inv[b, 0, :n]
            head[1:] = inv[b, :n, :n]
            head[1:n] -= rho * inv[b, 1:n, :n]
            edge = None
            if start + n < N:
                couple = off[b, n - 1]
                edge = -couple * head[:, -1]
                edge[-1] -= rho
            if start == 0:
                head = head[1:]
                edge = None if edge is None else edge[1:]
            head = np.asfortranarray(head)
            for a in (head, edge):
                if a is not None:
                    a.flags.writeable = False
            blocks.append((start, head, edge))
        return tuple(blocks)

    def correlate(self, white):
        """Apply F = D^T U^-1 to each row of `white`, shape (P, N), in place.

        F F^T = M^-1, so white rows of unit covariance come out with
        covariance M^-1.  F is semiseparable: cut into blocks of
        `_BLOCK` steps, each block of x = F z is one GEMM of the block's
        precomputed factor with z's block (`_blocks`), plus a rank-one
        term in y_e = (U^-1 z)_e, the first entry of y in the next
        block.  The same GEMM gives y at the block's own start, so the
        blocks run last to first with that rank-one carry between them,
        and each block of x overwrites its block of z once nothing
        needs z there any more.  Temporaries are O(`_BLOCK` P): one
        block's product, its carry term and the carry.
        """
        product = np.empty((_BLOCK + 1, white.shape[0]))
        carry = None
        for start, head, edge in reversed(self._blocks):
            stop = start + head.shape[1]
            out = product[:head.shape[0]]
            np.matmul(head, white[:, start:stop].T, out=out)
            if carry is not None:
                out += np.multiply.outer(edge, carry)
            white[:, start:stop] = out[out.shape[0] - head.shape[1]:].T
            if start:
                carry = out[0].copy()


def build_kernel(N, dt, kappa):
    """The kernel M_{kl} = delta_{kl} - kappa dt e^{-2 kappa dt |k-l|}.

    Raises RegimeError for kappa dt >= 0.5 and wherever M is not
    positive definite: for kappa dt = 0.1 that happens from N = 262 on,
    for 0.05 from 1068, for 0.01 from 27107.  Warns above
    kappa dt = 0.1, where continuum-limit fidelity starts to degrade.
    """
    kernel = Kernel(N, dt, kappa)
    kdt = kappa * dt
    if kdt > 0.1:
        warnings.warn(f"kappa*dt = {kdt:.3g} > 0.1: coarse time step degrades "
                      "the continuum limit", stacklevel=2)
    return kernel


def direct_moments(kernel):
    """Second moments (n, m, q) as quadratic forms in the kernel inverse.

    n = kappa dt <u+|M^-1|u+> with the recent-weighted load
    u+_k = rho^{N-1-k}, m likewise with the early-weighted load
    u-_k = rho^k, q mixed.  With M^-1 = F F^T, F = D^T U^-1, these are
    kappa dt times the Gram matrix of the whitened loads
    F^T [u+, u-] (`Kernel._whitened_loads`, one O(N) forward
    substitution).  The unweighted modified-measure Feynman-Kac
    estimate (`paths._phase_sums`) projects white records onto the
    same loads, so its sample mean of |nu|^2 estimates this n.
    """
    if kernel.N == 0:
        return MomentTriple(0.0, 0.0, 0.0)
    kdt = kernel.kappa * kernel.dt
    recent, early = kernel._whitened_loads().T
    return MomentTriple(kdt * (recent @ recent), kdt * (early @ early),
                        kdt * (recent @ early))


def recursive_determinant(N, dt, kappa):
    """Determinants of all leading kernel blocks from the Schur pivots.

    det M_k is the product of the first k pivots of D M D^T (see
    `Kernel`), an O(N) scalar recursion.  Returns the N+1 values
    det M_0 (= 1) through det M_N; raises RegimeError if M_N is not
    positive definite.
    """
    pivots = Kernel(N, dt, kappa).pivots
    return np.concatenate([[1.0], np.cumprod(pivots)])


def tilted_pivots(N, dt, kappa):
    """Pivots of D W D^T, where the weight e^{-2s} tilts the plain measure.

    For a record dw = x + i y the exact recursion's weight is
    e^{-2s} = exp((x^T (I - W) x + y^T (I - W) y) / dt) with
    W = I - kappa dt H, H_kl = delta_kl + (1 - delta_kl) rho^{|k-l|-1},
    against the plain density exp(-(x^T x + y^T y) / dt).  So
    E_plain[e^{-2s}] = 1/det W while W is positive definite, and it is
    infinite past that.  W = a I - b K with K the AR(1) correlation,
    a = 1 - kappa dt + kappa dt / rho and b = kappa dt / rho, so
    W = a (I - (b/a) K) has the pivots a s_k of `_schur_pivots` with
    load b/a.  Returns the N pivots (det W is their product); raises
    RegimeError where W is not positive definite, which it loses far
    before M: from N = 26 at kappa dt = 0.1, 80 at 0.05, 1011 at 0.01.
    """
    return _tilt_pivots(N, dt, kappa, 1,
                        "e^{-2s} tilt of the plain measure")


def _tilt_pivots(N, dt, kappa, strength, form):
    """Pivots of D (I - strength kappa dt H) D^T, H as in `tilted_pivots`.

    Strength 1 is the tilt W of e^{-2s}; strength 2 is 2W - I, the
    tilt of its square e^{-4s}, so E_plain[e^{-4s}] = 1/det(2W - I)
    and e^{-2s} has finite variance exactly while 2W - I is positive
    definite.  I - c H = a I - b K with b = c / rho and a = 1 - c + b,
    c = strength kappa dt.  Raises ValueError for the arguments that
    `Kernel` refuses, and RegimeError, naming `form`, at the first
    non-positive pivot.
    """
    _check_arguments(N, dt, kappa)
    kdt = kappa * dt
    tilt = strength * kdt / math.exp(-2 * kdt)
    a = 1 - strength * kdt + tilt
    return a * _schur_pivots(N, kdt, load=tilt / a, form=form)


def riccati_integrate(kappa, T, steps):
    """Integrate the coupled moment Riccati system with classical RK4.

        dn/dt = kappa (1 - n)^2
        dm/dt = kappa (q + e^{-2 kappa t})^2
        dq/dt = kappa (-q (1 - n) + e^{-2 kappa t} (1 + n))

    from (0, 0, 0) at t = 0.  Returns (times, n, m, q) arrays of
    length steps + 1.  Use at least ~100 steps per unit kappa*T.
    The stages are written out over Python floats.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    h = T / steps
    half, sixth = h / 2, h / 6
    times = h * np.arange(steps + 1)
    n = m = q = 0.0
    rows = [(n, m, q)]
    for t in times[:-1].tolist():
        e = math.exp(-2 * kappa * t)
        n1 = kappa * (1 - n) ** 2
        m1 = kappa * (q + e) ** 2
        q1 = kappa * (-q * (1 - n) + e * (1 + n))
        a, c = n + half * n1, q + half * q1
        e = math.exp(-2 * kappa * (t + half))
        n2 = kappa * (1 - a) ** 2
        m2 = kappa * (c + e) ** 2
        q2 = kappa * (-c * (1 - a) + e * (1 + a))
        a, c = n + half * n2, q + half * q2
        n3 = kappa * (1 - a) ** 2
        m3 = kappa * (c + e) ** 2
        q3 = kappa * (-c * (1 - a) + e * (1 + a))
        a, c = n + h * n3, q + h * q3
        e = math.exp(-2 * kappa * (t + h))
        n4 = kappa * (1 - a) ** 2
        m4 = kappa * (c + e) ** 2
        q4 = kappa * (-c * (1 - a) + e * (1 + a))
        n = n + sixth * (n1 + 2 * n2 + 2 * n3 + n4)
        m = m + sixth * (m1 + 2 * m2 + 2 * m3 + m4)
        q = q + sixth * (q1 + 2 * q2 + 2 * q3 + q4)
        rows.append((n, m, q))
    out = np.array(rows)
    return times, out[:, 0], out[:, 1], out[:, 2]


def _kt_minus_tanh(kT):
    """kT - tanh kT as an array, by its series `_SERIES` below |kT| = 0.035.

    The difference there would lose log10(3 / kT^2) digits, all of them
    by kT ~ 1e-8; the series' first omitted term is below 1e-23 of its sum.
    Floating input keeps its precision, long double included.
    """
    kT = np.asarray(kT)
    if not np.issubdtype(kT.dtype, np.floating):
        kT = kT.astype(float)
    near = np.abs(kT) < 0.035
    small = np.where(near, kT, 0)  # no overflow in the unused branch
    series = small ** 3 * np.polynomial.polynomial.polyval(small ** 2, _SERIES)
    return np.where(near, series, kT - np.tanh(kT))


def analytic_moments(kT):
    """Closed-form moments n = m = kT/(1+kT), q = 1/(1+kT) - e^{-2kT}."""
    kT = np.asarray(kT, dtype=float)
    n = kT / (1 + kT)
    q = n - analytic_sum_difference(kT)[1]  # n - q >= 0, no cancellation
    if kT.ndim == 0:
        return MomentTriple(float(n), float(n), float(q))
    return MomentTriple(n, n.copy(), q)


def analytic_sum_difference(kT):
    """Closed forms of (n + q, n - q), the sum/difference-variable moments.

    n + q = 2 e^{-kT} sinh kT and
    n - q = 2 e^{-kT} cosh kT (kT - tanh kT)/(1 + kT), showing the
    slow cubic growth of the difference variable at early times.  In
    decaying factors, 2 e^{-kT} sinh kT = 1 - e^{-2kT} and so on.
    """
    kT = np.asarray(kT, dtype=float)
    plus = -np.expm1(-2 * kT)
    minus = (1 + np.exp(-2 * kT)) * _kt_minus_tanh(kT) / (1 + kT)
    return plus, minus


def analytic_determinant(kT):
    """Closed-form continuum kernel determinant e^{-2kT}(1 + kT)."""
    kT = np.asarray(kT, dtype=float)
    return np.exp(-2 * kT) * (1 + kT)
