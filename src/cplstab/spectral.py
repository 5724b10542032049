"""Spectra of update matrices M = A^{-1} B and the stability classification.

The scheme A T^{n+1} = B T^n is stable exactly when every eigenvalue of M
lies inside the closed unit disk; classification uses a tolerance band around
|lambda| = 1 so that marginal schemes (the interesting boundary cases) are
reported as such instead of flapping between verdicts.  Every assembled pair
(A, B) has a real spectrum whose ends come from O(n) definiteness tests of a
symmetric tridiagonal sigma A - B, or from LAPACK dstebz when A is diagonal,
and M is never formed.  Each test is an LDL^T factorization twisted at the
pair's interface row k (Layout.interface_row: the shared node of a
Dirichlet-Neumann pair, else the last row of the negative domain): by
Sylvester's law of inertia sigma A - B is definite exactly when the pivots
of rows 0..k-1 from the top, of rows n-1..k+1 from the bottom, and the
twisted pivot gamma_k are all positive (Fernando 1997; Dhillon & Parlett
2004).  pencil_ends is the one front end of that search, for a batch of
pairs of one size; eigen_spectrum(pair) calls it on one pair.  Each step of
the search (a top-end search at entry and before each of its rounds, the
B + top A check, the bottom-end search on its columns, the B0 check of
lagged pairs) picks its kernel by masked_kernel from the columns it has.
full_spectrum gives every eigenvalue from the same pencil.  The dense path,
plain eig of M with a residual check, is the oracle and serves the pairs
that fit no case of the pencil.
"""

import contextlib
import enum
import functools
import operator
import warnings
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .assembly import UpdatePair
from .errors import ParameterDomainError, SingularMatrixError, SolveResidualWarning, SpectrumError
from .params import _require_positive

MAX_DENSE_N = 2048


class StabilityClass(str, enum.Enum):
    STABLE = "stable"
    MARGINAL = "marginal"
    UNSTABLE = "unstable"


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted by decreasing modulus, with a backward-error bound."""

    eigenvalues: np.ndarray
    lambda_max: float
    residual_bound: float


def _minimum_pivot(a):
    """Lower bound on the elimination pivots of a tridiagonal factorization.

    Rows that dominate their off-diagonal entries bound the pivots by the
    dominance margin; otherwise the running elimination is evaluated.
    """
    margins = np.abs(a.diag)
    margins[1:] -= np.abs(a.sub)
    margins[:-1] -= np.abs(a.sup)
    if margins.min() > 0.0:
        return margins.min()
    pivot = a.diag[0]
    smallest = abs(pivot)
    for i in range(1, a.n):
        if pivot == 0.0:
            return 0.0
        pivot = a.diag[i] - (a.sub[i - 1] / pivot) * a.sup[i - 1]
        smallest = min(smallest, abs(pivot))
    return smallest


class _TridiagonalFactor:
    """LU factors of a nonsingular Tridiagonal (LAPACK dgttrf), reused by each solve.

    dgttrf then dgttrs runs the elimination of gtsv, which scipy's
    solve_banded calls, so the bits are the same.  The dgttrf wrapper needs
    n >= 3, so a smaller matrix is padded to n = 3 with decoupled identity
    rows and its right-hand sides with zeros.
    """

    def __init__(self, a):
        scale = np.abs(a.diag)  # column sums of |A|
        scale[1:] += np.abs(a.sup)
        scale[:-1] += np.abs(a.sub)
        if _minimum_pivot(a) < 1e-14 * scale.max():
            raise SingularMatrixError(
                "tridiagonal elimination pivot below 1e-14 of the matrix scale")
        self.n = a.n
        bands = a.sub, a.diag, a.sup
        if a.n < 3:
            bands = [np.pad(band, (0, 3 - a.n), constant_values=value)
                     for band, value in zip(bands, (0.0, 1.0, 0.0))]
        *self.lu, info = lapack.dgttrf(*bands)
        if info != 0:
            raise SingularMatrixError(f"tridiagonal factorization failed: dgttrf info {info}")

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim not in (1, 2) or rhs.shape[0] != self.n:
            raise ParameterDomainError("rhs length does not match the matrix")
        if not np.isfinite(rhs).all():
            raise ParameterDomainError("rhs has non-finite entries")
        if self.n < 3:
            rhs = np.concatenate([rhs, np.zeros((3 - self.n,) + rhs.shape[1:])])
        x, info = lapack.dgttrs(*self.lu, rhs)
        if info != 0:
            raise SingularMatrixError(f"tridiagonal solve failed: dgttrs info {info}")
        return x[:self.n]


# A Tridiagonal is frozen, hashes by identity and has read-only bands, so its
# factors stay valid for its lifetime; a failed factorization is not kept.
_FACTORS = weakref.WeakKeyDictionary()


def tridiagonal_solve(a, rhs):
    """Solve A x = rhs for A given as a Tridiagonal.

    rhs is a vector or a matrix of right-hand sides.  A is singular, and
    SingularMatrixError is raised, when a pivot of its elimination without
    row exchanges falls below 1e-14 of the largest absolute column sum of A.
    Otherwise A is factored once (LAPACK dgttrf), and every solve with the
    same A reuses its factors (dgttrs).
    """
    factor = _FACTORS.get(a)
    if factor is None:
        factor = _FACTORS[a] = _TridiagonalFactor(a)
    return factor.solve(rhs)


def update_matrix(pair):
    """Dense M = A^{-1} B from one tridiagonal solve with dense B as the right side.

    This is where a pair first becomes n x n, so n is bounded by MAX_DENSE_N.
    A solve with non-finite entries raises ParameterDomainError.  M is verified
    against ||A M - B|| <= 1e-12 ||B|| with one round of iterative refinement;
    a residual still above 1e-10, or not finite, raises a warning.
    """
    if pair.n > MAX_DENSE_N:
        raise ParameterDomainError(f"matrix size {pair.n} outside 1..{MAX_DENSE_N}")
    A, B = pair.A, pair.B.toarray()
    # entries near 1e308 overflow the solve's pivot scale and the products
    # below: a residual that is not finite fails its test
    with np.errstate(over="ignore", invalid="ignore"):
        M = tridiagonal_solve(A, B)
        if not np.isfinite(M).all():
            raise ParameterDomainError("update matrix has non-finite entries")
        norm_b = max(np.abs(B).sum(axis=1).max(), 1e-300)
        residual = np.abs(A @ M - B).sum(axis=1).max()
        if not residual <= 1e-12 * norm_b:
            M = M + tridiagonal_solve(A, B - A @ M)
            residual = np.abs(A @ M - B).sum(axis=1).max()
    if not residual <= 1e-10 * norm_b:
        warnings.warn(
            f"update matrix residual {residual:.3e} above 1e-10 of ||B|| after refinement",
            SolveResidualWarning,
        )
    return M


# --- eigenvalue computation ---


def _sorted_spectrum(eigenvalues, residual_bound):
    ev = np.asarray(eigenvalues, dtype=complex)
    order = np.lexsort((-ev.imag, -ev.real, -np.abs(ev)))
    ev = ev[order]
    return Spectrum(ev, float(np.abs(ev[0])), float(residual_bound))


# --- symmetric-definite tridiagonal pencil ---


def _symmetric_pencil(a_sub, a_diag, a_sup, b_sub, b_diag, b_sup):
    """Symmetric tridiagonal pencil with the eigenvalue counts of a pair.

    The bands of A and B are 1-d for one pair, or (length, cells) arrays for
    a batch of pairs of one size, one pair per column.  The elimination
    pivots of sigma A - B see its off-diagonals only through the products
    p_i(sigma) = (sigma A[i,i+1] - B[i,i+1]) (sigma A[i+1,i] - B[i+1,i]).
    Every index i must be one of three kinds:

    - proportional: (A[i,i+1], B[i,i+1]) is r_i >= 0 times (A[i+1,i],
      B[i+1,i]), and a positive diagonal similarity gives both matrices the
      off-diagonal sqrt(r_i) * (A[i+1,i], B[i+1,i]);
    - zero, where the first holds with r_i = 0 or its mirror: one side's
      entries are both 0, so p_i = 0, the pair is block triangular and its
      spectrum the union of the blocks' (one-sided bulk pairs);
    - lagged: A couples on one side only and B on the other, so p_i(sigma)
      = c_i sigma with c_i > 0 (bulk-sequential).  The pencil gets
      off-diagonal 0 in A and B there, and _ldl puts sqrt(c_i sigma) in
      sigma A - B.  Put mu = sqrt(sigma): the counts are those of
      Q(mu) = mu^2 A0 - mu C - B0, with A0 and B0 the pencil without its
      lagged entries and C holding sqrt(c_i).  If A0 and B0 are positive
      definite, Q is a hyperbolic quadratic eigenproblem (Duffin 1955; Guo,
      Higham & Tisseur 2009), its roots are real, and Q(0) = -B0 < 0
      separates the n positive ones from the n negative ones.  det Q is a
      polynomial in mu^2, so the pair's eigenvalues are the squares of the
      positive roots, and for sigma >= 0 the number of negative eigenvalues
      of Q(sqrt(sigma)) is the number of the pair's eigenvalues above
      sigma.  The caller proves B0 > 0 and searches sigma >= 0 only.

    A must also dominate its rows with a positive diagonal, so that its
    eigenvalues, and with them those of the symmetric A and of A0, are
    positive (Gershgorin).  Returns the pencil (A diag, A off, B diag,
    B off), the mask of lagged indices and their c_i (both None when no
    index is lagged), the row dominance margins of A, the off-diagonal row
    sums of |B|, and whether each pair qualifies.  Entries near overflow are
    judged by these tests, under the caller's np.errstate.
    """
    upper = np.abs(a_sup) + np.abs(b_sup)
    lower = np.abs(a_sub) + np.abs(b_sub)
    lagged = ~((a_sup * b_sub == b_sup * a_sub) & (a_sup * a_sub >= 0.0)
               & (b_sup * b_sub >= 0.0))
    margin = a_diag.copy()
    margin[1:] -= np.abs(a_sub)
    margin[:-1] -= np.abs(a_sup)
    # dominance lost to rounding: leave the pair to the dense path
    ok = margin.min(axis=0) > 1e-14 * np.abs(a_diag).max(axis=0)
    c = None
    if lagged.any():
        c = -(a_sup * b_sub + b_sup * a_sub)
        fits = ~lagged | ((a_sup * a_sub == 0.0) & (b_sup * b_sub == 0.0) & (c > 0.0))
        ok &= fits.all(axis=0)
    else:
        lagged = None
    radius = np.zeros_like(b_diag)
    radius[1:] += np.abs(b_sub)
    radius[:-1] += np.abs(b_sup)
    root = np.sqrt(np.divide(upper, lower, out=np.zeros_like(upper), where=lower > 0.0))
    a_off, b_off = root * a_sub, root * b_sub
    if lagged is not None:
        a_off[lagged] = b_off[lagged] = 0.0
    # a scaling root that overflows leaves a pencil with inf or NaN entries
    ok &= np.isfinite(a_off).all(axis=0) & np.isfinite(b_off).all(axis=0)
    return (a_diag, a_off, b_diag, b_off), lagged, c, margin, radius, ok


@functools.lru_cache(maxsize=64)
def _twist_order(n, twist):
    """The row order of a pencil twisted at row k = twist.

    A twisted pencil is a (2n, cells) stack of diagonal over off-diagonal.
    Its diagonal takes rows n-1 down to k+1, then rows 0 up to k; its
    off-diagonal couples them in that order, with 0 where the two runs meet,
    and ends with the coupling of row k to row k+1 (0 when k = n-1).
    Returns the order of the diagonal, in rows; the order of the stack, in
    the rows of [diagonal; off-diagonal; 0]; and the position q of row k+1 in
    the order, or 0 when k = n-1.  The arrays are cached and read-only.
    """
    down = np.arange(n - 1, twist, -1)  # rows k+1..n-1, factored from the bottom
    up = np.arange(twist + 1)
    rows = np.concatenate((down, up))
    # the off-diagonal, 2n - 1 the 0
    stack = np.concatenate((rows, n + down[1:], np.full(min(down.size, 1), 2 * n - 1), n + up))
    for index in (rows, stack):
        index.setflags(write=False)
    return rows, stack, max(down.size - 1, 0)


def _twisted_pencil(pencil, lagged, c, margin, radius, twist, k):
    """Columns k of a pencil twisted at row twist, and its margin and radius in its order.

    The arguments are _symmetric_pencil's, and one gather builds all of it.
    Returns ((a, b, lagged, c, q), margin, radius), lagged and c None when
    no column is lagged; see _twist_order and _ldl.
    """
    a_diag, a_off, b_diag, b_off = pencil
    n, cells = a_diag.shape
    rows, order, q = _twist_order(n, twist)
    zero = np.zeros((1, cells))
    stack = np.concatenate((a_diag, a_off, zero, b_diag, b_off, zero, margin, radius))
    twisted = stack[np.concatenate((order, 2 * n + order, 4 * n + rows, 5 * n + rows))][:, k]
    lags = None, None
    if lagged is not None and lagged[:, k].any():
        off = order[n:] - n  # n - 1 the 0
        lags = (np.concatenate((v, np.zeros_like(v[:1])))[off][:, k] for v in (lagged, c))
    pencil = twisted[:2 * n], twisted[2 * n:4 * n], *lags, q
    return pencil, twisted[4 * n:5 * n], twisted[5 * n:]


def _ldl(sigma, pencil):
    """Twisted LDL^T test of sigma A - B at row k: (gamma_k, info).

    pencil is one column (a, b, lagged, c, q) of a pencil twisted at row k,
    see _twist_order and _columns.  The two runs are decoupled, so one
    dpttrf call factors rows n-1..k+1 from the bottom and rows 0..k from the
    top; its last pivot is p_k = d_k - (e_k-1 / p_k-1) e_k-1.  Then gamma_k =
    p_k - (e_k / q_k+1) e_k, q_k+1 the pivot of row k+1.  A twisted
    factorization is a congruence, so by Sylvester's law sigma A - B is
    positive definite exactly when its n - 1 other pivots and gamma_k are
    positive (Fernando 1997).  info is 0 then; n when only gamma_k fails,
    or p_k, which bounds gamma_k from above; and otherwise dpttrf's first
    failed pivot (from 1), with gamma_k None.  At k = n - 1 the test is plain
    dpttrf on sigma A - B, and gamma_k its last pivot bit for bit.  Lagged
    indices (see _symmetric_pencil) take the off-diagonal sqrt(c sigma),
    which needs sigma >= 0.  The pencil has n >= 2 rows.
    """
    a, b, lagged, c, q = pencil
    n = a.shape[0] // 2
    x = sigma * a - b
    if lagged is not None:
        x[n:][lagged] = np.sqrt(c[lagged] * sigma)
    e = x.item(-1)
    pivots, _, info = lapack.dpttrf(x[:n], x[n:-1], overwrite_d=1, overwrite_e=1)
    if 0 < info < n:
        return None, info
    # Python floats, IEEE doubles as numpy's; pivot q < n - 1 is positive or NaN
    gamma = pivots.item(-1) - (e / pivots.item(q)) * e
    return gamma, n if info or gamma <= 0.0 else 0


def _top_end(pencil, lo, margin, radius):
    """Bracket lo < top <= hi a few ulps wide, where top = inf{sigma : sigma A - B > 0}.

    pencil is one column of a twisted pencil, with margin and radius in its
    row order.  sigma A - B is not definite at lo, which the caller proves
    (or -inf).  lo is raised to the largest Rayleigh quotient B_ii / A_ii
    less 2^-26 of it, where a diagonal entry of sigma A - B is negative.  hi
    starts at twice the Gershgorin bound: sigma A - B is similar to the
    pair's sigma A - B, whose rows dominate once sigma margin_i > B_ii +
    radius_i; the test at hi proves it if hi is finite, or hi is returned
    NaN.  Bisection then finds a lo where only gamma_k of the twisted test
    (_ldl) fails.  gamma_k is continuous in sigma and vanishes at top, so
    from then on the steps are regula falsi with the Illinois halving of a
    stale end, clamped a few ulps inside the bracket so that both ends close
    in.  Three steps that do not halve the bracket are followed by a
    bisection step.  A probe of entries near overflow can overflow and leave
    hi NaN, which proves nothing.
    """
    a, b = pencil[:2]
    n = margin.shape[0]
    tiny = np.finfo(float).tiny
    quotient = (b[:n] / a[:n]).max()
    lo = max(lo, quotient - abs(quotient) * 2.0 ** -26 - tiny)
    hi = 2.0 * max(((b[:n] + radius) / margin).max(), 0.0) + tiny
    if not lo < hi < np.inf:
        return lo, np.nan
    f_hi, info = _ldl(hi, pencil)
    if info:
        return lo, np.nan
    return _close_top_end(pencil, lo, hi, None, f_hi, 0, 0, hi - lo)


def _close_top_end(pencil, lo, hi, f_lo, f_hi, side, steps, halved):
    """The loop of _top_end, resumed from one column's state: (lo, hi).

    f_lo is None until a probe fails at gamma_k only; side is the sign of the
    last probe's end (1 hi, -1 lo, 0 none yet); steps counts the steps since
    the bracket last halved to width halved.
    """
    n = pencil[0].shape[0] // 2
    eps = np.finfo(float).eps
    while hi - lo > 4.0 * eps * max(abs(lo), abs(hi)):
        x = 0.5 * (lo + hi)
        if f_lo is not None and steps < 3:
            gap = 2.0 * eps * max(abs(lo), abs(hi))
            x = min(max(hi - f_hi * (hi - lo) / (f_hi - f_lo), lo + gap), hi - gap)
        elif not lo < x < hi:
            break
        gamma, info = _ldl(x, pencil)
        if info == 0:
            hi, f_hi = x, gamma
            if side == 1 and f_lo is not None:
                f_lo *= 0.5
            side = 1
        else:
            lo = x
            if info == n:
                f_lo = gamma
                if side == -1:
                    f_hi *= 0.5
                side = -1
        steps += 1
        if hi - lo <= 0.5 * halved:
            steps, halved = 0, hi - lo
    return lo, hi


def _columns(pencil, k):
    """Columns k of a twisted pencil (a, b, lagged, c, q): (2n, cells) stacks of
    diagonal over off-diagonal, the mask of lagged off-diagonal entries and
    their c, or None twice, and the position q of _twist_order."""
    return (*(None if v is None else v[:, k] for v in pencil[:4]), pencil[4])


def _column_top_end(pencil, lo, margin, radius):
    """_batch_top_end by _top_end, one column at a time."""
    return np.array([_top_end(_columns(pencil, j), lo[j], margin[:, j], radius[:, j])
                     for j in range(lo.size)]).T


def _column_ldl(sigma, pencil):
    """_batch_ldl by _ldl, one column at a time: (gamma_k, info), gamma_k NaN
    where _ldl gives None."""
    tests = [_ldl(s, _columns(pencil, j)) for j, s in enumerate(sigma)]
    return (np.array([np.nan if g is None else g for g, _ in tests]),
            np.array([info for _, info in tests], int))


def _ldl_kernel(n, columns):
    """The probe of masked_kernel(n, columns): _batch_ldl, or _ldl column by column."""
    return _batch_ldl if masked_kernel(n, columns) else _column_ldl


def _diagonal_form(a_diag, b_diag, b_off):
    """Diagonal and off-diagonal of D^-1/2 B D^-1/2, for a pencil with diagonal A = D."""
    scale = 1.0 / np.sqrt(a_diag)
    return b_diag / a_diag, b_off * scale[:-1] * scale[1:]


def _diagonal_ends(a_diag, b_diag, b_off):
    """Top and bottom end of a pencil with diagonal A: dstebz on _diagonal_form.

    A 1 x 1 pencil has only its top end, and NaN for the bottom.  Both are
    NaN where dstebz fails, which leaves the pair to the dense path.
    """
    diag, off = _diagonal_form(a_diag, b_diag, b_off)
    if diag.shape[0] == 1:  # dstebz rejects an empty off-diagonal
        return diag[0], np.nan
    calls = [lapack.dstebz(diag, off, 2, 0.0, 1.0, k, k, 0.0, "E") for k in (diag.shape[0], 1)]
    _, w, _, _, info = zip(*calls)
    return (np.nan, np.nan) if any(info) else (w[0][0], w[1][0])


# --- the masked kernel: the search on many columns at once ---
#
# Every band is an (n, cells) array, and the search keeps its state and
# pencil for the open columns only.  Every column takes the operations of
# _top_end in the same order, with Python's max and min where it uses them,
# so every column sees the same probes and pivots and ends with the same bits.


def _py_max(x, y):
    """Python's max(x, y) elementwise: y only where y > x."""
    return np.where(y > x, y, x)


def _py_min(x, y):
    """Python's min(x, y) elementwise: y only where y < x."""
    return np.where(y < x, y, x)


def _batch_pivots(d, e):
    """LAPACK dpttrf on every column of d (n, cells) and e (n - 1, cells).

    The recurrence keeps dpttrf's operation order, t = e_i / d_i and then
    d_i+1 - t e_i, so the pivots up to the first that is not positive, and
    info, are dpttrf's bit for bit; the pivots after that one are not
    meaningful.  d is overwritten with the pivots.  Returns (pivots, info).
    """
    t = np.empty(d.shape[1:])
    for e_i, d_i, d_next in zip(e, d, d[1:]):  # row views: no indexing per step
        np.divide(e_i, d_i, out=t)
        t *= e_i
        d_next -= t
    failed = d <= 0.0
    return d, np.where(failed.any(axis=0), failed.argmax(axis=0) + 1, 0)


def _batch_ldl(sigma, pencil):
    """_ldl for every column, at its own sigma: (gamma_k, info), gamma_k not
    meaningful where info is not 0 or n."""
    a, b, lagged, c, q = pencil
    n = a.shape[0] // 2
    x = sigma * a - b
    if lagged is not None:
        x[n:] = np.where(lagged, np.sqrt(c * sigma), x[n:])
    e = x[-1]
    pivots, info = _batch_pivots(x[:n], x[n:-1])
    gamma = pivots[-1] - (e / pivots[q]) * e
    info[(info == 0) & (gamma <= 0.0)] = n
    return gamma, info


def _batch_top_end(pencil, lo, margin, radius):
    """_top_end for every column: (lo, hi), hi NaN where the bracket is not proved.

    masked_kernel picks the kernel from the columns still open at every
    step: at entry, for the test at hi and before each round.  Fewer columns
    than rows at entry take _column_top_end, whose scalar start skips the
    masked start's numpy calls: one-column pencil_ends calls of the eight
    schemes at n = 400 took 326-346 us with that entry and 376-386 us
    without it (best of 15 batches, 5 alternating runs, 2-core host).  The
    state is one array per quantity over the open columns, k their index in
    the call.  Where a column closes, as _top_end's loop ends, its bracket is
    written back and one mask compacts the state and the pencil.  Once fewer
    columns than rows are open, each goes on from its state in _close_top_end.
    """
    n = margin.shape[0]
    if not masked_kernel(n, lo.size):
        return _column_top_end(pencil, lo, margin, radius)
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    a, b = pencil[:2]
    quotient = (b[:n] / a[:n]).max(axis=0)
    lo = _py_max(lo, quotient - np.abs(quotient) * 2.0 ** -26 - tiny)
    hi = 2.0 * _py_max(((b[:n] + radius) / margin).max(axis=0), 0.0) + tiny
    # as in _top_end, only a bracket lo < hi < inf is tested at hi
    hi = np.where((lo < hi) & (hi < np.inf), hi, np.nan)
    ends, k = (lo, hi), np.flatnonzero(hi == hi)  # the state is rebound, never written in place
    if not k.size:
        return ends
    if k.size < lo.size:
        lo, hi, pencil = lo[k], hi[k], _columns(pencil, k)
    f_hi, info = _ldl_kernel(n, k.size)(hi, pencil)
    hi = np.where(info == 0, hi, np.nan)
    f_lo, has_f_lo = np.full_like(lo, np.nan), np.zeros(lo.shape, bool)
    side, steps, halved = np.zeros(lo.shape, int), np.zeros(lo.shape, int), hi - lo
    while k.size:
        falsi, scale = has_f_lo & (steps < 3), _py_max(np.abs(lo), np.abs(hi))
        gap = 2.0 * eps * scale
        x = np.where(falsi, _py_min(_py_max(hi - f_hi * (hi - lo) / (f_hi - f_lo), lo + gap),
                                    hi - gap), 0.5 * (lo + hi))
        keep = (hi - lo > 4.0 * eps * scale) & (falsi | ((lo < x) & (x < hi)))
        if not keep.all():
            ends[0][k], ends[1][k] = lo, hi
            k, lo, hi, f_lo, f_hi, has_f_lo, side, steps, halved, x = (
                v[keep] for v in (k, lo, hi, f_lo, f_hi, has_f_lo, side, steps, halved, x))
            if not k.size:
                break
            pencil = _columns(pencil, keep)
        if not masked_kernel(n, k.size):
            state = zip(lo.tolist(), hi.tolist(), np.where(has_f_lo, f_lo, None).tolist(),
                        f_hi.tolist(), side.tolist(), steps.tolist(), halved.tolist())
            for j, column in enumerate(state):
                ends[0][k[j]], ends[1][k[j]] = _close_top_end(_columns(pencil, j), *column)
            break
        gamma, info = _batch_ldl(x, pencil)
        up, down = info == 0, info == n
        f_lo = np.where(up & (side == 1), 0.5 * f_lo, np.where(down, gamma, f_lo))
        f_hi = np.where(up, gamma, np.where(down & (side == -1), 0.5 * f_hi, f_hi))
        lo, hi = np.where(up, lo, x), np.where(up, x, hi)
        has_f_lo, side = has_f_lo | down, np.where(up, 1, np.where(down, -1, side))
        steps = np.where(hi - lo <= 0.5 * halved, 0, steps + 1)
        halved = np.where(steps == 0, hi - lo, halved)
    return ends


# --- the front end ---


def masked_kernel(rows, columns):
    """Whether a search step runs the masked kernel, not the scalar one, on rows x columns.

    The scalar _top_end makes one dpttrf call per column and probe, the
    masked _batch_top_end about 3n numpy calls per probe for all open columns.
    It is applied at every step, to the columns that step has: a top-end
    search at entry and before each masked round, the B + top A check, the
    bottom-end search on its subset and the B0 check of lagged pairs.
    """
    return columns >= rows


def pencil_ends(bands, twist=None):
    """Top and bottom end of the real spectrum of each pair of a batch, and their bound.

    bands are six (n, cells) arrays, A's sub, diag and sup, then B's, one
    pair per column (assembly.assemble_bands); eigen_spectrum states the
    search.  twist is the row k at which every definiteness test is twisted
    (_ldl); the default n - 1 is plain dpttrf, and a pair's k is its
    Layout.interface_row.  Returns (top, bottom, bound), each (cells,).
    bottom is NaN where it is not searched: a lagged pair, B + top A
    definite, or n = 1.  No column raises: all three are NaN where the pair
    is left to the dense path, for non-finite entries, no symmetric pencil
    or dominance margin, B0 not definite, a failed dstebz call or a bracket
    not proved.  masked_kernel picks the kernel at every step from the
    columns still open; both take a column through the same probes and
    pivots, so its bits do not depend on its batch.
    """
    n, cells = np.shape(bands[1])
    twist = n - 1 if twist is None else operator.index(twist)
    if not 0 <= twist < n:
        raise ParameterDomainError(f"twist row {twist} outside 0..{n - 1}")
    # overflow: _symmetric_pencil judges the entries, and a NaN hi proves nothing
    with np.errstate(all="ignore"):
        (a_diag, a_off, b_diag, b_off), lagged, c, margin, radius, ok = _symmetric_pencil(*bands)
        ok &= np.isfinite(np.concatenate(bands)).all(axis=0)
        has_lag = np.zeros_like(ok) if lagged is None else lagged.any(axis=0)
        lag = np.flatnonzero(ok & has_lag)
        if lag.size:  # lagged indices need B0 > 0
            info = (_batch_pivots(b_diag[:, lag], b_off[:, lag])[1] if masked_kernel(n, lag.size)
                    else [lapack.dpttrf(b_diag[:, k], b_off[:, k])[2] for k in lag])
            ok[lag[np.asarray(info) != 0]] = False
        top, bottom, width = np.full(cells, np.nan), np.full(cells, np.nan), np.zeros(cells)
        diagonal = ok & ~has_lag & ~a_off.any(axis=0)
        for k in np.flatnonzero(diagonal):
            top[k], bottom[k] = _diagonal_ends(a_diag[:, k], b_diag[:, k], b_off[:, k])
        k = np.flatnonzero(ok & ~diagonal)
        if k.size:
            # twisted once; every probe of both ends tests it
            pencil, margin_k, radius_k = _twisted_pencil(
                (a_diag, a_off, b_diag, b_off), lagged, c, margin, radius, twist, k)
            a, b, *_, q = pencil
            lag_k = has_lag[k]
            lo, hi = _batch_top_end(pencil, np.where(lag_k, 0.0, -np.inf), margin_k, radius_k)
            proved = hi == hi
            width[k] = hi - lo
            # B + top A not definite: some eigenvalue lies at or below -top
            negated = (a, -b, None, None, q)
            p = np.flatnonzero(proved & ~lag_k)
            if p.size:
                p = p[_ldl_kernel(n, p.size)(hi[p], _columns(negated, p))[1] != 0]
            if p.size:
                low, high = _batch_top_end(_columns(negated, p), hi[p], margin_k[:, p],
                                           radius_k[:, p])
                found = proved[p] = high == high
                p, low, high = p[found], low[found], high[found]
                bottom[k[p]] = -high
                width[k[p]] = _py_max(width[k[p]], high - low)
            top[k[proved]] = hi[proved]
        g = ((np.abs(b_diag) + radius) / margin).max(axis=0)
        bound = width + 8.0 * n * np.finfo(float).eps * _py_max(g, 1.0)
    bound[np.isnan(top)] = np.nan
    return top, bottom, bound


def eigen_spectrum(M):
    """Spectrum of a dense update matrix M, or of an UpdatePair (A, B).

    A dense M gives its full spectrum, sorted by decreasing modulus, from the
    general eigensolver with an explicit residual check ||M v - lambda v|| <=
    1e-8 ||M|| on every eigenpair.  This plain path shares no code with the
    pencil and serves as its oracle.

    An UpdatePair whose pencil _symmetric_pencil accepts, as it does the
    pairs of all eight assembled schemes, has a real spectrum and M is never
    formed: pencil_ends finds its ends.  Its top end is the smallest sigma
    at which sigma A - B is positive definite; its bottom end, needed only
    when B + top A is not positive definite, is the largest sigma at which
    B - sigma A is.  A pair with a lagged coupling (bulk-sequential) has a
    nonnegative spectrum, so only its top end is searched, from sigma = 0.
    Each definiteness test is one LDL^T factorization twisted at row k, the
    pair's Layout.interface_row (the shared node n_minus of a
    Dirichlet-Neumann pair, else n_minus - 1, the last row of a one-way
    pair), or k = n - 1 for a pair without a layout: one LAPACK dpttrf call,
    O(n), factors rows 0..k-1 from the top and rows n-1..k+1 from the
    bottom, and the twisted pivot gamma_k completes it; by Sylvester's law
    all n pivots are positive exactly when sigma A - B is definite (Fernando
    1997).  Bisection closes a bracket proved by these tests to a few ulps
    (Barth, Martin & Wilkinson 1967), with regula falsi on gamma_k once only
    gamma_k fails.  The end modes are localized at the interface, so the
    poles of gamma_k, the eigenvalues of the pencil without row k, lie far
    from the ends (Dhillon & Parlett 2004 on the choice of twist); at k =
    n - 1, plain dpttrf, the last pivot has a pole next to the bottom end of
    a two-way pair.  A diagonal A reduces the
    pencil to a standard tridiagonal problem whose ends come from LAPACK
    dstebz.  The returned eigenvalues are the ends found, the top end and,
    when needed, the bottom end, sorted by decreasing modulus, and
    lambda_max is their larger modulus.  The LDL^T test is backward stable:
    its verdict is exact for a pencil within O(n eps) of the given one
    (Kahan 1966), so residual_bound is the bracket width plus 8 n eps
    max(g, 1), with g >= |lambda| the Gershgorin bound of the pair.  The
    pencil path holds only bands, so a pair of any size takes it; a pair
    that fits no case or is not proved takes the dense path on
    M = update_matrix(pair), which bounds n by MAX_DENSE_N.
    """
    if isinstance(M, UpdatePair):
        bands = (M.A.sub, M.A.diag, M.A.sup, M.B.sub, M.B.diag, M.B.sup)
        twist = None if M.layout is None else M.layout.interface_row
        (top,), (bottom,), (bound,) = pencil_ends([band[:, None] for band in bands], twist)
        if top == top:  # not NaN: proved
            return _sorted_spectrum([top] if bottom != bottom else [top, bottom], bound)
        M = update_matrix(M)
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ParameterDomainError(f"matrix must be square, got shape {M.shape}")
    n = M.shape[0]
    if n < 1 or n > MAX_DENSE_N:
        raise ParameterDomainError(f"matrix size {n} outside 1..{MAX_DENSE_N}")
    if not np.isfinite(M).all():
        raise ParameterDomainError("matrix has non-finite entries")
    with np.errstate(over="ignore"):
        norm = np.abs(M).sum(axis=1).max()
    try:
        values, vectors = np.linalg.eig(M)
    except np.linalg.LinAlgError as err:
        raise SpectrumError(f"eigensolver failed: {err}") from err
    residuals = np.abs(M @ vectors - vectors * values[None, :]).max(axis=0)
    residuals /= np.abs(vectors).max(axis=0)
    bound = float(residuals.max())
    if bound > 1e-8 * max(norm, 1.0):
        raise SpectrumError(f"eigenpair residual {bound:.3e} above 1e-8 of ||M|| = {norm:.3e}")
    return _sorted_spectrum(values, bound)


def full_spectrum(pair):
    """Every eigenvalue of an UpdatePair, sorted by decreasing modulus.

    A pencil that _symmetric_pencil accepts with no lagged index is symmetric
    definite: eigvalsh_tridiagonal solves D^-1/2 B D^-1/2 for a diagonal A = D
    at any n, and LAPACK's symmetric-definite solver the dense pencil up to
    MAX_DENSE_N.  Both are backward stable, so residual_bound is
    8 n eps max(G, 1), with G = max_i(|B_ii| + radius_i) / min_i margin_i >=
    ||A^-1|| ||B|| (Gershgorin).  Other pairs, and non-finite pencils or
    results, take eigen_spectrum(update_matrix(pair)).
    """
    bands = (pair.A.sub, pair.A.diag, pair.A.sup, pair.B.sub, pair.B.diag, pair.B.sup)
    pencil, values = (), None
    with np.errstate(all="ignore"):  # overflow leaves non-finite entries: the dense path
        (a_diag, a_off, b_diag, b_off), lagged, _, margin, radius, ok = _symmetric_pencil(*bands)
        if ok and lagged is None and not a_off.any():
            solve, pencil = scipy.linalg.eigvalsh_tridiagonal, _diagonal_form(a_diag, b_diag, b_off)
        elif ok and lagged is None and pair.n <= MAX_DENSE_N:
            solve = scipy.linalg.eigvalsh  # eigh(B, A, eigvals_only=True)
            pencil = [np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
                      for d, e in ((b_diag, b_off), (a_diag, a_off))]
        g = (np.abs(b_diag) + radius).max() / margin.min()
    if pencil and all(np.isfinite(x).all() for x in pencil):
        with contextlib.suppress(np.linalg.LinAlgError):
            values = solve(*pencil)
    if values is None or not np.isfinite(values).all():
        return eigen_spectrum(update_matrix(pair))
    return _sorted_spectrum(values, 8.0 * pair.n * np.finfo(float).eps * max(g, 1.0))


def classify(lambda_max, tol=1e-8):
    """Stable / marginal / unstable from the spectral radius.

    stable: lambda_max < 1 - tol; marginal: |lambda_max - 1| <= tol;
    unstable: lambda_max > 1 + tol.
    """
    _require_positive("tol", tol)
    if lambda_max != lambda_max or lambda_max < 0.0:
        raise ParameterDomainError(f"lambda_max must be a nonnegative number, got {lambda_max!r}")
    if lambda_max < 1.0 - tol:
        return StabilityClass.STABLE
    if lambda_max <= 1.0 + tol:
        return StabilityClass.MARGINAL
    return StabilityClass.UNSTABLE
