"""Spectra of update matrices M = A^{-1} B and the stability classification.

The scheme A T^{n+1} = B T^n is stable exactly when every eigenvalue of M
lies inside the closed unit disk; classification uses a tolerance band around
|lambda| = 1 so that marginal schemes (the interesting boundary cases) are
reported as such instead of flapping between verdicts.  Every assembled pair
(A, B) has a real spectrum whose ends come from definiteness tests of a
symmetric tridiagonal sigma A - B twisted at the pair's interface row, and
M is never formed (eigen_spectrum states the search).  pencil_ends searches
one pair of any form, a diagonal A included, one dpttrf call per test.
run_ends searches a batch of pairs given by runs of equal rows
(assembly.assemble_runs), one closed form per run, so a test costs the same
few numpy calls at any n.  full_spectrum gives every eigenvalue from the
same pencil.  The dense path, plain eig of M with a residual check, is the
oracle and serves the pairs that fit no case of the pencil.
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
_SUBNORMAL = np.finfo(float).smallest_subnormal


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


def _twisted_pencil(pencil, lagged, c, twist):
    """One pair's pencil twisted at row k = twist: (a, b, lagged, c, q).

    The arguments are _symmetric_pencil's.  a and b stack the diagonal, in
    the order rows n-1 down to k+1, then 0 up to k, over the couplings in
    that order, with 0 where the two runs meet and last the coupling of row
    k to row k+1 (0 when k = n-1).  q is the position of row k+1, or 0 when
    k = n-1.  lagged and c (None when no index is lagged) take the
    couplings' order; see _ldl.
    """
    n = pencil[0].shape[0]

    def order(values, pad=0.0):
        if values.shape[0] == n:
            return np.concatenate((values[:twist:-1], values[:twist + 1]))
        tail = np.append(values, pad)  # the coupling past row n - 1
        return np.concatenate((values[n - 2:twist:-1], tail[n - 1:n - (twist == n - 1)], tail[:twist + 1]))

    a, b = [np.concatenate((order(d), order(e))) for d, e in (pencil[:2], pencil[2:])]
    lags = (None, None) if lagged is None else (order(lagged, False), order(c))
    return a, b, *lags, max(n - 2 - twist, 0)


def _ldl(sigma, pencil):
    """Twisted LDL^T test of sigma A - B at row k: (gamma_k, info).

    pencil (a, b, lagged, c, q) is a pencil twisted at row k, see
    _twisted_pencil.  The two sides are decoupled, so one dpttrf call factors
    rows n-1..k+1 from the bottom and rows 0..k from the top; its last pivot
    is p_k = d_k - (e_k-1 / p_k-1) e_k-1.  Then gamma_k = p_k - (e_k / q_k+1)
    e_k, q_k+1 the pivot of row k+1.  A twisted factorization is a
    congruence, so by Sylvester's law sigma A - B is positive definite
    exactly when its n - 1 other pivots and gamma_k are positive (Fernando
    1997).  info is 0 then; n when only gamma_k fails, or p_k, which bounds
    gamma_k from above; and otherwise dpttrf's first failed pivot (from 1),
    with gamma_k None.  At k = n - 1 the test is plain dpttrf on sigma A - B,
    and gamma_k its last pivot bit for bit.  Lagged indices (see
    _symmetric_pencil) take the off-diagonal sqrt(c sigma), which needs
    sigma >= 0.  The pencil has n >= 2 rows.
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


def _top_end(pencil, lo, quotient, gershgorin):
    """Bracket lo < top <= hi a few ulps wide, where top = inf{sigma : sigma A - B > 0}.

    pencil is a twisted pencil.  sigma A - B is not definite at lo, which
    the caller proves (or -inf).  lo is raised to quotient, the largest
    Rayleigh quotient B_ii / A_ii, less 2^-26 of it, where a diagonal entry
    of sigma A - B is negative.  hi starts at twice the Gershgorin bound
    gershgorin, the largest (B_ii + radius_i) / margin_i: sigma A - B is
    similar to the pair's, whose rows dominate from there on; the test at
    hi proves it if hi is finite, or hi is returned NaN.
    Bisection then finds a lo where only gamma_k of the twisted test (_ldl)
    fails.  gamma_k is continuous in sigma and vanishes at top, so from then
    on the steps are regula falsi with the Illinois halving of a stale end,
    clamped a few ulps inside the bracket so that both ends close in.  Three
    steps that do not halve the bracket are followed by a bisection step.  A
    probe of entries near overflow can overflow and leave hi NaN, which
    proves nothing.
    """
    n = pencil[0].shape[0] // 2
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    lo = max(lo, quotient - abs(quotient) * 2.0 ** -26 - tiny)
    hi = 2.0 * max(gershgorin, 0.0) + tiny
    if not lo < hi < np.inf:
        return lo, np.nan
    f_hi, info = _ldl(hi, pencil)
    if info:
        return lo, np.nan
    # f_lo is None until a probe fails at gamma_k only; side is the sign of
    # the last probe's end (1 hi, -1 lo, 0 none yet); steps counts the steps
    # since the bracket last halved to width halved
    f_lo, side, steps, halved = None, 0, 0, hi - lo
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


def _bound(width, n, b_diag, margin, radius):
    """The bracket width plus 8 n eps max(g, 1), g the Gershgorin bound of the pencil."""
    g = ((np.abs(b_diag) + radius) / margin).max(axis=0)
    return width + 8.0 * n * np.finfo(float).eps * np.where(1.0 > g, 1.0, g)


def pencil_ends(bands, twist=None):
    """Top and bottom end of the real spectrum of one pair, and their bound.

    bands are the pair's six bands, A's sub, diag and sup, then B's;
    eigen_spectrum states the search.  twist is the row k at which every
    definiteness test is twisted (_ldl); the default n - 1 is plain dpttrf,
    and a pair's k is its Layout.interface_row.  Returns (top, bottom,
    bound).  A pair of every form, a diagonal A included, takes the same
    search; n = 1 returns its one eigenvalue B_00 / A_00.  bottom is NaN
    where it is not searched: a lagged pair, B + top A definite, or n = 1.
    Nothing raises: all three are NaN where the pair is left to the dense
    path, for non-finite entries, no symmetric pencil or dominance margin,
    B0 not definite or a bracket not proved.
    """
    n = np.shape(bands[1])[0]
    twist = n - 1 if twist is None else operator.index(twist)
    if not 0 <= twist < n:
        raise ParameterDomainError(f"twist row {twist} outside 0..{n - 1}")
    top = bottom = np.nan
    # overflow: _symmetric_pencil judges the entries, and a NaN hi proves nothing
    with np.errstate(all="ignore"):
        pencil, lagged, c, margin, radius, ok = _symmetric_pencil(*bands)
        a_diag, _, b_diag, b_off = pencil
        ok = ok and np.isfinite(np.concatenate(bands)).all()
        if ok and lagged is not None:  # lagged indices need B0 > 0
            ok = lapack.dpttrf(b_diag, b_off)[2] == 0
        width = 0.0
        if ok and n == 1:  # the pencil's one eigenvalue
            top = b_diag[0] / a_diag[0]
        elif ok:
            # twisted once; every probe of both ends tests it
            pencil = _twisted_pencil(pencil, lagged, c, twist)
            a, b, *_, q = pencil
            lo, hi = _top_end(pencil, -np.inf if lagged is None else 0.0, (b_diag / a_diag).max(),
                              ((b_diag + radius) / margin).max())
            width = hi - lo
            # B + top A not definite: some eigenvalue lies at or below -top
            negated = (a, -b, None, None, q)
            if hi == hi and lagged is None and _ldl(hi, negated)[1] != 0:
                low, high = _top_end(negated, hi, (-b_diag / a_diag).max(),
                                     ((-b_diag + radius) / margin).max())
                bottom = -high
                hi = hi if high == high else np.nan
                width = max(width, high - low)
            top = hi
        bound = _bound(width, n, b_diag, margin, radius)
    return top, bottom, (np.nan if top != top else float(bound))


# --- the run search: a batch of pairs given by runs of equal rows ---


@functools.lru_cache(maxsize=64)
def _run_plan(counts, twist):
    """The rows that the twisted test at row k = twist reads, for pairs with these run counts.

    counts holds each band's run counts.  A side of row k is its end run,
    rows 0..m-1 from the top or n-m..n-1 from the bottom, within the side
    and with one diagonal and one coupling, then its other rows up to k.
    The rows kept are those between the end runs, the last of each end run
    and the two at each end.  A row left out equals a kept row next to it,
    entries and couplings, so the kept rows, each coupled as in the pair to
    the row after it, hold every row of the pair.  Returns them and the
    cached plan (position of k, sides), a side being (m, cos(pi/(m+1)) - 1,
    first row, run coupling, ((row, coupling to the row before), ...),
    coupling to k) in positions among the kept rows and their couplings.
    """
    n = sum(counts[1])
    # a cut b starts a run: at row b, or at the coupling of rows b and b + 1
    cuts = [(np.cumsum(c)[:-1], i % 3 != 1) for i, c in enumerate(counts)]
    cuts = [(c[(c > 0) & (c < n - off)], off) for c, off in cuts]
    top = min([twist] + [int(c.min()) + off for c, off in cuts if c.size])
    bottom = min([n - 1 - twist] + [n - int(c.max()) for c, _ in cuts if c.size])
    rows = tuple(sorted({i for i in (0, 1, n - 2, n - 1, *range(top - 1, n - bottom + 1))
                         if 0 <= i < n}))
    at = {row: j for j, row in enumerate(rows)}
    sides = [(top, 0, 0, tuple((at[i], at[i - 1]) for i in range(top, twist)), at.get(twist - 1)),
             (bottom, len(rows) - 1, len(rows) - 2,
              tuple((at[i], at[i]) for i in range(n - 1 - bottom, twist, -1)), at.get(twist))]
    return rows, (at[twist], tuple((m, -2.0 * np.sin(np.pi / (2 * m + 2)) ** 2, *side)
                                   for m, *side in sides if m))


def _run_pivot(alpha, beta, excess, m, low):
    """Last pivot of LDL^T of an m x m run tridiag(beta, alpha, beta), m >= 2, and
    whether all m pivots are positive.

    The leading minors of a Toeplitz run are |beta|^i U_i(x), x = alpha /
    2|beta| and U_i the Chebyshev polynomials of the second kind.  So the
    pivots are positive exactly when x > cos(pi/(m+1)), or x - 1 > low, and
    the last is |beta| U_m(x) / U_m-1(x) = |beta| (x + sin(theta) / tan(m
    theta)) at x = cos(theta), with sinh and tanh of t at x = cosh(t).
    excess is alpha - 2|beta| formed without cancellation, so x - 1 keeps
    its digits, and asin and asinh of sqrt(|x - 1| / 2) give theta / 2 and
    t / 2.  Where the pivot is not finite (beta 0 or negligible), all are alpha.
    """
    size = np.abs(beta)
    delta = excess / (size + size)  # x - 1
    elliptic = delta < 0.0
    half = np.sqrt(np.abs(0.5 * delta))
    turn = (2 * m) * np.where(elliptic, np.arcsin(half), np.arcsinh(half))
    tail = np.sqrt(np.abs(delta * (delta + 2.0))) / np.where(elliptic, np.tan(turn), np.tanh(turn))
    pivot = size * (1.0 + delta + tail)
    finite = np.isfinite(pivot)
    return np.where(finite, pivot, alpha), np.where(finite, delta > low, alpha > 0.0)


def _run_pencil(runs, twist):
    """The pencil (A, B, C, plan) of _run_test for a batch given by runs.

    A and B hold each cell's entries of the symmetric pencil on the kept
    rows of _run_plan, then on their couplings; C holds c at lagged
    couplings and 0 elsewhere, or is None where none is lagged.  Also
    returns _symmetric_pencil's margin, radius and ok on the kept rows."""
    rows, plan = _run_plan(tuple(tuple(int(c) for c in counts) for _, counts in runs), twist)
    bands = [values[np.searchsorted(np.cumsum(counts), rows[:len(rows) - (i % 3 != 1)], "right")]
             for i, (values, counts) in enumerate(runs)]
    (a_diag, a_off, b_diag, b_off), lagged, c, margin, radius, ok = _symmetric_pencil(*bands)
    ok &= np.isfinite(np.concatenate(bands)).all(axis=0)
    A, B = np.concatenate((a_diag, a_off)), np.concatenate((b_diag, b_off))
    return (A, B, None if lagged is None else np.where(lagged, c, 0.0), plan), margin, radius, ok


def _run_test(sigma, pencil):
    """The twisted test of _ldl at sigma for every cell, one closed form per end run.

    pencil is _run_pencil's.  An end run takes _run_pivot, with alpha -
    2|beta| = sigma (a - 2 s a_off) - (b - 2 s b_off), s the sign of beta
    (exact on the backward-Euler rows [-d, 1 + 2d, -d] with d >= 1/2, by
    Sterbenz's lemma), and the other rows the LDL^T recurrence.  Returns
    (value, ok): sigma A - B is positive definite exactly where ok, every
    pivot before gamma_k positive, and value > 0, value being gamma_k times
    each side's last pivot, so without its poles.  Lagged couplings take
    sqrt(c sigma), which needs sigma >= 0; an end run has none.
    """
    A, B, C, (k, sides) = pencil
    x = sigma * A - B
    d, e = x[:(A.shape[0] + 1) // 2], x[(A.shape[0] + 1) // 2:]
    if C is not None:
        e = np.where(C > 0.0, np.sqrt(C * sigma), e)
    gamma, scale, ok = d[k], 1.0, np.ones(d.shape[1:], bool)
    for m, low, first, run, rest, link in sides:
        p, positive = d[first], d[first] > 0.0
        if m > 1:
            step = np.where(e[run] > 0.0, 2.0, -2.0)
            off = d.shape[0] + run
            excess = sigma * (A[first] - step * A[off]) - (B[first] - step * B[off])
            p, positive = _run_pivot(p, e[run], excess, m, low)
        ok = ok & positive
        for row, at in rest:
            p = d[row] - (e[at] / p) * e[at]
            ok = ok & (p > 0.0)
        gamma, scale = gamma - (e[link] / p) * e[link], scale * p
    return gamma * scale, ok


def _cells(pencil, k):
    """The cells k of a pencil of _run_test."""
    A, B, C, plan = pencil
    return A[:, k], B[:, k], None if C is None else C[:, k], plan


def _run_top_end(pencil, lo, quotient, gershgorin):
    """_top_end on every cell of a pencil of _run_test: (lo, hi), hi NaN where not proved.

    The start, the test at hi, the bisection and the Illinois steps are
    _top_end's, with _run_test's value for gamma_k, over one array per
    quantity of the open cells.  Where a bracket closes, it is written back
    and one mask drops its cell.
    """
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    lo = np.maximum(lo, quotient - np.abs(quotient) * 2.0 ** -26 - tiny)
    hi = 2.0 * np.maximum(gershgorin, 0.0) + tiny
    k = np.flatnonzero((lo < hi) & (hi - lo < np.inf))
    ends = lo, np.full_like(lo, np.nan)
    if not k.size:  # no cell to test
        return ends
    pencil, lo, hi = _cells(pencil, k), lo[k], hi[k]
    f_hi, ok = _run_test(hi, pencil)
    hi[~(ok & (f_hi > 0.0) & (f_hi < np.inf))] = np.nan
    # f_lo is NaN until a probe fails at gamma_k only; side, steps and halved
    # as in _top_end.  A bracket wider than 2 gap holds x strictly inside
    f_lo = np.full_like(lo, np.nan)
    side, steps, width = 0 * k, 0 * k, hi - lo
    halved = width
    while True:
        gap = 2.0 * eps * np.maximum(np.abs(lo), np.abs(hi)) + 2.0 * _SUBNORMAL
        falsi = (f_lo == f_lo) & (steps < 3)
        x = np.where(falsi, np.clip(hi - f_hi * width / (f_hi - f_lo), lo + gap, hi - gap),
                     lo + 0.5 * width)
        keep = width > gap + gap
        if not keep.all():
            ends[0][k], ends[1][k] = lo, hi
            k, lo, hi, f_lo, f_hi, side, steps, halved, x = (
                v[keep] for v in (k, lo, hi, f_lo, f_hi, side, steps, halved, x))
            if not k.size:
                return ends
            pencil = _cells(pencil, keep)
        value, ok = _run_test(x, pencil)
        finite = np.isfinite(value)
        up = ok & finite & (value > 0.0)
        down = ok & finite & ~up
        f_lo = np.where(up & (side == 1), 0.5 * f_lo, np.where(down, value, f_lo))
        f_hi = np.where(up, value, np.where(down & (side == -1), 0.5 * f_hi, f_hi))
        # positive pivots before gamma_k and an overflowing value: unproved
        lo, hi = np.where(up, lo, x), np.where(up, x, np.where(ok & ~finite, np.nan, hi))
        side = np.where(up, 1, np.where(down, -1, side))
        width = hi - lo
        steps = np.where(width <= 0.5 * halved, 0, steps + 1)
        halved = np.where(steps == 0, width, halved)


def run_ends(runs, twist):
    """Top and bottom end of the real spectrum of each pair of a batch, and their bound.

    runs are the six bands' runs (assembly.assemble_runs): (rows, counts),
    rows of shape (runs, cells), one pair per cell; twist is the row k of
    every test, the pairs' Layout.interface_row.  Each cell takes
    pencil_ends's search with _run_test for _ldl; a diagonal A is runs with
    couplings 0.  The bottom end, the top end of (A, -B), is searched in the
    same loop, where no coupling is lagged and B + q A is not definite, q =
    max B_ii / A_ii <= top.  The test is exact for entries within a few ulps
    of the pair's, so the bound is pencil_ends's, and the ends agree with
    its ends to the two bounds.  Returns (top, bottom, bound), each
    (cells,), all NaN where not proved, as in pencil_ends.
    """
    n = sum(runs[1][1])
    if not 0 <= twist < n:
        raise ParameterDomainError(f"twist row {twist} outside 0..{n - 1}")
    with np.errstate(all="ignore"):  # as in pencil_ends
        pencil, margin, radius, ok = _run_pencil(runs, twist)
        A, B, C, plan = pencil
        a_diag, b_diag = A[:margin.shape[0]], B[:margin.shape[0]]
        lag = np.zeros(ok.shape, bool) if C is None else (C > 0.0).any(axis=0)
        if C is not None:  # a lagged cell needs B0 > 0, the negated test at 0, and no lagged end run
            value, fits = _run_test(0.0, (A, -B, C, plan))
            ended = (C[[side[3] for side in plan[1] if side[0] > 1]] > 0.0).any(axis=0)
            ok &= ~lag | fits & (value > 0.0) & ~ended
        k = np.flatnonzero(ok)
        p = k[~lag[k]]
        if p.size:  # every eigenvalue lies above -q where B + q A is definite
            value, fits = _run_test((b_diag[:, p] / a_diag[:, p]).max(axis=0),
                                    _cells((A, -B, C, plan), p))
            p = p[~(fits & (value > 0.0))]
        # one search: the top end of (A, B) at the cells k and of (A, -B) at the cells p
        cells, sign = np.concatenate((k, p)), np.repeat([1.0, -1.0], (k.size, p.size))
        A, B, C, _ = _cells(pencil, cells)
        b = sign * b_diag[:, cells]
        lo, hi = _run_top_end((A, sign * B, C, plan), np.where(lag[cells], 0.0, -np.inf),
                              (b / a_diag[:, cells]).max(axis=0),
                              ((b + radius[:, cells]) / margin[:, cells]).max(axis=0))
        top, bottom, width = np.full(ok.size, np.nan), np.full(ok.size, np.nan), np.zeros(ok.size)
        top[k], bottom[p] = hi[:k.size], -hi[k.size:]
        np.maximum.at(width, cells, hi - lo)  # NaN where an end is not proved
        bound = _bound(width, n, b_diag, margin, radius)
    failed = np.isnan(top) | np.isnan(bound)
    top[failed] = bottom[failed] = bound[failed] = np.nan
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
    Each definiteness test is one LDL^T factorization twisted at row k
    (_ldl), the pair's Layout.interface_row (the shared node n_minus of a
    Dirichlet-Neumann pair, else n_minus - 1), or n - 1 without a layout:
    one dpttrf call, O(n).  Bisection closes a bracket proved by these tests
    to a few ulps (Barth, Martin & Wilkinson 1967), with regula falsi on
    gamma_k once only gamma_k fails.  The end modes are localized at the
    interface, so the poles of gamma_k, the eigenvalues of the pencil
    without row k, lie far from the ends (Dhillon & Parlett 2004 on the
    choice of twist); at k = n - 1 the last pivot has a pole next to the
    bottom end of a two-way pair.  A diagonal A (dn-explicit) takes the same
    search as the other schemes, and a 1 x 1 pair gives its one eigenvalue
    B_00 / A_00.  The returned eigenvalues are the ends found, sorted by
    decreasing modulus, and lambda_max is their larger modulus.  The LDL^T
    test is backward stable: its verdict is exact for a pencil within O(n
    eps) of the given one (Kahan 1966), so residual_bound is the bracket
    width plus 8 n eps max(g, 1), with g >= |lambda| the Gershgorin bound of
    the pair.  A pair of any size takes the pencil path; one that fits no
    case or is not proved takes the dense path on M = update_matrix(pair),
    which bounds n by MAX_DENSE_N.
    """
    if isinstance(M, UpdatePair):
        bands = (M.A.sub, M.A.diag, M.A.sup, M.B.sub, M.B.diag, M.B.sup)
        twist = None if M.layout is None else M.layout.interface_row
        top, bottom, bound = pencil_ends(bands, twist)
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
    definite: eigvalsh_tridiagonal (LAPACK dsterf, eigenvalues only) solves
    D^-1/2 B D^-1/2 for a diagonal A = D at any n, and LAPACK's
    symmetric-definite solver the dense pencil up to
    MAX_DENSE_N.  Both are backward stable, so residual_bound is
    8 n eps max(G, 1), with G = max_i(|B_ii| + radius_i) / min_i margin_i >=
    ||A^-1|| ||B|| (Gershgorin).  Other pairs, and non-finite pencils or
    results, take eigen_spectrum(update_matrix(pair)).
    """
    bands = (pair.A.sub, pair.A.diag, pair.A.sup, pair.B.sub, pair.B.diag, pair.B.sup)
    pencil, values = (), None
    with np.errstate(all="ignore"):  # overflow leaves non-finite entries: the dense path
        (a_diag, a_off, b_diag, b_off), lagged, _, margin, radius, ok = _symmetric_pencil(*bands)
        if ok and lagged is None and not a_off.any():  # D^-1/2 B D^-1/2 for A = D
            scale = 1.0 / np.sqrt(a_diag)
            solve = functools.partial(scipy.linalg.eigvalsh_tridiagonal, lapack_driver="sterf")
            pencil = b_diag / a_diag, b_off * scale[:-1] * scale[1:]
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
