"""Spectra of update matrices M = A^{-1} B and the stability classification.

The scheme A T^{n+1} = B T^n is stable exactly when every eigenvalue of M
lies inside the closed unit disk; classification uses a tolerance band around
|lambda| = 1 so that marginal schemes (the interesting boundary cases) are
reported as such instead of flapping between verdicts.
"""

import enum
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ParameterDomainError, SingularMatrixError, SolveResidualWarning, SpectrumError

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


def tridiagonal_bands(a):
    """(sub, diag, sup) of a tridiagonal matrix given dense or as three bands.

    A dense matrix is tridiagonal when its three bands hold all of its
    nonzero entries.  Every band entry must be finite.
    """
    if isinstance(a, tuple):
        sub, diag, sup = (np.asarray(v, dtype=float) for v in a)
        if diag.ndim != 1 or sub.shape != (diag.shape[0] - 1,) or sup.shape != sub.shape:
            raise ParameterDomainError("band lengths inconsistent with the diagonal")
    else:
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ParameterDomainError(f"matrix must be square, got shape {a.shape}")
        sub, diag, sup = np.diag(a, -1), np.diag(a), np.diag(a, 1)
        in_bands = np.count_nonzero(sub) + np.count_nonzero(diag) + np.count_nonzero(sup)
        if np.count_nonzero(a) != in_bands:
            raise ParameterDomainError("matrix is not tridiagonal")
    if not (np.isfinite(sub).all() and np.isfinite(diag).all() and np.isfinite(sup).all()):
        raise ParameterDomainError("matrix has non-finite entries")
    return sub, diag, sup


def _minimum_pivot(sub, diag, sup):
    """Lower bound on the elimination pivots of a tridiagonal factorization.

    Rows that dominate their off-diagonal entries bound the pivots by the
    dominance margin; otherwise the running elimination is evaluated.
    """
    margins = np.abs(diag)
    margins[1:] -= np.abs(sub)
    margins[:-1] -= np.abs(sup)
    if margins.min() > 0.0:
        return margins.min()
    pivot = diag[0]
    smallest = abs(pivot)
    for i in range(1, diag.shape[0]):
        if pivot == 0.0:
            return 0.0
        pivot = diag[i] - (sub[i - 1] / pivot) * sup[i - 1]
        smallest = min(smallest, abs(pivot))
    return smallest


def tridiagonal_solve(a, rhs):
    """Solve A x = rhs for tridiagonal A given dense or as (sub, diag, sup).

    rhs is a vector or a matrix of right-hand sides.  A is singular, and
    SingularMatrixError is raised, when a pivot of its elimination without
    row exchanges falls below 1e-14 of the largest absolute column sum of A;
    otherwise LAPACK's band solver does the solve.
    """
    sub, diag, sup = tridiagonal_bands(a)
    rhs = np.asarray(rhs, dtype=float)
    n = diag.shape[0]
    if rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise ParameterDomainError("rhs length does not match the matrix")
    if not np.isfinite(rhs).all():
        raise ParameterDomainError("rhs has non-finite entries")
    ab = np.zeros((3, n))
    ab[0, 1:] = sup
    ab[1] = diag
    ab[2, :-1] = sub
    if _minimum_pivot(sub, diag, sup) < 1e-14 * np.abs(ab).sum(axis=0).max():
        raise SingularMatrixError("tridiagonal elimination pivot below 1e-14 of the matrix scale")
    try:
        return scipy.linalg.solve_banded((1, 1), ab, rhs, check_finite=False)
    except np.linalg.LinAlgError as err:
        raise SingularMatrixError(f"banded solve failed: {err}") from err


def _tridiagonal_matmul(bands, M):
    """A @ M with A given as (sub, diag, sup)."""
    sub, diag, sup = bands
    out = diag[:, None] * M
    out[:-1] += sup[:, None] * M[1:]
    out[1:] += sub[:, None] * M[:-1]
    return out


def update_matrix(pair):
    """Dense M = A^{-1} B from one tridiagonal solve with B as the right side.

    The result is verified against ||A M - B|| <= 1e-12 ||B|| with one round
    of iterative refinement; a residual still above 1e-10 raises a warning.
    """
    bands = tridiagonal_bands(pair.A)
    B = np.asarray(pair.B, dtype=float)
    M = tridiagonal_solve(bands, B)
    norm_b = max(np.abs(B).sum(axis=1).max(), 1e-300)
    residual = np.abs(_tridiagonal_matmul(bands, M) - B).sum(axis=1).max()
    if residual > 1e-12 * norm_b:
        M = M + tridiagonal_solve(bands, B - _tridiagonal_matmul(bands, M))
        residual = np.abs(_tridiagonal_matmul(bands, M) - B).sum(axis=1).max()
        if residual > 1e-10 * norm_b:
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


def _tridiagonal_blocks(sub, sup):
    """Split indices where the coupling product vanishes (block triangular)."""
    cuts = [0]
    for i in range(sub.shape[0]):
        if sub[i] * sup[i] == 0.0:
            cuts.append(i + 1)
    cuts.append(sub.shape[0] + 1)
    return list(zip(cuts[:-1], cuts[1:]))


def _try_symmetrizable_tridiagonal(M, norm):
    """Real spectrum path for tridiagonal M with sign-matched couplings.

    A diagonal similarity D M D^{-1} with D_i^2 accumulating sub/sup ratios is
    symmetric whenever every sub[i]*sup[i] > 0; zero products split M into
    independent diagonal blocks first.  Returns None when M does not qualify.
    """
    n = M.shape[0]
    if n == 1:
        return _sorted_spectrum(np.diag(M).astype(complex), np.finfo(float).eps * norm)
    try:
        sub, diag, sup = tridiagonal_bands(M)
    except ParameterDomainError:
        return None
    prod = sub * sup
    eigenvalues = []
    for lo, hi in _tridiagonal_blocks(sub, sup):
        block = prod[lo:hi - 1]
        if block.size and (block <= 0.0).any():
            return None
        if hi - lo == 1:
            eigenvalues.append(np.array([diag[lo]]))
        else:
            eigenvalues.append(scipy.linalg.eigvalsh_tridiagonal(diag[lo:hi], np.sqrt(block)))
    ev = np.concatenate(eigenvalues)
    bound = 8.0 * n * np.finfo(float).eps * max(norm, 1.0)
    return _sorted_spectrum(ev.astype(complex), bound)


def eigen_spectrum(M):
    """Full spectrum of a dense update matrix, sorted by decreasing modulus.

    Symmetrizable tridiagonal matrices take a fast symmetric path; everything
    else goes through the general eigensolver with an explicit residual check
    ||M v - lambda v|| <= 1e-8 ||M|| on every eigenpair.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ParameterDomainError(f"matrix must be square, got shape {M.shape}")
    n = M.shape[0]
    if n < 1 or n > MAX_DENSE_N:
        raise ParameterDomainError(f"matrix size {n} outside 1..{MAX_DENSE_N}")
    if not np.isfinite(M).all():
        raise ParameterDomainError("matrix has non-finite entries")
    norm = np.abs(M).sum(axis=1).max()
    fast = _try_symmetrizable_tridiagonal(M, norm)
    if fast is not None:
        return fast
    try:
        values, vectors = np.linalg.eig(M)
    except np.linalg.LinAlgError as err:
        raise SpectrumError(f"eigensolver failed: {err}") from err
    residuals = np.abs(M @ vectors - vectors * values[None, :]).max(axis=0)
    residuals /= np.abs(vectors).max(axis=0)
    bound = float(residuals.max())
    spectrum = _sorted_spectrum(values, bound)
    if bound > 1e-8 * max(norm, 1.0):
        raise SpectrumError(
            f"eigenpair residual {bound:.3e} above 1e-8 of ||M|| = {norm:.3e}",
            spectrum=spectrum,
        )
    return spectrum


def classify(lambda_max, tol=1e-8):
    """Stable / marginal / unstable from the spectral radius.

    stable: lambda_max < 1 - tol; marginal: |lambda_max - 1| <= tol;
    unstable: lambda_max > 1 + tol.
    """
    if not (tol > 0.0):
        raise ParameterDomainError(f"tol must be positive, got {tol!r}")
    if lambda_max != lambda_max or lambda_max < 0.0:
        raise ParameterDomainError(f"lambda_max must be a nonnegative number, got {lambda_max!r}")
    if lambda_max < 1.0 - tol:
        return StabilityClass.STABLE
    if lambda_max <= 1.0 + tol:
        return StabilityClass.MARGINAL
    return StabilityClass.UNSTABLE
