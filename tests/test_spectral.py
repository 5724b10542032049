import dataclasses
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st
from scipy.sparse.linalg import LinearOperator, eigs

from cplstab import (SCHEMES, DimensionlessParams, ParameterDomainError, SingularMatrixError,
                     SolveResidualWarning, SpectrumError, StabilityClass, Tridiagonal,
                     UpdatePair, assemble, classify, eigen_spectrum, full_spectrum,
                     power_growth_rate, tridiagonal_solve, update_matrix)
from cplstab import spectral
from cplstab.assembly import assemble_runs, scheme_layout
from cplstab.sweep import AXIS_NAMES, Axis, preset_sweep, run_sweep

SEED = 0
rng = np.random.default_rng(seed=SEED)


def params(dp=0.0, dm=0.0, bp=0.0, bm=0.0, r=1.0):
    return DimensionlessParams(dp, dm, bp, bm, r)


def match_multisets(a, b, tol):
    """Greedy eigenvalue pairing; fine for well separated small spectra."""
    b = list(b)
    for lam in a:
        gaps = [abs(lam - mu) for mu in b]
        j = int(np.argmin(gaps))
        assert gaps[j] <= tol
        b.pop(j)


# ------------------------------------------------------------ update matrix

def test_update_matrix_identity_solve():
    pair = assemble(SCHEMES["bulk-explicit-flux"], params(bp=0.25, bm=0.5), 2, 2)
    assert np.array_equal(update_matrix(pair), pair.B.toarray())


def test_update_matrix_scalar_solve():
    pair = assemble(SCHEMES["bulk-explicit-flux"], params(dp=0.5, dm=0.5), 2, 1)
    # A = 2I when 1+2d = 2 everywhere, which needs every row to be an
    # outer row; easier to check directly against a dense solve
    m = update_matrix(pair)
    assert np.allclose(m, np.linalg.solve(pair.A.toarray(), pair.B.toarray()), atol=1e-14)


def test_update_matrix_swap_example():
    pair = assemble(SCHEMES["bulk-explicit-flux"], params(bp=1.0, bm=1.0), 1, 1)
    assert np.allclose(update_matrix(pair), [[0.0, 1.0], [1.0, 0.0]])


def test_update_matrix_residual_contract():
    p = params(dp=3.0, dm=40.0, bp=0.7, bm=90.0)
    pair = assemble(SCHEMES["bulk-implicit-flux"], p, 30, 20)
    m = update_matrix(pair)
    res = np.abs(pair.A.toarray() @ m - pair.B.toarray()).max()
    assert res <= 1e-12 * np.abs(pair.B.toarray()).max()


def test_update_matrix_rejects_a_non_finite_solve():
    # the solve overflows; its NaN residual must not pass the residual check
    # and hand back a non-finite M with numpy warnings
    pair = assemble(SCHEMES["one-way-explicit-flux"], params(dm=1e153, bm=1e308), 5, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ParameterDomainError, match="non-finite"):
            update_matrix(pair)


def test_update_matrix_singular_pivot():
    pair = assemble(SCHEMES["bulk-explicit-flux"], params(bp=0.5, bm=0.5), 1, 1)
    bad = type(pair)(A=Tridiagonal.from_dense(np.array([[1.0, 1.0], [1.0, 1.0]])),
                     B=pair.B, layout=pair.layout)
    with pytest.raises(SingularMatrixError):
        update_matrix(bad)


@pytest.mark.parametrize("delta, warns", [(1e-6, False), (1e-8, True)])
def test_update_matrix_refines_an_ill_conditioned_solve(delta, warns):
    # every pivot clears the singularity floor, but A's condition number of
    # about 4 / delta leaves a first residual above 1e-12 ||B||: one round of
    # refinement, after which 1e-6 meets 1e-10 ||B|| and 1e-8 warns
    a = np.array([[1.0, 1.0], [1.0, 1.0 + delta]])
    b = np.array([[0.3, 0.7], [-0.2, 0.9]])
    pair = UpdatePair(A=Tridiagonal.from_dense(a), B=Tridiagonal.from_dense(b), layout=None)
    with mock.patch.object(spectral, "tridiagonal_solve", wraps=spectral.tridiagonal_solve) as solve:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            m = update_matrix(pair)
    assert solve.call_count == 2
    assert [w.category for w in caught] == ([SolveResidualWarning] if warns else [])
    residual = np.abs(a @ m - b).sum(axis=1).max() / np.abs(b).sum(axis=1).max()
    assert (residual > 1e-10) == warns
    np.testing.assert_allclose(m, np.linalg.solve(a, b), rtol=1e-14 / delta)


@given(n=st.integers(2, 12), margin=st.floats(0.1, 3.0))
@settings(max_examples=30, deadline=None)
def test_update_matrix_random_dominant_systems(n, margin):
    local = np.random.default_rng(seed=n)
    sub = local.uniform(-1.0, 1.0, n)
    sup = local.uniform(-1.0, 1.0, n)
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = 1.0 + margin + (abs(sub[i]) + abs(sup[i]))
        if i > 0:
            a[i, i - 1] = sub[i]
        if i < n - 1:
            a[i, i + 1] = sup[i]
    # a pair holds a tridiagonal B
    b = np.diag(local.uniform(-1.0, 1.0, n))
    b += np.diag(local.uniform(-1.0, 1.0, n - 1), -1) + np.diag(local.uniform(-1.0, 1.0, n - 1), 1)
    pair = UpdatePair(A=Tridiagonal.from_dense(a), B=Tridiagonal.from_dense(b), layout=None)
    m = update_matrix(pair)
    assert np.abs(a @ m - b).max() <= 1e-12 * max(np.abs(b).max(), 1.0)


# ----------------------------------------------------------------- spectrum

def test_spectrum_diagonal_example():
    s = eigen_spectrum(np.diag([0.5, 2.0]))
    assert s.lambda_max == pytest.approx(2.0, rel=1e-14)
    match_multisets(s.eigenvalues, [0.5, 2.0], 1e-12)


def test_spectrum_swap_example():
    s = eigen_spectrum(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert s.lambda_max == pytest.approx(1.0, rel=1e-14)
    match_multisets(s.eigenvalues, [1.0, -1.0], 1e-12)


def test_spectrum_strong_exchange_example():
    s = eigen_spectrum(np.array([[-1.0, 2.0], [2.0, -1.0]]))
    assert s.lambda_max == pytest.approx(3.0, rel=1e-14)
    match_multisets(s.eigenvalues, [1.0, -3.0], 1e-12)


def test_spectrum_shape_and_ordering():
    m = rng.normal(size=(9, 9))
    s = eigen_spectrum(m)
    assert len(s.eigenvalues) == 9
    assert s.lambda_max == pytest.approx(np.abs(s.eigenvalues).max())
    mods = np.abs(s.eigenvalues)
    assert np.all(np.diff(mods) <= 1e-12)
    assert np.isfinite(s.residual_bound)


def test_spectrum_conjugate_symmetry():
    m = rng.normal(size=(7, 7))
    s = eigen_spectrum(m)
    match_multisets(s.eigenvalues, np.conj(s.eigenvalues), 1e-9)


def test_spectrum_rejects_bad_input():
    with pytest.raises(ParameterDomainError):
        eigen_spectrum(np.ones((2, 3)))
    with pytest.raises(ParameterDomainError):
        eigen_spectrum(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ParameterDomainError):
        eigen_spectrum(np.eye(2049))


def test_symmetric_input_gives_real_eigenvalues():
    m = rng.normal(size=(8, 8))
    m = 0.5 * (m + m.T)
    s = eigen_spectrum(m)
    norm = np.abs(m).max()
    assert np.abs(np.imag(s.eigenvalues)).max() <= 1e-10 * norm


@given(seed=st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_permutation_similarity(seed):
    """Relabeling cells must not move the spectrum (n <= 8)."""
    local = np.random.default_rng(seed=seed)
    n = int(local.integers(2, 9))
    m = local.normal(size=(n, n))
    perm = local.permutation(n)
    pm = m[np.ix_(perm, perm)]
    sa = eigen_spectrum(m)
    sb = eigen_spectrum(pm)
    match_multisets(sa.eigenvalues, sb.eigenvalues, 1e-8 * max(1.0, sa.lambda_max))


# ------------------------------------------------------------------ pencil

log_group = st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e)
# index into (d_plus, d_minus, beta_plus, beta_minus, r) set to 0
ONE_SIDED = st.sampled_from((None, 2, 3))


def scheme_params(name, groups):
    dp, dm, bp, bm, r = groups
    if name.startswith("one-way"):
        return params(dm=dm, bm=bm)
    if name.startswith("dn"):
        return params(dp=dp, dm=dm, r=r)
    return params(dp=dp, dm=dm, bp=bp, bm=bm)


def diagonal_blocks(pair, k):
    """The two diagonal blocks of a pair, rows and columns :k and k:."""
    def block(m, lo, hi):
        return Tridiagonal(m.sub[lo:hi - 1], m.diag[lo:hi], m.sup[lo:hi - 1])
    return [UpdatePair(A=block(pair.A, lo, hi), B=block(pair.B, lo, hi), layout=None)
            for lo, hi in ((0, k), (k, pair.n))]


@given(name=st.sampled_from(list(SCHEMES)), n_minus=st.integers(1, 12),
       n_plus=st.integers(1, 12), groups=st.tuples(*[log_group] * 5), zero=ONE_SIDED)
@settings(max_examples=300, deadline=None)
def test_pencil_path_matches_dense_oracle(name, n_minus, n_plus, groups, zero):
    groups = list(groups)
    if zero is not None:
        groups[zero] = 0.0
    pair = assemble(SCHEMES[name], scheme_params(name, groups), n_minus, n_plus)
    # no assembled pair reaches the dense path
    with mock.patch.object(spectral, "update_matrix", side_effect=AssertionError("dense path")):
        pencil = eigen_spectrum(pair)
    if name.startswith("bulk") and zero is not None:
        # block triangular: M of the whole pair may hold a Jordan block where
        # the blocks share an eigenvalue, which dense eig resolves only to
        # about sqrt(eps), so the oracle is the union of the blocks' spectra
        eigenvalues = np.concatenate([eigen_spectrum(update_matrix(block)).eigenvalues
                                      for block in diagonal_blocks(pair, n_minus)])
    else:
        eigenvalues = eigen_spectrum(update_matrix(pair)).eigenvalues
    lambda_max = np.abs(eigenvalues).max()
    # the pencil path reports the ends of the spectrum, never all of it
    assert len(pencil.eigenvalues) <= 2
    assert abs(pencil.lambda_max - lambda_max) <= 1e-10 * lambda_max
    if abs(lambda_max - 1.0) > 1e-6:
        assert classify(pencil.lambda_max) == classify(lambda_max)
    if name == "bulk-sequential":
        # a hyperbolic quadratic eigenproblem in sqrt(lambda): real and nonnegative
        assert np.abs(eigenvalues.imag).max() <= 1e-8 * lambda_max
        assert eigenvalues.real.min() >= -1e-8 * lambda_max


def no_case_pair(n):
    """A = tridiag(-1, 3, -1), B with unit diagonal, 0.5 above and -0.5 below.

    Every coupling product is sigma^2 - 1/4, which is neither proportional,
    zero nor lagged, so the pair fits no case of the pencil path.
    """
    return UpdatePair(A=Tridiagonal(np.full(n - 1, -1.0), np.full(n, 3.0), np.full(n - 1, -1.0)),
                      B=Tridiagonal(np.full(n - 1, -0.5), np.ones(n), np.full(n - 1, 0.5)),
                      layout=None)


def test_pair_that_fits_no_case_takes_the_dense_path():
    pair = no_case_pair(2)
    spectrum = eigen_spectrum(pair)
    dense = eigen_spectrum(update_matrix(pair))
    assert np.abs(dense.eigenvalues.imag).max() > 0.0
    assert np.array_equal(spectrum.eigenvalues, dense.eigenvalues)
    assert spectrum.lambda_max == dense.lambda_max
    assert spectrum.residual_bound == dense.residual_bound


@pytest.mark.parametrize("name, p", [
    ("bulk-sequential", params(dp=0.9, dm=1.4, bp=0.8, bm=1.1)),
    ("bulk-explicit-flux", params(dp=0.9, dm=1.4, bp=0.8, bm=0.0)),
    ("bulk-implicit-flux", params(dp=0.9, dm=1.4, bp=0.8, bm=0.0)),
])
def test_unsymmetrizable_pairs_take_the_dense_path(name, p):
    # No diagonal similarity makes M = A^{-1} B of these pairs symmetric; a
    # dense M, like every dense M, takes the general eigensolver.  The pair
    # itself takes the pencil path, through its lagged or zero coupling, and
    # agrees with it at the top.
    pair = assemble(SCHEMES[name], p, 6, 5)
    M = update_matrix(pair)
    dense = eigen_spectrum(M)
    assert len(dense.eigenvalues) == pair.n
    match_multisets(dense.eigenvalues, np.linalg.eigvals(M), 1e-10)
    with mock.patch.object(spectral, "update_matrix", side_effect=AssertionError("dense path")):
        pencil = eigen_spectrum(pair)
    assert abs(pencil.lambda_max - dense.lambda_max) <= 1e-10 * dense.lambda_max


def mirrored(pair):
    """The transposed pair, which has the same spectrum."""
    return UpdatePair(A=Tridiagonal(pair.A.sup, pair.A.diag, pair.A.sub),
                      B=Tridiagonal(pair.B.sup, pair.B.diag, pair.B.sub), layout=None)


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("b_diag, b_off, a_sub, expected", [
    # lagged, but B0 = diag(-2, 1): det(lambda A - B) = 9 lambda^2 + 2.5 lambda - 2
    # has its root of larger modulus below 0
    ([-2.0, 1.0], 0.5, -1.0, (2.5 + np.sqrt(78.25)) / 18.0),
    # p(sigma) = -sigma / 2 < 0: a complex pair of modulus 1/3
    ([1.0, 1.0], 0.5, 1.0, 1.0 / 3.0),
])
def test_lagged_shape_without_a_real_count_takes_the_dense_path(mirror, b_diag, b_off, a_sub,
                                                                 expected):
    pair = UpdatePair(A=Tridiagonal([a_sub], [3.0, 3.0], [0.0]),
                      B=Tridiagonal([0.0], b_diag, [b_off]), layout=None)
    if mirror:
        pair = mirrored(pair)
    spectrum = eigen_spectrum(pair)
    assert spectrum.lambda_max == pytest.approx(expected, rel=1e-14)
    assert np.array_equal(spectrum.eigenvalues, eigen_spectrum(update_matrix(pair)).eigenvalues)


def test_mirrored_lagged_pair_takes_the_pencil_path():
    # A couples above and B below; the pencil without its lagged entries is I
    pair = assemble(SCHEMES["bulk-sequential"], params(dp=0.9, dm=1.4, bp=0.8, bm=11.0), 6, 5)
    with mock.patch.object(spectral, "update_matrix", side_effect=AssertionError("dense path")):
        spectrum = eigen_spectrum(mirrored(pair))
    dense = eigen_spectrum(update_matrix(pair))
    assert abs(spectrum.lambda_max - dense.lambda_max) <= 1e-10 * dense.lambda_max


# ------------------------------------------------------------ full spectrum

def test_full_spectrum_within_its_bound_of_dense_eig():
    # every eigenvalue, n = 1 included, within residual_bound of plain eig of M
    gen = np.random.default_rng(SEED)
    names = list(SCHEMES)
    for k in range(400):
        name = names[k % len(names)]
        n_minus, n_plus = (1, 1) if k < len(names) else (int(v) for v in gen.integers(1, 16, 2))
        groups = 10.0 ** gen.uniform(-2.0, 2.0, size=5)
        groups[2:4] *= gen.random(2) >= 0.15
        pair = assemble(SCHEMES[name], scheme_params(name, groups), n_minus, n_plus)
        spectrum = full_spectrum(pair)
        assert len(spectrum.eigenvalues) == pair.n
        if name == "bulk-sequential" and groups[2:4].all():
            # a lagged coupling: the dense path itself
            dense = eigen_spectrum(update_matrix(pair))
            assert np.array_equal(spectrum.eigenvalues, dense.eigenvalues)
            continue
        if name.startswith("bulk") and not groups[2:4].all() and groups[2:4].any():
            # block triangular: where the blocks' eigenvalues come close, eig of
            # the whole M loses accuracy (a Jordan block where they meet), so
            # the oracle is eig of each block's M
            eigenvalues = np.concatenate([np.linalg.eigvals(update_matrix(block))
                                          for block in diagonal_blocks(pair, n_minus)])
        else:
            eigenvalues = np.linalg.eigvals(update_matrix(pair))
        assert not spectrum.eigenvalues.imag.any()
        eigenvalues = eigenvalues[np.argsort(eigenvalues.real)]
        error = np.abs(np.sort(spectrum.eigenvalues.real) - eigenvalues).max()
        assert error <= spectrum.residual_bound, (name, n_minus, n_plus, groups)


def test_full_spectrum_of_a_diagonal_a_matches_dense():
    # explicit D-N pairs have a diagonal A: one symmetric tridiagonal problem
    pair = assemble(SCHEMES["dn-explicit"], params(dp=0.3, dm=0.45, r=3.0), 15, 10)
    with mock.patch.object(spectral, "update_matrix", side_effect=AssertionError("dense path")):
        spectrum = full_spectrum(pair)
    assert not spectrum.eigenvalues.imag.any()
    match_multisets(spectrum.eigenvalues, np.linalg.eigvals(update_matrix(pair)), 1e-9)


def test_full_spectrum_of_a_diagonal_a_past_the_dense_limit():
    import tracemalloc

    pair = assemble(SCHEMES["dn-explicit"], params(dp=0.3, dm=0.45, r=3.0), 1100, 1100)
    tracemalloc.start()
    try:
        spectrum = full_spectrum(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(spectrum.eigenvalues) == pair.n > spectral.MAX_DENSE_N
    # no n x n array: a dense one would take 8 n^2 = 39 MB
    assert peak < 0.05 * 8 * pair.n ** 2
    # the ends that eigen_spectrum returns: the top, and the bottom where
    # B + top A is not definite
    ends = eigen_spectrum(pair)
    extremes = spectrum.eigenvalues.real.max(), spectrum.eigenvalues.real.min()
    for end, extreme in zip(sorted(ends.eigenvalues.real, reverse=True), extremes):
        assert abs(end - extreme) <= spectrum.residual_bound + ends.residual_bound


@pytest.mark.parametrize("n_side, groups", [
    pytest.param(1100, [(0.3, 0.45, 3.0), (0.07, 2.5, 0.2), (0.2, 0.2, 1.0)], id="2201-rows"),
    pytest.param(10_000, [(0.07, 2.5, 0.2)], id="20001-rows"),
])
def test_diagonal_a_ends_match_full_spectrum(n_side, groups):
    # dn-explicit pairs, A diagonal, on 2,201 and 20,001 rows: the twisted
    # LDL^T search finds full_spectrum's extremes to both bounds, without dstebz
    for dp, dm, r in groups:
        pair = assemble(SCHEMES["dn-explicit"], params(dp=dp, dm=dm, r=r), n_side, n_side)
        spectrum = full_spectrum(pair)
        with mock.patch.object(spectral.lapack, "dstebz", side_effect=AssertionError("dstebz")):
            top, bottom, bound = spectral.pencil_ends(pair_bands(pair), twist_row(pair))
        tol = bound + spectrum.residual_bound
        assert abs(top - spectrum.eigenvalues.real.max()) <= tol
        # bottom is searched only where B + top A is not definite
        assert bottom != bottom or abs(bottom - spectrum.eigenvalues.real.min()) <= tol
        assert bottom == bottom or spectrum.eigenvalues.real.min() > -top


def overflowing_pencil_pair(n=2):
    """A pair whose symmetric pencil overflows: sqrt(1 / 1e-309) is infinite."""
    coupling = np.zeros(n - 1)
    coupling[0] = 1.0
    return UpdatePair(A=Tridiagonal(1e-309 * coupling, np.full(n, 3.0), coupling),
                      B=Tridiagonal(np.zeros(n - 1), np.arange(1.0, n + 1.0), np.zeros(n - 1)),
                      layout=None)


@pytest.mark.parametrize("case", ["lagged", "no case", "non-finite pencil", "solver failure"])
def test_full_spectrum_falls_back_to_the_dense_path(case):
    pair = {
        "lagged": lambda: assemble(SCHEMES["bulk-sequential"],
                                   params(dp=0.9, dm=1.4, bp=0.8, bm=1.1), 6, 5),
        "no case": lambda: no_case_pair(3),
        "non-finite pencil": overflowing_pencil_pair,
        "solver failure": lambda: assemble(SCHEMES["bulk-implicit-flux"],
                                           params(dp=0.9, dm=1.4, bp=0.8, bm=1.1), 6, 5),
    }[case]()
    failure = np.linalg.LinAlgError("no convergence") if case == "solver failure" else None
    with mock.patch.object(spectral.scipy.linalg, "eigvalsh", side_effect=failure,
                           wraps=spectral.scipy.linalg.eigvalsh):
        spectrum = full_spectrum(pair)
    dense = eigen_spectrum(update_matrix(pair))
    assert np.array_equal(spectrum.eigenvalues, dense.eigenvalues)
    assert spectrum.residual_bound == dense.residual_bound


# ------------------------------------------------------------ batch of cells

@pytest.mark.parametrize("n", [2, 3, 5, 8, 30])
def test_batch_pivots_match_dpttrf(n):
    # the run test's closed form (_run_pivot) for the last pivot of n x n
    # Toeplitz runs tridiag(beta, alpha, beta), a batch of them at once,
    # against dpttrf on each run: the verdict where no pivot is within
    # rounding of 0, and the last pivot of a definite run
    gen = np.random.default_rng(SEED + n)
    cells = 4000
    beta = gen.choice([-1.0, 1.0], cells) * 10.0 ** gen.uniform(-3, 3, cells)
    # x = alpha / 2|beta| on both sides of cos(pi/(n+1)), and far past 1
    x = np.cos(np.pi / (n + 1)) + gen.choice([-1.0, 1.0], cells) * 10.0 ** gen.uniform(-6, 1, cells)
    x[::7] = 10.0 ** gen.uniform(1, 12, x[::7].size)
    alpha = 2.0 * np.abs(beta) * x
    m = np.array([[n]])
    low = -2.0 * np.sin(np.pi / (2 * n + 2)) ** 2
    with np.errstate(all="ignore"):
        pivot, positive = spectral._run_pivot(alpha[None], beta[None], (alpha - 2.0 * np.abs(beta))[None],
                                              m, low)
    checked = 0
    for j in range(cells):
        d = np.full(n, alpha[j])
        expected, _, info = spectral.lapack.dpttrf(d, np.full(n - 1, beta[j]))
        upto = info or n
        if np.abs(expected[:upto]).min() <= 1e-9 * abs(beta[j]):
            continue  # a pivot within rounding of 0
        checked += 1
        assert positive[0, j] == (info == 0)
        if info == 0:
            assert pivot[0, j] == pytest.approx(expected[-1], rel=1e-9)
    assert checked > 0.9 * cells and 0 < np.count_nonzero(positive) < cells


def hand_built_pairs(name, groups, n_minus, n_plus):
    """An assembled pair and variants of it with the same sizes."""
    pair = assemble(SCHEMES[name], scheme_params(name, groups), n_minus, n_plus)
    return [pair, mirrored(pair), no_case_pair(pair.n)]


def pair_bands(pair):
    """The six bands of a pair: A sub, diag, sup, then B's."""
    return [getattr(m, band) for m in (pair.A, pair.B) for band in ("sub", "diag", "sup")]


def stacked_bands(pairs):
    """The bands of pairs of one size as (length, cells) arrays, one pair per column."""
    return [np.stack(bands, axis=1) for bands in zip(*map(pair_bands, pairs))]


def pair_runs(pairs):
    """The bands of pairs of one size as runs for spectral.run_ends: every entry a run."""
    return [(band, (1,) * band.shape[0]) for band in stacked_bands(pairs)]


def twist_row(pair):
    """The row at which eigen_spectrum(pair) twists its definiteness tests."""
    return pair.n - 1 if pair.layout is None else pair.layout.interface_row


BATCH_CELLS = st.lists(st.tuples(st.tuples(*[log_group] * 5), ONE_SIDED), min_size=1, max_size=6)


def batch_pairs(name, n_minus, n_plus, cells):
    pairs = []
    for groups, zero in cells:
        groups = list(groups)
        if zero is not None:
            groups[zero] = 0.0
        pairs += hand_built_pairs(name, groups, n_minus, n_plus)
    return pairs


@given(name=st.sampled_from(list(SCHEMES)), n_minus=st.integers(1, 8), n_plus=st.integers(1, 8),
       cells=BATCH_CELLS)
@settings(max_examples=150, deadline=None)
def test_batch_pencil_is_the_pair_pencil(name, n_minus, n_plus, cells):
    pairs = batch_pairs(name, n_minus, n_plus, cells)
    pencil, lagged, c, margin, radius, ok = spectral._symmetric_pencil(*stacked_bands(pairs))
    for k, pair in enumerate(pairs):
        single = spectral._symmetric_pencil(*pair_bands(pair))
        for column, value in zip((*pencil, margin, radius), (*single[0], *single[3:5])):
            assert column[:, k].tobytes() == value.tobytes()
        assert ok[k] == single[5]
        # the lean builder tests lagged indices only where some index is lagged
        if single[1] is None:
            assert lagged is None or not lagged[:, k].any()
        else:
            assert lagged[:, k].tobytes() == single[1].tobytes()
            assert c[:, k].tobytes() == single[2].tobytes()


def huge_pair(n, a_diag, b_diag):
    """A = tridiag(-1, a_diag, -1) and B = b_diag I."""
    off = np.full(n - 1, -1.0)
    return UpdatePair(A=Tridiagonal(off, np.full(n, a_diag), off),
                      B=Tridiagonal(0.0 * off, np.full(n, b_diag), 0.0 * off), layout=None)


def test_probe_that_overflows_proves_nothing():
    # the top end 5e307 of A = tridiag(-1, 3, -1) and B = 1e308 I, found by a
    # search whose probes overflow, came out NaN; the dense path finds it
    pair = huge_pair(2, 3.0, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(spectral.pencil_ends(pair_bands(pair))).all()
        assert np.isnan(spectral.run_ends(pair_runs([pair] * 2), 1)).all()
    assert eigen_spectrum(pair).lambda_max == pytest.approx(5e307, rel=1e-14)


@pytest.mark.parametrize("twist", [-1, 5])
def test_twist_row_outside_the_pair_is_rejected(twist):
    pair = assemble(SCHEMES["bulk-explicit-flux"], params(dp=0.5, dm=0.5, bp=0.3, bm=0.3), 3, 2)
    with pytest.raises(ParameterDomainError, match=f"twist row {twist} outside 0..4"):
        spectral.pencil_ends(pair_bands(pair), twist)
    with pytest.raises(ParameterDomainError, match=f"twist row {twist} outside 0..4"):
        spectral.run_ends(pair_runs([pair] * 2), twist)


def run_probes(runs, twist):
    """spectral.run_ends and the sigma of each of its probes, one per cell."""
    def probe(sigma, pencil):
        sigmas.append(np.broadcast_to(sigma, pencil[0].shape[1:]).copy())
        return real(sigma, pencil)

    real, sigmas = spectral._run_test, []
    with mock.patch.object(spectral, "_run_test", probe):
        ends = spectral.run_ends(runs, twist)
    return ends, sigmas


@pytest.mark.parametrize("a_diag, b_diag, calls", [(2.5, 1.7e308, 0), (3.0, 1e308, 4)])
def test_masked_search_without_a_proved_column(a_diag, b_diag, calls):
    # the first pair's Gershgorin bound overflows, so no cell is tested at
    # hi, and the scalar search makes no probe; the second's probes overflow
    # to NaN and close every cell, where the scalar search's fourth probe
    # overflows.  A loop that tested keep.all() on its empty state would never
    # end, and none probes zero cells or a sigma that is not finite
    pair = huge_pair(2, a_diag, b_diag)
    ends, sigmas = run_probes(pair_runs([pair] * 3), 1)  # past n cells
    with mock.patch.object(spectral, "_ldl", wraps=spectral._ldl) as scalar:
        assert np.isnan(spectral.pencil_ends(pair_bands(pair))).all()
    assert scalar.call_count == calls
    assert np.isnan(ends).all()
    assert all(sigma.size == 3 and np.isfinite(sigma).all() for sigma in sigmas)


def test_masked_kernel_never_probes_what_it_cannot_prove():
    # the masked search (_run_top_end) tests no cell at an infinite hi and
    # makes no probe once no cell is open: none where the Gershgorin bound
    # overflows, as _top_end makes none
    def search(*args):
        before = probes.call_count
        ends = top_end(*args)
        searches.append(probes.call_count - before)
        return ends

    pair, top_end, searches = huge_pair(2, 2.5, 1.7e308), spectral._run_top_end, []
    with mock.patch.object(spectral, "_run_test", wraps=spectral._run_test) as probes, \
            mock.patch.object(spectral, "_run_top_end", search), \
            mock.patch.object(spectral, "_ldl", wraps=spectral._ldl) as scalar:
        assert np.isnan(spectral.run_ends(pair_runs([pair] * 3), 1)).all()
        assert np.isnan(spectral.run_ends(pair_runs([pair]), 1)).all()
        assert np.isnan(spectral.pencil_ends(pair_bands(pair))).all()
    assert searches == [0, 0] and scalar.call_count == 0


@given(name=st.sampled_from(list(SCHEMES)), n_minus=st.integers(1, 8), n_plus=st.integers(1, 8),
       cells=BATCH_CELLS)
@settings(max_examples=150, deadline=None)
def test_run_ends_match_pencil_ends_within_their_bounds(name, n_minus, n_plus, cells):
    # assembled, mirrored and no-case pairs, one-sided and lagged among them,
    # then a pencil, a Gershgorin bound and a probe that overflow, and an
    # infinite entry, as runs of one row each and at the assembled pair's
    # interface row and at n - 1
    pairs = batch_pairs(name, n_minus, n_plus, cells)
    n = pairs[0].n
    if n > 1:
        pairs += [overflowing_pencil_pair(n), huge_pair(n, 2.5, 1.7e308), huge_pair(n, 3.0, 1e308)]
    runs = pair_runs(pairs + pairs[:1])
    runs[4][0][0, -1] = np.inf
    for twist in {twist_row(pairs[0]), n - 1}:
        top, bottom, bound = spectral.run_ends(runs, twist)
        assert np.isnan(top[-1]) and (n == 1 or np.isnan(top[-4:]).all())
        for pair, t, b, r in zip(pairs, top, bottom, bound):
            ends = spectral.pencil_ends(pair_bands(pair), twist)
            if pair.layout is not None:  # an assembled pair is always proved
                assert t == t and ends[0] == ends[0]
            if t != t or ends[0] != ends[0]:
                continue
            lam = max(abs(t), abs(b)) if b == b else abs(t)
            reference = max(abs(ends[0]), abs(ends[1])) if ends[1] == ends[1] else abs(ends[0])
            assert abs(lam - reference) <= r + ends[2]
            assert abs(t - ends[0]) <= r + ends[2]


def dense_symmetric(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


@given(name=st.sampled_from(list(SCHEMES)), n_minus=st.integers(1, 8), n_plus=st.integers(1, 8),
       groups=st.tuples(*[log_group] * 5), zero=ONE_SIDED,
       where=st.sampled_from(("first", "interior", "last")), t=st.floats(0.0, 1.0),
       u=st.floats(-1.25, 1.25))
@settings(max_examples=300, deadline=None)
def test_twisted_test_is_sylvesters_verdict(name, n_minus, n_plus, groups, zero, where, t, u):
    groups = list(groups)
    if zero is not None:
        groups[zero] = 0.0
    pair = assemble(SCHEMES[name], scheme_params(name, groups), n_minus, n_plus)
    n = pair.n
    assume(n >= 2)  # a 1 x 1 pencil is not searched: its end is B_00 / A_00
    k = {"first": 0, "last": n - 1, "interior": min(1 + int(t * (n - 2)), n - 1)}[where]
    with np.errstate(all="ignore"):
        pencil, lagged, c, margin, radius, ok = spectral._symmetric_pencil(*pair_bands(pair))
    assert ok
    a_diag, a_off, b_diag, b_off = pencil
    if lagged is None:
        eigenvalues = scipy.linalg.eigvalsh(dense_symmetric(b_diag, b_off),
                                            dense_symmetric(a_diag, a_off))
        sigma = u * np.abs(eigenvalues).max()
        gaps = eigenvalues - sigma
    else:  # the pair's eigenvalues are nonnegative; sigma >= 0 only
        sigma = abs(u) * ((np.abs(b_diag) + radius) / margin).max()
    d, e = sigma * a_diag - b_diag, sigma * a_off - b_off
    if lagged is not None:
        e[lagged] = np.sqrt(c[lagged] * sigma)
        # the negative eigenvalues of sigma A - B, lagged entries and all,
        # count the pair's eigenvalues above sigma (see _symmetric_pencil)
        gaps = -scipy.linalg.eigvalsh(dense_symmetric(d, e))
    # the blocks above and below row k: the pivots before gamma_k
    blocks = np.delete(np.delete(dense_symmetric(d, e), k, axis=0), k, axis=1)
    sides = scipy.linalg.eigvalsh(blocks)
    # no verdict is exact within rounding of an eigenvalue
    assume(np.abs(gaps).min() > 1e-9 * np.abs(gaps).max())
    assume(np.abs(sides).min() > 1e-9 * np.abs(gaps).max())
    above = np.count_nonzero(gaps > 0.0)
    pivots, _, info = spectral.lapack.dpttrf(d, e)
    twisted = spectral._twisted_pencil(pencil, lagged, c, k)
    gamma, twisted_info = spectral._ldl(sigma, twisted)
    assert (twisted_info == 0) == (info == 0) == (above == 0)
    if k == n - 1 and info in (0, n):
        # plain dpttrf: gamma_k is its last pivot, bit for bit
        assert twisted_info == info
        assert np.float64(gamma).tobytes() == pivots[-1].tobytes()
    # the run test of the pair's runs, on its kept rows, gives Sylvester's verdict
    groups = scheme_params(name, groups)
    runs = assemble_runs(SCHEMES[name], SimpleNamespace(
        **{group: np.array([getattr(groups, group)]) for group in AXIS_NAMES}), n_minus, n_plus)
    with np.errstate(all="ignore"):  # as run_ends holds it
        value, fits = spectral._run_test(np.array([sigma]), spectral._run_pencil(runs, k)[0])
    assert bool(fits[0] and value[0] > 0.0) == (above == 0)
    assert bool(fits[0]) == (sides.min() > 0.0)


# mean definiteness tests per cell on 9 x 9 subgrids of the preset planes,
# 3% above the counts of the search twisted at the interface row (29.96,
# 35.54, 20.41 and 27.81); it took 43.68, 46.85, 24.30 and 42.54 at row n - 1.
# The run search of a plane, both ends in one loop, took 29.09, 30.89, 20.59
# and 26.88
PROBE_CEILINGS = {("fig3", 1.0): 30.9, ("fig5", 1.0): 36.6, ("fig9", 1.0): 21.0,
                  ("fig9", 2000.0): 28.6}


@pytest.mark.parametrize("preset, r", list(PROBE_CEILINGS))
def test_probes_per_cell(preset, r):
    spec = preset_sweep(preset, r=r)
    spec = dataclasses.replace(spec, axis_x=dataclasses.replace(spec.axis_x, points=9),
                               axis_y=dataclasses.replace(spec.axis_y, points=9))
    with mock.patch.object(spectral, "_run_test", wraps=spectral._run_test) as probe, \
            mock.patch.object(spectral, "_ldl", wraps=spectral._ldl) as scalar:
        field = run_sweep(spec)
    assert not scalar.called and not np.isnan(field.lambda_max).any()
    # the labels of eigen_spectrum(pair), and lambda_max within both bounds
    for (iy, ix), lam in np.ndenumerate(field.lambda_max):
        groups = dict(spec.fixed, **{spec.axis_x.name: spec.axis_x.values()[ix],
                                     spec.axis_y.name: spec.axis_y.values()[iy]})
        pair = assemble(spec.scheme, DimensionlessParams(**groups), spec.n_minus, spec.n_plus)
        spectrum = eigen_spectrum(pair)
        assert field.classification[iy, ix] == classify(spectrum.lambda_max, spec.tol).value
        assert abs(lam - spectrum.lambda_max) <= field.bound[iy, ix] + spectrum.residual_bound
    probes = sum(call.args[1][0].shape[1] for call in probe.call_args_list)
    assert probes / field.lambda_max.size <= PROBE_CEILINGS[preset, r]


def overflow_plane_pairs():
    """The pairs of the one-way explicit plane with d_minus and beta_minus up to 1e308."""
    pairs = []
    for dm in Axis("d_minus", 1e-2, 1e308, 7, "log").values():
        for bm in Axis("beta_minus", 0.5, 1e308, 3, "log").values():
            with np.errstate(all="ignore"):
                try:
                    pairs.append(assemble(SCHEMES["one-way-explicit-flux"],
                                          params(dm=dm, bm=bm), 5, 2))
                except ParameterDomainError:  # an entry overflowed
                    continue
    return pairs


def test_overflowing_gershgorin_bound_proves_nothing():
    # twice the Gershgorin bound overflows; a definiteness test at an
    # infinite hi proved an infinite end for a pair with finite entries
    pair = assemble(SCHEMES["one-way-explicit-flux"], params(dm=0.01, bm=1e308), 5, 2)
    assert np.isnan(spectral.pencil_ends(pair_bands(pair))).all()
    assert np.isnan(spectral.run_ends(pair_runs([pair] * pair.n), twist_row(pair))).all()
    # the dense fallback's M reaches 9.9e307 and fails its residual check
    with np.errstate(all="ignore"), pytest.raises(SpectrumError):
        eigen_spectrum(pair)


def test_pencil_paths_raise_no_floating_point_warning():
    pairs = overflow_plane_pairs()
    assert len(pairs) > 10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        single = [spectral.pencil_ends(pair_bands(pair))[0] for pair in pairs]
        top = spectral.run_ends(pair_runs(pairs), twist_row(pairs[0]))[0]
    assert np.isnan(top).tolist() == np.isnan(single).tolist()


def test_non_finite_pencil_leaves_the_pair_path():
    # sqrt(1 / 1e-309) overflows; searched anyway, that pencil gives
    # 0.6666666567 under a 3.9e-15 bound where the eigenvalues are 2/3 and 1/3
    pair = overflowing_pencil_pair()
    with np.errstate(all="ignore"):  # as its callers hold it
        assert not spectral._symmetric_pencil(*pair_bands(pair))[5]
    assert np.isnan(spectral.pencil_ends(pair_bands(pair))).all()
    spectrum = eigen_spectrum(pair)
    assert spectrum.lambda_max == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert spectrum.eigenvalues[1] == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_non_finite_pencil_leaves_the_batch():
    # the batch leaves the overflowing cell to eigen_spectrum and keeps the
    # finite one beside it
    finite = UpdatePair(A=Tridiagonal([-1.0], [3.0, 3.0], [-1.0]),
                        B=Tridiagonal([0.5], [1.0, 2.0], [0.5]), layout=None)
    top, bottom, bound = spectral.run_ends(pair_runs([overflowing_pencil_pair(), finite]), 1)
    assert np.isnan(top[0]) and np.isnan(bottom[0])
    lam = np.fmax(abs(top[1]), abs(bottom[1]))
    spectrum = eigen_spectrum(finite)
    assert abs(lam - spectrum.lambda_max) <= bound[1] + spectrum.residual_bound


# 50,000 cells per domain: a dense A alone would take 80 GB
LARGE_N = 50_000


@pytest.mark.parametrize("d", [0.4, 3.0])
def test_pencil_path_far_beyond_the_dense_limit(d):
    # all four groups equal: A is I + d L with L the Dirichlet Laplacian on 2N
    # cells and B = I (dpttrf bisection)
    pair = assemble(SCHEMES["bulk-implicit-flux"], params(dp=d, dm=d, bp=d, bm=d),
                    LARGE_N, LARGE_N)
    exact = 1.0 / (1.0 + 4.0 * d * np.sin(np.pi / (2 * (2 * LARGE_N + 1))) ** 2)
    assert eigen_spectrum(pair).lambda_max == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("d", [0.4, 0.6])
def test_diagonal_a_path_far_beyond_the_dense_limit(d):
    # r = 1: A = I and B = I - d L on n = 2N + 1 nodes (the twisted LDL^T search)
    pair = assemble(SCHEMES["dn-explicit"], params(dp=d, dm=d, r=1.0), LARGE_N, LARGE_N)
    n = 2 * LARGE_N + 1
    exact = max(abs(1.0 - 4.0 * d * np.sin(k * np.pi / (2 * (n + 1))) ** 2) for k in (1, n))
    assert eigen_spectrum(pair).lambda_max == pytest.approx(exact, rel=1e-14)


@pytest.mark.parametrize("name", ["bulk-implicit-flux", "bulk-explicit-flux", "bulk-sequential"])
def test_one_sided_pair_far_beyond_the_dense_limit(name):
    # beta_minus = 0: the pair is block triangular.  The negative block is
    # I + d L with L the Laplacian on N cells, Dirichlet far and Neumann at the
    # interface; the positive block, with 2d and a Robin or damped interface
    # row, stays below it.
    d = 0.4
    pair = assemble(SCHEMES[name], params(dp=2.0 * d, dm=d, bp=0.5), LARGE_N, LARGE_N)
    exact = 1.0 / (1.0 + 4.0 * d * np.sin(np.pi / (2 * (2 * LARGE_N + 1))) ** 2)
    assert eigen_spectrum(pair).lambda_max == pytest.approx(exact, rel=1e-14)


def test_sequential_pair_beyond_the_dense_limit_matches_arpack():
    pair = assemble(SCHEMES["bulk-sequential"], params(dp=0.9, dm=1.4, bp=0.8, bm=1.1),
                    1025, 1024)
    n = pair.n
    # M = A^-1 B applied from the bands, never formed
    op = LinearOperator((n, n), matvec=lambda x: tridiagonal_solve(pair.A, pair.B @ x),
                        dtype=float)
    (top,) = eigs(op, k=1, which="LM", v0=np.ones(n), return_eigenvectors=False)
    assert eigen_spectrum(pair).lambda_max == pytest.approx(abs(top), rel=1e-12)


def dirichlet_runs(m, d):
    """Runs of A = tridiag(-d, 1 + 2d, -d) and B = I on m rows, one cell per d."""
    cells = np.asarray(d, float)[None, :]
    zero = np.zeros_like(cells)
    return [(-cells, (m - 1,)), (1.0 + 2.0 * cells, (m,)), (-cells, (m - 1,)),
            (zero, (m - 1,)), (zero + 1.0, (m,)), (zero, (m - 1,))]


@pytest.mark.parametrize("m", [1, 2, 3, 10, 1000, 10 ** 6, 10 ** 9])
def test_dirichlet_run_matches_its_closed_form(m):
    # one Toeplitz run of m rows: lambda_max = 1 / (1 + 4 d sin^2(pi / 2(m + 1))),
    # twisted at the first, a middle and the last row
    d = np.array([0.01, 0.3, 0.5, 0.75, 4.0, 300.0])
    exact = 1.0 / (1.0 + 4.0 * d * np.sin(np.pi / (2 * (m + 1))) ** 2)
    for twist in sorted({0, m // 2, m - 1}):
        top, bottom, bound = spectral.run_ends(dirichlet_runs(m, d), twist)
        assert np.abs(top - exact).max() <= 8.0 * np.finfo(float).eps
        assert (np.abs(top - exact) <= bound).all()
        assert (bound <= 8.0 * m * np.finfo(float).eps * 4.0).all()
        assert np.isnan(bottom).all()  # B + q A = (1 + q) I + q d L is definite


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_run_test_is_the_inertia_of_the_dense_pencil(name):
    # seeded assembled pairs, a domain of one row among them (an empty run)
    # and a coupling group 0 in every third cell, each tested across its
    # spectrum at three twists: the run test calls sigma A - B definite
    # exactly where eigvalsh finds no eigenvalue <= 0, and every pivot
    # before gamma_k positive exactly where the blocks beside row k are definite
    gen = np.random.default_rng(SEED)
    checked = 0
    for n_minus, n_plus in [(1, 1), (1, 6), (6, 1), (5, 7), (40, 30)]:
        groups = 10.0 ** gen.uniform(-2.0, 2.0, size=(5, 12))
        groups[2, ::3] = groups[3, 1::3] = 0.0  # beta_plus, beta_minus
        cells = [scheme_params(name, column) for column in groups.T]
        p = SimpleNamespace(**{g: np.array([getattr(c, g) for c in cells]) for g in AXIS_NAMES})
        runs = assemble_runs(SCHEMES[name], p, n_minus, n_plus)
        dense, sigmas = [], []
        for u, groups_j in zip(gen.uniform(-1.25, 1.25, size=(7, len(cells), 1)).transpose(1, 0, 2),
                               cells):
            pair = assemble(SCHEMES[name], groups_j, n_minus, n_plus)
            (a_diag, a_off, b_diag, b_off), lagged, c, margin, radius, ok = \
                spectral._symmetric_pencil(*pair_bands(pair))
            assert ok
            if lagged is None:
                scale = np.abs(scipy.linalg.eigvalsh(dense_symmetric(b_diag, b_off),
                                                     dense_symmetric(a_diag, a_off))).max()
            else:  # sigma >= 0 only
                u, scale = np.abs(u), ((np.abs(b_diag) + radius) / margin).max()
            sigmas.append(u[:, 0] * scale)
            for sigma in sigmas[-1]:
                e = sigma * a_off - b_off
                if lagged is not None:
                    e[lagged] = np.sqrt(c[lagged] * sigma)
                dense.append(dense_symmetric(sigma * a_diag - b_diag, e))
        sigmas = np.array(sigmas)  # (cells, 7)
        n = dense[0].shape[0]
        for k in sorted({0, scheme_layout(SCHEMES[name], n_minus, n_plus).interface_row, n - 1}):
            with np.errstate(all="ignore"):  # as run_ends holds it
                pencil = spectral._run_pencil(runs, k)[0]
                tests = [spectral._run_test(sigmas[:, i], pencil) for i in range(sigmas.shape[1])]
            for i, (value, fits) in enumerate(tests):
                for j in range(len(cells)):
                    full = scipy.linalg.eigvalsh(dense[7 * j + i])
                    sides = scipy.linalg.eigvalsh(np.delete(np.delete(dense[7 * j + i], k, 0), k, 1))
                    if min(np.abs(full).min(), np.abs(sides).min(initial=1.0)) <= 1e-9 * np.abs(full).max():
                        continue  # no verdict is exact within rounding of an eigenvalue
                    checked += 1
                    assert bool(fits[j] and value[j] > 0.0) == (full.min() > 0.0)
                    assert bool(fits[j]) == (sides.min(initial=1.0) > 0.0)
    assert checked > 500


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_run_ends_match_pencil_ends_at_large_n(name):
    # assembled batches at 15,000 rows a domain, against pencil_ends on each
    # cell, within both bounds
    n_minus = n_plus = 15_000
    gen = np.random.default_rng(SEED)
    groups = 10.0 ** gen.uniform(-2.0, 2.0, size=(5, 4))
    groups[4] = gen.choice([5e-4, 1.0, 2000.0], 4)
    p = SimpleNamespace(**dict(zip(AXIS_NAMES, groups)))
    twist = scheme_layout(SCHEMES[name], n_minus, n_plus).interface_row
    top, bottom, bound = spectral.run_ends(assemble_runs(SCHEMES[name], p, n_minus, n_plus), twist)
    for k in range(4):
        pair = assemble(SCHEMES[name], DimensionlessParams(*groups[:, k]), n_minus, n_plus)
        ends = spectral.pencil_ends(pair_bands(pair), twist)
        assert abs(top[k] - ends[0]) <= bound[k] + ends[2]
        lam = np.fmax(abs(top[k]), abs(bottom[k]))
        assert abs(lam - eigen_spectrum(pair).lambda_max) <= bound[k] + ends[2]


def test_dense_path_keeps_the_dense_limit():
    with pytest.raises(ParameterDomainError):
        eigen_spectrum(no_case_pair(2049))


# ------------------------------------------------------------ block spectra

def test_sequential_block_triangular_spectrum_union():
    # with the lagged cross flux removed, M is block lower triangular and
    # the spectrum is the union of the diagonal block spectra
    p = params(dp=0.9, dm=1.4, bp=0.8, bm=0.0)
    pair = assemble(SCHEMES["bulk-sequential"], p, 4, 3)
    m = update_matrix(pair)
    assert np.abs(m[:4, 4:]).max() <= 1e-14
    whole = eigen_spectrum(m)
    parts = np.concatenate([np.linalg.eigvals(m[:4, :4]),
                            np.linalg.eigvals(m[4:, 4:])])
    match_multisets(whole.eigenvalues, parts, 1e-8)


def test_sequential_schur_determinant_identity():
    p = params(dp=0.9, dm=1.4, bp=0.8, bm=1.1)
    pair = assemble(SCHEMES["bulk-sequential"], p, 4, 3)
    m = update_matrix(pair)
    nm = 4
    for lam in (0.3 + 0.2j, -1.5, 2.0 + 1.0j):
        m11 = m[:nm, :nm] - lam * np.eye(nm)
        schur = (m[nm:, nm:] - lam * np.eye(3)
                 - m[nm:, :nm] @ np.linalg.solve(m11, m[:nm, nm:]))
        lhs = np.linalg.det(m - lam * np.eye(7))
        rhs = np.linalg.det(m11) * np.linalg.det(schur)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_decoupled_spectrum_union():
    p = params(dp=0.6, dm=1.2)
    pair = assemble(SCHEMES["bulk-implicit-flux"], p, 5, 4)
    m = update_matrix(pair)
    whole = eigen_spectrum(m)
    parts = np.concatenate([np.linalg.eigvals(m[:5, :5]),
                            np.linalg.eigvals(m[5:, 5:])])
    match_multisets(whole.eigenvalues, parts, 1e-8)


# -------------------------------------------------------------- growth link

def test_lambda_max_matches_power_growth():
    # dominant root is real, simple, and well separated for this forcing
    p = params(dm=1.0, bm=4.0)
    pair = assemble(SCHEMES["one-way-explicit-flux"], p, 30, 1)
    lam = eigen_spectrum(update_matrix(pair)).lambda_max
    est = power_growth_rate(pair, steps=250, burn_in=50, seed=SEED)
    assert est == pytest.approx(lam, rel=1e-6)


def test_lambda_max_matches_power_growth_stable_case():
    p = params(dp=0.4, dm=0.9, bp=0.3, bm=0.7)
    pair = assemble(SCHEMES["bulk-partial-flux"], p, 6, 5)
    lam = eigen_spectrum(update_matrix(pair)).lambda_max
    est = power_growth_rate(pair, steps=400, burn_in=120, seed=SEED)
    assert est == pytest.approx(lam, rel=1e-6)


# ------------------------------------------------------------------ classify

def test_classify_examples():
    assert classify(0.9) is StabilityClass.STABLE
    assert classify(1.0) is StabilityClass.MARGINAL
    assert classify(3.0) is StabilityClass.UNSTABLE


def test_classify_band_edges():
    tol = 1e-8
    assert classify(1.0 - 2 * tol, tol) is StabilityClass.STABLE
    assert classify(1.0 - tol, tol) is StabilityClass.MARGINAL
    assert classify(1.0 + tol, tol) is StabilityClass.MARGINAL
    assert classify(1.0 + 2 * tol, tol) is StabilityClass.UNSTABLE


def test_classify_rejects_nan_and_bad_tol():
    with pytest.raises(ParameterDomainError):
        classify(np.nan)
    with pytest.raises(ParameterDomainError):
        classify(0.5, tol=0.0)
    # an infinite band used to label every lambda_max marginal
    with pytest.raises(ParameterDomainError, match="tol must be positive and finite"):
        classify(0.5, tol=np.inf)
