import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cplstab import (SCHEMES, DimensionlessParams, ParameterDomainError,
                     SingularMatrixError, StabilityClass, Tridiagonal,
                     UpdatePair, assemble, assemble_bulk, assemble_one_way,
                     classify, eigen_spectrum, power_growth_rate,
                     update_matrix)
from cplstab.assembly import SEQUENTIAL

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
    pair = assemble_bulk(params(bp=0.25, bm=0.5), 2, 2, theta=0, gamma=0)
    assert np.array_equal(update_matrix(pair), pair.B.toarray())


def test_update_matrix_scalar_solve():
    pair = assemble_bulk(params(dp=0.5, dm=0.5), 2, 1, theta=0, gamma=0)
    # A = 2I when 1+2d = 2 everywhere, which needs every row to be an
    # outer row; easier to check directly against a dense solve
    m = update_matrix(pair)
    assert np.allclose(m, np.linalg.solve(pair.A.toarray(), pair.B.toarray()), atol=1e-14)


def test_update_matrix_swap_example():
    pair = assemble_bulk(params(bp=1.0, bm=1.0), 1, 1, theta=0, gamma=0)
    assert np.allclose(update_matrix(pair), [[0.0, 1.0], [1.0, 0.0]])


def test_update_matrix_residual_contract():
    p = params(dp=3.0, dm=40.0, bp=0.7, bm=90.0)
    pair = assemble_bulk(p, 30, 20, theta=1, gamma=1)
    m = update_matrix(pair)
    res = np.abs(pair.A.toarray() @ m - pair.B.toarray()).max()
    assert res <= 1e-12 * np.abs(pair.B.toarray()).max()


def test_update_matrix_singular_pivot():
    pair = assemble_bulk(params(bp=0.5, bm=0.5), 1, 1, theta=0, gamma=0)
    bad = type(pair)(A=Tridiagonal.from_dense(np.array([[1.0, 1.0], [1.0, 1.0]])),
                     B=pair.B, layout=pair.layout)
    with pytest.raises(SingularMatrixError):
        update_matrix(bad)


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


def test_tridiagonal_fast_path_matches_dense():
    # explicit D-N update matrices are symmetrizable tridiagonal
    p = params(dp=0.3, dm=0.45, r=3.0)
    pair = assemble(SCHEMES["dn-explicit"], p, 15, 10)
    m = update_matrix(pair)
    s = eigen_spectrum(m)
    dense = np.linalg.eigvals(m)
    match_multisets(s.eigenvalues, dense, 1e-9)
    assert np.abs(np.imag(s.eigenvalues)).max() == 0.0


# ------------------------------------------------------------------ pencil

SYMMETRIZABLE = [name for name in SCHEMES if name != "bulk-sequential"]
log_group = st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e)


@given(name=st.sampled_from(SYMMETRIZABLE), n_minus=st.integers(1, 12),
       n_plus=st.integers(1, 12), groups=st.tuples(*[log_group] * 5))
@settings(max_examples=300, deadline=None)
def test_pencil_path_matches_dense_oracle(name, n_minus, n_plus, groups):
    dp, dm, bp, bm, r = groups
    if name.startswith("one-way"):
        p = params(dm=dm, bm=bm)
    elif name.startswith("dn"):
        p = params(dp=dp, dm=dm, r=r)
    else:
        p = params(dp=dp, dm=dm, bp=bp, bm=bm)
    pair = assemble(SCHEMES[name], p, n_minus, n_plus)
    pencil = eigen_spectrum(pair)
    dense = eigen_spectrum(update_matrix(pair))
    # the pencil path reports the ends of the spectrum, never all of it
    assert len(pencil.eigenvalues) <= 2
    assert abs(pencil.lambda_max - dense.lambda_max) <= 1e-10 * dense.lambda_max
    if abs(dense.lambda_max - 1.0) > 1e-6:
        assert classify(pencil.lambda_max) == classify(dense.lambda_max)


@pytest.mark.parametrize("name, p", [
    ("bulk-sequential", params(dp=0.9, dm=1.4, bp=0.8, bm=1.1)),
    ("bulk-explicit-flux", params(dp=0.9, dm=1.4, bp=0.8, bm=0.0)),
    ("bulk-implicit-flux", params(dp=0.9, dm=1.4, bp=0.8, bm=0.0)),
])
def test_unsymmetrizable_pairs_take_the_dense_path(name, p):
    pair = assemble(SCHEMES[name], p, 6, 5)
    spectrum = eigen_spectrum(pair)
    dense = eigen_spectrum(update_matrix(pair))
    assert np.array_equal(spectrum.eigenvalues, dense.eigenvalues)
    assert spectrum.lambda_max == dense.lambda_max
    assert spectrum.residual_bound == dense.residual_bound


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
    # r = 1: A = I and B = I - d L on n = 2N + 1 nodes (dstebz)
    pair = assemble(SCHEMES["dn-explicit"], params(dp=d, dm=d, r=1.0), LARGE_N, LARGE_N)
    n = 2 * LARGE_N + 1
    exact = max(abs(1.0 - 4.0 * d * np.sin(k * np.pi / (2 * (n + 1))) ** 2) for k in (1, n))
    assert eigen_spectrum(pair).lambda_max == pytest.approx(exact, rel=1e-14)


def test_dense_path_keeps_the_dense_limit():
    pair = assemble(SCHEMES["bulk-sequential"], params(dp=0.9, dm=1.4, bp=0.8, bm=1.1),
                    1025, 1024)
    with pytest.raises(ParameterDomainError):
        eigen_spectrum(pair)


# ------------------------------------------------------------ block spectra

def test_sequential_block_triangular_spectrum_union():
    # with the lagged cross flux removed, M is block lower triangular and
    # the spectrum is the union of the diagonal block spectra
    p = params(dp=0.9, dm=1.4, bp=0.8, bm=0.0)
    pair = assemble_bulk(p, 4, 3, theta=1, gamma=1, formulation=SEQUENTIAL)
    m = update_matrix(pair)
    assert np.abs(m[:4, 4:]).max() <= 1e-14
    whole = eigen_spectrum(m)
    parts = np.concatenate([np.linalg.eigvals(m[:4, :4]),
                            np.linalg.eigvals(m[4:, 4:])])
    match_multisets(whole.eigenvalues, parts, 1e-8)


def test_sequential_schur_determinant_identity():
    p = params(dp=0.9, dm=1.4, bp=0.8, bm=1.1)
    pair = assemble_bulk(p, 4, 3, theta=1, gamma=1, formulation=SEQUENTIAL)
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
    pair = assemble_bulk(p, 5, 4, theta=1, gamma=1)
    m = update_matrix(pair)
    whole = eigen_spectrum(m)
    parts = np.concatenate([np.linalg.eigvals(m[:5, :5]),
                            np.linalg.eigvals(m[5:, 5:])])
    match_multisets(whole.eigenvalues, parts, 1e-8)


# -------------------------------------------------------------- growth link

def test_lambda_max_matches_power_growth():
    # dominant root is real, simple, and well separated for this forcing
    p = params(dm=1.0, bm=4.0)
    pair = assemble_one_way(p, 30, flux="explicit")
    lam = eigen_spectrum(update_matrix(pair)).lambda_max
    est = power_growth_rate(pair, steps=250, burn_in=50, seed=SEED)
    assert est == pytest.approx(lam, rel=1e-6)


def test_lambda_max_matches_power_growth_stable_case():
    p = params(dp=0.4, dm=0.9, bp=0.3, bm=0.7)
    pair = assemble_bulk(p, 6, 5, theta=1, gamma=0)
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
