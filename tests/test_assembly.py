from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cplstab import (SCHEMES, DimensionlessParams, ParameterDomainError,
                     SchemeError, SchemeSpec, Tridiagonal, assemble, scheme_name,
                     write_dense_csv)
from cplstab.assembly import BULK, DIRICHLET_NEUMANN, assemble_bands, scheme_layout

SEED = 0
rng = np.random.default_rng(seed=SEED)

small = st.floats(min_value=1e-3, max_value=50.0,
                  allow_nan=False, allow_infinity=False)


def params(dp=0.0, dm=0.0, bp=0.0, bm=0.0, r=1.0):
    return DimensionlessParams(dp, dm, bp, bm, r)


# ------------------------------------------------------------- scheme specs

# keys (coupling, theta, gamma) that name no scheme
UNNAMED_KEYS = [
    ("bulk", 0, 1),                 # flux levels that no bulk scheme takes
    ("bulk-sequential", 0, 0),
    ("bulk-sequential", 1, 0),
    ("bulk-sequential", 0, 1),
    ("bulk", 2, 0),                 # a flux level outside {0, 1}
    ("dn-implicit", 1, 0),          # Dirichlet-Neumann has no flux levels
    ("dn-explicit", 1, 0),
    ("one-way", 0, 1),              # one-way has no gamma
    ("dirichlet_neumann", 0, 0),    # a Layout kind, not a coupling
    (["bulk"], 0, 0),               # not a string, and unhashable
]


def test_scheme_spec_rejects_bad_combinations():
    for key in UNNAMED_KEYS:
        with pytest.raises(SchemeError, match="no scheme has coupling"):
            SchemeSpec(*key)


def test_scheme_names_round_trip():
    # validate --suite scan and perfbench iterate SCHEMES in this order
    assert list(SCHEMES) == [
        "bulk-explicit-flux", "bulk-partial-flux", "bulk-implicit-flux", "bulk-sequential",
        "dn-explicit", "dn-implicit", "one-way-explicit-flux", "one-way-implicit-flux"]
    for name, scheme in SCHEMES.items():
        assert scheme_name(scheme) == name
        assert SchemeSpec(scheme.coupling, scheme.theta, scheme.gamma) == scheme


# --------------------------------------------------------------------- bulk

def test_bulk_no_dynamics_is_identity():
    pair = assemble(SCHEMES["bulk-explicit-flux"], params(), 3, 2)
    assert np.array_equal(pair.A.toarray(), np.eye(5))
    assert np.array_equal(pair.B.toarray(), np.eye(5))


def test_bulk_explicit_interface_blocks():
    # theta = gamma = 0: A carries no cross terms, B carries the bulk exchange
    d = 0.7
    pair = assemble(SCHEMES["bulk-explicit-flux"], params(dp=d, dm=d, bp=0.25, bm=0.5), 2, 2)
    assert pair.A.toarray()[1, 1] == pytest.approx(1.0 + d)
    assert pair.A.toarray()[2, 2] == pytest.approx(1.0 + d)
    assert pair.A.toarray()[1, 2] == 0.0 and pair.A.toarray()[2, 1] == 0.0
    assert np.allclose(pair.B.toarray()[1:3, 1:3], [[0.5, 0.5], [0.25, 0.75]])


def test_bulk_strong_exchange_example():
    pair = assemble(SCHEMES["bulk-explicit-flux"], params(bp=2.0, bm=2.0), 1, 1)
    assert np.array_equal(pair.A.toarray(), np.eye(2))
    assert np.array_equal(pair.B.toarray(), [[-1.0, 2.0], [2.0, -1.0]])
    assert sorted(np.linalg.eigvals(pair.B.toarray()).real) == pytest.approx([-3.0, 1.0])


def test_bulk_interface_rows_all_levels():
    p = params(dp=0.3, dm=0.2, bp=0.4, bm=0.6)
    pair = assemble(SCHEMES["bulk-implicit-flux"], p, 3, 3)
    im, ip = 2, 3
    assert pair.A.toarray()[im, im - 1] == pytest.approx(-0.2)
    assert pair.A.toarray()[im, im] == pytest.approx(0.2 + 0.6 + 1.0)
    assert pair.A.toarray()[im, ip] == pytest.approx(-0.6)
    assert pair.A.toarray()[ip, im] == pytest.approx(-0.4)
    assert pair.A.toarray()[ip, ip] == pytest.approx(0.3 + 0.4 + 1.0)
    assert pair.A.toarray()[ip, ip + 1] == pytest.approx(-0.3)
    # fully implicit flux leaves B as the identity
    assert np.array_equal(pair.B.toarray(), np.eye(6))


def test_bulk_sequential_moves_coupling_to_b():
    p = params(dp=0.3, dm=0.2, bp=0.4, bm=0.6)
    sim = assemble(SCHEMES["bulk-implicit-flux"], p, 3, 3)
    seq = assemble(SCHEMES["bulk-sequential"], p, 3, 3)
    im, ip = 2, 3
    assert seq.A.toarray()[im, ip] == 0.0
    assert seq.B.toarray()[im, ip] == pytest.approx(0.6)
    # every other entry matches the simultaneous variant
    mask = np.ones_like(sim.A.toarray(), dtype=bool)
    mask[im, ip] = False
    assert np.array_equal(seq.A.toarray()[mask], sim.A.toarray()[mask])


def test_bulk_sequential_block_triangular_determinant():
    p = params(dp=0.9, dm=1.7, bp=0.8, bm=1.2)
    pair = assemble(SCHEMES["bulk-sequential"], p, 4, 3)
    nm = 4
    assert np.all(pair.A.toarray()[:nm, nm:] == 0.0)
    det = np.linalg.det(pair.A.toarray())
    det_blocks = (np.linalg.det(pair.A.toarray()[:nm, :nm])
                  * np.linalg.det(pair.A.toarray()[nm:, nm:]))
    assert det == pytest.approx(det_blocks, rel=1e-12)


def test_dirichlet_end_rows_drop_neighbor_keep_diagonal():
    d = 0.4
    pair = assemble(SCHEMES["bulk-explicit-flux"], params(dp=d, dm=d), 3, 3)
    assert pair.A.toarray()[0, 0] == pytest.approx(1.0 + 2.0 * d)
    assert pair.A.toarray()[0, 1] == pytest.approx(-d)
    assert pair.A.toarray()[5, 5] == pytest.approx(1.0 + 2.0 * d)
    assert pair.A.toarray()[5, 4] == pytest.approx(-d)


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_heat_is_conserved_across_the_interface(name):
    # with weights that make the interface fluxes cancel, w @ (A - B) keeps
    # only the far-end Dirichlet columns (one-way: its far end and the flux
    # that leaves through the interface)
    p = params(dp=0.7, dm=1.1, bp=0.3, bm=0.6, r=2.5)
    nm, np_ = 4, 3
    pair = assemble(SCHEMES[name], p, nm, np_)
    kind = pair.layout.kind
    if kind == BULK:
        w = np.r_[np.full(nm, 1.0 / p.beta_minus), np.full(np_, 1.0 / p.beta_plus)]
        ends = p.d_minus / p.beta_minus, p.d_plus / p.beta_plus
    elif kind == DIRICHLET_NEUMANN:
        w = np.r_[np.ones(nm + 1), np.full(np_, p.r)]
        ends = p.d_minus, p.d_plus * p.r
    else:
        w = np.ones(nm)
        ends = p.d_minus, p.beta_minus
    expected = np.zeros(pair.n)
    expected[[0, -1]] = ends
    columns = w @ (pair.A.toarray() - pair.B.toarray())
    np.testing.assert_allclose(columns, expected, rtol=0.0, atol=1e-13)


@given(dm=small, dp=small, bm=small, bp=small,
       levels=st.sampled_from([(0, 0), (1, 0), (1, 1)]),
       nm=st.integers(1, 6), np_=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_implicit_rows_diagonally_dominant(dm, dp, bm, bp, levels, nm, np_):
    """Assembled A rows stay strictly diagonally dominant for positive d."""
    theta, gamma = levels
    pair = assemble(SchemeSpec("bulk", theta, gamma), params(dp, dm, bp, bm), nm, np_)
    diag = np.abs(np.diag(pair.A.toarray()))
    off = np.abs(pair.A.toarray()).sum(axis=1) - diag
    assert np.all(diag > off)


# ---------------------------------------------------------------- one-sided

def test_one_way_single_cell_updates():
    d, beta = 0.5, 0.25
    exp = assemble(SCHEMES["one-way-explicit-flux"], params(dm=d, bm=beta), 1, 1)
    assert exp.A.toarray()[0, 0] == pytest.approx(1.0 + d)
    assert exp.B.toarray()[0, 0] == pytest.approx(1.0 - beta)
    imp = assemble(SCHEMES["one-way-implicit-flux"], params(dm=d, bm=beta), 1, 1)
    assert imp.A.toarray()[0, 0] == pytest.approx(1.0 + d + beta)
    assert imp.B.toarray()[0, 0] == 1.0


def test_one_way_unforced_variants_match():
    p = params(dm=0.8)
    exp = assemble(SCHEMES["one-way-explicit-flux"], p, 4, 1)
    imp = assemble(SCHEMES["one-way-implicit-flux"], p, 4, 1)
    assert np.array_equal(exp.A.toarray(), imp.A.toarray())
    assert np.array_equal(exp.B.toarray(), imp.B.toarray())


@given(dm=small, dp=small, bm=small, bp=small, nm=st.integers(1, 5),
       theta=st.sampled_from([0, 1]))
@settings(max_examples=40, deadline=None)
def test_one_way_equals_bulk_upper_left_block(dm, dp, bm, bp, nm, theta):
    """One-way matrices are the negative bulk blocks minus the coupling."""
    p = params(dp, dm, bp, bm)
    one = assemble(SchemeSpec("one-way", theta, 0), p, nm, 1)
    bulk = assemble(SchemeSpec("bulk", theta, 0), p, nm, 3)
    a_block = bulk.A.toarray()[:nm, :nm].copy()
    b_block = bulk.B.toarray()[:nm, :nm].copy()
    assert np.array_equal(one.A.toarray(), a_block)
    assert np.array_equal(one.B.toarray(), b_block)


# ----------------------------------------------------------- shared-node D-N

def test_dn_explicit_identity_limit():
    pair = assemble(SCHEMES["dn-explicit"], params(r=0.5), 2, 2)
    m = np.linalg.solve(pair.A.toarray(), pair.B.toarray())
    assert np.allclose(m, np.eye(5))


def test_dn_explicit_interface_row():
    d, r = 0.3, 2.0
    pair = assemble(SCHEMES["dn-explicit"], params(dp=d, dm=d, r=r), 2, 2)
    k = 2
    assert pair.A.toarray()[k, k] == pytest.approx((1.0 + r) / 2.0)
    assert pair.B.toarray()[k, k - 1] == pytest.approx(d)
    assert pair.B.toarray()[k, k] == pytest.approx((1.0 + r) / 2.0 - d - d * r)
    assert pair.B.toarray()[k, k + 1] == pytest.approx(d * r)
    # r = 1 symmetric case collapses to the interior stencil
    sym = assemble(SCHEMES["dn-explicit"], params(dp=d, dm=d, r=1.0), 2, 2)
    assert sym.A.toarray()[k, k] == 1.0
    assert np.allclose(sym.B.toarray()[k, k - 1:k + 2], [d, 1.0 - 2.0 * d, d])


def test_dn_explicit_cfl_boundary_stencil():
    pair = assemble(SCHEMES["dn-explicit"], params(dp=0.5, dm=0.5, r=3.0), 3, 3)
    assert np.allclose(pair.B.toarray()[1, 0:3], [0.5, 0.0, 0.5])
    assert np.allclose(pair.B.toarray()[4, 3:6], [0.5, 0.0, 0.5])


def test_dn_implicit_frozen_positive_domain():
    pair = assemble(SCHEMES["dn-implicit"], params(dm=0.4), 2, 2)
    k = 2
    assert np.array_equal(pair.A.toarray()[k + 1], [0.0, 0.0, 0.0, 1.0, 0.0])
    assert pair.B.toarray()[k + 1, k] == 0.0 and pair.B.toarray()[k + 1, k + 1] == 1.0


def test_dn_implicit_interface_rows():
    d_minus, d_plus, r = 0.7, 1.0, 1.0
    pair = assemble(SCHEMES["dn-implicit"], params(dp=d_plus, dm=d_minus, r=r), 2, 2)
    k = 2
    assert pair.A.toarray()[k, k - 1] == pytest.approx(-d_minus)
    assert pair.A.toarray()[k, k] == pytest.approx((1.0 + r) / 2.0 + d_minus)
    assert pair.B.toarray()[k, k] == pytest.approx(0.0)
    assert pair.B.toarray()[k, k + 1] == pytest.approx(1.0)
    # the positive block solves independently; its interface data rides in B
    assert pair.A.toarray()[k + 1, k] == 0.0
    assert pair.A.toarray()[k + 1, k + 1] == pytest.approx(d_plus + 1.0)
    assert pair.A.toarray()[k + 1, k + 2] == pytest.approx(-d_plus)
    assert pair.B.toarray()[k + 1, k] == pytest.approx(d_plus)
    assert pair.B.toarray()[k + 1, k + 1] == pytest.approx(1.0 - d_plus)


def test_dn_implicit_small_ratio_limit():
    d_minus, r = 0.7, 1e-12
    pair = assemble(SCHEMES["dn-implicit"], params(dp=0.3, dm=d_minus, r=r), 2, 2)
    k = 2
    assert pair.A.toarray()[k, k] == pytest.approx(0.5 + d_minus, rel=1e-10)
    assert pair.B.toarray()[k, k] == pytest.approx(0.5, rel=1e-9)
    assert pair.B.toarray()[k, k + 1] == pytest.approx(0.0, abs=1e-12)


def test_dn_negative_block_couples_to_shared_node():
    d = 0.6
    pair = assemble(SCHEMES["dn-implicit"], params(dp=0.2, dm=d, r=1.0), 3, 2)
    assert pair.A.toarray()[2, 3] == pytest.approx(-d)
    assert pair.A.toarray()[2, 2] == pytest.approx(1.0 + 2.0 * d)


# --------------------------------------------------------------- dispatcher

def test_layout_sizes():
    p = params(dp=0.1, dm=0.1, r=1.0)
    assert assemble(SCHEMES["bulk-explicit-flux"], p, 3, 2).layout.n == 5
    assert assemble(SCHEMES["dn-explicit"], p, 3, 2).layout.n == 6
    assert assemble(SCHEMES["one-way-explicit-flux"], p, 3, 2).layout.n == 3


def test_update_pair_is_read_only():
    pair = assemble(SCHEMES["bulk-explicit-flux"], params(dm=0.5), 2, 2)
    with pytest.raises(ValueError):
        pair.A.diag[0] = 7.0


group = st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))


@given(name=st.sampled_from(list(SCHEMES)), nm=st.integers(1, 6), np_=st.integers(1, 6),
       cells=st.lists(st.tuples(*[group] * 5), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_batch_bands_are_the_pairs_bands(name, nm, np_, cells):
    # column j of every batch band is the band of cell j, bit for bit
    cells = [(dp, dm, bp, bm, r or 1.0) for dp, dm, bp, bm, r in cells]
    columns = np.array(cells).T
    batch = assemble_bands(SCHEMES[name], SimpleNamespace(
        **dict(zip(("d_plus", "d_minus", "beta_plus", "beta_minus", "r"), columns))), nm, np_)
    layout = assemble(SCHEMES[name], params(), nm, np_).layout
    assert scheme_layout(SCHEMES[name], nm, np_) == layout
    for j, groups in enumerate(cells):
        pair = assemble(SCHEMES[name], params(*groups), nm, np_)
        one = [getattr(m, band) for m in (pair.A, pair.B) for band in ("sub", "diag", "sup")]
        for band, expected in zip(batch, one):
            assert band.shape == expected.shape + (len(cells),)
            assert np.ascontiguousarray(band[:, j]).tobytes() == expected.tobytes()


def test_rejects_empty_domains():
    with pytest.raises(ParameterDomainError):
        assemble(SCHEMES["bulk-explicit-flux"], params(), 0, 2)
    with pytest.raises(ParameterDomainError):
        assemble(SCHEMES["dn-explicit"], params(), 2, 0)


# --------------------------------------------------------------- band type

entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@given(n=st.integers(1, 12), data=st.data())
@settings(max_examples=80, deadline=None)
def test_tridiagonal_product_and_dense_round_trip(n, data):
    def draw(*shape):
        size = int(np.prod(shape))
        return np.array(data.draw(st.lists(entries, min_size=size, max_size=size))).reshape(shape)

    t = Tridiagonal(draw(n - 1), draw(n), draw(n - 1))
    dense = t.toarray()
    for x in (draw(n), draw(n, 3)):
        # both products sum the same three terms per entry, in different orders
        bound = 8.0 * np.finfo(float).eps * (np.abs(dense) @ np.abs(x))
        assert (t @ x).shape == x.shape
        assert np.all(np.abs(t @ x - dense @ x) <= bound)
    back = Tridiagonal.from_dense(dense)
    for name in ("sub", "diag", "sup"):
        assert np.array_equal(getattr(back, name), getattr(t, name))


def test_tridiagonal_rejects_bad_bands():
    with pytest.raises(ParameterDomainError):
        Tridiagonal(np.zeros(2), np.ones(2), np.zeros(1))
    with pytest.raises(ParameterDomainError):
        Tridiagonal(np.zeros(0), np.zeros(0), np.zeros(0))
    with pytest.raises(ParameterDomainError):
        Tridiagonal(np.array([np.inf]), np.ones(2), np.zeros(1))
    with pytest.raises(ParameterDomainError):
        Tridiagonal.from_dense(np.ones((3, 3)))
    with pytest.raises(ParameterDomainError):
        Tridiagonal.from_dense(np.ones((2, 3)))
    with pytest.raises(ParameterDomainError):
        Tridiagonal(np.zeros(1), np.ones(2), np.zeros(1)) @ np.ones(3)
    # the bands are copies: writing to the caller's array leaves them alone
    diag = np.ones(2)
    t = Tridiagonal(np.zeros(1), diag, np.zeros(1))
    diag[0] = 7.0
    assert t.diag[0] == 1.0


# ------------------------------------------------------------------ csv dump

def test_write_dense_csv_round_trips(tmp_path):
    pair = assemble(SCHEMES["bulk-explicit-flux"], params(dp=1 / 3, dm=0.1, bp=0.7, bm=0.2), 2, 2)
    path = tmp_path / "a.csv"
    write_dense_csv(pair.A.toarray(), path)
    text = path.read_text()
    rows = [line.split(",") for line in text.strip().splitlines()]
    assert len(rows) == 4 and all(len(r) == 4 for r in rows)
    back = np.array([[float(v) for v in row] for row in rows])
    assert np.array_equal(back, pair.A.toarray())
