"""Monolithic update pairs A T^{n+1} = B T^n for the coupling scheme family.

Cells are ordered with the negative domain first, most negative cell first,
so the interface sits between indices n_minus-1 and n_minus.  The far ends of
both domains are homogeneous Dirichlet: the out-of-range neighbor is dropped
while the diagonal keeps its interior value.

Bulk interface rows (theta, gamma in {0, 1} pick the flux time levels):

    A row n_minus-1:  [-d_minus, d_minus + theta*beta_minus + 1, -gamma*beta_minus]
    A row n_minus:    [-gamma*beta_plus, d_plus + theta*beta_plus + 1, -d_plus]
    B 2x2 block:      [[1-(1-theta)*beta_minus, (1-gamma)*beta_minus],
                       [(1-gamma)*beta_plus,    1-(1-theta)*beta_plus]]

The sequential variant zeroes the negative row's A coupling and moves it to B
(the negative domain steps first against the lagged positive state).  The
Dirichlet-Neumann schemes carry a shared interface node at index n_minus with
weight (1+r)/2; the one-way scheme keeps only the negative domain with the
interface flux folded into its last row.

The family is the eight schemes that SCHEMES names, and nothing else: a
SchemeSpec is one key (coupling, theta, gamma) of their table.  Every
per-scheme branch of the package reads the coupling tag: "bulk"
(simultaneous) or "bulk-sequential", "one-way", "dn-explicit" or
"dn-implicit".  assemble(scheme, p, n_minus, n_plus) is the one constructor
of a pair.  assemble_runs gives its bands as runs of equal entries, the
form that every pair has, and assemble_bands expands them, for one pair or
for a batch.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError, SchemeError
from .params import _require_count

# the kinds of Layout
BULK = "bulk"
DIRICHLET_NEUMANN = "dirichlet_neumann"
ONE_WAY_NEGATIVE = "one_way_negative"

# name -> (coupling, theta, gamma) of the eight schemes.  theta and gamma
# pick the time levels of the bulk flux in the local and the other domain's
# unknown; one-way reads theta only, and Dirichlet-Neumann neither
_TABLE = {
    "bulk-explicit-flux": ("bulk", 0, 0),
    "bulk-partial-flux": ("bulk", 1, 0),
    "bulk-implicit-flux": ("bulk", 1, 1),
    "bulk-sequential": ("bulk-sequential", 1, 1),
    "dn-explicit": ("dn-explicit", 0, 0),
    "dn-implicit": ("dn-implicit", 0, 0),
    "one-way-explicit-flux": ("one-way", 0, 0),
    "one-way-implicit-flux": ("one-way", 1, 0),
}
_NAMES = {key: name for name, key in _TABLE.items()}


@dataclass(frozen=True)
class SchemeSpec:
    """A scheme of the family: a key (coupling, theta, gamma) of the table; any other raises."""

    coupling: str
    theta: int
    gamma: int

    def __post_init__(self):
        try:
            named = (self.coupling, self.theta, self.gamma) in _NAMES
        except TypeError:  # an unhashable field is no key either
            named = False
        if not named:
            raise SchemeError(f"no scheme has coupling {self.coupling!r}, theta {self.theta!r} "
                              f"and gamma {self.gamma!r}")


SCHEMES = {name: SchemeSpec(*key) for name, key in _TABLE.items()}


def scheme_name(scheme):
    """Name of a scheme in SCHEMES."""
    return _NAMES[scheme.coupling, scheme.theta, scheme.gamma]


@dataclass(frozen=True)
class Layout:
    """How a packed state vector maps onto the two domains."""

    kind: str  # BULK, DIRICHLET_NEUMANN, or ONE_WAY_NEGATIVE
    n_minus: int
    n_plus: int

    @property
    def n(self):
        if self.kind == DIRICHLET_NEUMANN:
            return self.n_minus + self.n_plus + 1
        if self.kind == ONE_WAY_NEGATIVE:
            return self.n_minus
        return self.n_minus + self.n_plus

    @property
    def interface_row(self):
        """The row at which the pencil search twists its definiteness tests.

        The modes at the ends of the spectrum are localized at the interface,
        so the row is there: the shared node n_minus of a Dirichlet-Neumann
        pair, else the last row of the negative domain, n_minus - 1, which
        is the last row of a one-way pair.
        """
        if self.kind == DIRICHLET_NEUMANN:
            return self.n_minus
        return self.n_minus - 1


@dataclass(frozen=True, eq=False)
class Tridiagonal:
    """A tridiagonal matrix held as its three bands, read-only after construction.

    sub[i] is entry (i+1, i), diag[i] entry (i, i) and sup[i] entry (i, i+1).
    The bands are copied, must be finite and must fit an n x n matrix with
    n >= 1.  toarray() is the only dense form.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    def __post_init__(self):
        bands = [np.array(v, dtype=float) for v in (self.sub, self.diag, self.sup)]
        sub, diag, sup = bands
        if diag.ndim != 1 or sub.shape != (diag.shape[0] - 1,) or sup.shape != sub.shape:
            raise ParameterDomainError("band lengths inconsistent with the diagonal")
        if not all(np.isfinite(v).all() for v in bands):
            raise ParameterDomainError("matrix has non-finite entries")
        for name, band in zip(("sub", "diag", "sup"), bands):
            band.setflags(write=False)
            object.__setattr__(self, name, band)

    @classmethod
    def from_dense(cls, a):
        """Bands of a square matrix whose three bands hold all its nonzero entries."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ParameterDomainError(f"matrix must be square, got shape {a.shape}")
        bands = np.diag(a, -1), np.diag(a), np.diag(a, 1)
        if np.count_nonzero(a) != sum(np.count_nonzero(band) for band in bands):
            raise ParameterDomainError("matrix is not tridiagonal")
        return cls(*bands)

    @property
    def n(self):
        return self.diag.shape[0]

    def toarray(self):
        """The dense n x n matrix."""
        a = np.diag(self.diag)
        a.flat[1::self.n + 1] = self.sup
        a.flat[self.n::self.n + 1] = self.sub
        return a

    def __matmul__(self, x):
        """Banded product with a vector or an n x k matrix, O(n k)."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] != self.n:
            raise ParameterDomainError(f"operand shape {x.shape} does not match n = {self.n}")
        rows = (slice(None),) + (None,) * (x.ndim - 1)
        out = self.diag[rows] * x
        out[:-1] += self.sup[rows] * x[1:]
        out[1:] += self.sub[rows] * x[:-1]
        return out


@dataclass(frozen=True)
class UpdatePair:
    """Tridiagonal A and B of A T^{n+1} = B T^n, both stored as bands."""

    A: Tridiagonal
    B: Tridiagonal
    layout: Layout

    @property
    def n(self):
        return self.A.n


def _runs(values, counts, shape):
    """A band as runs (rows, counts): rows[k], a float or an array of the groups' shape,
    repeated counts[k] times, so row k of a batch band's rows is run k of every cell."""
    rows = np.empty((len(values),) + shape)
    for k, value in enumerate(values):
        rows[k] = value
    return rows, tuple(counts)


# Each *_runs function takes (scheme, p, n_minus, n_plus) and returns the
# runs of the six bands (A sub, A diag, A sup, B sub, B diag, B sup) of one
# pair.  The groups of p are floats or arrays of one shape: every entry
# formula is written once and evaluates either way, so a one-cell pair and a
# column of a batch share their entries bit for bit.  Away from the
# interface the backward-Euler rows carry the stencil [-d, 1+2d, -d].


def _bulk_runs(scheme, p, n_minus, n_plus):
    theta, gamma = scheme.theta, scheme.gamma
    dm, dp = p.d_minus, p.d_plus
    bm, bp = p.beta_minus, p.beta_plus
    shape = np.shape(dm)
    sequential = scheme.coupling == "bulk-sequential"
    # rows: negative interior, interface rows n_minus-1 and n_minus, positive interior
    runs = (n_minus - 1, 1, 1, n_plus - 1)
    off_runs = (n_minus - 1, 1, n_plus - 1)
    diag = _runs([1.0 + 2.0 * dm, dm + theta * bm + 1.0, dp + theta * bp + 1.0,
                  1.0 + 2.0 * dp], runs, shape)
    # the sequential negative domain steps first: its coupling to the positive
    # state is lagged into B
    return (_runs([-dm, -gamma * bp, -dp], off_runs, shape), diag,
            _runs([-dm, 0.0 if sequential else -gamma * bm, -dp], off_runs, shape),
            _runs([0.0, (1.0 - gamma) * bp, 0.0], off_runs, shape),
            _runs([1.0, 1.0 - (1.0 - theta) * bm, 1.0 - (1.0 - theta) * bp, 1.0], runs, shape),
            _runs([0.0, bm if sequential else (1.0 - gamma) * bm, 0.0], off_runs, shape))


def _one_way_runs(scheme, p, n_minus, n_plus):
    # the positive side acts as forcing only; theta picks the time level of
    # the interface flux in the last row
    dm, bm = p.d_minus, p.beta_minus
    shape = np.shape(dm)
    explicit = scheme.theta == 0
    # summed in bulk-row order so the block-equality contract holds exactly
    diag = _runs([1.0 + 2.0 * dm, 1.0 + dm if explicit else dm + bm + 1.0], (n_minus - 1, 1),
                 shape)
    off = _runs([-dm], (n_minus - 1,), shape)
    b_diag = _runs([1.0, 1.0 - bm if explicit else 1.0], (n_minus - 1, 1), shape)
    zero = _runs([0.0], (n_minus - 1,), shape)
    return off, diag, off, zero, b_diag, zero


def _dn_explicit_runs(scheme, p, n_minus, n_plus):
    dm, dp, r = p.d_minus, p.d_plus, p.r
    shape = np.shape(dm)
    w = (1.0 + r) / 2.0
    # rows: negative domain, shared node n_minus, positive domain.  A is the
    # identity apart from the interface weight; B carries the forward-Euler
    # stencils and the flux-balance interface row
    runs = (n_minus, 1, n_plus)
    zero = _runs([0.0], (n_minus + n_plus,), shape)
    return (zero, _runs([1.0, w, 1.0], runs, shape), zero,
            _runs([dm, dp], (n_minus, n_plus), shape),
            _runs([1.0 - 2.0 * dm, w - dm - dp * r, 1.0 - 2.0 * dp], runs, shape),
            _runs([dm, dp * r, dp], (n_minus, 1, n_plus - 1), shape))


def _dn_implicit_runs(scheme, p, n_minus, n_plus):
    dm, dp, r = p.d_minus, p.d_plus, p.r
    shape = np.shape(dm)
    w = (1.0 + r) / 2.0
    # rows: negative domain, shared node n_minus, first positive row, the rest
    runs = (n_minus, 1, 1, n_plus - 1)
    off_runs = (n_minus, 1, n_plus - 1)
    # the negative stencil continues into the shared node, whose row takes
    # the negative flux implicitly and lags the positive flux into B; the
    # first positive row takes its Dirichlet value from the old interface.
    # So A splits into two independent blocks
    off = _runs([-dm, 0.0, -dp], off_runs, shape)
    return (off, _runs([1.0 + 2.0 * dm, w + dm, dp + 1.0, 1.0 + 2.0 * dp], runs, shape), off,
            _runs([0.0, dp, 0.0], off_runs, shape),
            _runs([1.0, w - dp * r, 1.0 - dp, 1.0], runs, shape),
            _runs([0.0, dp * r, 0.0], off_runs, shape))


# each coupling's run builder and Layout kind
_COUPLINGS = {
    "bulk": (_bulk_runs, BULK),
    "bulk-sequential": (_bulk_runs, BULK),
    "one-way": (_one_way_runs, ONE_WAY_NEGATIVE),
    "dn-explicit": (_dn_explicit_runs, DIRICHLET_NEUMANN),
    "dn-implicit": (_dn_implicit_runs, DIRICHLET_NEUMANN),
}


def scheme_layout(scheme, n_minus, n_plus):
    """The Layout of the pairs that assemble builds for a SchemeSpec."""
    kind = _COUPLINGS[scheme.coupling][1]
    return Layout(kind, n_minus, 0 if kind == ONE_WAY_NEGATIVE else n_plus)


def assemble_runs(scheme, p, n_minus, n_plus):
    """The six bands of assemble's pair as runs of equal entries: (rows, counts) each.

    p has the five groups as attributes.  With floats rows has shape (runs,);
    with arrays of one shape (cells,) it has shape (runs, cells), and its
    column j holds the runs of the groups' entries j.  Band k is row i of
    rows repeated counts[i] times, in order; a count may be 0.  The entries
    are not checked: a run may hold non-finite entries.
    """
    _require_count("n_minus", n_minus)
    # a one-way pair has no positive rows
    _require_count("n_plus", 1 if scheme.coupling == "one-way" else n_plus)
    return _COUPLINGS[scheme.coupling][0](scheme, p, n_minus, n_plus)


def assemble_bands(scheme, p, n_minus, n_plus):
    """The six bands (A sub, A diag, A sup, B sub, B diag, B sup) of assemble's pair:
    assemble_runs expanded, each band 1-d with floats, or (length, cells) with
    arrays of one shape (cells,), column j the band of the groups' entries j."""
    return tuple(np.repeat(rows, counts, axis=0)
                 for rows, counts in assemble_runs(scheme, p, n_minus, n_plus))


def assemble(scheme, p, n_minus, n_plus):
    """Build the update pair for any SchemeSpec: the one-cell call of assemble_bands."""
    bands = assemble_bands(scheme, p, n_minus, n_plus)
    return UpdatePair(Tridiagonal(*bands[:3]), Tridiagonal(*bands[3:]),
                      scheme_layout(scheme, n_minus, n_plus))


def write_dense_csv(matrix, path):
    """Dump a matrix as dense CSV, row-major, 17 significant digits."""
    matrix = np.asarray(matrix)
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.atleast_2d(matrix):
            fh.write(",".join("%.17g" % v for v in row))
            fh.write("\n")
