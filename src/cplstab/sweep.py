"""Stability maps over two dimensionless parameters.

A sweep fixes three of the five groups, varies the remaining two on a grid,
and records the spectral radius, its bound and its classification per cell:
a plane of BATCH_CELLS cells or more in one spectral.run_ends call, at any
n, and a smaller plane cell by cell.
Output is a flat CSV (x fastest, y ascending) and optionally a plain PGM
rendering of the spectral radius with 2.0 mapped to full scale.
"""

import numbers
import textwrap
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import __version__, assembly, spectral
from .errors import CplstabError, ParameterDomainError
from .params import (DimensionlessParams, _require_count, _require_groups, _require_positive,
                     in_domain)

AXIS_NAMES = ("d_plus", "d_minus", "beta_plus", "beta_minus", "r")

DEFAULT_LO = 1e-2
DEFAULT_HI = 1e3
DEFAULT_POINTS = 101
DEFAULT_N_MINUS = 20
DEFAULT_N_PLUS = 10
# planes from this many cells take the batch.  Per-cell over batch time on
# the presets' subplanes at n = 30 to 4,000: 4 cells 0.34-0.75 up to n = 400,
# 9 cells 0.84-1.6, 16 cells 1.5-11
BATCH_CELLS = 16


@dataclass(frozen=True)
class Axis:
    """One swept parameter with its sampling."""

    name: str
    lo: float
    hi: float
    points: int
    scale: str = "log"

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ParameterDomainError(f"unknown axis {self.name!r}")
        if self.scale not in ("log", "linear"):
            raise ParameterDomainError(f"unknown axis scale {self.scale!r}")
        _require_count("axis points", self.points, 2)
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ParameterDomainError(f"axis ends must be finite, got {self.lo!r}, {self.hi!r}")
        if not (0.0 < self.lo <= self.hi) and self.scale == "log":
            raise ParameterDomainError("log axis needs 0 < lo <= hi")
        if not (self.lo <= self.hi):
            raise ParameterDomainError("axis needs lo <= hi")

    def values(self):
        if self.scale == "log":
            return np.logspace(np.log10(self.lo), np.log10(self.hi), self.points)
        return np.linspace(self.lo, self.hi, self.points)


def default_axis(name):
    return Axis(name, DEFAULT_LO, DEFAULT_HI, DEFAULT_POINTS, "log")


@dataclass(frozen=True)
class SweepSpec:
    scheme: assembly.SchemeSpec
    axis_x: Axis
    axis_y: Axis
    fixed: dict
    n_minus: int = DEFAULT_N_MINUS
    n_plus: int = DEFAULT_N_PLUS
    tol: float = 1e-8

    def __post_init__(self):
        if self.axis_x.name == self.axis_y.name:
            raise ParameterDomainError("the two axes must differ")
        remaining = set(AXIS_NAMES) - {self.axis_x.name, self.axis_y.name}
        given = set(self.fixed)
        if given != remaining:
            raise ParameterDomainError(
                f"fixed values must cover exactly {sorted(remaining)}, got {sorted(given)}"
            )
        for name, value in self.fixed.items():
            if not isinstance(value, numbers.Real):
                raise ParameterDomainError(f"fixed {name} must be a real number, got {value!r}")
        # DimensionlessParams' own rule; an axis value outside it fails its cell
        _require_groups(self.fixed, "fixed ")
        # stored as floats, so every plane of real values takes the batch
        object.__setattr__(self, "fixed", {k: float(v) for k, v in self.fixed.items()})
        _require_count("n_minus", self.n_minus)
        _require_count("n_plus", self.n_plus)
        _require_positive("tol", self.tol)  # spectral.classify's rule


@dataclass
class StabilityField:
    """Sweep result: lambda_max, class and bound per cell, row-major in y.

    bound holds each lambda_max's error bound, NaN where the cell failed, or
    is None where none was given; the writers do not read it.
    """

    x_values: np.ndarray
    y_values: np.ndarray
    lambda_max: np.ndarray  # shape (len(y_values), len(x_values))
    classification: np.ndarray  # same shape, strings
    warning_count: int
    metadata: dict = field(default_factory=dict)
    bound: np.ndarray = None  # same shape


def _evaluate_point(spec, values):
    p = DimensionlessParams(**values)
    pair = assembly.assemble(spec.scheme, p, spec.n_minus, spec.n_plus)
    return spectral.eigen_spectrum(pair)


def _batch_lambda_max(spec, x, y):
    """lambda_max and its bound by spectral.run_ends; NaN where not proved or out of the domain."""
    groups = {name: np.full(x.shape, value) for name, value in spec.fixed.items()}
    groups[spec.axis_x.name], groups[spec.axis_y.name] = x, y
    p = SimpleNamespace(**groups)
    with np.errstate(all="ignore"):  # an overflow leaves its cell to the per-cell path
        runs = assembly.assemble_runs(spec.scheme, p, spec.n_minus, spec.n_plus)
    layout = assembly.scheme_layout(spec.scheme, spec.n_minus, spec.n_plus)
    top, bottom, bound = spectral.run_ends(runs, layout.interface_row)
    lam = np.fmax(np.abs(top), np.abs(bottom))
    lam[~in_domain(p.d_plus, p.d_minus, p.beta_plus, p.beta_minus, p.r)] = np.nan
    return lam, bound


def run_sweep(spec):
    """Evaluate the grid; failed cells become NaN with class 'failed'.

    A plane of at least BATCH_CELLS cells is one _batch_lambda_max call at
    any n, which raises for no cell.  A smaller plane goes cell by cell
    through eigen_spectrum(pair), as do the cells the batch does not prove.
    A cell fails on a CplstabError, or when its lambda_max is not a
    nonnegative number; any other error is a programming error and
    propagates.
    """
    xs, ys = spec.axis_x.values(), spec.axis_y.values()
    x, y = np.tile(xs, ys.size), np.repeat(ys, xs.size)
    lam, bound = np.full(x.size, np.nan), np.full(x.size, np.nan)
    if x.size >= BATCH_CELLS:
        lam, bound = _batch_lambda_max(spec, x, y)
    for k in np.flatnonzero(np.isnan(lam)):
        values = dict(spec.fixed)
        values[spec.axis_x.name] = float(x[k])
        values[spec.axis_y.name] = float(y[k])
        try:
            spectrum = _evaluate_point(spec, values)
        except CplstabError:
            continue
        lam[k], bound[k] = spectrum.lambda_max, spectrum.residual_bound
    lam, bound = lam.reshape(ys.size, xs.size), bound.reshape(ys.size, xs.size)
    failed = ~(lam >= 0.0)
    lam[failed] = bound[failed] = np.nan
    # spectral.classify, cell by cell
    cls = np.full(lam.shape, "unstable", dtype="<U8")
    cls[lam <= 1.0 + spec.tol] = "marginal"
    cls[lam < 1.0 - spec.tol] = "stable"
    cls[failed] = "failed"
    metadata = {
        "scheme": assembly.scheme_name(spec.scheme),
        "axis_x": spec.axis_x.name,
        "axis_y": spec.axis_y.name,
        "fixed": dict(spec.fixed),
        "n_minus": spec.n_minus,
        "n_plus": spec.n_plus,
        "tol": spec.tol,
        "version": __version__,
    }
    return StabilityField(xs, ys, lam, cls, int(failed.sum()), metadata, bound)


# --- writers ---


def write_csv(field_result, path):
    """Flat CSV: header names the axes, rows walk x fastest with y ascending.

    Every number is written as repr(float(value)), so it reads back bit for
    bit.  Each axis is formatted once, and the file is written row by row.
    """
    f = field_result
    xs = [repr(x) for x in np.asarray(f.x_values, dtype=float).tolist()]
    ys = np.asarray(f.y_values, dtype=float).tolist()
    lam = np.asarray(f.lambda_max, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{f.metadata['axis_x']},{f.metadata['axis_y']},lambda_max,class\n")
        for y, lam_row, cls_row in zip(ys, lam, f.classification):
            y = repr(y)
            fh.write("".join(f"{x},{y},{value!r},{label}\n" for x, value, label
                             in zip(xs, lam_row.tolist(), cls_row.tolist())))


def write_pgm(field_result, path):
    """Plain PGM (P2) of lambda_max: 2.0 and above map to 255, NaN to 0.

    Row 0 holds the largest y so the image reads like the plots.
    """
    f = field_result
    lam = f.lambda_max
    ny, nx = lam.shape
    pixels = np.zeros(lam.shape, dtype=int)
    finite = np.isfinite(lam)
    clipped = np.minimum(lam[finite], 2.0)
    pixels[finite] = np.floor(255.0 * clipped / 2.0).astype(int)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("P2\n")
        fh.write(f"{nx} {ny}\n")
        fh.write("255\n")
        for iy in range(ny - 1, -1, -1):
            # keep plain-format lines short for strict readers
            for line in textwrap.wrap(" ".join(map(str, pixels[iy])), 68):
                fh.write(line + "\n")


# --- presets mirroring the reference stability maps ---


def _bulk_minus_plane(scheme_name_, beta_plus, d_plus):
    return SweepSpec(
        scheme=assembly.SCHEMES[scheme_name_],
        axis_x=default_axis("d_minus"),
        axis_y=default_axis("beta_minus"),
        fixed={"beta_plus": beta_plus, "d_plus": d_plus, "r": 1.0},
    )


def _bulk_plus_plane(scheme_name_, beta_minus, d_minus):
    return SweepSpec(
        scheme=assembly.SCHEMES[scheme_name_],
        axis_x=default_axis("d_plus"),
        axis_y=default_axis("beta_plus"),
        fixed={"beta_minus": beta_minus, "d_minus": d_minus, "r": 1.0},
    )


def _dn_plane(scheme_name_, r):
    axis = Axis("d_minus", 0.05, 1.0, 41, "linear")
    return SweepSpec(
        scheme=assembly.SCHEMES[scheme_name_],
        axis_x=axis,
        axis_y=Axis("d_plus", 0.05, 1.0, 41, "linear"),
        fixed={"beta_minus": 0.0, "beta_plus": 0.0, "r": r},
    )


# fig4/fig6 variants step the fixed parameters through coarser grids;
# fig8/fig9 step the heat-content ratio
FIG4_VARIANTS = ((2.375, 9.025), (4.875, 38.025), (9.875, 156.025))
FIG6_VARIANTS = ((0.012188, 38.025), (0.024688, 156.025), (0.049688, 632.025))
FIG89_RATIOS = (2000.0, 1.0, 5e-4)


def preset_sweep(name, scheme="bulk-explicit-flux", variant=0, r=1.0):
    """Named parameter planes; see the README for the catalogue and its variants."""
    variants = {"fig4": FIG4_VARIANTS, "fig6": FIG6_VARIANTS}.get(name, (None,))
    if not 0 <= variant < len(variants):
        raise ParameterDomainError(f"variant {variant} outside 0..{len(variants) - 1} for {name}")
    if name in ("fig3", "fig4", "fig5", "fig6") and r != 1.0:
        raise ParameterDomainError(f"{name} fixes r = 1, got r = {r:g}")
    if name == "fig3":
        return _bulk_minus_plane(scheme, 1.125, 2.025)
    if name == "fig4":
        beta_plus, d_plus = FIG4_VARIANTS[variant]
        return _bulk_minus_plane(scheme, beta_plus, d_plus)
    if name == "fig5":
        return _bulk_plus_plane(scheme, 0.005938, 9.025)
    if name == "fig6":
        beta_minus, d_minus = FIG6_VARIANTS[variant]
        return _bulk_plus_plane(scheme, beta_minus, d_minus)
    if name == "fig8":
        return _dn_plane("dn-explicit", r)
    if name == "fig9":
        return _dn_plane("dn-implicit", r)
    raise ParameterDomainError(f"unknown preset {name!r}")


PRESET_NAMES = ("fig3", "fig4", "fig5", "fig6", "fig8", "fig9")
