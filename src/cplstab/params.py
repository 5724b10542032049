"""Parameters of the coupled two-domain diffusion problem.

Two diffusion equations rho*c*dT/dt = d/dz(nu*dT/dz) meet at z = 0, coupled
either through a bulk flux q = b*(T_plus - T_minus) or through a shared
Dirichlet-Neumann node.  Every update matrix and every analytic stability
result downstream depends only on the dimensionless groups

    d_pm    = nu_pm * dt / (rho_pm * c_pm * dz_pm**2)
    beta_pm = b * dt / (rho_pm * c_pm * dz_pm)
    r       = (rho_plus * c_plus * dz_plus) / (rho_minus * c_minus * dz_minus)

so the physical layer exists only for configs written in physical units.

Every input rule of the package is stated here once, and the other modules
check through it: _require_positive and _require_nonnegative (finite
values), _require_count (an int or numpy integer, not a bool, of at least
k) and _require_groups (r positive, the other four nonnegative; in_domain
is its array form).  Every config file is read by _read_config and every
number in it parsed by _config_number.
"""

import configparser
import numbers
from dataclasses import dataclass

from .errors import ParameterDomainError


def _require_positive(name, value):
    if not 0.0 < value < float("inf"):
        raise ParameterDomainError(f"{name} must be positive and finite, got {value!r}")


def _require_nonnegative(name, value):
    if not 0.0 <= value < float("inf"):
        raise ParameterDomainError(f"{name} must be nonnegative and finite, got {value!r}")


def _require_count(name, value, least=1):
    """An int or numpy integer, not a bool, of at least `least`."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integer and value >= least):
        rule = "nonnegative" if integer and least == 0 else f"an integer >= {least}"
        raise ParameterDomainError(f"{name} must be {rule}, got {value!r}")


def _require_groups(groups, prefix=""):
    """DimensionlessParams' rule on a dict of groups: r positive, the others nonnegative."""
    for name, value in groups.items():
        (_require_positive if name == "r" else _require_nonnegative)(prefix + name, value)


@dataclass(frozen=True)
class PhysicalParams:
    """Material and interface properties in physical units.

    b is the bulk transfer coefficient.  When the exchange coefficient C_H and
    wind speed U_norm are given, b must equal rho_plus*c_plus*C_H*U_norm.
    """

    rho_plus: float
    rho_minus: float
    c_plus: float
    c_minus: float
    nu_plus: float
    nu_minus: float
    b: float
    C_H: float = None
    U_norm: float = None

    def __post_init__(self):
        for name in ("rho_plus", "rho_minus", "c_plus", "c_minus", "nu_plus", "nu_minus"):
            _require_positive(name, getattr(self, name))
        _require_nonnegative("b", self.b)
        if (self.C_H is None) != (self.U_norm is None):
            raise ParameterDomainError("C_H and U_norm must be given together")
        if self.C_H is not None:
            _require_nonnegative("C_H", self.C_H)
            _require_nonnegative("U_norm", self.U_norm)
            expected = self.rho_plus * self.c_plus * self.C_H * self.U_norm
            scale = max(abs(self.b), abs(expected), 1e-300)
            if abs(self.b - expected) > 1e-12 * scale:
                raise ParameterDomainError(
                    f"b = {self.b!r} inconsistent with rho_plus*c_plus*C_H*U_norm = {expected!r}"
                )

    @property
    def k_plus(self):
        """Diffusivity nu_plus / (rho_plus * c_plus)."""
        return self.nu_plus / (self.rho_plus * self.c_plus)

    @property
    def k_minus(self):
        return self.nu_minus / (self.rho_minus * self.c_minus)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid spacings, cell counts per domain, and the time step."""

    dz_plus: float
    dz_minus: float
    n_plus: int
    n_minus: int
    dt: float

    def __post_init__(self):
        _require_positive("dz_plus", self.dz_plus)
        _require_positive("dz_minus", self.dz_minus)
        _require_positive("dt", self.dt)
        _require_count("n_plus", self.n_plus)
        _require_count("n_minus", self.n_minus)


@dataclass(frozen=True)
class DimensionlessParams:
    """The five groups that the update matrices actually depend on."""

    d_plus: float
    d_minus: float
    beta_plus: float
    beta_minus: float
    r: float

    def __post_init__(self):
        _require_groups(vars(self))


def in_domain(d_plus, d_minus, beta_plus, beta_minus, r):
    """_require_groups elementwise over arrays: True where DimensionlessParams accepts the groups."""
    ok = (r > 0.0) & (r != float("inf"))
    for value in (d_plus, d_minus, beta_plus, beta_minus):
        ok = ok & (value >= 0.0) & (value != float("inf"))
    return ok


def bulk_coefficient(C_H, U_norm, rho_plus, c_plus):
    """Bulk transfer coefficient b = rho_plus * c_plus * C_H * U_norm."""
    _require_nonnegative("C_H", C_H)
    _require_nonnegative("U_norm", U_norm)
    _require_positive("rho_plus", rho_plus)
    _require_positive("c_plus", c_plus)
    return rho_plus * c_plus * C_H * U_norm


def derive_dimensionless(phys, grid):
    """Reduce physical parameters and a grid to the dimensionless groups."""
    hc_plus = phys.rho_plus * phys.c_plus
    hc_minus = phys.rho_minus * phys.c_minus
    return DimensionlessParams(
        d_plus=phys.nu_plus * grid.dt / (hc_plus * grid.dz_plus**2),
        d_minus=phys.nu_minus * grid.dt / (hc_minus * grid.dz_minus**2),
        beta_plus=phys.b * grid.dt / (hc_plus * grid.dz_plus),
        beta_minus=phys.b * grid.dt / (hc_minus * grid.dz_minus),
        r=(hc_plus * grid.dz_plus) / (hc_minus * grid.dz_minus),
    )


# --- config files ---

_PHYSICAL_KEYS = ("rho_plus", "rho_minus", "c_plus", "c_minus", "nu_plus", "nu_minus", "b")
_PHYSICAL_OPTIONAL = ("C_H", "U_norm")
_GRID_KEYS = ("dz_plus", "dz_minus", "n_plus", "n_minus", "dt")
_DIMENSIONLESS_KEYS = ("d_plus", "d_minus", "beta_plus", "beta_minus", "r")


def _read_config(path):
    """The INI file at path, keys case-sensitive."""
    parser = configparser.ConfigParser()
    parser.optionxform = str
    if not parser.read(path, encoding="utf-8"):
        raise ParameterDomainError(f"config file not found: {path}")
    return parser


def _config_number(section, values, key, kind, default=None):
    """values[key] (or the default) as `kind`; a malformed value is a usage error."""
    text = values.get(key, default)
    try:
        return kind(text)
    except ValueError:
        raise ParameterDomainError(f"[{section}] {key} = {text!r} is not a valid {kind.__name__}") from None


def _section_values(parser, section, required, optional=()):
    present = dict(parser.items(section)) if parser.has_section(section) else {}
    unknown = set(present) - set(required) - set(optional)
    if unknown:
        raise ParameterDomainError(f"unknown keys in [{section}]: {sorted(unknown)}")
    missing = set(required) - set(present)
    if missing:
        raise ParameterDomainError(f"missing keys in [{section}]: {sorted(missing)}")
    return present


def load_config(path):
    """Read an INI parameter file.

    The file holds either a [dimensionless] section with the five groups, or a
    [physical] and a [grid] section; exactly one of the two forms.  Returns
    (DimensionlessParams, GridSpec or None).
    """
    parser = _read_config(path)
    dimless = parser.has_section("dimensionless")
    physical = parser.has_section("physical") or parser.has_section("grid")
    if dimless and physical:
        raise ParameterDomainError("config must use [dimensionless] or [physical]+[grid], not both")
    if dimless:
        values = _section_values(parser, "dimensionless", _DIMENSIONLESS_KEYS)
        return DimensionlessParams(**{k: _config_number("dimensionless", values, k, float)
                                      for k in values}), None
    if not (parser.has_section("physical") and parser.has_section("grid")):
        raise ParameterDomainError("config needs a [dimensionless] section or both [physical] and [grid]")
    pvals = _section_values(parser, "physical", _PHYSICAL_KEYS, _PHYSICAL_OPTIONAL)
    gvals = _section_values(parser, "grid", _GRID_KEYS)
    phys = PhysicalParams(**{k: _config_number("physical", pvals, k, float) for k in pvals})
    grid = GridSpec(**{k: _config_number("grid", gvals, k, int if k.startswith("n_") else float)
                       for k in gvals})
    return derive_dimensionless(phys, grid), grid
