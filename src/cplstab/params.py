"""Parameters of the coupled two-domain diffusion problem.

Two diffusion equations rho*c*dT/dt = d/dz(nu*dT/dz) meet at z = 0, coupled
either through a bulk flux q = b*(T_plus - T_minus), with
b = rho_plus*c_plus*C_H*U for an exchange coefficient C_H and a wind speed U,
or through a shared Dirichlet-Neumann node.  Every update matrix and every analytic stability
result downstream depends only on the dimensionless groups

    d_pm    = nu_pm * dt / (rho_pm * c_pm * dz_pm**2)
    beta_pm = b * dt / (rho_pm * c_pm * dz_pm)
    r       = (rho_plus * c_plus * dz_plus) / (rho_minus * c_minus * dz_minus)

so every input of the package is these five groups; reduce physical values
by the formulas above before passing them in.

Every input rule of the package is stated here once, and the other modules
check through it: _require_positive and _require_nonnegative (finite
values), _require_count (an int or numpy integer, not a bool, of at least
k) and _require_groups (r positive, the other four nonnegative; in_domain
is its array form).  A sweep config file is read by _read_config, its
sections by _section_values and every number in it by _config_number.
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


# --- sweep config files ---


def _read_config(path):
    """The INI file at path, keys case-sensitive, values literal; a malformed file is a usage error."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        found = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ParameterDomainError(f"config file {path} is malformed: {err}") from None
    if not found:
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
