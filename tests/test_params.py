import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cplstab import (SCHEMES, Axis, DimensionlessParams, GridSpec, ParameterDomainError,
                     PhysicalParams, SweepSpec, assemble, beljaars_bound, bulk_coefficient,
                     derive_dimensionless, growth_rate, kappa_root, load_config,
                     one_way_explicit_bound, one_way_explicit_roots, one_way_implicit_mode,
                     power_growth_rate, random_state, run_monolithic)
from cplstab.assembly import assemble_bands
from cplstab.params import in_domain

SEED = 0
rng = np.random.default_rng(seed=SEED)

positive = st.floats(min_value=1e-6, max_value=1e6,
                     allow_nan=False, allow_infinity=False)


def unit_physical(b=1.0):
    return PhysicalParams(rho_plus=1.0, rho_minus=1.0, c_plus=1.0,
                          c_minus=1.0, nu_plus=1.0, nu_minus=1.0, b=b)


def unit_grid(**kw):
    base = dict(dz_plus=1.0, dz_minus=1.0, n_plus=1, n_minus=1, dt=1.0)
    base.update(kw)
    return GridSpec(**base)


# ---------------------------------------------------------------- validation

def test_physical_rejects_nonpositive_density():
    with pytest.raises(ParameterDomainError):
        PhysicalParams(rho_plus=0.0, rho_minus=1.0, c_plus=1.0, c_minus=1.0,
                       nu_plus=1.0, nu_minus=1.0, b=1.0)


def test_physical_rejects_negative_bulk_coefficient():
    with pytest.raises(ParameterDomainError):
        unit_physical(b=-1.0)


def test_physical_exchange_consistency():
    # b must match rho_plus*c_plus*C_H*U_norm when both optional fields appear
    ok = PhysicalParams(rho_plus=1.0, rho_minus=1.0, c_plus=1000.0,
                        c_minus=1.0, nu_plus=1.0, nu_minus=1.0, b=5.0,
                        C_H=1e-3, U_norm=5.0)
    assert ok.b == 5.0
    with pytest.raises(ParameterDomainError):
        PhysicalParams(rho_plus=1.0, rho_minus=1.0, c_plus=1000.0,
                       c_minus=1.0, nu_plus=1.0, nu_minus=1.0, b=6.0,
                       C_H=1e-3, U_norm=5.0)
    with pytest.raises(ParameterDomainError):
        PhysicalParams(rho_plus=1.0, rho_minus=1.0, c_plus=1000.0,
                       c_minus=1.0, nu_plus=1.0, nu_minus=1.0, b=5.0,
                       C_H=1e-3)


def test_grid_rejects_bad_counts_and_spacings():
    with pytest.raises(ParameterDomainError):
        unit_grid(n_minus=0)
    with pytest.raises(ParameterDomainError):
        unit_grid(dz_plus=0.0)
    with pytest.raises(ParameterDomainError):
        unit_grid(dt=-1.0)


def test_dimensionless_rejects_bad_values():
    with pytest.raises(ParameterDomainError):
        DimensionlessParams(-0.1, 1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ParameterDomainError):
        DimensionlessParams(1.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ParameterDomainError):
        DimensionlessParams(np.inf, 1.0, 0.0, 0.0, 1.0)


# ------------------------------------------------- one rule per input

GROUPS = DimensionlessParams(0.4, 0.9, 0.3, 0.7, 1.0)
BULK = SCHEMES["bulk-implicit-flux"]
PAIR = assemble(BULK, GROUPS, 6, 5)
TRAJECTORY = run_monolithic(PAIR, random_state(PAIR.layout, seed=SEED), 20)

# every entry point that takes a count: (the count's name, a call taking it)
COUNT_ENTRY_POINTS = {
    "assemble.n_minus": ("n_minus", lambda k: assemble(BULK, GROUPS, k, 5)),
    "assemble.n_plus": ("n_plus", lambda k: assemble(BULK, GROUPS, 6, k)),
    "assemble_bands": ("n_minus", lambda k: assemble_bands(BULK, GROUPS, k, 5)),
    "GridSpec": ("n_plus", lambda k: GridSpec(0.1, 0.1, k, 3, 0.1)),
    "SweepSpec": ("n_minus", lambda k: SweepSpec(
        BULK, Axis("d_minus", 0.1, 1.0, 3), Axis("beta_minus", 0.1, 1.0, 3),
        {"beta_plus": 0.1, "d_plus": 0.1, "r": 1.0}, n_minus=k)),
    "Axis": ("axis points", lambda k: Axis("d_minus", 0.1, 1.0, k)),
    "random_state": ("seed", lambda k: random_state(PAIR.layout, seed=k)),
    "power_growth_rate.steps": ("steps", lambda k: power_growth_rate(PAIR, steps=k, burn_in=0)),
    "power_growth_rate.burn_in": ("burn_in", lambda k: power_growth_rate(PAIR, steps=20,
                                                                         burn_in=k)),
    "growth_rate": ("burn_in", lambda k: growth_rate(TRAJECTORY, burn_in=k)),
}


@pytest.mark.parametrize("value", [-1, 2.5, True])
@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_every_count_takes_the_one_count_rule(entry, value):
    # GridSpec took no numpy integer, the assemblers took True for 1, and
    # random_state, power_growth_rate and growth_rate raised numpy's bare
    # ValueError or a TypeError
    name, call = COUNT_ENTRY_POINTS[entry]
    with pytest.raises(ParameterDomainError, match=f"^{name} must be "):
        call(value)


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_every_count_takes_a_numpy_integer(entry):
    # the growth window needs steps >= burn_in + 10
    COUNT_ENTRY_POINTS[entry][1](np.int64(13 if entry == "power_growth_rate.steps" else 3))


def test_a_count_that_is_not_an_integer_says_so():
    with pytest.raises(ParameterDomainError, match=r"^steps must be an integer >= 0, got 60.5"):
        power_growth_rate(PAIR, steps=60.5, burn_in=0)


# the closed forms, each with a call taking one group
CLOSED_FORMS = {
    "kappa_root": ("d", "positive", lambda v: kappa_root(2.0, v)),
    "one_way_explicit_roots.d": ("d", "positive", lambda v: one_way_explicit_roots(1.0, v)),
    "one_way_explicit_roots.beta": ("beta", "nonnegative",
                                    lambda v: one_way_explicit_roots(v, 1.0)),
    "one_way_explicit_bound": ("d", "positive", one_way_explicit_bound),
    "beljaars_bound": ("d", "nonnegative", beljaars_bound),
    "one_way_implicit_mode.d": ("d", "positive", lambda v: one_way_implicit_mode(1.0, v)),
    "one_way_implicit_mode.beta": ("beta", "nonnegative",
                                   lambda v: one_way_implicit_mode(v, 1.0)),
}


@pytest.mark.parametrize("bad", ["low", np.inf, np.nan])
@pytest.mark.parametrize("form", sorted(CLOSED_FORMS))
def test_closed_forms_reject_groups_outside_the_domain(form, bad):
    # an infinite group gave inf, 1, a NaN mode or (inf, nan) with a RuntimeWarning
    name, rule, call = CLOSED_FORMS[form]
    value = (0.0 if rule == "positive" else -1.0) if bad == "low" else bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterDomainError, match=f"^{name} must be {rule} and finite"):
            call(value)


EDGE_VALUES = st.sampled_from([-1.0, -0.0, 0.0, 5e-324, 1.0, 1e308, np.inf, np.nan])


@given(groups=st.tuples(*[EDGE_VALUES] * 5))
def test_in_domain_is_the_array_form_of_the_group_rule(groups):
    try:
        DimensionlessParams(*groups)
        accepted = True
    except ParameterDomainError:
        accepted = False
    assert bool(in_domain(*groups)) == accepted
    columns = [np.array([value, 1.0]) for value in groups]
    assert in_domain(*columns).tolist() == [accepted, True]


# ------------------------------------------------------------------ mapping

def test_unit_inputs_give_unit_groups():
    p = derive_dimensionless(unit_physical(), unit_grid())
    assert p.d_plus == p.d_minus == 1.0
    assert p.beta_plus == p.beta_minus == 1.0
    assert p.r == 1.0


def test_heat_content_ratio_typical_values():
    # rho*c = 1000 (upper) vs 4e6 (lower) with equal spacing gives r = 2.5e-4
    phys = PhysicalParams(rho_plus=1.0, rho_minus=1000.0, c_plus=1000.0,
                          c_minus=4000.0, nu_plus=1.0, nu_minus=1.0, b=0.0)
    p = derive_dimensionless(phys, unit_grid())
    assert p.r == pytest.approx(2.5e-4, rel=1e-15)


def test_bulk_courant_hand_value():
    phys = PhysicalParams(rho_plus=1.0, rho_minus=1.0, c_plus=1000.0,
                          c_minus=1.0, nu_plus=1.0, nu_minus=1.0, b=100.0)
    grid = GridSpec(dz_plus=10.0, dz_minus=1.0, n_plus=1, n_minus=1, dt=100.0)
    p = derive_dimensionless(phys, grid)
    assert p.beta_plus == pytest.approx(1.0, rel=1e-15)


def test_bulk_coefficient_values():
    assert bulk_coefficient(0.0, 5.0, 1.0, 1000.0) == 0.0
    assert bulk_coefficient(1e-3, 5.0, 1.0, 1000.0) == pytest.approx(5.0)
    assert bulk_coefficient(1e-3, 100.0, 1.0, 1000.0) == pytest.approx(100.0)
    with pytest.raises(ParameterDomainError):
        bulk_coefficient(-1e-3, 5.0, 1.0, 1000.0)


def test_diffusivity_ratio_exposed():
    phys = PhysicalParams(rho_plus=2.0, rho_minus=1.0, c_plus=3.0,
                          c_minus=1.0, nu_plus=12.0, nu_minus=5.0, b=0.0)
    assert phys.k_plus == pytest.approx(2.0)
    assert phys.k_minus == pytest.approx(5.0)


@given(dt=positive, scale=st.floats(min_value=0.1, max_value=10.0))
def test_time_step_scaling(dt, scale):
    """Scaling dt scales every d and beta linearly and leaves r alone."""
    phys = unit_physical()
    p1 = derive_dimensionless(phys, unit_grid(dt=dt))
    p2 = derive_dimensionless(phys, unit_grid(dt=dt * scale))
    assert p2.d_minus == pytest.approx(p1.d_minus * scale, rel=1e-12)
    assert p2.d_plus == pytest.approx(p1.d_plus * scale, rel=1e-12)
    assert p2.beta_minus == pytest.approx(p1.beta_minus * scale, rel=1e-12)
    assert p2.beta_plus == pytest.approx(p1.beta_plus * scale, rel=1e-12)
    assert p2.r == p1.r


@given(dz=st.floats(min_value=1e-3, max_value=1e3))
def test_spacing_refinement(dz):
    """Halving dz_minus quadruples d_minus, doubles beta_minus and r."""
    phys = unit_physical()
    p1 = derive_dimensionless(phys, unit_grid(dz_minus=dz))
    p2 = derive_dimensionless(phys, unit_grid(dz_minus=dz / 2.0))
    assert p2.d_minus == pytest.approx(4.0 * p1.d_minus, rel=1e-12)
    assert p2.beta_minus == pytest.approx(2.0 * p1.beta_minus, rel=1e-12)
    assert p2.r == pytest.approx(2.0 * p1.r, rel=1e-12)
    assert p2.d_plus == p1.d_plus


def test_derive_is_deterministic():
    phys = unit_physical()
    grid = unit_grid(dt=0.37)
    assert derive_dimensionless(phys, grid) == derive_dimensionless(phys, grid)


# ------------------------------------------------------------------- config

def test_load_config_dimensionless(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(textwrap.dedent("""\
        [dimensionless]
        d_plus = 0.5
        d_minus = 1.5
        beta_plus = 0.0
        beta_minus = 2.0
        r = 0.25
    """))
    p, grid = load_config(path)
    assert p == DimensionlessParams(0.5, 1.5, 0.0, 2.0, 0.25)
    assert grid is None


def test_load_config_physical(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(textwrap.dedent("""\
        [physical]
        rho_plus = 1.0
        rho_minus = 1.0
        c_plus = 1.0
        c_minus = 1.0
        nu_plus = 1.0
        nu_minus = 1.0
        b = 1.0

        [grid]
        dz_plus = 1.0
        dz_minus = 1.0
        n_plus = 3
        n_minus = 5
        dt = 1.0
    """))
    p, grid = load_config(path)
    assert p == DimensionlessParams(1.0, 1.0, 1.0, 1.0, 1.0)
    assert grid.n_minus == 5 and grid.n_plus == 3


def test_load_config_requires_exactly_one_form(tmp_path):
    both = tmp_path / "both.cfg"
    both.write_text("[dimensionless]\nd_plus = 1\nd_minus = 1\n"
                    "beta_plus = 0\nbeta_minus = 0\nr = 1\n"
                    "[physical]\nrho_plus = 1\n")
    with pytest.raises(ParameterDomainError):
        load_config(both)
    neither = tmp_path / "neither.cfg"
    neither.write_text("[output]\ncsv = x.csv\n")
    with pytest.raises(ParameterDomainError):
        load_config(neither)


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[dimensionless]\nd_plus = 1\nd_minus = 1\n"
                    "beta_plus = 0\nbeta_minus = 0\nr = 1\nbogus = 3\n")
    with pytest.raises(ParameterDomainError):
        load_config(path)


PHYSICAL_CONFIG = """\
[physical]
rho_plus = 1.0
rho_minus = 1.0
c_plus = 1.0
c_minus = 1.0
nu_plus = 1.0
nu_minus = 1.0
b = 1.0

[grid]
dz_plus = 1.0
dz_minus = 1.0
n_plus = 3
n_minus = 5
dt = 1.0
"""


@pytest.mark.parametrize("old, new, message", [
    ("c_plus = 1.0", "c_plus = abc", "[physical] c_plus = 'abc' is not a valid float"),
    ("n_plus = 3", "n_plus = 2.5", "[grid] n_plus = '2.5' is not a valid int"),
], ids=["float", "int"])
def test_load_config_names_a_malformed_number(tmp_path, old, new, message):
    # these raised a bare ValueError from float() or int(), naming neither
    # the section nor the key, where the sweep config named both
    path = tmp_path / "run.cfg"
    path.write_text(PHYSICAL_CONFIG.replace(old, new))
    with pytest.raises(ParameterDomainError) as raised:
        load_config(path)
    assert str(raised.value) == message


def test_load_config_names_a_malformed_group(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[dimensionless]\nd_plus = abc\nd_minus = 1\n"
                    "beta_plus = 0\nbeta_minus = 0\nr = 1\n")
    with pytest.raises(ParameterDomainError, match=r"\[dimensionless\] d_plus = 'abc'"):
        load_config(path)
