import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cplstab import (SCHEMES, Axis, DimensionlessParams, ParameterDomainError, SweepSpec,
                     assemble, beljaars_bound, one_way_explicit_bound, one_way_explicit_roots,
                     power_growth_rate, random_state)
from cplstab.assembly import assemble_bands
from cplstab.stepper import prefix_growth
from cplstab.params import in_domain


# ---------------------------------------------------------------- validation


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

# every entry point that takes a count: (the count's name, a call taking it)
COUNT_ENTRY_POINTS = {
    "assemble.n_minus": ("n_minus", lambda k: assemble(BULK, GROUPS, k, 5)),
    "assemble.n_plus": ("n_plus", lambda k: assemble(BULK, GROUPS, 6, k)),
    "assemble_bands": ("n_minus", lambda k: assemble_bands(BULK, GROUPS, k, 5)),
    "SweepSpec": ("n_minus", lambda k: SweepSpec(
        BULK, Axis("d_minus", 0.1, 1.0, 3), Axis("beta_minus", 0.1, 1.0, 3),
        {"beta_plus": 0.1, "d_plus": 0.1, "r": 1.0}, n_minus=k)),
    "Axis": ("axis points", lambda k: Axis("d_minus", 0.1, 1.0, k)),
    "random_state": ("seed", lambda k: random_state(PAIR.layout, seed=k)),
    "power_growth_rate.steps": ("steps", lambda k: power_growth_rate(PAIR, steps=k, burn_in=0)),
    "power_growth_rate.burn_in": ("burn_in", lambda k: power_growth_rate(PAIR, steps=20,
                                                                         burn_in=k)),
    "prefix_growth": ("burn_in", lambda k: prefix_growth(np.arange(20.0), burn_in=k)),
}


@pytest.mark.parametrize("value", [-1, 2.5, True])
@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_every_count_takes_the_one_count_rule(entry, value):
    # the assemblers took True for 1, and random_state and power_growth_rate
    # raised numpy's bare ValueError or a TypeError
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
    "one_way_explicit_roots.d": ("d", "positive", lambda v: one_way_explicit_roots(1.0, v)),
    "one_way_explicit_roots.beta": ("beta", "nonnegative",
                                    lambda v: one_way_explicit_roots(v, 1.0)),
    "one_way_explicit_bound": ("d", "positive", one_way_explicit_bound),
    "beljaars_bound": ("d", "nonnegative", beljaars_bound),
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
