import cmath
import itertools
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cplstab import normalmode
from cplstab import (SCHEMES, DimensionlessParams, ParameterDomainError, ScanError,
                     ScanSettings, SingularityError, assemble, beljaars_bound,
                     dispersion_residual, eigen_spectrum, gks_scan, normal_mode_verdict,
                     one_way_explicit_bound, one_way_explicit_roots)

SEED = 0
rng = np.random.default_rng(seed=SEED)

ONE_WAY_EXPLICIT = SCHEMES["one-way-explicit-flux"]
ONE_WAY_IMPLICIT = SCHEMES["one-way-implicit-flux"]
# the schemes whose residual gks_scan counts and polishes
TWO_WAY = sorted(name for name in SCHEMES if not name.startswith("one-way"))
# the schemes whose verdict comes from a scan (dn-explicit's is its CFL
# rule); their interiors are backward Euler
SCANNED = [name for name in TWO_WAY if name != "dn-explicit"]


def params(dp=0.0, dm=0.0, bp=0.0, bm=0.0, r=1.0):
    return DimensionlessParams(dp, dm, bp, bm, r)


# ------------------------------------------------------------- spatial root
#
# the decaying root of the backward-Euler interior, as the scan and
# dispersion_residual both take it: _decay_terms(1 - 1/A, d)


def kappa(A, d):
    with np.errstate(all="ignore"):
        return normalmode._decay_terms(1.0 - 1.0 / np.asarray(A, dtype=complex), d)[0]


def test_kappa_steady_mode():
    assert kappa(1.0, 0.7) == 1.0
    assert normalmode._kappa_from_s(0j) == 1.0


def test_kappa_infinite_amplification():
    # 1/A vanishes as A grows, which leaves s = 1/(2d)
    assert kappa(1e300, 0.5) == pytest.approx(2.0 - np.sqrt(3.0))
    assert normalmode._kappa_from_s(1.0 + 0j) == pytest.approx(2.0 - np.sqrt(3.0))


def test_kappa_alternating_mode():
    assert kappa(-1.0, 0.25) == pytest.approx(5.0 - np.sqrt(24.0))


def test_kappa_rejects_zero_amplification():
    # A = 0 is a singular point of every residual
    for name in sorted(SCHEMES):
        with pytest.raises(SingularityError):
            dispersion_residual(SCHEMES[name], params(0.5, 0.5, 1.0, 1.0), 0.0)
    # the count's array evaluation gives a non-finite residual there instead
    assert not np.isfinite(kappa(0.0, 1.0))
    for name in SCANNED:
        residual = normalmode._residual(SCHEMES[name], params(0.5, 0.5, 1.0, 1.0))
        with np.errstate(all="ignore"):
            assert not np.isfinite(residual(np.array([0j]))).any(), name


@given(re=st.floats(-5.0, 5.0), im=st.floats(-5.0, 5.0),
       d=st.floats(1e-2, 1e2))
@settings(max_examples=120, deadline=None)
def test_kappa_quadratic_and_pairing(re, im, d):
    """kappa and 1/kappa both satisfy the interior quadratic."""
    A = complex(re, im)
    if abs(A) < 1e-3 or abs(A - 1.0) < 1e-3:
        return
    k = kappa(A, d)
    lhs = 1.0 - 1.0 / A
    for root in (k, 1.0 / k):
        resid = lhs - d * (root - 2.0 + 1.0 / root)
        assert abs(resid) <= 1e-12 * max(1.0, abs(lhs) + d * abs(root))
    assert abs(k) <= 1.0 + 1e-12


# --------------------------------------------------------------- residuals

def test_dispersion_residual_singular_points():
    with pytest.raises(SingularityError):
        dispersion_residual(ONE_WAY_EXPLICIT, params(dm=1.0, bm=4.0), 1.0)
    with pytest.raises(SingularityError):
        dispersion_residual(ONE_WAY_EXPLICIT, params(dm=1.0, bm=4.0), 0.0)


def test_dispersion_residual_is_not_finite_where_a_term_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # beta_minus * beta_plus and f_minus * f_plus overflow, and their difference is NaN
        bulk = dispersion_residual(SCHEMES["bulk-explicit-flux"],
                                   params(1.0, 1.0, 1e200, 1e200), 2.0)
        # the one-way boundary factor kappa vanishes at A = 1/3
        single = dispersion_residual(SCHEMES["one-way-implicit-flux"],
                                     params(1.0, 1.0, 1.0, 1.0), 1.0 / 3.0)
    assert isinstance(bulk, complex) and not np.isfinite(bulk)
    assert not np.isfinite(single)


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_dispersion_residual_is_one_complex_for_every_scheme(name):
    p = params(0.4, 0.9, 0.3, 0.7, 1.5)
    res = dispersion_residual(SCHEMES[name], p, 1.7 + 0.4j)
    assert isinstance(res, complex) and np.isfinite(res)
    if not name.startswith("one-way"):  # the determinant that the scan counts
        assert res == normalmode._residual(SCHEMES[name], p)(np.array(1.7 + 0.4j))


@given(beta=st.floats(0.0, 20.0) | st.floats(-1e-3, 1e-3).map(lambda x: 1.0 + x),
       d=st.floats(1e-2, 1e2) | st.floats(-2.0, -1.0).map(lambda e: 10.0 ** e))
@settings(max_examples=100, deadline=None)
def test_one_way_explicit_roots_satisfy_residual(beta, d):
    """Closed-form temporal roots zero the one-way dispersion residual.

    f(A) = (1 - 1/A) - d (kappa - 2 + 1/kappa) is evaluated to about eps
    times the scale of its terms, and the rounding of a root A moves it by
    about eps |A f'(A)|, with A f'(A) = (1 + (beta - 1)(1 - 1/kappa^2)) / A.
    Near beta = 1 with small d, kappa is small at the small root and that
    term dominates.  The largest |f| / (eps (scale + |A f'(A)|)) over about
    900,000 seeded roots (beta on [0, 20], near 1 and near d; d on
    [0.01, 100]) was 3.4, at beta near d = 0.011; the bound allows 8.
    """
    p = params(dm=d, bm=beta)
    for root in one_way_explicit_roots(beta, d):
        if abs(root) < 1e-6 or abs(root - 1.0) < 1e-6:
            continue
        kappa = (1.0 + d + (beta - 1.0) / root) / d
        if abs(kappa) < 1e-6:
            continue  # interior form has a removable pole there
        res = dispersion_residual(ONE_WAY_EXPLICIT, p, root)
        scale = abs(1.0 - 1.0 / root) + d * (abs(kappa) + 2.0 + 1.0 / abs(kappa))
        slope = abs(1.0 + (beta - 1.0) * (1.0 - 1.0 / kappa ** 2)) / abs(root)
        assert abs(res) <= 8.0 * np.finfo(float).eps * (scale + slope)


def test_bulk_explicit_pair_vanishes_in_uncoupled_steady_limit():
    # uncoupled, the residual is the product of the two rows' factors, each
    # of which decays like sqrt(A - 1): the product decays like A - 1
    p = params(dp=0.5, dm=0.5, bp=0.0, bm=0.0)
    scheme = SCHEMES["bulk-explicit-flux"]
    sizes = [abs(dispersion_residual(scheme, p, 1.0 + eps)) for eps in (1e-6, 1e-9, 1e-12)]
    assert sizes[0] <= 2e-6
    assert sizes[0] > sizes[1] > sizes[2]
    assert sizes[2] <= 2e-12


def test_single_valued_residual_vanishes_at_scan_roots():
    cases = [
        (ONE_WAY_EXPLICIT, params(dm=1.0, bm=4.0)),
        (SCHEMES["dn-implicit"], params(dp=9.0, dm=0.5, r=1.0)),
    ]
    for scheme, p in cases:
        modes = gks_scan(scheme, p)
        assert modes, "expected a growing mode to anchor this check"
        for mode in modes:
            assert abs(dispersion_residual(scheme, p, mode.A)) <= 1e-10


# -------------------------------------------------------------------- scan

def test_scan_finds_strong_forcing_root():
    modes = gks_scan(ONE_WAY_EXPLICIT, params(dm=1.0, bm=4.0))
    assert len(modes) == 1
    assert modes[0].A == pytest.approx((5.0 - np.sqrt(73.0)) / 2.0, rel=1e-9)
    assert modes[0].admissible
    assert abs(modes[0].kappa_minus_inv) <= 1.0 + 1e-12


def test_scan_rejects_inadmissible_root():
    # roots are {2, 0}: one spatially growing, one inside the disk
    modes = gks_scan(ONE_WAY_EXPLICIT, params(dm=1.0, bm=1.0))
    assert modes == []


def test_scan_empty_for_implicit_bulk_flux():
    for p in [params(0.01, 100.0, 0.01, 100.0),
              params(3.0, 0.2, 55.0, 7.0),
              params(100.0, 100.0, 100.0, 100.0)]:
        assert gks_scan(SCHEMES["bulk-partial-flux"], p) == []
        assert gks_scan(SCHEMES["bulk-implicit-flux"], p) == []


def test_scan_deterministic():
    p = params(dm=1.0, bm=4.0)
    a = gks_scan(ONE_WAY_EXPLICIT, p)
    b = gks_scan(ONE_WAY_EXPLICIT, p)
    assert a == b


def test_scan_raises_where_a_counted_root_does_not_polish(monkeypatch):
    # an impossible polish tolerance leaves the counted root unconfirmed
    p = params(dp=9.0, dm=0.5, r=1.0)
    assert len(gks_scan(SCHEMES["dn-implicit"], p)) == 1
    monkeypatch.setattr(normalmode, "REFINE_TOL", 0.0)
    with pytest.raises(ScanError):
        gks_scan(SCHEMES["dn-implicit"], p)


def test_scan_settings_validation():
    with pytest.raises(ParameterDomainError):
        ScanSettings(radius_max=1.0)
    # an infinite annulus has no outer circle to count on
    for radius in (np.inf, np.nan):
        with pytest.raises(ParameterDomainError):
            ScanSettings(radius_max=radius)
    # at or inside the inner circle (|A| = 1 + 1e-6) there is no annulus
    for radius in (1.0 + 5e-7, 1.0 + 1e-6):
        with pytest.raises(ParameterDomainError):
            ScanSettings(radius_max=radius)


def test_verdict_uses_cfl_rule_for_shared_node_explicit():
    scheme = SCHEMES["dn-explicit"]
    for r in (5e-4, 1.0, 2000.0):
        assert normal_mode_verdict(scheme, params(dp=0.5, dm=0.5, r=r))
        assert not normal_mode_verdict(scheme, params(dp=0.51, dm=0.5, r=r))
        assert not normal_mode_verdict(scheme, params(dp=0.3, dm=0.7, r=r))


def test_forward_euler_scan_needs_d_at_most_one_half():
    # for d > 1/2 the branch cut [1 - 4d, 1] of the forward-Euler spatial
    # root crosses the annulus, where the residual is then not analytic
    scheme = SCHEMES["dn-explicit"]
    assert gks_scan(scheme, params(dp=0.5, dm=0.5)) == []
    for dp, dm in ((0.51, 0.5), (0.3, 0.7), (1e300, 1e300)):
        with pytest.raises(ScanError):
            gks_scan(scheme, params(dp=dp, dm=dm))


def seeded_groups(seed, count):
    """count parameter sets, each of the five groups log-uniform on [1e-2, 1e2]."""
    for groups in 10.0 ** np.random.default_rng(seed).uniform(-2.0, 2.0, (count, 5)):
        yield DimensionlessParams(*groups.tolist())


def full_circle(residual, radius, t):
    """(winding number, power sums s_1..s_3) from the whole circle, for comparison.

    The adequacy rule of the scan, applied independently on angles 0 to
    2 pi and bisecting one step at a time, with the complex contour integral
    s_j = (sum A^j dlog f) / (2 pi i).  It starts from the half circle's
    angles pi t and their mirror images: on the inner circle the midpoint
    rule is accurate to about 1e-3 only, and its error depends on the
    partition near A = 1.
    """
    def evaluate(angles):
        with np.errstate(all="ignore"):
            f = residual(np.array([cmath.rect(radius, math.pi * x) for x in angles]))
        logs.update(zip(angles, map(cmath.log, f.tolist())))

    def log_f(t):
        if t not in logs:
            evaluate([t])
        return logs[t]

    logs = {}
    angles = list(t) + [2.0 - x for x in reversed(t[:-1])]
    evaluate(angles)
    total = [0j] * 4
    edges = list(zip(angles[:-1], angles[1:]))
    while edges:
        lo, hi = edges.pop()
        dlog = log_f(hi) - log_f(lo)
        turn = math.remainder(dlog.imag, 2.0 * math.pi)
        if abs(turn) >= math.pi / 4.0:
            edges += [(lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi)]
            continue
        mid = 0.5 * (cmath.rect(radius, math.pi * lo) + cmath.rect(radius, math.pi * hi))
        for j in range(4):
            total[j] += mid ** j * complex(dlog.real, turn)
    winding = total[0].imag / (2.0 * math.pi)
    return winding, [s / (2j * math.pi) for s in total[1:]]


@pytest.mark.parametrize("name", TWO_WAY)
def test_half_circle_count_and_power_sums_match_the_full_circle(name):
    # f(conj A) = conj f(A): the upper half's turns and Im sums are half of
    # the whole circle's integrals, on both circles of the annulus
    for p in seeded_groups(SEED, 12):
        if name == "dn-explicit":  # its residual is analytic in the annulus for d <= 1/2
            p = replace(p, d_minus=p.d_minus / 200.0, d_plus=p.d_plus / 200.0)
        residual = normalmode._residual(SCHEMES[name], p)
        for radius in (20.0, normalmode.INNER_RADIUS):
            t, z = normalmode._start_points(radius)
            # the start samples lie where cmath.rect puts them; the inner
            # circle grades its first step toward A = 1
            uniform = [j / (normalmode.START_SAMPLES - 1) for j in range(normalmode.START_SAMPLES)]
            graded = [2.0 ** -k for k in range(49, 7, -1)] if radius < 2.0 else []
            assert t.tolist() == uniform[:1] + graded + uniform[1:]
            assert z.tolist() == [cmath.rect(radius, math.pi * x) for x in t[:-1]] + [-radius]
            with np.errstate(all="ignore"):
                count, steps = normalmode._contour(residual, radius, t, z, residual(z))
                # the mirror is exact, bit for bit
                assert np.array_equal(residual(steps[0].conj()), residual(steps[0]).conj())
            winding, sums = full_circle(residual, radius, t.tolist())
            assert count == round(winding) and abs(winding - count) <= 1e-9, (p, radius)
            for j, (half, full) in enumerate(zip(normalmode._power_sums(steps, 3), sums), 1):
                assert abs(full.imag) <= 1e-9 * radius ** j, (p, radius, j)
                assert abs(half - full.real) <= 1e-9 * radius ** j, (p, radius, j)


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_scan_of_extreme_groups_raises_only_package_errors(name):
    # and no floating-point warning escapes the array evaluation of the count
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d, beta in itertools.product((1e-2, 1.0, 1e100, 1e300), repeat=2):
            try:
                gks_scan(SCHEMES[name], params(d, d, beta, beta))
            except Exception as err:  # noqa: BLE001 - the type is the assertion
                assert type(err).__module__ == "cplstab.errors", (d, beta, err)


@pytest.mark.parametrize("d", [1e100, 1e300])
def test_scan_of_extreme_one_way_groups_finds_both_closed_form_roots(d):
    # both roots are about -+1e300 / sqrt(d); a sum of the two terms of the
    # large root used to overflow and seed a wrong small root
    modes = gks_scan(ONE_WAY_EXPLICIT, params(dm=d, bm=1e300))
    assert sorted(m.A.real for m in modes) == sorted(one_way_explicit_roots(1e300, d))


def counting_residual(points):
    """A stand-in for normalmode._residual whose closures append np.size(A) per call."""
    real = normalmode._residual

    def make(scheme, p):
        residual = real(scheme, p)

        def counted(A):
            points.append(np.size(A))
            return residual(A)

        return counted

    return make


@pytest.mark.parametrize("name, group", [("dn-explicit", params(1e300, 1e300)),
                                         ("bulk-explicit-flux", params(0.01, 0.01, 1.3e154, 1.3e154))],
                         ids=["dn-explicit", "bulk-explicit-flux"])
def test_scan_of_a_flat_residual_raises(monkeypatch, name, group):
    # where the residual is rounding noise (or overflows) its roots cannot
    # be counted; the scan raises within a bounded number of residual
    # points instead of polishing noise
    points = []
    monkeypatch.setattr(normalmode, "_residual", counting_residual(points))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScanError):
            gks_scan(SCHEMES[name], group)
    assert sum(points) <= 2 * normalmode.MAX_SAMPLES


@pytest.mark.parametrize("name", ["bulk-partial-flux", "bulk-implicit-flux"])
def test_verdict_raises_at_a_start_sample_where_the_residual_overflows(monkeypatch, name):
    # at beta = 1.3e154 the product of the bulk factors overflows on arcs of
    # the inner circle: a sample with no phase fails every step that ends
    # there, so the count raises on the start samples instead of bisecting
    points = []
    monkeypatch.setattr(normalmode, "_residual", counting_residual(points))
    with pytest.raises(ScanError) as raised:
        normal_mode_verdict(SCHEMES[name], params(0.01, 0.01, 1.3e154, 1.3e154))
    assert points == [171]
    assert "on |A| = 1.000001" in str(raised.value)


@pytest.mark.parametrize("name", SCANNED)
def test_scan_cost_per_draw(monkeypatch, name):
    # residual calls: one on the start samples of both circles, one per
    # bisection round, and for each root two per Newton iteration (f with
    # its central difference, then the damping factors) and one for the
    # final step.  Measured on 40 draws per scheme on seeds 0-3: means of
    # 1 to 4.3 calls per scan and at most 7 (a root polished in three
    # iterations)
    sizes = []
    monkeypatch.setattr(normalmode, "_residual", counting_residual(sizes))
    calls = []
    for p in seeded_groups(SEED, 40):
        sizes.clear()
        gks_scan(SCHEMES[name], p, ScanSettings(radius_max=20.0))
        assert sizes[0] == 171 + normalmode.START_SAMPLES
        calls.append(len(sizes))
    assert np.mean(calls) <= 5.0
    assert max(calls) <= 12


@pytest.mark.parametrize("radius", [None, 20.0])
@pytest.mark.parametrize("name", SCANNED)
def test_verdict_cost_per_draw(monkeypatch, name, radius):
    # the verdict is a count: one residual call on the graded inner circle
    # (171 points), or on both circles given a radius (300), and one per
    # bisection round, with no power sum and no polish.  Measured on 40
    # draws per scheme on seeds 0-3: one call on 39 or 40 of them, and at
    # most 4 on any draw (3 rounds)
    sizes = []
    monkeypatch.setattr(normalmode, "_residual", counting_residual(sizes))
    scan = None if radius is None else ScanSettings(radius_max=radius)
    calls = []
    for p in seeded_groups(SEED, 40):
        sizes.clear()
        normal_mode_verdict(SCHEMES[name], p, scan)
        assert sizes[0] == (171 if radius is None else 171 + normalmode.START_SAMPLES)
        calls.append(len(sizes))
    assert calls.count(1) >= 38
    assert max(calls) <= 6


@pytest.mark.parametrize("name, p", [
    ("bulk-explicit-flux", DimensionlessParams(0.04448009689444239, 0.5359666497901329,
                                               0.3279491350049726, 2.051509541497588,
                                               3.549009573218647)),
    ("dn-implicit", DimensionlessParams(1.4026233238728967, 0.030669067559586035,
                                        7.4389935918981775, 4.914244672894397,
                                        0.6125985965018482))], ids=["bulk-explicit-flux", "dn-implicit"])
def test_bisected_inner_circle_passes_the_adequacy_rule(name, p):
    # draws 1210 and 388 of seeded_groups(0, 2000): of these 2,000 draws on
    # each scanned scheme, the only ones whose inner circle takes four
    # bisection rounds (one midpoint each); 10 others take one or two
    residual = normalmode._residual(SCHEMES[name], p)
    (_, (a, b, dlog)), = normalmode._circles(residual, [normalmode.INNER_RADIUS])
    assert a.size == 170 + 4
    assert a[0] == normalmode.INNER_RADIUS and b[-1] == -normalmode.INNER_RADIUS
    assert np.array_equal(a[1:], b[:-1])
    with np.errstate(all="ignore"):
        f_a, f_b = residual(a), residual(b)
    assert np.all(np.isfinite(f_a) & np.isfinite(f_b) & (f_a != 0) & (f_b != 0))
    turn = np.angle(f_b / f_a)
    assert np.all(np.abs(turn) < normalmode.MAX_TURN)
    assert np.allclose(dlog, np.log(np.abs(f_b / f_a)) + 1j * turn, rtol=0.0, atol=1e-12)
    count = normalmode._two_way_count(SCHEMES[name], p)
    assert count == normalmode._two_way_count(SCHEMES[name], p, 1e6)
    assert normal_mode_verdict(SCHEMES[name], p) == (count == 0)
    assert normal_mode_verdict(SCHEMES[name], p, ScanSettings(1e6)) == (count == 0)


@pytest.mark.parametrize("name", SCANNED)
@pytest.mark.parametrize("d", [1e-200, 1e-300])
def test_verdict_at_tiny_d_is_the_uncoupled_limit(name, d):
    # s = (1 - 1/A)/(2d) passes 1e154 next to A = 1, where s^2 overflows;
    # the spatial root is formed without it, so the verdict tends to d = 0's
    for group in (0.5, 1.5, 3.0, 100.0):
        if name.startswith("dn"):
            small, zero = params(d, d, r=group), params(0.0, 0.0, r=group)
        else:
            small, zero = params(d, d, group, group), params(0.0, 0.0, group, group)
        assert normal_mode_verdict(SCHEMES[name], small) == normal_mode_verdict(SCHEMES[name], zero)


@pytest.mark.parametrize("scheme, p", [(ONE_WAY_EXPLICIT, params(dm=1.0, bm=4.0)),
                                       (SCHEMES["dn-implicit"], params(dp=9.0, dm=0.5, r=1.0)),
                                       (SCHEMES["bulk-explicit-flux"],
                                        params(dp=95.94, dm=14.81, bp=3.081, bm=90.33))],
                         ids=["one-way-explicit-flux", "dn-implicit", "bulk-explicit-flux"])
def test_modes_hold_python_numbers(scheme, p):
    # the array evaluation leaks no numpy scalar into the public result
    (mode,) = gks_scan(scheme, p)
    for value in (mode.A, mode.kappa_plus, mode.kappa_minus_inv):
        assert type(value) is complex
    assert type(mode.admissible) is bool


def test_default_scan_counts_roots_at_any_modulus():
    # f(A) / A^2 tends to a positive constant, so 2 less the inner circle's
    # winding number counts every growing root; the old default annulus
    # (|A| < 10) missed this one and called the draw stable
    scheme = SCHEMES["bulk-explicit-flux"]
    p = params(dp=95.94, dm=14.81, bp=3.081, bm=90.33)
    assert normal_mode_verdict(scheme, p) is False
    lam = eigen_spectrum(assemble(scheme, p, 200, 200)).lambda_max
    (mode,) = gks_scan(scheme, p)
    assert abs(mode.A) > 20.0
    assert abs(abs(mode.A) - lam) <= 1e-8 * lam


def test_outer_circle_keeps_the_uniform_grid():
    # graded like the inner circle, the outer circle at |A| = 1e6 spoils the
    # power sums (the midpoint errors no longer cancel around it) and this
    # root's polish fails
    p = params(dp=3.7432416146416414, dm=27.617626796352006, r=0.1309076795644689)
    scheme = SCHEMES["dn-implicit"]
    for scan in (ScanSettings(radius_max=1e6), None):
        (mode,) = gks_scan(scheme, p, scan)
        assert mode.A == pytest.approx(-1.0311192727568692, rel=1e-14)


# -------------------------------------------------------- one-way closed form

def test_one_way_explicit_roots_examples():
    assert one_way_explicit_roots(0.0, 0.5) == pytest.approx((1.0, 0.0))
    assert one_way_explicit_roots(1.0, 1.0) == pytest.approx((2.0, 0.0))
    big, small = one_way_explicit_roots(4.0, 1.0)
    assert big == pytest.approx((5.0 + np.sqrt(73.0)) / 2.0, rel=1e-14)
    assert small == pytest.approx((5.0 - np.sqrt(73.0)) / 2.0, rel=1e-14)


@given(beta=st.floats(0.0, 1e2), d=st.floats(1e-2, 1e2))
@settings(max_examples=120, deadline=None)
def test_one_way_explicit_roots_real_and_consistent(beta, d):
    """Roots are real and satisfy d A^2 - (beta+d) A + beta(1-beta) = 0."""
    big, small = one_way_explicit_roots(beta, d)
    for root in (big, small):
        q = d * root * root - (beta + d) * root + beta * (1.0 - beta)
        assert abs(q) <= 1e-9 * (d * root * root + (beta + d) * abs(root)
                                 + abs(beta * (1.0 - beta)) + 1.0)
    assert big >= small


@pytest.mark.parametrize("beta, d", [(0.999, 0.01), (0.9998, 0.01), (1.0001, 0.02),
                                     (4.0, 1.0), (1e-4, 0.01), (17.0, 93.0),
                                     # squares of beta used to overflow here
                                     (1e160, 1.0), (1e200, 1.0), (1e308, 1.0),
                                     # and sums of terms as large as the root here
                                     (1e308, 2.0), (1e300, 1e20), (1e308, 1.7e308)])
def test_one_way_explicit_roots_correctly_rounded(beta, d):
    """No neighbouring float is closer to a root than the returned one."""
    b, dd = Fraction(beta), Fraction(d)

    def q(a):
        a = Fraction(a)
        return abs(dd * a * a - (b + dd) * a + b * (1 - b))

    for root in one_way_explicit_roots(beta, d):
        assert q(root) <= q(np.nextafter(root, np.inf))
        assert q(root) <= q(np.nextafter(root, -np.inf))


@given(beta=st.floats(0.0, 1.0 - 1e-9), d=st.floats(1e-2, 1e2))
@settings(max_examples=80, deadline=None)
def test_one_way_weak_forcing_negative_branch_bounded(beta, d):
    assert one_way_explicit_roots(beta, d)[1] <= 1.0 + 1e-12


def test_one_way_explicit_bound_values():
    assert one_way_explicit_bound(1e-12) == pytest.approx(2.0)
    assert one_way_explicit_bound(1.5) == pytest.approx(3.0)
    assert one_way_explicit_bound(4.0) == pytest.approx(4.0)


def test_scan_brackets_explicit_bound():
    """Growing modes appear exactly above the closed-form threshold."""
    for d in np.geomspace(1e-2, 1e3, 25):
        bound = one_way_explicit_bound(d)
        for factor in (0.9, 0.999, 1.001, 1.1):
            p = params(dm=d, bm=factor * bound)
            modes = gks_scan(ONE_WAY_EXPLICIT, p)
            if factor > 1.0:
                assert modes, (d, factor)
            else:
                assert modes == [], (d, factor)


def one_way_implicit_mode(beta, d):
    """The mode at the closed-form root (beta - d) / (beta - d + beta^2), growing or not."""
    p = params(dm=d, bm=beta)
    A = (beta - d) / (beta - d + beta * beta)
    return normalmode._mode_from_root(ONE_WAY_IMPLICIT, p, complex(A))


def test_one_way_implicit_mode_examples():
    # the root 0.2 does not grow, so the scan's closed forms leave it out
    assert normalmode._one_way_roots(ONE_WAY_IMPLICIT, params(dm=1.0, bm=2.0)) == []
    mode = one_way_implicit_mode(2.0, 1.0)
    assert mode.A == pytest.approx(0.2)
    assert mode.kappa_minus_inv == pytest.approx(-1.0)
    assert mode.admissible
    assert normalmode._one_way_roots(ONE_WAY_IMPLICIT, params(dm=4.0, bm=1.0)) == [1.5]
    loose = one_way_implicit_mode(1.0, 4.0)
    assert loose.A == pytest.approx(1.5)
    assert loose.kappa_minus_inv == pytest.approx(4.0 / 3.0)
    assert not loose.admissible


@given(beta=st.floats(1e-3, 1e3), d=st.floats(1e-3, 1e3))
@settings(max_examples=150, deadline=None)
def test_one_way_implicit_admissible_modes_never_grow(beta, d):
    # the spatial factor at the root is d / (d - beta): admissible iff
    # beta >= 2d (the 2d column of `cplstab bounds`), and then 0 < A < 1
    if beta == d or beta - d + beta * beta == 0.0 or abs(beta - 2.0 * d) <= 1e-9 * d:
        return  # the root is 0 or infinite; the factor has modulus 1 at beta = 2d
    mode = one_way_implicit_mode(beta, d)
    assert mode.admissible == (beta > 2.0 * d)
    if mode.admissible:
        assert abs(mode.A) <= 1.0 + 1e-12


def test_one_way_implicit_grid_agreement():
    # every growing closed-form root is inadmissible, so the scan finds none
    values = np.geomspace(1e-3, 1e3, 20)
    for beta in values:
        for d in values:
            p = params(dm=d, bm=beta)
            for root in normalmode._one_way_roots(ONE_WAY_IMPLICIT, p):
                assert not normalmode._mode_from_root(ONE_WAY_IMPLICIT, p, root).admissible
            assert gks_scan(ONE_WAY_IMPLICIT, p) == []


def test_beljaars_bound_values():
    assert beljaars_bound(0.0) == pytest.approx(2.0)
    assert beljaars_bound(1.0) == pytest.approx(3.0)
    assert beljaars_bound(4.0) == pytest.approx(2.0 + 2.0 ** 1.1)
