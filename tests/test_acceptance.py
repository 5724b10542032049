"""End-to-end acceptance battery for the shipped stability analyses.

Each test freezes one headline guarantee: analytic flux bounds, unconditional
stability of the implicit couplings, ratio (in)dependence of the shared-node
schemes, splitting equivalence, normal-mode versus matrix agreement, spectrum
decoupling, asymptotic roots, and bit-reproducible sweep artifacts.  Budgets
are asserted because the battery doubles as the regression gate.
"""

import itertools
import time

import numpy as np
from scipy.optimize import minimize_scalar

from cplstab import (
    SCHEMES,
    DimensionlessParams,
    Layout,
    Tridiagonal,
    UpdatePair,
    assemble,
    classify,
    dispersion_residual,
    eigen_spectrum,
    one_way_explicit_roots,
    pack_state,
    random_state,
    run_monolithic,
    run_partitioned,
    run_sweep,
    state_norm,
    update_matrix,
)
from cplstab.assembly import ONE_WAY_NEGATIVE
from cplstab.cli import _golden_minimum, cli_main
from cplstab.sweep import Axis, SweepSpec, default_axis, preset_sweep

SEED = 0


def lambda_max_of(scheme, p, n_minus, n_plus):
    pair = assemble(scheme, p, n_minus, n_plus)
    return eigen_spectrum(update_matrix(pair)).lambda_max


def one_way_lambda(beta, d, n=200):
    p = DimensionlessParams(0.0, d, 0.0, beta, 1.0)
    return lambda_max_of(SCHEMES["one-way-explicit-flux"], p, n, 1)


# ---------------------------------------------------------- explicit flux bound


def test_explicit_flux_threshold():
    """The explicit-flux one-way scheme loses stability at beta = 1 + sqrt(1+2d).

    Bisection on the matrix spectral radius localizes the crossing to within
    2 percent of the analytic bound at n = 200.
    """
    start = time.monotonic()
    for d in (0.1, 1.0, 10.0, 100.0):
        bound = 1.0 + np.sqrt(1.0 + 2.0 * d)
        lo, hi = 1.0, 2.0 * bound
        assert one_way_lambda(lo, d) <= 1.0
        assert one_way_lambda(hi, d) > 1.0
        while hi - lo > 1e-3:
            mid = 0.5 * (lo + hi)
            if one_way_lambda(mid, d) > 1.0:
                hi = mid
            else:
                lo = mid
        crossing = 0.5 * (lo + hi)
        assert abs(crossing - bound) <= 0.02 * bound
    assert time.monotonic() - start < 30.0


# ---------------------------------------------------------- implicit couplings


def test_implicit_flux_plane_unconditionally_stable():
    """The implicit-flux one-way scheme never grows on the default plane."""
    start = time.monotonic()
    spec = SweepSpec(
        scheme=SCHEMES["one-way-implicit-flux"],
        axis_x=default_axis("d_minus"),
        axis_y=default_axis("beta_minus"),
        fixed={"beta_plus": 0.0, "d_plus": 0.0, "r": 1.0},
    )
    field = run_sweep(spec)
    assert field.warning_count == 0
    assert (field.lambda_max <= 1.0 + 1e-8).all()
    assert time.monotonic() - start < 120.0


def test_implicit_bulk_coupling_unconditionally_stable():
    """Implicit exchange, simultaneous or lagged, is stable over a 7^4 grid."""
    start = time.monotonic()
    values = np.logspace(-2.0, 2.0, 7)
    for name in ("bulk-partial-flux", "bulk-sequential"):
        scheme = SCHEMES[name]
        worst = 0.0
        for dp, dm, bp, bm in itertools.product(values, repeat=4):
            p = DimensionlessParams(float(dp), float(dm), float(bp), float(bm), 1.0)
            worst = max(worst, lambda_max_of(scheme, p, 15, 15))
        assert worst <= 1.0 + 1e-8
    assert time.monotonic() - start < 120.0


# ---------------------------------------------------------- shared-node schemes


def test_shared_node_explicit_ignores_heat_ratio():
    """Forward-Euler shared-node classification is the uncoupled CFL square.

    The map over (d_minus, d_plus) is identical across extreme heat-content
    ratios and the stable set is {d <= 1/2 on both sides} up to one grid step.
    """
    start = time.monotonic()
    fields = []
    for r in (2000.0, 1.0, 5e-4):
        spec = SweepSpec(
            scheme=SCHEMES["dn-explicit"],
            axis_x=Axis("d_minus", 0.05, 1.0, 41, "linear"),
            axis_y=Axis("d_plus", 0.05, 1.0, 41, "linear"),
            fixed={"beta_minus": 0.0, "beta_plus": 0.0, "r": r},
            n_minus=200,
            n_plus=200,
        )
        fields.append(run_sweep(spec))
    for other in fields[1:]:
        assert (fields[0].classification == other.classification).all()
    field = fields[0]
    step = (1.0 - 0.05) / 40.0
    for iy, dp in enumerate(field.y_values):
        for ix, dm in enumerate(field.x_values):
            label = field.classification[iy, ix]
            if dm <= 0.5 - step and dp <= 0.5 - step:
                assert label == "stable"
            if dm >= 0.5 + step or dp >= 0.5 + step:
                assert label == "unstable"
    assert time.monotonic() - start < 120.0


def test_shared_node_implicit_region_shrinks_with_ratio():
    """The implicit shared-node stable region shrinks as the ratio grows.

    At a vanishing ratio the sampled square is entirely stable; at ratio 2000
    the stable cell count has strictly dropped.
    """
    start = time.monotonic()
    counts = []
    for r in (5e-4, 1.0, 2000.0):
        field = run_sweep(preset_sweep("fig9", r=r))
        counts.append(int((field.classification == "stable").sum()))
    assert counts[0] == 41 * 41
    assert counts[0] >= counts[1] >= counts[2]
    assert counts[2] < counts[0]
    assert time.monotonic() - start < 180.0


# ---------------------------------------------------------- splitting equivalence


def test_partitioned_solves_replay_matrix_iteration():
    """Per-domain substepping reproduces the monolithic iteration exactly.

    Twenty seeded random states per two-way variant, 100 steps each, stay
    within 1e-10 relative max-norm of the matrix trajectory.
    """
    start = time.monotonic()
    p = DimensionlessParams(0.8, 1.3, 0.6, 0.9, 2.5)
    names = (
        "bulk-explicit-flux",
        "bulk-partial-flux",
        "bulk-implicit-flux",
        "bulk-sequential",
        "dn-explicit",
        "dn-implicit",
    )
    for name in names:
        scheme = SCHEMES[name]
        pair = assemble(scheme, p, 10, 8)
        for trial in range(20):
            state = random_state(pair.layout, seed=trial)
            mono = run_monolithic(pair, state, 100)
            part = run_partitioned(scheme, p, 10, 8, state, 100)
            ref = max(state_norm(s) for s in mono.states)
            drift = max(
                np.abs(pack_state(a, pair.layout) - pack_state(b, pair.layout)).max()
                for a, b in zip(mono.states, part.states)
            )
            assert drift <= 1e-10 * max(ref, 1.0)
    assert time.monotonic() - start < 10.0


# ---------------------------------------------------------- mode-matrix agreement


def test_growth_rate_matches_boundary_mode():
    """Past the bound, the matrix growth equals the closed-form boundary root."""
    start = time.monotonic()
    for d in (0.5, 5.0, 50.0):
        beta = 2.0 * (1.0 + np.sqrt(1.0 + 2.0 * d))
        lam = one_way_lambda(beta, d, n=200)
        target = abs(one_way_explicit_roots(beta, d)[1])
        assert abs(lam - target) <= 1e-2 * target
    assert time.monotonic() - start < 10.0


def test_scan_verdicts_match_matrix_classification(capsys):
    """Normal-mode verdicts agree with the matrix on random parameter points.

    ``cplstab validate --suite scan``: fifty seeded draws per scheme off the
    marginal band, each decided by the dense oracle, which must match the
    pencil path to 1e-10.
    """
    start = time.monotonic()
    assert cli_main(["validate", "--suite", "scan", "--points", "50", "--seed", str(SEED)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"ok   {name} scan verdicts match the matrix on 50 draws "
                     "(0 disagree, 0 pencil/dense mismatches)" for name in SCHEMES] + [
        f"{len(SCHEMES)} passed, 0 failed"]
    assert time.monotonic() - start < 120.0


# ---------------------------------------------------------- spectrum decoupling


def match_multisets(a, b, tol):
    b = list(b)
    for lam in a:
        gaps = [abs(lam - mu) for mu in b]
        j = int(np.argmin(gaps))
        assert gaps[j] <= tol
        b.pop(j)


def test_zero_exchange_spectrum_is_block_union():
    """With beta = 0 both bulk domains decouple and spectra simply unite."""
    start = time.monotonic()
    p = DimensionlessParams(2.3, 0.7, 0.0, 0.0, 1.0)
    nm, np_ = 12, 9
    for name in ("bulk-explicit-flux", "bulk-partial-flux",
                 "bulk-implicit-flux", "bulk-sequential"):
        pair = assemble(SCHEMES[name], p, nm, np_)
        assert np.abs(pair.A.toarray()[:nm, nm:]).max() == 0.0
        assert np.abs(pair.B.toarray()[:nm, nm:]).max() == 0.0
        whole = eigen_spectrum(update_matrix(pair))
        parts = []
        for rows in (slice(0, nm), slice(nm, nm + np_)):
            block = UpdatePair(
                A=Tridiagonal.from_dense(pair.A.toarray()[rows, rows]),
                B=Tridiagonal.from_dense(pair.B.toarray()[rows, rows]),
                layout=Layout(ONE_WAY_NEGATIVE, rows.stop - rows.start, 0),
            )
            parts.extend(eigen_spectrum(update_matrix(block)).eigenvalues)
        match_multisets(whole.eigenvalues, parts, 1e-8)
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------- asymptotic roots


def test_small_ratio_root_location():
    """As the heat-content ratio vanishes, the implicit shared-node root sits
    at magnitude 1/(4 d_minus + 1)."""
    start = time.monotonic()
    implicit = SCHEMES["dn-implicit"]
    for dm in (0.1, 1.0, 10.0):
        p = DimensionlessParams(1.0, dm, 0.0, 0.0, 1e-10)
        target = 1.0 / (4.0 * dm + 1.0)
        result = minimize_scalar(
            lambda a: abs(dispersion_residual(implicit, p, a)),
            bounds=(0.5 * target, min(1.5 * target, 0.999)),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert abs(result.x - target) <= 1e-6
        # validate's golden-section search finds the same root, without scipy.optimize
        golden = _golden_minimum(lambda a: abs(dispersion_residual(implicit, p, a)),
                                 0.5 * target, min(1.5 * target, 0.999), 1e-12)
        assert abs(golden - target) <= 1e-9
        assert abs(golden - result.x) <= 1e-6
    assert time.monotonic() - start < 5.0


def test_large_ratio_quartic_roots_grow():
    """The limiting quartic at d_plus = 1 keeps every root outside the disk."""
    roots = np.roots([-1.0, 1.0, 2.0, -2.0, 4.0])
    assert roots.shape == (4,)
    assert (roots != 0).all()
    assert (np.abs(roots) > 1.0).all()


# ---------------------------------------------------------- reproducibility


SWEEP_CONFIG = """\
[scheme]
name = one-way-implicit-flux

[axes]
x = d_minus
x_lo = 0.01
x_hi = 1000
x_points = 21
y = beta_minus
y_lo = 0.01
y_hi = 1000
y_points = 21

[fixed]
beta_plus = 0.0
d_plus = 0.0
r = 1.0
"""


def test_sweep_artifacts_are_byte_identical(tmp_path, capsys):
    """Repeated sweep runs write byte-identical CSV and PGM files."""
    config = tmp_path / "sweep.ini"
    config.write_text(SWEEP_CONFIG, encoding="utf-8")
    blobs = []
    for tag in ("first", "second"):
        csv_path = tmp_path / f"{tag}.csv"
        pgm_path = tmp_path / f"{tag}.pgm"
        code = cli_main(["sweep", "--config", str(config),
                         "--csv", str(csv_path), "--pgm", str(pgm_path)])
        assert code == 0
        blobs.append((csv_path.read_bytes(), pgm_path.read_bytes()))
    capsys.readouterr()
    assert blobs[0] == blobs[1]
    assert blobs[0][0] and blobs[0][1]
