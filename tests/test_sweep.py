"""Sweep grids over parameter planes, their file writers, and the presets."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cplstab
import cplstab.sweep as sweep_mod
from cplstab.assembly import SCHEMES, assemble, scheme_name
from cplstab.errors import CplstabError, ParameterDomainError, SpectrumError
from cplstab.normalmode import one_way_explicit_bound
from cplstab.params import DimensionlessParams
from cplstab.spectral import classify, eigen_spectrum, update_matrix
from cplstab.sweep import (
    AXIS_NAMES,
    Axis,
    PRESET_NAMES,
    StabilityField,
    SweepSpec,
    default_axis,
    preset_sweep,
    run_sweep,
    write_csv,
    write_pgm,
)

SEED = 0


def tiny_spec(**overrides):
    """A 3x3 one-way explicit plane that evaluates in milliseconds."""
    kwargs = dict(
        scheme=SCHEMES["one-way-explicit-flux"],
        axis_x=Axis("d_minus", 0.1, 10.0, 3, "log"),
        axis_y=Axis("beta_minus", 0.5, 8.0, 3, "log"),
        fixed={"beta_plus": 0.1, "d_plus": 0.1, "r": 1.0},
        n_minus=5,
        n_plus=2,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def batch_spec(**overrides):
    """tiny_spec on 4x4 cells, the smallest square plane that takes the batch."""
    return tiny_spec(axis_x=Axis("d_minus", 0.1, 10.0, 4, "log"),
                     axis_y=Axis("beta_minus", 0.5, 8.0, 4, "log"), **overrides)


def lambda_direct(scheme, values, n_minus, n_plus):
    """The spectrum of eigen_spectrum(pair), and lambda_max by the dense oracle on M."""
    p = DimensionlessParams(**values)
    pair = assemble(scheme, p, n_minus, n_plus)
    return eigen_spectrum(pair), eigen_spectrum(update_matrix(pair)).lambda_max


# ------------------------------------------------------------- axes


def test_axis_rejects_unknown_name():
    with pytest.raises(ParameterDomainError):
        Axis("dt", 0.1, 1.0, 5)


def test_axis_rejects_unknown_scale():
    with pytest.raises(ParameterDomainError):
        Axis("d_minus", 0.1, 1.0, 5, "cubic")


def test_axis_rejects_single_point():
    with pytest.raises(ParameterDomainError):
        Axis("d_minus", 0.1, 1.0, 1)


@pytest.mark.parametrize("points", [2.5, 3.0, np.float64(3.0), "3", True])
def test_axis_points_must_be_an_integer(points):
    # a float count passed, and values() then raised a bare TypeError
    with pytest.raises(ParameterDomainError, match="axis points must be an integer >= 2"):
        Axis("d_minus", 0.1, 1.0, points)


def test_axis_takes_a_numpy_integer_count():
    values = Axis("d_minus", 0.1, 1.0, np.int64(3)).values()
    assert values.tobytes() == Axis("d_minus", 0.1, 1.0, 3).values().tobytes()


def test_log_axis_rejects_nonpositive_lo():
    with pytest.raises(ParameterDomainError):
        Axis("d_minus", 0.0, 1.0, 5, "log")


def test_axis_rejects_reversed_range():
    with pytest.raises(ParameterDomainError):
        Axis("d_minus", 2.0, 1.0, 5, "linear")


@pytest.mark.parametrize("lo, hi, scale", [(1.0, np.inf, "log"), (np.inf, np.inf, "log"),
                                           (0.0, np.inf, "linear"), (-np.inf, 1.0, "linear")])
def test_axis_rejects_non_finite_ends(lo, hi, scale):
    # an infinite end made every value NaN or inf, so every cell failed
    with pytest.raises(ParameterDomainError, match="axis ends must be finite"):
        Axis("d_minus", lo, hi, 3, scale)


def test_log_axis_values():
    values = Axis("d_minus", 1e-2, 1e2, 5, "log").values()
    assert values.shape == (5,)
    np.testing.assert_allclose(values, [1e-2, 1e-1, 1.0, 1e1, 1e2], rtol=1e-12)


def test_linear_axis_values():
    values = Axis("beta_minus", 0.0, 1.0, 5, "linear").values()
    np.testing.assert_allclose(values, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0.0)


def test_default_axis():
    axis = default_axis("r")
    assert axis.scale == "log"
    assert axis.points == 101
    values = axis.values()
    assert values[0] == pytest.approx(1e-2) and values[-1] == pytest.approx(1e3)


# ------------------------------------------------------------- spec validation


def test_spec_rejects_duplicate_axes():
    with pytest.raises(ParameterDomainError):
        tiny_spec(axis_y=Axis("d_minus", 0.5, 8.0, 3, "log"))


def test_spec_rejects_incomplete_fixed():
    with pytest.raises(ParameterDomainError):
        tiny_spec(fixed={"beta_plus": 0.1, "d_plus": 0.1})


def test_spec_rejects_fixed_overlapping_axis():
    with pytest.raises(ParameterDomainError):
        tiny_spec(fixed={"beta_plus": 0.1, "d_plus": 0.1, "d_minus": 1.0})


def test_spec_rejects_empty_domains():
    with pytest.raises(ParameterDomainError):
        tiny_spec(n_minus=0)


def test_spec_rejects_a_size_that_is_not_an_integer(tmp_path):
    # a float size used to pass SweepSpec and then fail every cell of the plane
    for size in (2.5, 5.0, "3"):
        with pytest.raises(ParameterDomainError, match="n_minus must be an integer >= 1"):
            tiny_spec(n_minus=size)
    blobs = []
    for size in (3, np.int64(3)):
        write_csv(run_sweep(tiny_spec(n_minus=size, n_plus=size)), tmp_path / "plane.csv")
        blobs.append((tmp_path / "plane.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_spec_rejects_bad_tolerance():
    with pytest.raises(ParameterDomainError):
        tiny_spec(tol=0.0)
    # an infinite tolerance labelled every cell marginal
    with pytest.raises(ParameterDomainError, match="tol must be positive and finite"):
        tiny_spec(tol=np.inf)


def test_spec_rejects_a_fixed_value_that_is_not_a_number():
    with pytest.raises(ParameterDomainError, match="real number"):
        tiny_spec(fixed={"beta_plus": 0.1, "d_plus": 0.1, "r": "one"})


@pytest.mark.parametrize("name, value, rule", [
    ("r", -1.0, "positive"), ("r", 0.0, "positive"), ("r", np.nan, "positive"),
    ("r", np.inf, "positive"), ("d_plus", -0.1, "nonnegative"),
    ("beta_plus", np.inf, "nonnegative"), ("beta_plus", np.nan, "nonnegative"),
])
def test_spec_rejects_a_fixed_group_outside_the_domain(name, value, rule):
    # such a plane used to run with every cell failed
    fixed = {"beta_plus": 0.1, "d_plus": 0.1, "r": 1.0, name: value}
    with pytest.raises(ParameterDomainError, match=f"fixed {name} must be {rule} and finite"):
        tiny_spec(fixed=fixed)


def test_integer_fixed_values_take_the_batch(monkeypatch, tmp_path):
    # integers are stored as floats: the same plane, bytes and batch call
    batches = []
    real = sweep_mod._batch_lambda_max

    def counted(spec_, x, y):
        batches.append(x.size)
        return real(spec_, x, y)

    monkeypatch.setattr(sweep_mod, "_batch_lambda_max", counted)
    blobs = []
    for fixed in ({"beta_minus": 0, "beta_plus": 0, "r": 2},
                  {"beta_minus": 0.0, "beta_plus": 0.0, "r": 2.0}):
        spec = SweepSpec(SCHEMES["dn-implicit"], Axis("d_minus", 0.1, 10.0, 4),
                         Axis("d_plus", 0.1, 10.0, 4), fixed, n_minus=3, n_plus=2)
        assert spec.fixed == fixed and all(type(v) is float for v in spec.fixed.values())
        field = run_sweep(spec)
        write_csv(field, tmp_path / "plane.csv")
        write_pgm(field, tmp_path / "plane.pgm")
        blobs.append(((tmp_path / "plane.csv").read_bytes(), (tmp_path / "plane.pgm").read_bytes()))
    assert batches == [16, 16]
    assert blobs[0] == blobs[1]


# ------------------------------------------------------------- run_sweep


def test_sweep_matches_pointwise_evaluation():
    spec = tiny_spec()
    field = run_sweep(spec)
    assert field.lambda_max.shape == (3, 3)
    assert field.warning_count == 0
    for iy, yv in enumerate(field.y_values):
        for ix, xv in enumerate(field.x_values):
            values = dict(spec.fixed)
            values["d_minus"] = float(xv)
            values["beta_minus"] = float(yv)
            spectrum, dense = lambda_direct(spec.scheme, values, spec.n_minus, spec.n_plus)
            lam = spectrum.lambda_max
            # the batch's search, within its bound and the pair's
            assert abs(field.lambda_max[iy, ix] - lam) <= field.bound[iy, ix] + spectrum.residual_bound
            assert abs(lam - dense) <= 1e-10 * dense
            assert field.classification[iy, ix] == classify(lam, spec.tol).value


def test_sweep_flux_bound_two_by_two():
    # d = 1 puts the explicit flux limit at 1 + sqrt(3), between the two betas
    spec = tiny_spec(
        axis_x=Axis("d_minus", 1.0, 1.0, 2, "linear"),
        axis_y=Axis("beta_minus", 1.0, 4.0, 2, "linear"),
        n_minus=30,
        n_plus=1,
    )
    field = run_sweep(spec)
    assert list(field.classification[0]) == ["stable", "stable"]
    assert list(field.classification[1]) == ["unstable", "unstable"]


@pytest.mark.parametrize("name", ["bulk-implicit-flux", "bulk-sequential"])
def test_fully_implicit_plane_is_stable(name):
    spec = SweepSpec(
        scheme=SCHEMES[name],
        axis_x=Axis("d_minus", 1e-2, 1e2, 3, "log"),
        axis_y=Axis("beta_minus", 1e-2, 1e2, 3, "log"),
        fixed={"beta_plus": 100.0, "d_plus": 100.0, "r": 1.0},
        n_minus=6,
        n_plus=5,
    )
    field = run_sweep(spec)
    assert (field.lambda_max <= 1.0 + 1e-8).all()
    assert np.isin(field.classification, ["stable", "marginal"]).all()


def test_shared_node_classification_ignores_ratio():
    fields = []
    for r in (2000.0, 1.0, 5e-4):
        spec = SweepSpec(
            scheme=SCHEMES["dn-explicit"],
            axis_x=Axis("d_minus", 0.05, 1.0, 5, "linear"),
            axis_y=Axis("d_plus", 0.05, 1.0, 5, "linear"),
            fixed={"beta_minus": 0.0, "beta_plus": 0.0, "r": r},
            # 6 cells misclassify d_plus just past 1/2 when r is tiny; 30 resolve it
            n_minus=30,
            n_plus=30,
        )
        fields.append(run_sweep(spec))
    for other in fields[1:]:
        assert (fields[0].classification == other.classification).all()
    # clear of the d = 1/2 boundary the verdicts are the analytic ones
    field = fields[1]
    for iy, dp in enumerate(field.y_values):
        for ix, dm in enumerate(field.x_values):
            if max(dm, dp) < 0.3:
                assert field.classification[iy, ix] == "stable"
            if min(dm, dp) > 0.7 or max(dm, dp) > 0.99:
                assert field.classification[iy, ix] == "unstable"


def test_metadata_describes_the_run():
    spec = tiny_spec()
    field = run_sweep(spec)
    meta = field.metadata
    assert meta["scheme"] == scheme_name(spec.scheme)
    assert meta["axis_x"] == "d_minus" and meta["axis_y"] == "beta_minus"
    assert meta["fixed"] == spec.fixed
    assert meta["n_minus"] == spec.n_minus and meta["n_plus"] == spec.n_plus
    assert meta["tol"] == spec.tol
    assert meta["version"] == cplstab.__version__


def test_lambda_max_nonnegative():
    field = run_sweep(tiny_spec())
    finite = np.isfinite(field.lambda_max)
    assert finite.all()
    assert (field.lambda_max[finite] >= 0.0).all()


def test_failed_cells_never_abort(monkeypatch):
    spec = batch_spec()
    baseline = run_sweep(spec)
    target = float(spec.axis_x.values()[1])
    real_batch, real_point = sweep_mod._batch_lambda_max, sweep_mod._evaluate_point

    def unproved(spec_, x, y):
        # the batch leaves the target column to the per-cell path ...
        lam, bound = real_batch(spec_, x, y)
        lam[x == target] = np.nan
        return lam, bound

    def flaky(spec_, values):
        # ... which fails there
        if values["d_minus"] == target:
            raise SpectrumError("synthetic eigensolver failure")
        return real_point(spec_, values)

    monkeypatch.setattr(sweep_mod, "_batch_lambda_max", unproved)
    monkeypatch.setattr(sweep_mod, "_evaluate_point", flaky)
    field = run_sweep(spec)
    assert field.warning_count == 4
    assert np.isnan(field.lambda_max[:, 1]).all()
    assert (field.classification[:, 1] == "failed").all()
    keep = [0, 2, 3]
    np.testing.assert_array_equal(
        field.lambda_max[:, keep], baseline.lambda_max[:, keep]
    )
    assert (field.classification[:, keep] == baseline.classification[:, keep]).all()


def break_path(monkeypatch, path, error):
    """Make the batch or the per-cell path raise `error`; returns a plane that takes that path."""
    def broken(*args):
        raise error("synthetic bug")

    if path == "batch":
        monkeypatch.setattr(sweep_mod, "_batch_lambda_max", broken)
        return batch_spec()
    monkeypatch.setattr(sweep_mod, "_evaluate_point", broken)
    # 9 cells, fewer than BATCH_CELLS: the plane goes cell by cell
    return tiny_spec(n_minus=10)


def test_programming_errors_propagate(monkeypatch):
    with pytest.raises(TypeError, match="synthetic bug"):
        run_sweep(break_path(monkeypatch, "batch", TypeError))


def test_programming_errors_propagate_from_the_per_cell_path(monkeypatch):
    with pytest.raises(TypeError, match="synthetic bug"):
        run_sweep(break_path(monkeypatch, "per-cell", TypeError))


# RuntimeError subclasses that are no numerical failure: they became failed
# cells while the sweep caught every RuntimeError
@pytest.mark.parametrize("error", [NotImplementedError, RecursionError])
@pytest.mark.parametrize("path", ["batch", "per-cell"])
def test_runtime_errors_that_are_bugs_propagate(monkeypatch, path, error):
    with pytest.raises(error, match="synthetic bug"):
        run_sweep(break_path(monkeypatch, path, error))


def per_cell_field(spec):
    """lambda_max, labels and bounds of a plane, cell by cell through eigen_spectrum(pair)."""
    xs, ys = spec.axis_x.values(), spec.axis_y.values()
    lam = np.full((ys.size, xs.size), np.nan)
    bound = np.full(lam.shape, np.nan)
    cls = np.full(lam.shape, "failed", dtype="<U8")
    for iy, ix in np.ndindex(lam.shape):
        values = dict(spec.fixed)
        values[spec.axis_x.name] = float(xs[ix])
        values[spec.axis_y.name] = float(ys[iy])
        try:
            pair = assemble(spec.scheme, DimensionlessParams(**values), spec.n_minus, spec.n_plus)
            spectrum = eigen_spectrum(pair)
            label = classify(spectrum.lambda_max, spec.tol).value
        except CplstabError:
            continue
        lam[iy, ix], bound[iy, ix], cls[iy, ix] = spectrum.lambda_max, spectrum.residual_bound, label
    return lam, bound, cls


def assert_matches_per_cell(field, spec):
    lam, bound, cls = per_cell_field(spec)
    # the same labels and failed cells, and lambda_max within both bounds
    assert (field.classification == cls).all()
    assert (np.isnan(field.lambda_max) == np.isnan(lam)).all()
    assert (np.isnan(field.bound) == np.isnan(lam)).all()
    ok = ~np.isnan(lam)
    assert (np.abs(field.lambda_max - lam)[ok] <= (field.bound + bound)[ok]).all()
    assert field.warning_count == int(np.isnan(lam).sum())


def count_point_calls(monkeypatch):
    calls = []
    real = sweep_mod._evaluate_point

    def counted(spec_, values):
        calls.append(values)
        return real(spec_, values)

    monkeypatch.setattr(sweep_mod, "_evaluate_point", counted)
    return calls


def random_axis(draw, name):
    points = draw(st.integers(4, 5))  # 16 to 25 cells a plane
    if draw(st.booleans()):
        lo = 10.0 ** draw(st.floats(-2.0, 2.0))
        return Axis(name, lo, lo * 10.0 ** draw(st.floats(0.0, 2.0)), points, "log")
    # a linear axis from 0 gives zero groups; an r of 0 fails its cells
    lo = draw(st.sampled_from([0.0, 0.05, 1.0]))
    return Axis(name, lo, lo + draw(st.floats(0.0, 20.0)), points, "linear")


@st.composite
def small_planes(draw):
    """Planes of any scheme with at least BATCH_CELLS cells, so one batch."""
    name = draw(st.sampled_from(list(SCHEMES)))
    x_name, y_name = draw(st.permutations(AXIS_NAMES))[:2]
    fixed = {}
    for group in set(AXIS_NAMES) - {x_name, y_name}:
        zero = group != "r" and draw(st.integers(0, 4)) == 0
        fixed[group] = 0.0 if zero else 10.0 ** draw(st.floats(-2.0, 2.0))
    return SweepSpec(SCHEMES[name], random_axis(draw, x_name), random_axis(draw, y_name), fixed,
                     n_minus=draw(st.integers(1, 4)), n_plus=draw(st.integers(1, 4)))


@settings(max_examples=200, deadline=None)
@given(spec=small_planes())
def test_batched_planes_match_per_cell(spec):
    assert_matches_per_cell(run_sweep(spec), spec)


@pytest.mark.parametrize("name", list(SCHEMES))
def test_batch_takes_every_assembled_cell(monkeypatch, name):
    spec = SweepSpec(SCHEMES[name], Axis("d_minus", 0.05, 50.0, 4), Axis("beta_minus", 0.0, 3.0, 4,
                     "linear"), {"beta_plus": 0.7, "d_plus": 2.0, "r": 3.0}, n_minus=6, n_plus=5)
    calls = count_point_calls(monkeypatch)
    field = run_sweep(spec)
    assert len(calls) == 0
    assert_matches_per_cell(field, spec)


def test_plane_smaller_than_its_pairs_goes_cell_by_cell(monkeypatch):
    spec = tiny_spec(n_minus=10)
    calls = count_point_calls(monkeypatch)
    field = run_sweep(spec)
    assert len(calls) == 9
    assert_matches_per_cell(field, spec)


def test_plane_with_fewer_cells_than_rows_takes_the_batch(monkeypatch):
    # a 4x4 subplane of fig9 (r = 2000) on 2,001 rows: one batch, as at any n
    spec = dataclasses.replace(preset_sweep("fig9", r=2000.0),
                               axis_x=Axis("d_minus", 0.1, 0.9, 4, "linear"),
                               axis_y=Axis("d_plus", 0.1, 0.9, 4, "linear"),
                               n_minus=1000, n_plus=1000)
    calls = count_point_calls(monkeypatch)
    field = run_sweep(spec)
    assert len(calls) == 0
    assert_matches_per_cell(field, spec)


@pytest.mark.parametrize("n", [1, 1000])
@pytest.mark.parametrize("points", [(2, 2), (3, 5)], ids=["2x2", "3x5"])
def test_plane_below_batch_cells_goes_cell_by_cell(monkeypatch, points, n):
    # fine-grid's 2x2 planes and one cell short of the batch, with fewer or
    # more cells than a pair has rows
    assert points[0] * points[1] < sweep_mod.BATCH_CELLS
    spec = tiny_spec(axis_x=Axis("d_minus", 0.1, 10.0, points[0], "log"),
                     axis_y=Axis("beta_minus", 0.5, 8.0, points[1], "log"), n_minus=n, n_plus=n)
    calls = count_point_calls(monkeypatch)
    field = run_sweep(spec)
    assert len(calls) == points[0] * points[1]
    assert_matches_per_cell(field, spec)


def test_overflowing_entries_fail_as_cell_by_cell(monkeypatch):
    # log axes up to 1e308: 1 + 2 d and 1 - beta overflow or lose the
    # dominance margin, and the batch leaves those cells to the per-cell path,
    # which fails them without a numpy warning
    spec = tiny_spec(axis_x=Axis("d_minus", 1e-2, 1e308, 7, "log"),
                     axis_y=Axis("beta_minus", 0.5, 1e308, 3, "log"))
    calls = count_point_calls(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        field = run_sweep(spec)
        assert 0 < len(calls) < 21
        assert field.warning_count > 0
        assert_matches_per_cell(field, spec)
    # d_minus = 0.01, beta_minus = 1e308: its Gershgorin bound overflows
    assert field.classification[2, 0] == "failed"


def test_overflowing_bulk_plane_fails_without_numpy_warnings():
    # the bulk pair's Gershgorin bound, ||M|| and the solve's pivot scale
    # overflow on this plane
    spec = tiny_spec(scheme=SCHEMES["bulk-explicit-flux"],
                     axis_x=Axis("d_minus", 1e-2, 1e308, 7, "log"),
                     axis_y=Axis("beta_minus", 0.5, 1e308, 3, "log"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        field = run_sweep(spec)
        assert_matches_per_cell(field, spec)
    assert field.warning_count > 0
    assert field.classification[0, 0] == "stable"


def test_row_crossings_bracket_flux_bound():
    # each d-row loses stability within one grid step of 1 + sqrt(1 + 2d)
    spec = SweepSpec(
        scheme=SCHEMES["one-way-explicit-flux"],
        axis_x=Axis("beta_minus", 1.0, 12.0, 19, "log"),
        axis_y=Axis("d_minus", 0.5, 8.0, 3, "log"),
        fixed={"beta_plus": 0.1, "d_plus": 0.1, "r": 1.0},
        n_minus=120,
        n_plus=1,
    )
    field = run_sweep(spec)
    betas = field.x_values
    for iy, d in enumerate(field.y_values):
        lam = field.lambda_max[iy]
        unstable = lam > 1.0
        assert not unstable[0] and unstable[-1]
        first = int(np.argmax(unstable))
        assert unstable[first:].all()
        bound = one_way_explicit_bound(float(d))
        assert betas[max(first - 2, 0)] <= bound <= betas[first + 1]


def preset_planes():
    """Every preset plane: each variant of fig4 and fig6, each ratio of fig8 and fig9."""
    variants = {"fig4": [{"variant": v} for v in range(3)], "fig6": [{"variant": v} for v in range(3)],
                "fig8": [{"r": r} for r in sweep_mod.FIG89_RATIOS],
                "fig9": [{"r": r} for r in sweep_mod.FIG89_RATIOS]}
    return [preset_sweep(name, **kw) for name in PRESET_NAMES for kw in variants.get(name, [{}])]


def test_every_preset_cell_is_certified():
    # [lambda_max - bound, lambda_max + bound] lies inside the cell's class
    # interval on all fourteen preset planes, so no label rests on rounding
    for spec in preset_planes():
        field = run_sweep(spec)
        lam, bound, cls = field.lambda_max, field.bound, field.classification
        assert field.warning_count == 0 and (bound > 0.0).all() and (bound < 1e-9).all()
        lo, hi = lam - bound, lam + bound
        stable, unstable = cls == "stable", cls == "unstable"
        assert (hi[stable] < 1.0 - spec.tol).all()
        assert (lo[unstable] > 1.0 + spec.tol).all()
        marginal = ~(stable | unstable)
        assert (lo[marginal] >= 1.0 - spec.tol).all() and (hi[marginal] <= 1.0 + spec.tol).all()


def test_bounds_stay_out_of_the_artifacts(tmp_path):
    # the writers read lambda_max and the labels only
    field = run_sweep(tiny_spec())
    assert field.bound.shape == field.lambda_max.shape and np.isfinite(field.bound).all()
    blobs = []
    for bound in (field.bound, None):
        field.bound = bound
        write_csv(field, tmp_path / "plane.csv")
        write_pgm(field, tmp_path / "plane.pgm")
        blobs.append(((tmp_path / "plane.csv").read_bytes(), (tmp_path / "plane.pgm").read_bytes()))
    assert blobs[0] == blobs[1]


# ------------------------------------------------------------- writers


def synthetic_field(lam, x_values, y_values, tol=1e-8):
    lam = np.asarray(lam, dtype=float)
    cls = np.full(lam.shape, "failed", dtype="<U8")
    for iy, ix in np.ndindex(lam.shape):
        if np.isfinite(lam[iy, ix]):
            cls[iy, ix] = classify(lam[iy, ix], tol).value
    return StabilityField(
        np.asarray(x_values, dtype=float),
        np.asarray(y_values, dtype=float),
        lam,
        cls,
        warning_count=int(np.isnan(lam).sum()),
        metadata={"axis_x": "d_minus", "axis_y": "beta_minus"},
    )


def test_csv_layout(tmp_path):
    field = synthetic_field(
        [[1.5, 0.5], [np.nan, 1.0]], x_values=[0.5, 2.0], y_values=[1.0, 4.0]
    )
    path = tmp_path / "field.csv"
    write_csv(field, path)
    text = path.read_text(encoding="utf-8")
    assert text == (
        "d_minus,beta_minus,lambda_max,class\n"
        "0.5,1.0,1.5,unstable\n"
        "2.0,1.0,0.5,stable\n"
        "0.5,4.0,nan,failed\n"
        "2.0,4.0,1.0,marginal\n"
    )


def test_csv_row_count(tmp_path):
    field = run_sweep(tiny_spec())
    path = tmp_path / "field.csv"
    write_csv(field, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 9
    assert lines[0] == "d_minus,beta_minus,lambda_max,class"


@settings(max_examples=30, deadline=None)
@given(
    lam=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False, width=64),
        min_size=6,
        max_size=6,
    )
)
def test_csv_rereads_bit_exact(tmp_path_factory, lam):
    field = synthetic_field(
        np.asarray(lam).reshape(2, 3), x_values=[1.0, 2.0, 3.0], y_values=[1.0, 2.0]
    )
    path = tmp_path_factory.mktemp("csv") / "field.csv"
    write_csv(field, path)
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    parsed = np.array([float(row.split(",")[2]) for row in rows]).reshape(2, 3)
    np.testing.assert_array_equal(parsed, field.lambda_max)


def test_pgm_layout(tmp_path):
    # top image row holds the largest y; NaN renders as black
    field = synthetic_field(
        [[0.0, 1.0, 2.0], [2.5, np.nan, 0.5]],
        x_values=[1.0, 2.0, 3.0],
        y_values=[1.0, 4.0],
    )
    path = tmp_path / "field.pgm"
    write_pgm(field, path)
    text = path.read_text(encoding="utf-8")
    assert text == "P2\n3 2\n255\n255 0 63\n0 127 255\n"


@settings(max_examples=30, deadline=None)
@given(
    lam=st.lists(
        st.floats(min_value=0.0, max_value=3.0, allow_nan=False, width=64),
        min_size=6,
        max_size=6,
    )
)
def test_pgm_pixel_formula(tmp_path_factory, lam):
    values = np.asarray(lam).reshape(2, 3)
    field = synthetic_field(values, x_values=[1.0, 2.0, 3.0], y_values=[1.0, 2.0])
    path = tmp_path_factory.mktemp("pgm") / "field.pgm"
    write_pgm(field, path)
    tokens = path.read_text(encoding="utf-8").split("\n", 3)[3].split()
    pixels = np.array([int(t) for t in tokens]).reshape(2, 3)
    expected = np.floor(255.0 * np.minimum(values, 2.0) / 2.0).astype(int)
    np.testing.assert_array_equal(pixels, expected[::-1])


def test_pgm_lines_stay_short(tmp_path):
    # the plain format caps lines at 70 characters
    field = synthetic_field(
        np.full((2, 40), 2.0), x_values=np.arange(1.0, 41.0), y_values=[1.0, 2.0]
    )
    path = tmp_path / "wide.pgm"
    write_pgm(field, path)
    for line in path.read_text(encoding="utf-8").splitlines():
        assert len(line) <= 70


def test_pgm_rows_fill_lines_up_to_68_characters(tmp_path):
    # 15 x "127" and 3 x "63" make a line of exactly 68 characters
    row = [1.0] * 15 + [0.5] * 3 + [2.0] * 2
    field = synthetic_field([row, row], x_values=np.arange(1.0, 21.0), y_values=[1.0, 2.0])
    path = tmp_path / "wide.pgm"
    write_pgm(field, path)
    first = " ".join(["127"] * 15 + ["63"] * 3)
    assert len(first) == 68
    assert path.read_text(encoding="utf-8").splitlines()[3:] == [first, "255 255"] * 2


def test_outputs_byte_identical(tmp_path):
    spec = tiny_spec()
    blobs = []
    for tag in ("a", "b"):
        field = run_sweep(spec)
        csv_path = tmp_path / f"{tag}.csv"
        pgm_path = tmp_path / f"{tag}.pgm"
        write_csv(field, csv_path)
        write_pgm(field, pgm_path)
        blobs.append((csv_path.read_bytes(), pgm_path.read_bytes()))
    assert blobs[0] == blobs[1]
    assert blobs[0][0] and blobs[0][1]


# ------------------------------------------------------------- presets


def test_preset_names_all_build():
    assert PRESET_NAMES == ("fig3", "fig4", "fig5", "fig6", "fig8", "fig9")
    for name in PRESET_NAMES:
        assert isinstance(preset_sweep(name), SweepSpec)


def test_unknown_preset_rejected():
    with pytest.raises(ParameterDomainError):
        preset_sweep("fig7")


@pytest.mark.parametrize("name, variant", [("fig4", 3), ("fig6", -1), ("fig3", 1), ("fig8", 2)])
def test_preset_variant_out_of_range_rejected(name, variant):
    with pytest.raises(ParameterDomainError, match="variant"):
        preset_sweep(name, variant=variant)


@pytest.mark.parametrize("name", ["fig3", "fig4", "fig5", "fig6"])
def test_bulk_preset_rejects_a_heat_content_ratio(name):
    # the bulk planes fix r = 1; another r would be silently ignored
    assert preset_sweep(name, r=1.0).fixed["r"] == 1.0
    with pytest.raises(ParameterDomainError, match="fixes r = 1"):
        preset_sweep(name, r=5.0)


def test_bulk_minus_plane_preset():
    spec = preset_sweep("fig3")
    assert spec.axis_x.name == "d_minus" and spec.axis_y.name == "beta_minus"
    assert spec.axis_x.points == 101 and spec.axis_x.scale == "log"
    assert spec.fixed == {"beta_plus": 1.125, "d_plus": 2.025, "r": 1.0}
    assert scheme_name(spec.scheme) == "bulk-explicit-flux"


def test_bulk_plus_plane_preset_variants():
    spec = preset_sweep("fig5", scheme="bulk-partial-flux")
    assert spec.axis_x.name == "d_plus" and spec.axis_y.name == "beta_plus"
    assert spec.fixed == {"beta_minus": 0.005938, "d_minus": 9.025, "r": 1.0}
    assert scheme_name(spec.scheme) == "bulk-partial-flux"
    stepped = preset_sweep("fig6", variant=2)
    assert stepped.fixed["beta_minus"] == 0.049688
    assert stepped.fixed["d_minus"] == 632.025
    wide = preset_sweep("fig4", variant=1)
    assert wide.fixed["beta_plus"] == 4.875 and wide.fixed["d_plus"] == 38.025


def test_shared_node_presets():
    for name, scheme in (("fig8", "dn-explicit"), ("fig9", "dn-implicit")):
        spec = preset_sweep(name, r=2000.0)
        assert scheme_name(spec.scheme) == scheme
        assert spec.fixed == {"beta_minus": 0.0, "beta_plus": 0.0, "r": 2000.0}
        for axis in (spec.axis_x, spec.axis_y):
            assert axis.scale == "linear"
            assert (axis.lo, axis.hi, axis.points) == (0.05, 1.0, 41)
