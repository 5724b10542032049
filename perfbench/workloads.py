"""The four benchmark workloads and their output gates.

Each workload builds its inputs from the seed in ``setup()``, hands the
runner one pass of calls to time from outside in ``calls()``, and judges the
outputs of a pass in ``check()``.  Every workload drives the package only
through public functions looked up on their modules, so the traced run can
wrap them (see ``spans.py``).

- preset-maps: fig3, fig8 (r = 1) and fig9 (r = 2000) at the default 20/10
  grid, in two-row bands through run_sweep, then each whole plane through
  write_csv and write_pgm.  Many tiny cells, so per-cell plumbing,
  update_matrix and small LAPACK calls dominate.
- fine-grid: one seeded 2x2 plane per scheme at n_minus = n_plus = 200.  Dense
  eig dominates and plumbing is negligible.
- cross-check: ``cplstab validate --suite all`` plus a seeded scan-versus-
  matrix audit of all eight schemes; the only workload where normalmode
  does much of the work.
- trajectories: seeded states stepped monolithically and partitioned, plus
  power_growth_rate, for all eight schemes at n = 200; the only workload
  that runs the stepper.
"""

import contextlib
import dataclasses
import io
import os
import warnings
from collections import Counter
from typing import Callable

import numpy as np

from cplstab import assembly, cli, normalmode, params, spectral, stepper, sweep
from cplstab.errors import UnconfirmedRootWarning

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.npz")

# gates: labels must match the recorded reference away from |lambda| = 1,
# lambda_max everywhere to this relative tolerance
MARGINAL_BAND = 1e-6
LAMBDA_RTOL = 1e-9
# bound of test_partitioned_solves_replay_matrix_iteration
DRIFT_BOUND = 1e-10

PRESETS = (("fig3", 1.0), ("fig8", 1.0), ("fig9", 2000.0))

FINE_N = 200
LATTICE_POINTS = 6

AUDIT_N = 60
AUDIT_MARGIN = 5e-3
AUDIT_POINTS = 5
DRAW_BLOCK = 256
HALTON_BASES = (2, 3, 5, 7)

TRAJECTORY_N = 200
TRAJECTORY_STEPS = 60
POWER_STEPS = 120
POWER_BURN_IN = 50


@dataclasses.dataclass
class Call:
    """One call timed from outside; ``run()`` does ``items`` items of work."""

    label: str
    items: int
    run: Callable


@dataclasses.dataclass
class Verdict:
    """Outcome of the output gates for one pass."""

    attempted: int = 0
    failed: int = 0
    messages: list = dataclasses.field(default_factory=list)

    def add(self, attempted, failed, message):
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.messages) < 20:
            self.messages.append(message)

    def expect(self, ok, message):
        self.add(1, int(not ok), message)


def field_mismatches(field, ref_lambda, ref_label):
    """Cells whose lambda_max or label disagree with the reference.

    lambda_max must agree to LAMBDA_RTOL relative (NaN with NaN); labels must
    be identical wherever the reference sits outside the marginal band.
    """
    lam = field.lambda_max
    if lam.shape != ref_lambda.shape:
        return ref_lambda.size
    lam_ok = (np.abs(lam - ref_lambda) <= LAMBDA_RTOL * np.abs(ref_lambda)) | (
        np.isnan(lam) & np.isnan(ref_lambda))
    exempt = np.abs(ref_lambda - 1.0) <= MARGINAL_BAND
    label_ok = (field.classification == ref_label) | exempt
    return int(np.count_nonzero(~(lam_ok & label_ok)))


@contextlib.contextmanager
def counting_warnings(counters):
    """Record warnings instead of printing them; count the unconfirmed roots."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    counters["unconfirmed_warnings"] += sum(
        issubclass(w.category, UnconfirmedRootWarning) for w in caught)


def radical_inverse(indices, base):
    """Van der Corput radical inverse of positive integers in `base`."""
    result = np.zeros(indices.shape)
    scale = 1.0
    indices = indices.copy()
    while indices.any():
        scale /= base
        result += scale * (indices % base)
        indices //= base
    return result


def draws(seed, name):
    """Endless parameter draws of the scan audit for one scheme.

    The groups are log-uniform on [1e-2, 1e2] as in scripts/scan_agreement.py,
    but come from a Halton sequence shifted at random by the seed (a
    Cranley-Patterson rotation).  Every prefix of it covers the box evenly, so
    the share of draws that fall in the marginal band, and with it the work
    per audited point, hardly changes from seed to seed.
    """
    dims = 2 if name.startswith("one-way") else 3 if name.startswith("dn") else 4
    shift = np.random.default_rng(seed).random(dims)
    start = 1
    while True:
        indices = np.arange(start, start + DRAW_BLOCK)
        start += DRAW_BLOCK
        u = np.stack([radical_inverse(indices, base) for base in HALTON_BASES[:dims]], axis=1)
        for row in (u + shift) % 1.0:
            g = [float(v) for v in 10.0 ** (4.0 * row - 2.0)]
            if dims == 2:
                yield params.DimensionlessParams(0.0, g[0], 0.0, g[1], 1.0)
            elif dims == 3:
                yield params.DimensionlessParams(g[0], g[1], 0.0, 0.0, g[2])
            else:
                yield params.DimensionlessParams(g[0], g[1], g[2], g[3], 1.0)


class AuditPoint:
    """One point of the scan audit: draws until one is outside the marginal band.

    ``qualify()`` is the matrix half: it evaluates lambda_max for each draw
    and skips draws with |lambda_max - 1| <= AUDIT_MARGIN, which wastes the
    matrix work that ``counters`` records.  ``verdict()`` is the normal-mode
    half; it returns (lambda_max, scan verdict) for the kept draw.
    """

    def __init__(self, name, stream, counters, n=AUDIT_N):
        self.name = name
        self.stream = stream
        self.counters = counters
        self.n = n

    def qualify(self):
        scheme = assembly.SCHEMES[self.name]
        with counting_warnings(self.counters):
            for p in self.stream:
                self.counters["evaluated"] += 1
                pair = assembly.assemble(scheme, p, self.n, self.n)
                lam = spectral.eigen_spectrum(spectral.update_matrix(pair)).lambda_max
                if abs(lam - 1.0) > AUDIT_MARGIN:
                    break
        self.counters["kept"] += 1
        self.p, self.lam = p, lam

    def verdict(self):
        # the annulus must reach past the observed growth or the scan is blind
        settings = normalmode.ScanSettings(radius_max=max(10.0, 1.5 * self.lam + 1.0))
        scheme = assembly.SCHEMES[self.name]
        with counting_warnings(self.counters):
            stable = normalmode.normal_mode_verdict(scheme, self.p, scan=settings)
        return self.lam, stable


def warm_layers(out_dir, counters):
    """One small call into every traced layer before anything is timed."""
    p = params.DimensionlessParams(0.5, 0.5, 0.5, 0.5, 1.0)
    for name in ("bulk-explicit-flux", "dn-explicit"):
        spec = sweep.SweepSpec(
            assembly.SCHEMES[name], sweep.Axis("d_minus", 0.1, 1.0, 2),
            sweep.Axis("d_plus", 0.1, 1.0, 2), {"beta_minus": 0.5, "beta_plus": 0.5, "r": 1.0},
            n_minus=4, n_plus=3)
        field = sweep.run_sweep(spec)
    sweep.write_csv(field, os.path.join(out_dir, "warm.csv"))
    sweep.write_pgm(field, os.path.join(out_dir, "warm.pgm"))
    point = AuditPoint("one-way-explicit-flux", draws(0, "one-way-explicit-flux"), counters, n=8)
    point.qualify()
    point.verdict()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.cli_main(["bounds", "--d", "1.0"])
    scheme = assembly.SCHEMES["bulk-implicit-flux"]
    pair = assembly.assemble(scheme, p, 4, 3)
    state = stepper.random_state(pair.layout)
    stepper.run_monolithic(pair, state, 1)
    stepper.run_partitioned(scheme, p, 4, 3, state, 1)
    stepper.power_growth_rate(pair, steps=POWER_BURN_IN + 10, burn_in=POWER_BURN_IN)


class Workload:
    """Inputs from one seed; ``tiny`` shrinks a pass for the smoke test.

    ``tail_percentile`` is pinned per workload, so that a faster program,
    which fits more timed calls in a run, is measured at the same percentile
    as its parent.  It is the highest multiple of 5 with at least ten calls
    beyond it in a 20-s run of the code the benchmark was defined on.
    """

    item = "item"
    tail_percentile = 50.0
    # the host probe that scales this workload's timed calls (hostprobe.PROBES)
    probe = "mixed"

    def __init__(self, seed, out_dir, tiny=False):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.out_dir = out_dir
        self.tiny = tiny
        self.counters = Counter()

    def setup(self):
        self.build()
        warm_layers(self.out_dir, self.counters)

    def build(self):
        """Build this workload's inputs from the seed."""

    def calls(self):
        raise NotImplementedError

    def check(self, calls, outputs):
        raise NotImplementedError


def row_bands(rows):
    """Start rows of the two-row bands that cover `rows` rows.

    With an odd count the last band overlaps the one before it by a row.
    """
    starts = list(range(0, rows - 1, 2))
    if rows % 2:
        starts.append(rows - 2)
    return starts


def band_spec(spec, ys, start):
    """Rows `start` and `start + 1` of a plane as a plane of their own.

    A two-point linear axis is exactly [lo, hi] (linspace sets both ends), so
    the band's cells take the same parameter values as the plane's.
    """
    band = sweep.Axis(spec.axis_y.name, float(ys[start]), float(ys[start + 1]), 2, "linear")
    return dataclasses.replace(spec, axis_y=band)


class PresetMaps(Workload):
    """Each preset plane runs as two-row bands, each band one timed run_sweep
    call, so that a pass gives about a hundred samples of ms per cell.  A
    last call per plane joins the bands and writes the plane's CSV and PGM."""

    item = "cell"
    # a 20-s run holds one pass (93 samples) or two
    tail_percentile = 85.0

    def build(self):
        chosen = PRESETS[1:2] if self.tiny else PRESETS
        # the seed only sets the order in which the planes run
        self.presets = [chosen[i] for i in self.rng.permutation(len(chosen))]
        with np.load(REFERENCE) as ref:
            self.reference = {name: (ref[f"preset/{name}/lambda"], ref[f"preset/{name}/label"])
                              for name, _ in self.presets}

    def calls(self):
        calls = []
        for name, r in self.presets:
            spec = sweep.preset_sweep(name, r=r)
            ys = spec.axis_y.values()
            bands = []
            for start in row_bands(ys.size):
                band = band_spec(spec, ys, start)
                calls.append(Call(f"{name} rows {start}", 2 * spec.axis_x.points,
                                  lambda band=band, bands=bands: self._band(band, bands)))
            calls.append(Call(f"{name} write", 0,
                              lambda name=name, bands=bands, rows=ys.size:
                              self._write(name, bands, rows)))
        return calls

    @staticmethod
    def _band(spec, bands):
        field = sweep.run_sweep(spec)
        bands.append(field)
        return field

    def _write(self, name, bands, rows):
        """Join the bands into the plane (the overlap row once) and write it."""
        starts = row_bands(rows)
        keep = [slice(None)] * len(bands)
        if rows % 2:
            keep[-1] = slice(1, None)
        first = bands[0]
        field = sweep.StabilityField(
            first.x_values,
            np.concatenate([b.y_values[k] for b, k in zip(bands, keep)]),
            np.vstack([b.lambda_max[k] for b, k in zip(bands, keep)]),
            np.vstack([b.classification[k] for b, k in zip(bands, keep)]),
            sum(b.warning_count for b in bands), dict(first.metadata))
        assert len(bands) == len(starts) and field.lambda_max.shape[0] == rows
        csv = os.path.join(self.out_dir, f"{name}.csv")
        pgm = os.path.join(self.out_dir, f"{name}.pgm")
        sweep.write_csv(field, csv)
        sweep.write_pgm(field, pgm)
        return field, csv, pgm

    def check(self, calls, outputs):
        verdict = Verdict()
        for call, output in zip(calls, outputs):
            name, kind, *rest = call.label.split()
            ref_lambda, ref_label = self.reference[name]
            if kind == "rows":
                rows = slice(int(rest[0]), int(rest[0]) + 2)
                bad = field_mismatches(output, ref_lambda[rows], ref_label[rows])
                verdict.add(call.items, bad, f"{call.label}: {bad} cells differ from the reference")
                continue
            field, csv, pgm = output
            bad = field_mismatches(field, ref_lambda, ref_label)
            verdict.expect(bad == 0, f"{name}: {bad} cells of the joined plane differ")
            with open(csv, encoding="utf-8") as fh:
                lines = sum(1 for _ in fh)
            verdict.expect(lines == ref_lambda.size + 1, f"{name}: CSV has {lines} lines")
            with open(pgm, encoding="utf-8") as fh:
                header = [fh.readline().strip() for _ in range(3)]
            ny, nx = ref_lambda.shape
            verdict.expect(header == ["P2", f"{nx} {ny}", "255"], f"{name}: PGM header {header}")
        return verdict


def fine_lattice(name):
    """The 6x6 lattice that a scheme's seeded 2x2 plane takes its corners from."""
    if name.startswith("dn"):
        r = 1.0 if name == "dn-explicit" else 2000.0
        return (sweep.Axis("d_minus", 0.05, 1.0, LATTICE_POINTS, "linear"),
                sweep.Axis("d_plus", 0.05, 1.0, LATTICE_POINTS, "linear"),
                {"beta_minus": 0.0, "beta_plus": 0.0, "r": r})
    # decades, so a 2x2 plane between lattice points reproduces them bit for bit
    return (sweep.Axis("d_minus", 1e-2, 1e3, LATTICE_POINTS),
            sweep.Axis("beta_minus", 1e-2, 1e3, LATTICE_POINTS),
            {"beta_plus": 1.125, "d_plus": 2.025, "r": 1.0})


def fine_corners(rng):
    """Lattice indices of a plane's corners: (x_lo, x_hi), (y_lo, y_hi).

    Dense eig is slowest in the first lattice column (smallest d_minus), so
    every plane starts there and takes its other corners from the halves of
    the lattice; the work in a pass then hardly depends on the seed.
    """
    half = LATTICE_POINTS // 2
    x = (0, int(rng.integers(half, LATTICE_POINTS)))
    y = (int(rng.integers(0, half)), int(rng.integers(half, LATTICE_POINTS)))
    return x, y


def fine_plane(name, x, y, n=FINE_N):
    """The 2x2 plane of a scheme whose corners are lattice points x and y."""
    ax, ay, fixed = fine_lattice(name)
    xs, ys = ax.values(), ay.values()
    return sweep.SweepSpec(
        assembly.SCHEMES[name],
        sweep.Axis(ax.name, float(xs[x[0]]), float(xs[x[1]]), 2, ax.scale),
        sweep.Axis(ay.name, float(ys[y[0]]), float(ys[y[1]]), 2, ay.scale),
        fixed, n_minus=n, n_plus=n)


class FineGrid(Workload):
    item = "cell"
    tail_percentile = 75.0
    probe = "dense"

    def build(self):
        names = ("bulk-explicit-flux", "dn-explicit") if self.tiny else tuple(assembly.SCHEMES)
        self.planes = {name: fine_corners(self.rng) for name in names}
        with np.load(REFERENCE) as ref:
            self.reference = {
                name: (ref[f"fine/{name}/lambda"][np.ix_(y, x)],
                       ref[f"fine/{name}/label"][np.ix_(y, x)])
                for name, (x, y) in self.planes.items()}

    def calls(self):
        return [Call(name, 4, lambda spec=fine_plane(name, x, y): sweep.run_sweep(spec))
                for name, (x, y) in self.planes.items()]

    def check(self, calls, outputs):
        verdict = Verdict()
        for call, field in zip(calls, outputs):
            bad = field_mismatches(field, *self.reference[call.label])
            verdict.add(call.items, bad, f"{call.label}: {bad} cells differ from the reference")
        return verdict


class CrossCheck(Workload):
    item = "audited point"
    tail_percentile = 95.0

    def build(self):
        # one draw stream per scheme, each seeded like the script's; every pass
        # audits the next points, so a run sees many distinct draws
        self.streams = {name: draws(self.seed, name) for name in assembly.SCHEMES}
        # validate imports scipy.optimize on first use
        self._validate("dn")

    def calls(self):
        points = 1 if self.tiny else AUDIT_POINTS
        calls = [Call("validate", 0, self._validate)]
        for name, stream in self.streams.items():
            for _ in range(points):
                point = AuditPoint(name, stream, self.counters)
                # only the scan is timed per point; the matrix half, skipped
                # draws included, counts in items_per_s
                calls += [Call(f"{name} matrix", 0, point.qualify), Call(name, 1, point.verdict)]
        return calls

    def _validate(self, suite="all"):
        out = io.StringIO()
        with counting_warnings(self.counters), contextlib.redirect_stdout(out):
            code = cli.cli_main(["validate", "--suite", suite])
        return code, out.getvalue()

    def check(self, calls, outputs):
        verdict = Verdict()
        for call, output in zip(calls, outputs):
            if call.label == "validate":
                code, text = output
                verdict.expect(code == 0, f"validate returned {code}:\n{text}")
                continue
            if not call.items:
                continue
            lam, stable = output
            verdict.expect(stable == (lam <= 1.0),
                           f"{call.label}: scan says stable={stable}, lambda_max={lam!r}")
        return verdict


def trajectory_params(rng, name):
    """Groups log-uniform in [0.1, 10], so unstable runs stay finite for 60 steps."""
    dp, dm, bp, bm, r = (float(v) for v in 10.0 ** rng.uniform(-1.0, 1.0, size=5))
    if name.startswith("one-way"):
        return params.DimensionlessParams(0.0, dm, 0.0, bm, 1.0)
    if name.startswith("dn"):
        return params.DimensionlessParams(dp, dm, 0.0, 0.0, r)
    return params.DimensionlessParams(dp, dm, bp, bm, 1.0)


class Trajectories(Workload):
    item = "step"
    tail_percentile = 90.0

    def build(self):
        n = 10 if self.tiny else TRAJECTORY_N
        self.steps = 20 if self.tiny else TRAJECTORY_STEPS
        self.cases = []
        for name, scheme in assembly.SCHEMES.items():
            p = trajectory_params(self.rng, name)
            pair = assembly.assemble(scheme, p, n, n)
            state = stepper.random_state(pair.layout, seed=int(self.rng.integers(2**31)))
            self.cases.append((name, scheme, p, n, pair, state))

    def calls(self):
        calls = []
        for name, scheme, p, n, pair, state in self.cases:
            calls += [
                Call(f"{name} monolithic", self.steps,
                     lambda pair=pair, state=state:
                     stepper.run_monolithic(pair, state, self.steps)),
                Call(f"{name} partitioned", self.steps,
                     lambda scheme=scheme, p=p, n=n, state=state:
                     stepper.run_partitioned(scheme, p, n, n, state, self.steps)),
                Call(f"{name} power", POWER_STEPS,
                     lambda pair=pair: stepper.power_growth_rate(
                         pair, steps=POWER_STEPS, burn_in=POWER_BURN_IN, seed=self.seed)),
            ]
        return calls

    def check(self, calls, outputs):
        verdict = Verdict()
        for k, (name, _, _, _, pair, _) in enumerate(self.cases):
            mono, part, rate = outputs[3 * k: 3 * k + 3]
            ref = max(stepper.state_norm(s) for s in mono.states)
            layout = pair.layout
            drift = max(
                np.abs(stepper.pack_state(a, layout) - stepper.pack_state(b, layout)).max()
                for a, b in zip(mono.states, part.states))
            same_length = len(part.states) == len(mono.states)
            verdict.expect(same_length and drift <= DRIFT_BOUND * max(ref, 1.0),
                           f"{name}: partitioned drift {drift:.3e} against max norm {ref:.3e}")
            verdict.expect(np.isfinite(rate) and rate > 0.0, f"{name}: growth rate {rate!r}")
        return verdict


WORKLOADS = {
    "preset-maps": PresetMaps,
    "fine-grid": FineGrid,
    "cross-check": CrossCheck,
    "trajectories": Trajectories,
}
