"""Command-line front end.

Subcommands: sweep (stability maps), spectrum (eigenvalues of one scheme
instance), simulate (time-stepping trajectories), bounds (one-way analytic
curves), validate (cross-check battery), dump-matrices (assembled A and B).
Exit codes: 0 success, 1 a failed analysis or validation (CplstabError, OSError),
2 usage errors (ParameterDomainError, SchemeError); any other error is a bug.
"""

import argparse
import contextlib
import sys
from dataclasses import replace

import numpy as np

from . import assembly, normalmode, spectral, stepper, sweep
from .errors import CplstabError, ParameterDomainError, ScanError, SchemeError
from .params import (DimensionlessParams, _config_number, _read_config, _require_count,
                     _require_positive, _section_values)

# the marginal band; cells per domain and kept draws per scheme of the scan audit
MARGIN, SCAN_N, SCAN_POINTS = 5e-3, 60, 50


def _fmt(value):
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def _add_param_arguments(parser):
    parser.add_argument("--scheme", required=True, choices=sorted(assembly.SCHEMES))
    parser.add_argument("--d-minus", type=float, default=0.0)
    parser.add_argument("--d-plus", type=float, default=0.0)
    parser.add_argument("--beta-minus", type=float, default=0.0)
    parser.add_argument("--beta-plus", type=float, default=0.0)
    parser.add_argument("--r", type=float, default=1.0)
    parser.add_argument("--n-minus", type=int, default=sweep.DEFAULT_N_MINUS)
    parser.add_argument("--n-plus", type=int, default=sweep.DEFAULT_N_PLUS)


def _params_from_args(args):
    return DimensionlessParams(
        d_plus=args.d_plus,
        d_minus=args.d_minus,
        beta_plus=args.beta_plus,
        beta_minus=args.beta_minus,
        r=args.r,
    )


def _emit(rows, path):
    with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.write("\n".join(rows) + "\n")


# --- sweep ---


def _axis_from_config(section, prefix):
    return sweep.Axis(
        name=section[prefix],
        lo=_config_number("axes", section, f"{prefix}_lo", float, sweep.DEFAULT_LO),
        hi=_config_number("axes", section, f"{prefix}_hi", float, sweep.DEFAULT_HI),
        points=_config_number("axes", section, f"{prefix}_points", int, sweep.DEFAULT_POINTS),
        scale=section.get(f"{prefix}_scale", "log"),
    )


def _sweep_spec_from_config(path):
    parser = _read_config(path)
    for name in ("scheme", "axes", "fixed"):
        if not parser.has_section(name):
            raise ParameterDomainError(f"sweep config needs a [{name}] section")
    scheme_name = _section_values(parser, "scheme", ("name",))["name"]
    if scheme_name not in assembly.SCHEMES:
        raise ParameterDomainError(f"unknown scheme name {scheme_name!r}")
    axes = _section_values(parser, "axes", ("x", "y"), [f"{axis}_{key}" for axis in "xy"
                                                         for key in ("lo", "hi", "points", "scale")])
    fixed = {key: _config_number("fixed", parser["fixed"], key, float) for key in parser["fixed"]}
    grid = _section_values(parser, "grid", (), ("n_minus", "n_plus", "tol"))
    spec = sweep.SweepSpec(
        scheme=assembly.SCHEMES[scheme_name],
        axis_x=_axis_from_config(axes, "x"),
        axis_y=_axis_from_config(axes, "y"),
        fixed=fixed,
        n_minus=_config_number("grid", grid, "n_minus", int, sweep.DEFAULT_N_MINUS),
        n_plus=_config_number("grid", grid, "n_plus", int, sweep.DEFAULT_N_PLUS),
        tol=_config_number("grid", grid, "tol", float, 1e-8),
    )
    return spec, _section_values(parser, "output", (), ("csv", "pgm"))


def _cmd_sweep(args):
    if args.config and args.preset:
        raise ParameterDomainError("--config and --preset cannot be combined")
    if not args.preset and (args.variant, args.r) != (None, None):
        raise ParameterDomainError("--variant and --r apply only to --preset")
    if args.config:
        spec, output = _sweep_spec_from_config(args.config)
        if args.scheme:
            spec = replace(spec, scheme=assembly.SCHEMES[args.scheme])
    elif args.preset:
        chosen = {key: value for key, value in (("variant", args.variant), ("r", args.r))
                  if value is not None}
        spec = sweep.preset_sweep(args.preset, scheme=args.scheme, **chosen)
        output = {}
    else:
        raise ParameterDomainError("sweep needs --config or --preset")
    if args.n_minus is not None:
        spec = replace(spec, n_minus=args.n_minus)
    if args.n_plus is not None:
        spec = replace(spec, n_plus=args.n_plus)
    if args.tol is not None:
        spec = replace(spec, tol=args.tol)
    csv_path = args.csv or output.get("csv")
    pgm_path = args.pgm or output.get("pgm")
    if not csv_path:
        raise ParameterDomainError("no CSV output path (use --csv or [output] csv)")
    field = sweep.run_sweep(spec)
    sweep.write_csv(field, csv_path)
    if pgm_path:
        sweep.write_pgm(field, pgm_path)
    counts = {name: int((field.classification == name).sum())
              for name in ("stable", "marginal", "unstable", "failed")}
    total = field.classification.size
    print(f"{field.metadata['scheme']}: {total} cells "
          f"({counts['stable']} stable, {counts['marginal']} marginal, "
          f"{counts['unstable']} unstable, {counts['failed']} failed) -> {csv_path}")
    return 0


# --- spectrum ---


def _cmd_spectrum(args):
    _require_positive("--tol", args.tol)  # spectral.classify's rule, before the work
    p = _params_from_args(args)
    pair = assembly.assemble(assembly.SCHEMES[args.scheme], p, args.n_minus, args.n_plus)
    spectrum = spectral.full_spectrum(pair)
    _emit(["re,im"] + [f"{_fmt(ev.real)},{_fmt(ev.imag)}" for ev in spectrum.eigenvalues],
          args.out)
    verdict = spectral.classify(spectrum.lambda_max, args.tol)
    print(f"lambda_max = {_fmt(spectrum.lambda_max)} ({verdict.value})", file=sys.stderr)
    return 0


# --- simulate ---


def _cmd_simulate(args):
    for flag, value in (("--steps", args.steps), ("--burn-in", args.burn_in),
                        ("--seed", args.seed)):
        _require_count(flag, value, 0)
    scheme = assembly.SCHEMES[args.scheme]
    p = _params_from_args(args)
    pair = assembly.assemble(scheme, p, args.n_minus, args.n_plus)
    layout = pair.layout

    def step(vector):
        state = stepper.unpack_state(vector, layout, 0)
        if args.stepper == "monolithic":
            state = stepper.step_monolithic(pair, state)
        else:
            state = stepper.step_partitioned(scheme, p, args.n_minus, args.n_plus, state)
        return stepper.pack_state(state, layout)

    vector = stepper.pack_state(stepper.random_state(layout, seed=args.seed), layout)
    log_norms = [0.0, *stepper.renormalized_log_norms(step, vector, args.steps)]
    # the window of stepper.power_growth_rate; NaN until it holds two points
    estimates = stepper.prefix_growth(log_norms, args.burn_in)
    with np.errstate(over="ignore"):  # a norm beyond the float range prints inf
        norms = np.exp(log_norms)
    rows = ["step,norm,growth_estimate"]
    rows += [f"{k},{_fmt(norm)},{_fmt(estimate)}"
             for k, (norm, estimate) in enumerate(zip(norms.tolist(), estimates.tolist()))]
    if len(log_norms) <= args.steps:
        rows.append(f"{len(log_norms)},0.0,nan")
    _emit(rows, args.out)
    return 0


# --- bounds ---


# the largest d whose implicit bound 2d is finite
_BOUNDS_D_MAX = float(np.finfo(float).max) / 2.0


def _require_bounds_d(flag, d):
    if d > _BOUNDS_D_MAX:
        raise ParameterDomainError(f"{flag} must be at most {_BOUNDS_D_MAX!r}, above which "
                                   f"beta_min_implicit_admissible = 2d overflows; got {d!r}")


def _bounds_values(d):
    return (
        normalmode.one_way_explicit_bound(d),
        normalmode.beljaars_bound(d),
        2.0 * d,
    )


def _cmd_bounds(args):
    for flag, value in (("--d", args.d), ("--d-lo", args.d_lo), ("--d-hi", args.d_hi)):
        if value is not None:
            _require_positive(flag, value)
    if args.points < 1 or args.d_lo > args.d_hi:
        raise ParameterDomainError("bounds needs --points >= 1 and --d-lo <= --d-hi")
    if args.d is not None:
        _require_bounds_d("--d", args.d)
        explicit, beljaars, admissible = _bounds_values(args.d)
        print(f"beta_max_explicit,{_fmt(explicit)}")
        print(f"beta_max_beljaars,{_fmt(beljaars)}")
        print(f"beta_min_implicit_admissible,{_fmt(admissible)}")
        return 0
    values = np.logspace(np.log10(args.d_lo), np.log10(args.d_hi), args.points)
    _require_bounds_d("--d-hi", float(values.max()))
    print("d,beta_max_explicit,beta_max_beljaars,beta_min_implicit_admissible")
    for d in values:
        explicit, beljaars, admissible = _bounds_values(float(d))
        print(f"{_fmt(d)},{_fmt(explicit)},{_fmt(beljaars)},{_fmt(admissible)}")
    return 0


# --- validate ---


def _check(name, condition, failures, messages):
    messages.append(f"{'ok  ' if condition else 'FAIL'} {name}")
    if not condition:
        failures.append(name)


def _lambda_max(scheme, p, n_minus, n_plus):
    return spectral.eigen_spectrum(assembly.assemble(scheme, p, n_minus, n_plus)).lambda_max


def _compare_verdicts(scheme, p, n, dense=False):
    """(lambda_max, verdicts agree, dense agrees) at n cells per domain, None if marginal.

    The pencil path picks the draws to skip; with dense=True the dense oracle
    decides the verdict and must match the pencil to 1e-10 relative.  The
    normal-mode verdict counts growing modes at any modulus, so it takes
    nothing from the matrix it checks.  A draw whose scan raises ScanError is
    printed with its scheme and groups, and its verdicts disagree.
    """
    pair = assembly.assemble(scheme, p, n, n)
    lam = spectral.eigen_spectrum(pair).lambda_max
    if abs(lam - 1.0) <= MARGIN:  # a finite matrix cannot decide
        return None
    fast = lam
    if dense:
        lam = spectral.eigen_spectrum(spectral.update_matrix(pair)).lambda_max
    try:
        agree = normalmode.normal_mode_verdict(scheme, p) == (lam <= 1.0)
    except ScanError as err:
        print(f"  {assembly.scheme_name(scheme)} at {p}: ScanError: {err}")
        agree = False
    return lam, agree, abs(fast - lam) <= 1e-10 * lam


def _draw(rng, name):
    """Groups log-uniform on [1e-2, 1e2], as many as the named scheme's coupling uses."""
    coupling = assembly.SCHEMES[name].coupling
    if coupling == "one-way":
        d, beta = 10.0 ** rng.uniform(-2.0, 2.0, size=2)
        return DimensionlessParams(0.0, float(d), 0.0, float(beta), 1.0)
    if coupling in ("dn-explicit", "dn-implicit"):
        dp, dm, r = 10.0 ** rng.uniform(-2.0, 2.0, size=3)
        return DimensionlessParams(float(dp), float(dm), 0.0, 0.0, float(r))
    dp, dm, bp, bm = 10.0 ** rng.uniform(-2.0, 2.0, size=4)
    return DimensionlessParams(float(dp), float(dm), float(bp), float(bm), 1.0)


def _validate_one_way(failures, messages):
    explicit = assembly.SCHEMES["one-way-explicit-flux"]
    implicit = assembly.SCHEMES["one-way-implicit-flux"]
    for d in (0.1, 1.0, 10.0):
        bound = normalmode.one_way_explicit_bound(d)
        p_hot = DimensionlessParams(0.0, d, 0.0, 2.0 * bound, 1.0)
        lam = _lambda_max(explicit, p_hot, 150, 1)
        # the scan keeps only admissible modes; its dominant root is the growth
        solutions = normalmode.gks_scan(explicit, p_hot)
        root = abs(solutions[0].A) if solutions else float("nan")
        _check(f"one-way explicit growth matches the scanned mode at d={d}",
               solutions and abs(lam - root) <= 1e-2 * root, failures, messages)
        p_cool = DimensionlessParams(0.0, d, 0.0, 0.5 * bound, 1.0)
        _check(f"one-way explicit stable below the bound at d={d}",
               _lambda_max(explicit, p_cool, 150, 1) <= 1.0 + 1e-8, failures, messages)
    rng = np.random.default_rng(seed=0)
    betas = 10.0 ** rng.uniform(-2, 2, size=12)
    ds = 10.0 ** rng.uniform(-2, 2, size=12)
    worst = 0.0
    for beta, d in zip(betas, ds):
        p = DimensionlessParams(0.0, float(d), 0.0, float(beta), 1.0)
        worst = max(worst, _lambda_max(implicit, p, 80, 1))
    _check("one-way implicit stable across sampled parameters",
           worst <= 1.0 + 1e-8, failures, messages)


def _validate_bulk(failures, messages):
    rng = np.random.default_rng(seed=1)
    for name in ("bulk-partial-flux", "bulk-implicit-flux", "bulk-sequential"):
        worst = max(_lambda_max(assembly.SCHEMES[name], _draw(rng, name), 15, 15)
                    for _ in range(8))
        _check(f"{name} stable across sampled parameters", worst <= 1.0 + 1e-8,
               failures, messages)
    name = "bulk-explicit-flux"
    results = [_compare_verdicts(assembly.SCHEMES[name], _draw(rng, name), 40) for _ in range(10)]
    _check("bulk explicit-flux scan verdicts match matrix classification",
           all(result is None or result[1] for result in results), failures, messages)


def _golden_minimum(f, lo, hi, tol):
    """Minimiser of f, unimodal on [lo, hi], to within tol: golden-section search
    (Kiefer 1953), one evaluation per step, each step shrinking the bracket by 0.618."""
    ratio = (5.0 ** 0.5 - 1.0) / 2.0
    x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - ratio * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + ratio * (hi - lo)
            f2 = f(x2)
    return 0.5 * (lo + hi)


def _validate_dn(failures, messages):
    explicit = assembly.SCHEMES["dn-explicit"]
    results = [_compare_verdicts(explicit, DimensionlessParams(dp, dm, 0.0, 0.0, r), 100)
               for r in (2000.0, 1.0, 5e-4)
               for dm, dp in ((0.2, 0.2), (0.2, 0.7), (0.7, 0.2), (0.45, 0.45))]
    _check("dn-explicit verdict rule matches matrix classification",
           all(result is None or result[1] for result in results), failures, messages)
    implicit = assembly.SCHEMES["dn-implicit"]
    ok = True
    for dm in (0.1, 1.0):
        p = DimensionlessParams(1.0, dm, 0.0, 0.0, 1e-10)
        target = 1.0 / (1.0 + 4.0 * dm)
        root = _golden_minimum(lambda a: abs(normalmode.dispersion_residual(implicit, p, a)),
                               0.5 * target, min(1.5 * target, 0.999), 1e-12)
        if abs(root - target) > 1e-6:
            ok = False
    _check("dn-implicit small-ratio root sits at 1/(1+4d)", ok, failures, messages)


def _validate_scan(failures, messages, points, seed):
    """Scan-versus-matrix audit: `points` kept draws per scheme from default_rng(seed)."""
    for name, scheme in assembly.SCHEMES.items():
        rng = np.random.default_rng(seed=seed)
        outcomes = []
        while len(outcomes) < points:
            p = _draw(rng, name)
            result = _compare_verdicts(scheme, p, SCAN_N, dense=True)
            if result is None:
                continue
            lam, agree, dense_agrees = result
            outcomes.append((agree, dense_agrees))
            if not (agree and dense_agrees):
                print(f"  {name} at {p}: lambda_max={lam!r}, verdicts agree: {agree}, "
                      f"pencil matches dense: {dense_agrees}")
        disagree, mismatch = (points - sum(column) for column in zip(*outcomes))
        _check(f"{name} scan verdicts match the matrix on {points} draws "
               f"({disagree} disagree, {mismatch} pencil/dense mismatches)",
               disagree == mismatch == 0, failures, messages)


def _cmd_validate(args):
    if args.suite != "scan" and (args.points, args.seed) != (None, None):
        raise ParameterDomainError("--points and --seed apply only to --suite scan")
    points = SCAN_POINTS if args.points is None else args.points
    seed = args.seed or 0
    if points < 1 or seed < 0:
        raise ParameterDomainError("--suite scan needs --points >= 1 and --seed >= 0")
    failures, messages = [], []
    if args.suite in ("one-way", "all"):
        _validate_one_way(failures, messages)
    if args.suite in ("bulk", "all"):
        _validate_bulk(failures, messages)
    if args.suite in ("dn", "all"):
        _validate_dn(failures, messages)
    if args.suite == "scan":
        _validate_scan(failures, messages, points, seed)
    for message in messages:
        print(message)
    passed = len(messages) - len(failures)
    print(f"{passed} passed, {len(failures)} failed")
    return 1 if failures else 0


# --- dump-matrices ---


def _cmd_dump_matrices(args):
    p = _params_from_args(args)
    pair = assembly.assemble(assembly.SCHEMES[args.scheme], p, args.n_minus, args.n_plus)
    assembly.write_dense_csv(pair.A.toarray(), f"{args.out_prefix}_A.csv")
    assembly.write_dense_csv(pair.B.toarray(), f"{args.out_prefix}_B.csv")
    print(f"wrote {args.out_prefix}_A.csv and {args.out_prefix}_B.csv ({pair.n}x{pair.n})")
    return 0


# --- parser ---


def _build_parser():
    parser = argparse.ArgumentParser(prog="cplstab",
                                     description="Stability analysis of coupled diffusion schemes")
    commands = parser.add_subparsers(dest="command", required=True)

    p_sweep = commands.add_parser("sweep", help="map lambda_max over a parameter plane")
    p_sweep.add_argument("--config", help="INI sweep description")
    p_sweep.add_argument("--preset", choices=sweep.PRESET_NAMES)
    p_sweep.add_argument("--scheme", choices=sorted(assembly.SCHEMES))
    p_sweep.add_argument("--variant", type=int, help="variant index for fig4/fig6")
    p_sweep.add_argument("--r", type=float, help="heat-content ratio for fig8/fig9")
    p_sweep.add_argument("--csv", help="output CSV path (overrides config)")
    p_sweep.add_argument("--pgm", help="optional PGM rendering path")
    p_sweep.add_argument("--n-minus", type=int, default=None)
    p_sweep.add_argument("--n-plus", type=int, default=None)
    p_sweep.add_argument("--tol", type=float, default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_spectrum = commands.add_parser("spectrum", help="eigenvalues of one scheme instance")
    _add_param_arguments(p_spectrum)
    p_spectrum.add_argument("--tol", type=float, default=1e-8)
    p_spectrum.add_argument("--out", help="write CSV here instead of stdout")
    p_spectrum.set_defaults(func=_cmd_spectrum)

    p_simulate = commands.add_parser("simulate", help="run a trajectory and fit its growth")
    _add_param_arguments(p_simulate)
    p_simulate.add_argument("--steps", type=int, default=300)
    p_simulate.add_argument("--seed", type=int, default=0)
    p_simulate.add_argument("--burn-in", type=int, default=50)
    p_simulate.add_argument("--stepper", choices=("monolithic", "partitioned"),
                            default="monolithic")
    p_simulate.add_argument("--out", help="write CSV here instead of stdout")
    p_simulate.set_defaults(func=_cmd_simulate)

    p_bounds = commands.add_parser("bounds", help="one-way analytic stability curves")
    p_bounds.add_argument("--d", type=float, help="single evaluation point")
    p_bounds.add_argument("--d-lo", type=float, default=1e-2)
    p_bounds.add_argument("--d-hi", type=float, default=1e3)
    p_bounds.add_argument("--points", type=int, default=101)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_validate = commands.add_parser("validate", help="cross-check battery")
    p_validate.add_argument("--suite", choices=("one-way", "bulk", "dn", "scan", "all"),
                            default="all", help="all is one-way, bulk and dn, well under a "
                            "second; scan, the 3.5-6 s scan-versus-matrix audit, runs alone")
    p_validate.add_argument("--points", type=int, help="scan draws per scheme (default 50)")
    p_validate.add_argument("--seed", type=int, help="seed of the scan draws (default 0)")
    p_validate.set_defaults(func=_cmd_validate)

    p_dump = commands.add_parser("dump-matrices", help="write assembled A and B as CSV")
    _add_param_arguments(p_dump)
    p_dump.add_argument("--out-prefix", required=True)
    p_dump.set_defaults(func=_cmd_dump_matrices)

    return parser


def cli_main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code) if err.code is not None else 0
    try:
        return args.func(args)
    except (ParameterDomainError, SchemeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (CplstabError, OSError) as err:
        print(f"failure: {err}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
