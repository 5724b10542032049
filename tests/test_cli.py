"""Exit codes and output formats of the command-line front end."""

import dataclasses
import subprocess
import sys
import warnings

import numpy as np
import pytest

import cplstab.normalmode as normalmode_mod
import cplstab.spectral as spectral_mod
from cplstab.assembly import SCHEMES, assemble
from cplstab.cli import cli_main
from cplstab.errors import ScanError
from cplstab.normalmode import beljaars_bound, one_way_explicit_bound
from cplstab.params import DimensionlessParams
from cplstab.sweep import Axis, SweepSpec, run_sweep, write_csv

SEED = 0

SWEEP_CONFIG = """\
[scheme]
name = one-way-explicit-flux

[axes]
x = d_minus
x_lo = 0.1
x_hi = 10
x_points = 3
y = beta_minus
y_lo = 0.5
y_hi = 8
y_points = 3

[fixed]
beta_plus = 0.1
d_plus = 0.1
r = 1.0

[grid]
n_minus = 5
n_plus = 2
"""


def config_spec(n_minus=5, n_plus=2, tol=1e-8):
    return SweepSpec(
        scheme=SCHEMES["one-way-explicit-flux"],
        axis_x=Axis("d_minus", 0.1, 10.0, 3, "log"),
        axis_y=Axis("beta_minus", 0.5, 8.0, 3, "log"),
        fixed={"beta_plus": 0.1, "d_plus": 0.1, "r": 1.0},
        n_minus=n_minus,
        n_plus=n_plus,
        tol=tol,
    )


# ------------------------------------------------------------- usage errors


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--scheme", "dn-implicit", "--burn-in", "-5"], "--burn-in must be nonnegative"),
    (["simulate", "--scheme", "dn-implicit", "--steps", "-3"], "--steps must be nonnegative"),
    (["simulate", "--scheme", "dn-implicit", "--seed", "-1"], "--seed must be nonnegative"),
    (["validate", "--suite", "all", "--points", "5"], "apply only to --suite scan"),
    (["validate", "--suite", "bulk", "--seed", "1"], "apply only to --suite scan"),
    (["validate", "--points", "3"], "apply only to --suite scan"),
    (["validate", "--suite", "scan", "--points", "0"], "--points >= 1 and --seed >= 0"),
    (["validate", "--suite", "scan", "--seed", "-1"], "--points >= 1 and --seed >= 0"),
    (["bounds", "--points", "-3"], "--points >= 1 and --d-lo <= --d-hi"),
    (["bounds", "--points", "0"], "--points >= 1 and --d-lo <= --d-hi"),
    (["bounds", "--d", "0"], "--d must be positive and finite"),
    (["bounds", "--d", "inf"], "--d must be positive and finite"),
    (["bounds", "--d", "nan"], "--d must be positive and finite"),
    (["bounds", "--d-lo", "0"], "--d-lo must be positive and finite"),
    (["bounds", "--d-lo", "-1"], "--d-lo must be positive and finite"),
    (["bounds", "--d-hi", "inf"], "--d-hi must be positive and finite"),
    (["bounds", "--d-lo", "10", "--d-hi", "1"], "--points >= 1 and --d-lo <= --d-hi"),
    (["spectrum", "--scheme", "dn-implicit", "--tol", "0"], "--tol must be positive"),
    (["spectrum", "--scheme", "dn-implicit", "--tol=-1e-8"], "--tol must be positive"),
    (["spectrum", "--scheme", "dn-implicit", "--tol", "nan"], "--tol must be positive"),
    # an infinite tolerance used to print "(marginal)"
    (["spectrum", "--scheme", "dn-implicit", "--tol", "inf"], "--tol must be positive and finite"),
    # the implicit bound 2d overflows past 8.99e307
    (["bounds", "--d", "1e308"], "--d must be at most 8.988465674311579e+307"),
    (["bounds", "--d-hi", "1e308"], "--d-hi must be at most 8.988465674311579e+307"),
    (["sweep"], "error: sweep needs --config or --preset"),
])
def test_negative_counts_and_ignored_options_are_usage_errors(argv, message, capsys):
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli_main(["frobnicate"]) == 2
    capsys.readouterr()


def test_no_subcommand_is_usage_error(capsys):
    assert cli_main([]) == 2
    capsys.readouterr()


def test_sweep_without_source_is_usage_error(capsys):
    assert cli_main(["sweep"]) == 2
    assert "--config or --preset" in capsys.readouterr().err


def test_sweep_missing_config_file(tmp_path, capsys):
    path = tmp_path / "absent.ini"
    code = cli_main(["sweep", "--config", str(path), "--csv", str(tmp_path / "out.csv")])
    assert code == 2
    assert f"error: config file not found: {path}" in capsys.readouterr().err


def test_sweep_incomplete_config(tmp_path, capsys):
    path = tmp_path / "broken.ini"
    path.write_text("[scheme]\nname = one-way-explicit-flux\n", encoding="utf-8")
    code = cli_main(["sweep", "--config", str(path), "--csv", str(tmp_path / "o.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [
    ("scheme", "nmae"), ("axes", "x_point"), ("grid", "n_minu"), ("output", "cvs"),
])
def test_sweep_config_rejects_unknown_keys(tmp_path, capsys, section, key):
    # a misspelt key used to be ignored, and its default swept
    config = tmp_path / "sweep.ini"
    text = SWEEP_CONFIG + f"\n[output]\npgm = {tmp_path / 'field.pgm'}\n"
    config.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{key} = 3\n"),
                      encoding="utf-8")
    csv_path = tmp_path / "field.csv"
    assert cli_main(["sweep", "--config", str(config), "--csv", str(csv_path)]) == 2
    captured = capsys.readouterr()
    assert f"unknown keys in [{section}]: ['{key}']" in captured.err
    assert captured.out == "" and not list(tmp_path.glob("field.*"))


@pytest.mark.parametrize("section, key", [("scheme", "name"), ("axes", "x"), ("axes", "y")])
def test_sweep_config_names_a_missing_key(tmp_path, capsys, section, key):
    config = tmp_path / "sweep.ini"
    lines = SWEEP_CONFIG.splitlines(keepends=True)
    config.write_text("".join(line for line in lines if not line.startswith(f"{key} = ")),
                      encoding="utf-8")
    assert cli_main(["sweep", "--config", str(config), "--csv", str(tmp_path / "f.csv")]) == 2
    assert f"error: missing keys in [{section}]: ['{key}']" in capsys.readouterr().err
    assert not list(tmp_path.glob("f.*"))


@pytest.mark.parametrize("section, old, new", [
    ("axes", "x_points = 3", "x_points = many"),
    ("grid", "n_minus = 5", "n_minus = 2.5"),
    ("fixed", "r = 1.0", "r = one"),
    # values are literal: a % used to fail as a bad interpolation, with exit 1
    ("fixed", "r = 1.0", "r = 1%"),
])
def test_sweep_config_rejects_malformed_numbers(tmp_path, capsys, section, old, new):
    # a value that is not a number used to exit 1, the code of an analysis failure
    config = tmp_path / "sweep.ini"
    config.write_text(SWEEP_CONFIG.replace(old, new), encoding="utf-8")
    assert cli_main(["sweep", "--config", str(config), "--csv", str(tmp_path / "f.csv")]) == 2
    key, value = new.split(" = ")
    assert f"error: [{section}] {key} = {value!r} is not a valid" in capsys.readouterr().err
    assert not list(tmp_path.glob("f.*"))


@pytest.mark.parametrize("malformed", [
    b"name = one-way-explicit-flux\n" + SWEEP_CONFIG.encode(),  # a key before any section
    SWEEP_CONFIG.replace("x = d_minus", "x = d_minus\nx = r").encode(),  # a duplicate key
    SWEEP_CONFIG.encode().replace(b"d_minus", b"d_\xffminus"),  # not UTF-8
], ids=["no-section-header", "duplicate-key", "not-utf-8"])
def test_sweep_config_that_does_not_parse_is_a_usage_error(tmp_path, capsys, malformed):
    # these exited 1, the code of an analysis failure
    config = tmp_path / "sweep.ini"
    config.write_bytes(malformed)
    assert cli_main(["sweep", "--config", str(config), "--csv", str(tmp_path / "f.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and str(config) in captured.err.splitlines()[0]
    assert captured.out == "" and not list(tmp_path.glob("f.*"))


@pytest.mark.parametrize("argv, message", [
    (["--preset", "fig9", "--r", "-1"], "fixed r must be positive and finite, got -1.0"),
    (["--preset", "fig9", "--r", "nan"], "fixed r must be positive and finite, got nan"),
    (["--preset", "fig3", "--tol", "inf", "--n-minus", "4", "--n-plus", "2"],
     "tol must be positive and finite, got inf"),
])
def test_sweep_rejects_values_outside_the_domain(tmp_path, capsys, argv, message):
    # these exited 0 with every cell failed, or every cell marginal
    csv_path = tmp_path / "f.csv"
    assert cli_main(["sweep", *argv, "--csv", str(csv_path)]) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == "" and not csv_path.exists()


def test_sweep_config_rejects_a_fixed_group_outside_the_domain(tmp_path, capsys):
    config = tmp_path / "sweep.ini"
    config.write_text(SWEEP_CONFIG.replace("r = 1.0", "r = -1"), encoding="utf-8")
    assert cli_main(["sweep", "--config", str(config), "--csv", str(tmp_path / "f.csv")]) == 2
    assert "error: fixed r must be positive and finite" in capsys.readouterr().err
    assert not list(tmp_path.glob("f.*"))


def test_sweep_without_csv_path(tmp_path, capsys):
    path = tmp_path / "sweep.ini"
    path.write_text(SWEEP_CONFIG, encoding="utf-8")
    assert cli_main(["sweep", "--config", str(path)]) == 2
    assert "no CSV output path" in capsys.readouterr().err


def test_invalid_parameters_are_usage_errors(capsys):
    code = cli_main(["spectrum", "--scheme", "bulk-explicit-flux", "--d-minus", "-1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_analysis_failure_exit_code(tmp_path, capsys):
    # an unwritable output path is an I/O failure, not a usage error
    prefix = str(tmp_path / "missing" / "dump")
    code = cli_main(["dump-matrices", "--scheme", "bulk-explicit-flux",
                     "--out-prefix", prefix])
    assert code == 1
    assert capsys.readouterr().err.startswith("failure:")


# ------------------------------------------------------------- sweep


def test_sweep_from_config(tmp_path, capsys):
    config = tmp_path / "sweep.ini"
    config.write_text(SWEEP_CONFIG, encoding="utf-8")
    csv_path = tmp_path / "field.csv"
    assert cli_main(["sweep", "--config", str(config), "--csv", str(csv_path)]) == 0
    summary = capsys.readouterr().out
    assert "9 cells" in summary and str(csv_path) in summary
    expected = tmp_path / "expected.csv"
    write_csv(run_sweep(config_spec()), expected)
    assert csv_path.read_bytes() == expected.read_bytes()


def test_sweep_output_section_and_pgm(tmp_path, capsys):
    csv_path = tmp_path / "field.csv"
    pgm_path = tmp_path / "field.pgm"
    config = tmp_path / "sweep.ini"
    config.write_text(
        SWEEP_CONFIG + f"\n[output]\ncsv = {csv_path}\npgm = {pgm_path}\n",
        encoding="utf-8",
    )
    assert cli_main(["sweep", "--config", str(config)]) == 0
    capsys.readouterr()
    assert csv_path.exists()
    header = pgm_path.read_text(encoding="utf-8").splitlines()[:3]
    assert header == ["P2", "3 3", "255"]


def test_sweep_config_scheme_override(tmp_path, capsys):
    config = tmp_path / "sweep.ini"
    config.write_text(SWEEP_CONFIG, encoding="utf-8")
    csv_path = tmp_path / "field.csv"
    code = cli_main(["sweep", "--config", str(config), "--scheme", "bulk-implicit-flux",
                     "--csv", str(csv_path)])
    assert code == 0
    assert capsys.readouterr().out.startswith("bulk-implicit-flux: 9 cells")
    expected = tmp_path / "expected.csv"
    write_csv(run_sweep(dataclasses.replace(config_spec(), scheme=SCHEMES["bulk-implicit-flux"])),
              expected)
    assert csv_path.read_bytes() == expected.read_bytes()


def test_sweep_config_rejects_an_unknown_scheme(tmp_path, capsys):
    config = tmp_path / "sweep.ini"
    config.write_text(SWEEP_CONFIG.replace("name = one-way-explicit-flux", "name = nope"),
                      encoding="utf-8")
    assert cli_main(["sweep", "--config", str(config), "--csv", str(tmp_path / "f.csv")]) == 2
    assert "error: unknown scheme name 'nope'" in capsys.readouterr().err
    assert not list(tmp_path.glob("f.*"))


def test_sweep_flag_overrides(tmp_path, capsys):
    config = tmp_path / "sweep.ini"
    config.write_text(SWEEP_CONFIG, encoding="utf-8")
    csv_path = tmp_path / "field.csv"
    code = cli_main(["sweep", "--config", str(config), "--csv", str(csv_path),
                     "--n-minus", "7", "--n-plus", "3", "--tol", "1e-6"])
    assert code == 0
    capsys.readouterr()
    expected = tmp_path / "expected.csv"
    write_csv(run_sweep(config_spec(n_minus=7, n_plus=3, tol=1e-6)), expected)
    assert csv_path.read_bytes() == expected.read_bytes()


def test_sweep_preset(tmp_path, capsys):
    csv_path = tmp_path / "fig8.csv"
    code = cli_main(["sweep", "--preset", "fig8", "--r", "2000",
                     "--n-minus", "4", "--n-plus", "3", "--csv", str(csv_path)])
    assert code == 0
    assert "dn-explicit" in capsys.readouterr().out
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 41 * 41
    assert lines[0] == "d_minus,d_plus,lambda_max,class"


@pytest.mark.parametrize("flags, message", [
    (["--preset", "fig4", "--variant", "5"], "variant 5 outside 0..2"),
    (["--preset", "fig4", "--variant", "-1"], "variant -1 outside 0..2"),
    (["--preset", "fig3", "--variant", "1"], "variant 1 outside 0..0"),
    (["--preset", "fig8", "--scheme", "bulk-sequential"], "maps dn-explicit"),
    (["--preset", "fig9", "--scheme", "dn-explicit"], "maps dn-implicit"),
    (["--preset", "fig3", "--r", "5"], "fig3 fixes r = 1, got r = 5"),
    # a config with these mapped the config's plane and exited 0
    (["--config", "sweep.ini", "--preset", "fig8"], "--config and --preset cannot be combined"),
    (["--config", "sweep.ini", "--r", "2000"], "--variant and --r apply only to --preset"),
    (["--config", "sweep.ini", "--variant", "1"], "--variant and --r apply only to --preset"),
    (["--r", "2000"], "--variant and --r apply only to --preset"),
])
def test_sweep_preset_rejects_options_it_would_ignore(tmp_path, capsys, flags, message):
    csv_path = tmp_path / "field.csv"
    assert cli_main(["sweep", *flags, "--csv", str(csv_path)]) == 2
    assert message in capsys.readouterr().err
    assert not csv_path.exists()


def test_sweep_preset_accepts_its_own_scheme(tmp_path, capsys):
    csv_path = tmp_path / "fig9.csv"
    code = cli_main(["sweep", "--preset", "fig9", "--scheme", "dn-implicit",
                     "--n-minus", "2", "--n-plus", "2", "--csv", str(csv_path)])
    assert code == 0
    assert "dn-implicit" in capsys.readouterr().out


# ------------------------------------------------------------- spectrum


def test_spectrum_stdout(capsys):
    # beta = 2, d = 0 leaves the pure exchange block with eigenvalues {-3, 1}
    code = cli_main(["spectrum", "--scheme", "bulk-explicit-flux",
                     "--beta-minus", "2", "--beta-plus", "2",
                     "--n-minus", "1", "--n-plus", "1"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == "re,im\n-3,0\n1,0\n"
    assert captured.err == "lambda_max = 3 (unstable)\n"


def test_spectrum_to_file(tmp_path, capsys):
    path = tmp_path / "spectrum.csv"
    code = cli_main(["spectrum", "--scheme", "bulk-explicit-flux",
                     "--beta-minus", "2", "--beta-plus", "2",
                     "--n-minus", "1", "--n-plus", "1", "--out", str(path)])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert path.read_text(encoding="utf-8") == "re,im\n-3,0\n1,0\n"


def spectrum_rows(argv, capsys):
    assert cli_main(["spectrum", *argv]) == 0
    return [float(row.split(",")[0]) for row in capsys.readouterr().out.splitlines()[1:]]


def test_spectrum_resolves_a_double_eigenvalue(capsys):
    # the two blocks of this one-sided pair share their top eigenvalue, so M
    # holds a Jordan block there, which dense eig resolves only to about 1e-9
    rows = spectrum_rows(["--scheme", "bulk-partial-flux", "--d-plus", "1", "--d-minus", "1",
                          "--beta-plus", "1", "--beta-minus", "0",
                          "--n-minus", "5", "--n-plus", "10"], capsys)
    expected = 1.0 / (1.0 + 4.0 * np.sin(np.pi / 22.0) ** 2)
    assert len(rows) == 15
    assert rows[0] == pytest.approx(expected, rel=1e-14)
    assert rows[1] == pytest.approx(expected, rel=1e-14)


def test_spectrum_of_a_graded_block_triangular_pair(capsys):
    # M has entries from 1e-21 to 1, and the eigenpair residual of dense eig
    # misses its 1e-8 check, although the eigenvalues are right
    p = DimensionlessParams(0.01, 1.0, 1.0 + 6.8e-13, 0.0, 1.0)
    rows = spectrum_rows(["--scheme", "bulk-explicit-flux", "--d-plus", "0.01",
                          "--d-minus", "1", "--beta-plus", repr(p.beta_plus),
                          "--beta-minus", "0", "--n-minus", "2", "--n-plus", "5"], capsys)
    top = spectral_mod.eigen_spectrum(assemble(SCHEMES["bulk-explicit-flux"], p, 2, 5))
    assert len(rows) == 7
    assert rows[0] == pytest.approx(top.lambda_max, rel=1e-14)


@pytest.mark.parametrize("scheme, code", [("dn-explicit", 0), ("dn-implicit", 2)])
def test_spectrum_past_the_dense_limit(capsys, scheme, code):
    # only a diagonal A (dn-explicit) gives the whole spectrum without an n x n array
    assert cli_main(["spectrum", "--scheme", scheme, "--d-minus", "0.3", "--d-plus", "0.45",
                     "--n-minus", "1100", "--n-plus", "1100"]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.out == "" and "outside 1..2048" in captured.err
    else:
        assert len(captured.out.splitlines()) == 1 + 2201


# ------------------------------------------------------------- simulate


@pytest.mark.parametrize("mode", ["monolithic", "partitioned"])
def test_simulate_rows(mode, capsys):
    code = cli_main(["simulate", "--scheme", "bulk-implicit-flux",
                     "--d-minus", "1", "--d-plus", "1",
                     "--beta-minus", "0.5", "--beta-plus", "0.5",
                     "--n-minus", "4", "--n-plus", "3",
                     "--steps", "6", "--burn-in", "2", "--stepper", mode])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "step,norm,growth_estimate"
    assert lines[1] == "0,1,nan"
    assert len(lines) == 8
    norms = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(n > 0.0 for n in norms)
    # the damped scheme contracts; the fitted growth settles below one
    assert float(lines[-1].split(",")[2]) < 1.0
    # steps 0 to 2 have fewer than two log norms from step burn_in = 2 on
    estimates = [line.split(",")[2] for line in lines[1:]]
    assert estimates[:3] == ["nan"] * 3 and "nan" not in estimates[3:]


def test_simulate_steppers_agree(tmp_path):
    paths = []
    for mode in ("monolithic", "partitioned"):
        path = tmp_path / f"{mode}.csv"
        code = cli_main(["simulate", "--scheme", "one-way-implicit-flux",
                         "--d-minus", "2", "--beta-minus", "1",
                         "--n-minus", "6", "--n-plus", "1",
                         "--steps", "10", "--out", str(path)])
        assert code == 0
        paths.append(path)
    tables = [
        np.genfromtxt(path, delimiter=",", skip_header=1) for path in paths
    ]
    np.testing.assert_allclose(tables[0][:, 1], tables[1][:, 1], rtol=1e-9)


def test_simulate_zero_gain_ends_the_run(capsys):
    # beta = 1 with one explicit-flux cell maps every state to zero
    assert cli_main(["simulate", "--scheme", "one-way-explicit-flux", "--d-minus", "1",
                     "--beta-minus", "1", "--n-minus", "1", "--steps", "5"]) == 0
    assert capsys.readouterr().out == "step,norm,growth_estimate\n0,1,nan\n1,0.0,nan\n"


def test_simulate_prints_inf_for_a_norm_beyond_the_float_range(capsys):
    # the run grows about 11.6x a step, so its norm passes 1.8e308 near step
    # 290; the renormalized fit goes on, and the norm column warns no more
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["simulate", "--scheme", "one-way-explicit-flux", "--d-minus", "1",
                         "--beta-minus", "20", "--n-minus", "10", "--steps", "300"]) == 0
    last = capsys.readouterr().out.splitlines()[-1].split(",")
    assert last[:2] == ["300", "inf"]
    assert float(last[2]) == pytest.approx(11.64, rel=1e-3)


# ------------------------------------------------------------- bounds


def test_bounds_single_point(capsys):
    assert cli_main(["bounds", "--d", "1.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "beta_max_explicit,3"
    name, value = lines[1].split(",")
    assert name == "beta_max_beljaars"
    assert float(value) == pytest.approx(beljaars_bound(1.5), rel=1e-12)
    assert lines[2] == "beta_min_implicit_admissible,3"


def test_bounds_at_the_largest_d(capsys):
    assert cli_main(["bounds", "--d", "8.988465674311579e+307"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "beta_max_explicit,1.3407807929942596e+154"
    assert lines[2] == "beta_min_implicit_admissible,1.7976931348623157e+308"


def test_bounds_curve(capsys):
    assert cli_main(["bounds", "--d-lo", "0.1", "--d-hi", "10", "--points", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "d,beta_max_explicit,beta_max_beljaars,beta_min_implicit_admissible"
    assert len(lines) == 6
    for line in lines[1:]:
        d, explicit, beljaars, admissible = map(float, line.split(","))
        assert explicit == pytest.approx(one_way_explicit_bound(d), rel=1e-12)
        assert beljaars == pytest.approx(beljaars_bound(d), rel=1e-12)
        assert admissible == pytest.approx(2.0 * d, rel=1e-12)
    assert float(lines[1].split(",")[0]) == pytest.approx(0.1)
    assert float(lines[-1].split(",")[0]) == pytest.approx(10.0)


# ------------------------------------------------------------- validate


def test_validate_one_way_suite(capsys):
    assert cli_main(["validate", "--suite", "one-way"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "7 passed, 0 failed"
    assert all(line.startswith("ok  ") for line in lines[:-1])


def test_validate_all_suites(capsys):
    assert cli_main(["validate", "--suite", "all"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "13 passed, 0 failed"


@pytest.mark.parametrize("module, name, wrap, flag", [
    (normalmode_mod, "normal_mode_verdict",
     lambda verdict: lambda scheme, p, scan=None: not verdict(scheme, p, scan), "agree: False"),
    (spectral_mod, "update_matrix",
     lambda update: lambda pair: update(pair) * (1.0 + 1e-6), "dense: False"),
])
def test_validate_scan_prints_each_failing_point(monkeypatch, capsys, module, name, wrap, flag):
    # a flipped verdict, or a dense oracle off by 1e-6, fails every scheme's one draw
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    assert cli_main(["validate", "--suite", "scan", "--points", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" at DimensionlessParams(")[0] for line in lines if flag in line] == [
        f"  {scheme}" for scheme in SCHEMES]
    assert lines[-1] == f"0 passed, {len(SCHEMES)} failed"


def test_validate_scan_prints_a_draw_whose_scan_raises(monkeypatch, capsys):
    # a ScanError on one draw fails that scheme's check; the audit goes on
    real = normalmode_mod.normal_mode_verdict
    failing = SCHEMES["bulk-partial-flux"]

    def verdict(scheme, p, scan=None):
        if scheme == failing:
            raise ScanError("the residual winds -1 times around the annulus")
        return real(scheme, p, scan)

    monkeypatch.setattr(normalmode_mod, "normal_mode_verdict", verdict)
    assert cli_main(["validate", "--suite", "scan", "--points", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("  bulk-partial-flux at DimensionlessParams(d_plus=")
    assert lines[0].endswith(": ScanError: the residual winds -1 times around the annulus")
    checks = [line for line in lines if line.startswith(("ok  ", "FAIL"))]
    assert [line.split()[1] for line in checks] == list(SCHEMES)
    assert [line for line in checks if line.startswith("FAIL")] == [
        "FAIL bulk-partial-flux scan verdicts match the matrix on 1 draws "
        "(1 disagree, 0 pencil/dense mismatches)"]
    assert lines[-1] == f"{len(SCHEMES) - 1} passed, 1 failed"


def test_validate_dn_fails_on_a_shifted_root(monkeypatch, capsys):
    # a residual evaluated at A (1 + 1e-5) moves the root 2e-6 to 7e-6 off 1/(1+4d)
    real = normalmode_mod.dispersion_residual
    monkeypatch.setattr(normalmode_mod, "dispersion_residual",
                        lambda scheme, p, A: real(scheme, p, A * (1.0 + 1e-5)))
    assert cli_main(["validate", "--suite", "dn"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL dn-implicit small-ratio root sits at 1/(1+4d)" in lines
    assert lines[-1] == "1 passed, 1 failed"


def test_validate_does_not_import_scipy_optimize():
    # scipy.optimize alone costs about a quarter of the wall time of validate --suite all
    code = ("import contextlib, io, sys\n"
            "from cplstab.cli import cli_main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli_main(['validate', '--suite', 'all'])\n"
            "print(code, 'scipy.optimize' in sys.modules)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "False"]


def test_validate_failure_exit_code(monkeypatch, capsys):
    # a broken scan must surface as exit 1, not crash and not pass
    monkeypatch.setattr(normalmode_mod, "gks_scan", lambda scheme, p, scan=None: [])
    assert cli_main(["validate", "--suite", "one-way"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "4 passed, 3 failed"
    assert sum(line.startswith("FAIL") for line in lines) == 3


# ------------------------------------------------------------- dump-matrices


def test_dump_matrices_round_trip(tmp_path, capsys):
    prefix = tmp_path / "pair"
    code = cli_main(["dump-matrices", "--scheme", "bulk-partial-flux",
                     "--d-minus", "0.3", "--d-plus", "0.7",
                     "--beta-minus", "0.2", "--beta-plus", "0.4",
                     "--n-minus", "3", "--n-plus", "2",
                     "--out-prefix", str(prefix)])
    assert code == 0
    assert "5x5" in capsys.readouterr().out
    p = DimensionlessParams(0.7, 0.3, 0.4, 0.2, 1.0)
    pair = assemble(SCHEMES["bulk-partial-flux"], p, 3, 2)
    loaded_a = np.loadtxt(tmp_path / "pair_A.csv", delimiter=",")
    loaded_b = np.loadtxt(tmp_path / "pair_B.csv", delimiter=",")
    np.testing.assert_array_equal(loaded_a, pair.A.toarray())
    np.testing.assert_array_equal(loaded_b, pair.B.toarray())


# ------------------------------------------------------------- entry point


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-c", "from cplstab.cli import main; main()",
         "bounds", "--d", "1.5"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "beta_max_explicit,3"


def test_cli_module_runs_as_a_script():
    result = subprocess.run([sys.executable, "-m", "cplstab.cli", "bounds", "--d", "1"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.splitlines() == ["beta_max_explicit,2.732050807568877",
                                          "beta_max_beljaars,3",
                                          "beta_min_implicit_admissible,2"]
