"""The failure rule: the package's errors share one base, and nothing else is caught."""

import inspect

import pytest

import cplstab
import cplstab.assembly as assembly_mod
import cplstab.errors as errors_mod
import cplstab.normalmode as normalmode_mod
import cplstab.spectral as spectral_mod
import cplstab.stepper as stepper_mod
from cplstab.assembly import SCHEMES
from cplstab.cli import cli_main
from cplstab.errors import CplstabError
from cplstab.sweep import Axis, SweepSpec, run_sweep

# the built-in base that each package error keeps
BUILT_IN_BASES = {
    "ParameterDomainError": ValueError,
    "ScanError": ArithmeticError,
    "SchemeError": ValueError,
    "SingularMatrixError": ArithmeticError,
    "SingularityError": ValueError,
    "SpectrumError": RuntimeError,
}


def test_every_package_error_is_a_cplstab_error():
    errors = {name: cls for name, cls in vars(errors_mod).items()
              if inspect.isclass(cls) and issubclass(cls, Exception)
              and not issubclass(cls, Warning) and cls is not CplstabError}
    assert errors.keys() == BUILT_IN_BASES.keys()
    for name, cls in errors.items():
        assert issubclass(cls, CplstabError) and issubclass(cls, BUILT_IN_BASES[name])
        assert getattr(cplstab, name) is cls
    assert cplstab.CplstabError is CplstabError


# --- bugs injected at each layer propagate out of every entry point ---

MESSAGE = "synthetic bug"

SWEEP_CONFIG = """\
[scheme]
name = bulk-explicit-flux

[axes]
x = d_minus
x_lo = 0.1
x_hi = 1
x_points = 3
y = beta_minus
y_lo = 0.5
y_hi = 2
y_points = 3

[fixed]
beta_plus = 0.1
d_plus = 0.1
r = 1.0

[grid]
n_minus = {n_minus}
n_plus = 2
"""


def plane(points):
    """The config's plane on points x points cells: one batch at 4, cell by cell at 3."""
    return SweepSpec(SCHEMES["bulk-explicit-flux"], Axis("d_minus", 0.1, 1.0, points),
                     Axis("beta_minus", 0.5, 2.0, points),
                     {"beta_plus": 0.1, "d_plus": 0.1, "r": 1.0}, n_minus=20, n_plus=2)


def cli_sweep(tmp_path):
    config = tmp_path / "sweep.ini"
    config.write_text(SWEEP_CONFIG.format(n_minus=20), encoding="utf-8")
    return cli_main(["sweep", "--config", str(config), "--csv", str(tmp_path / "f.csv")])


GROUPS = ["--d-minus", "0.3", "--d-plus", "0.45", "--beta-minus", "0.2", "--beta-plus", "0.4",
          "--n-minus", "4", "--n-plus", "3"]

ENTRY_POINTS = {
    "run_sweep-batch": lambda tmp_path: run_sweep(plane(4)),
    "run_sweep-per-cell": lambda tmp_path: run_sweep(plane(3)),
    "cli-sweep": cli_sweep,
    "cli-validate": lambda tmp_path: cli_main(["validate", "--suite", "one-way"]),
    # a lagged pair: full_spectrum takes eigen_spectrum's dense path
    "cli-spectrum": lambda tmp_path: cli_main(["spectrum", "--scheme", "bulk-sequential",
                                                *GROUPS]),
    "cli-simulate": lambda tmp_path: cli_main(["simulate", "--scheme", "dn-implicit", *GROUPS,
                                               "--steps", "3", "--stepper", "partitioned",
                                               "--out", str(tmp_path / "t.csv")]),
}

# each layer, and the entry points whose work reaches it
LAYERS = {
    (assembly_mod, "assemble_runs"): list(ENTRY_POINTS),
    # the batch assembles runs and never expands them
    (assembly_mod, "assemble_bands"): [entry for entry in ENTRY_POINTS if entry != "run_sweep-batch"],
    (spectral_mod, "run_ends"): ["run_sweep-batch"],
    (spectral_mod, "pencil_ends"): ["run_sweep-per-cell", "cli-sweep", "cli-validate"],
    (spectral_mod, "eigen_spectrum"): ["run_sweep-per-cell", "cli-sweep", "cli-validate",
                                       "cli-spectrum"],
    (normalmode_mod, "gks_scan"): ["cli-validate"],
    (stepper_mod, "_partitioned_step"): ["cli-simulate"],
}


@pytest.mark.parametrize("error", [TypeError, NotImplementedError, RecursionError])
@pytest.mark.parametrize("module, name, entry", [
    pytest.param(module, name, entry, id=f"{name}-{entry}")
    for (module, name), entries in LAYERS.items() for entry in entries
])
def test_bugs_propagate_out_of_every_entry_point(monkeypatch, tmp_path, capsys, module, name,
                                                 entry, error):
    # the CLI printed "failure: synthetic bug" and exited 1, as for a failed analysis
    def broken(*args, **kwargs):
        raise error(MESSAGE)

    monkeypatch.setattr(module, name, broken)
    with pytest.raises(error) as raised:
        ENTRY_POINTS[entry](tmp_path)
    assert type(raised.value) is error and str(raised.value) == MESSAGE
    assert capsys.readouterr().err == ""
