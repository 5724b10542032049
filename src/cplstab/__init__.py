"""Stability analysis of interface coupling schemes for two-domain diffusion."""

# defined before the submodule imports so that sweep can stamp it on its results
__version__ = "0.1.0"

from .errors import (
    CplstabError,
    DecayFloorWarning,
    ParameterDomainError,
    ScanError,
    SchemeError,
    SingularMatrixError,
    SingularityError,
    SolveResidualWarning,
    SpectrumError,
    UnconfirmedRootWarning,
)
from .params import DimensionlessParams
from .assembly import (
    SCHEMES,
    Layout,
    SchemeSpec,
    Tridiagonal,
    UpdatePair,
    assemble,
    scheme_name,
    write_dense_csv,
)
from .spectral import (
    Spectrum,
    StabilityClass,
    classify,
    eigen_spectrum,
    full_spectrum,
    tridiagonal_solve,
    update_matrix,
)
from .normalmode import (
    ModeSolution,
    ScanSettings,
    beljaars_bound,
    dispersion_residual,
    gks_scan,
    normal_mode_verdict,
    one_way_explicit_bound,
    one_way_explicit_roots,
)
from .stepper import (
    State,
    Trajectory,
    pack_state,
    power_growth_rate,
    random_state,
    run_monolithic,
    run_partitioned,
    state_norm,
    step_monolithic,
    step_partitioned,
    unpack_state,
)
from .sweep import (
    Axis,
    StabilityField,
    SweepSpec,
    default_axis,
    preset_sweep,
    run_sweep,
    write_csv,
    write_pgm,
)
