"""Exception and warning types shared across the package."""


class CplstabError(Exception):
    """Base of the package's errors; a sweep and the CLI catch these and no other error."""


class ParameterDomainError(CplstabError, ValueError):
    """An input lies outside the physical or numerical domain of a routine."""


class SchemeError(CplstabError, ValueError):
    """A scheme description is internally inconsistent or unsupported."""


class SingularMatrixError(CplstabError, ArithmeticError):
    """A linear solve hit a pivot too small to trust."""


class SingularityError(CplstabError, ValueError):
    """A dispersion relation was evaluated at a removable singularity (A = 0 or 1)."""


class SpectrumError(CplstabError, RuntimeError):
    """Eigenvalue computation failed or did not meet its residual target."""


class ScanError(CplstabError, ArithmeticError):
    """The normal-mode scan could not prove its root count or polish a counted root."""


class UnconfirmedRootWarning(UserWarning):
    """Kept as a public name; the scan raises ScanError where a root is not confirmed."""


class DecayFloorWarning(UserWarning):
    """Trajectory norms underflowed to zero before the requested window ended."""


class SolveResidualWarning(UserWarning):
    """A linear-solve residual stayed above target after iterative refinement."""
