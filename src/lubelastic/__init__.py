"""Thin-film models for fluids lubricating elastic plates.

The package provides, bottom up: periodic pseudo-spectral machinery with a
Chebyshev vertical direction (`spectral`), the family of film-height
evolution equations and the stationary pressure problem (`thinfilm`), the
full-order coupled channel/plate solver (`fsi`), reconstruction of
approximate full-order solutions from the reduced displacement
(`reconstruction`), and error-norm / convergence-rate verification
(`verify`).  Scaling laws and coefficient maps live in `scaling`; the
`lubelastic` command line in `cli`.
"""

from .errors import (
    AssemblyError,
    DegenerateFitError,
    GridMismatchError,
    InvariantError,
    ParameterError,
    PositivityError,
    RegimeError,
    UsageError,
)
from .scaling import (
    LameParams,
    ModelParams,
    NonlinearScalingPreset,
    RegimeCheck,
    eps_power,
    reduced_coefficient_e0,
    reduced_coefficient_eh,
    validate_theorem_regime,
)
from .spectral import (
    PeriodicGrid,
    VerticalNodes,
    dealiased_product,
    spectral_derivative,
)
from .thinfilm import (
    FilmRun,
    FilmTrajectory,
    ThinFilmModel,
    evolve,
    solve_linear_sixth,
    solve_reynolds_stationary,
)
from .fsi import (
    EnergyLedger,
    FsiParams,
    FsiState,
    FsiTrajectory,
    harmonic_ramp_forcing,
    run_fsi,
)
from .reconstruction import (
    ApproxTriple,
    LimitFields,
    solve_reduced,
)
from .verify import (
    AuditResult,
    ErrorReport,
    RateFit,
    RateStudyConfig,
    RateStudyResult,
    energy_audit,
    fit_rate,
    norm_LinfH2,
    run_rate_study,
    thin_norm_L2L2,
)

__version__ = "0.1.0"
