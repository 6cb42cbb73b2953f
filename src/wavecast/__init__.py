"""Time-domain wave field evaluation with rational absorbing layers."""

from .analytic import analytic_homogeneous
from .errors import (
    BranchCutError,
    BreakdownError,
    ConfigurationError,
    DegenerateInputError,
    InvalidParameterError,
    NearDefectiveError,
    PoleProximityError,
    PrecisionError,
    SamplingError,
    StabilityError,
    ValidationError,
    WavecastError,
)
from .fdtd import FdtdResult, run_fdtd
from .grid import Axis1D, Grid2D, build_axis, build_grid2d
from .harness import ComparisonReport, run_study
from .krylov import (
    LanczosDecomposition,
    ModeSet,
    bilanczos,
    convolve_source,
    eigen_tridiag,
    evaluate_impulse,
    extend_bilanczos,
    sc_resolvent_dense,
    sctde_scalar,
)
from .operator import MediumMap, WaveOperator, assemble_operator
from .scenarios import (
    PRESETS,
    Annulus,
    Disk,
    RodLattice,
    Scenario,
    get_scenario,
    load_config,
)
from .signals import (
    SourceSignature,
    Waveform,
    compare_traces,
    make_wavelet,
    resample_waveform,
)
from .zolotarev import (
    PmlSteps,
    RationalImpedance,
    SpectralInterval,
    compute_interval,
    eval_impedance_cf,
    impedance_error,
    to_continued_fraction,
    zolotarev_approx,
)

__version__ = "0.1.0"
