"""Numerical toolkit for regularization-based stochastic calculus on sampled
cadlag paths: covariation and forward-integral estimators, characteristics
decompositions, martingale residual tests, and exponent/triplet recovery.
"""

from .paths import (
    CadlagPath,
    GridAlignmentError,
    GridMismatchError,
    PathBatch,
    TimeGrid,
    combine,
    star_integral,
)
from .regularize import (
    CovariationEstimate,
    EpsilonSchedule,
    IdentityReport,
    QvDecomposition,
    covariation_eps,
    covariation_limit,
    default_schedule,
    forward_integral_eps,
    forward_integral_limit,
    pure_jump_covariation_check,
    qv_decompose,
    smooth_map_cross_check,
    smooth_map_qv_check,
)
from .simulate import (
    BrownianMotion,
    Composite,
    CompoundPoisson,
    DeterministicDrift,
    DiscreteAtoms,
    FractionalBrownianMotion,
    GaussianJumps,
    LevyJumpDiffusion,
    SeedSpec,
    UniformJumps,
    law_expectation,
    simulate_batch,
    simulate_path,
)
from .characteristics import (
    CharacteristicsModel,
    ComponentLogError,
    Decomposition,
    TruncationFunction,
    continuous_bracket_check,
    convert_truncation,
    decompose,
    drift_bracket_check,
    known_characteristics,
    smooth_clip_truncation,
    standard_truncation,
)
from .residuals import (
    MartingaleTestReport,
    ResidualEnsemble,
    ResidualPath,
    TestFunction,
    bump,
    damped_sine,
    drift_orthogonality_probe,
    exp_tanh,
    martingale_mean_test,
    residual_ensemble,
    semimartingale_residual,
    weak_dirichlet_residual,
)
from .levyexponent import (
    ExponentGrid,
    GriddedDensity,
    RecoveredTriplet,
    Triplet1D,
    WeightedAtoms,
    exponent_eval,
    phi_w,
    recover_triplet,
)

__version__ = "0.1.0"
