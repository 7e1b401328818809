"""Penalized-complexity priors for circular distributions.

Densities, samplers and closed-form divergences for the von Mises,
cardioid and wrapped Cauchy families; priors that are exponential in
the distance to a base model, with tail-statement calibration; priors
from the literature mapped onto the same distance scale for auditing;
adaptive Metropolis inference; and a reproducible simulation-study
harness with a command-line front end.
"""

from .distributions import (
    TWO_PI,
    Dataset,
    DistributionSpec,
    Family,
    circular_mean,
    log_pdf,
    pdf,
    resultant_length,
    sample,
    wrap_angle,
)
from .divergence import (
    BaseModel,
    Direction,
    DistanceProfile,
    distance,
    distance_deriv,
    inverse_distance,
    kld_cardioid,
    kld_numeric,
    kld_vm,
    kld_wc,
    profile_for,
    supported_pairs,
)
from .harness import (
    PriorSpec,
    SimStudyConfig,
    SimStudyResult,
    build_concentration_prior,
    desk_study_config,
    full_study_config,
    run_sim_study,
    tail_from_data,
)
from .inference import (
    Chain,
    InitializationError,
    McmcConfig,
    ModelSpec,
    PosteriorSummary,
    effective_sample_size,
    log_posterior,
    run_mcmc,
    summarize,
)
from .pc_priors import (
    InfeasibleTailError,
    Normalization,
    PcPrior,
    TailSpec,
    UnsupportedModeError,
    attainable_alpha_range,
    calibrate_lambda,
    calibrate_lambda_paper,
    pc_cdf,
    pc_pdf,
    pc_quantile,
    pc_sample,
    q_transform,
    tail_probability,
)
from .reference_priors import (
    AuditReport,
    Beta,
    CircularUniformLocation,
    GammaOneB,
    H2,
    H3,
    ScaledBetaHalf,
    UniformHalf,
    VonMisesConjugate,
    distance_scale_pdf,
    overfit_audit,
    ref_pdf,
)
from .special import (
    bessel_i,
    bessel_ratio,
    bessel_ratio_deriv,
    log_bessel_i0,
    one_minus_bessel_ratio,
)

__version__ = "0.1.0"
