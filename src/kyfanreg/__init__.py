"""Deterministic regularization for ill-posed inverse problems under
stochastic noise.

The toolkit estimates stochastic noise levels (analytic Ky Fan bounds,
inflated expectations, empirical plug-in estimates), feeds them to
deterministic parameter-choice rules (a priori filter rules, discrepancy
principles, balancing equations), runs spectral-filter, Landweber, and
proximal-gradient solvers, and verifies convergence rates at desk scale
with reproducible Monte Carlo studies.
"""

from .config import ConfigError, ExperimentConfig, KyFanSquared, load_config, parse_config
from .harness import (
    CSV_COLUMNS,
    EtaSummary,
    RateFit,
    StudyResult,
    TrialResult,
    export,
    export_autoconv_panels,
    fit_rate,
    read_summaries,
    run_study,
)
from .noise import (
    ConstantTau,
    EmpiricalSample,
    InflatedExpectation,
    KyFanBound,
    LogInflatingTau,
    NoiseSpec,
    delta_eff,
    empirical_kyfan,
    expected_norm,
    expected_norm_upper,
    kyfan_bound_gaussian,
    sample_noise,
    tail_prob_tau,
    tau_schedule,
    trial_rng,
    truncate_solution,
)
from .operators import (
    AutoconvGrid,
    BesovWeights,
    SvdOperator,
    autoconv_apply,
    autoconv_derivative_adjoint_apply,
    autoconv_derivative_apply,
    autoconv_spectrum,
    besov_weights,
    haar_forward,
    haar_inverse,
    haar_level_indices,
)
from .regularization import (
    LandweberFilter,
    NonConvergence,
    SolveReport,
    Tikhonov,
    Tsvd,
    filter_reconstruct,
    filter_value,
    operator_norm_squared,
    prox_gradient_solve,
    prox_weighted_lp,
    soft_threshold,
)
from .rules import (
    AprioriFilter,
    BesovBalanceParams,
    BesovBalanceResult,
    Discrepancy,
    DiscrepancyStop,
    Fixed,
    NoBracket,
    NuEstimate,
    RatePrediction,
    TikhonovRateModel,
    apriori_filter_alpha,
    besov_balance_alpha,
    combined_model,
    discrepancy_alpha,
    heavy_tail_model,
    nu_effective,
    tikhonov_rate_predict,
    uniform_source_model,
)
from .special import lambert_w0, ln_gamma, reg_gamma_q

__version__ = "0.1.0"
