"""Multiple testing with e-values, p-values, and their combinations.

The package covers four layers:

* `core`: input validation, rejection results (a boolean mask plus the
  adjusted statistic), false-discovery accounting and error metrics.
* `calib`: calibrators between the p-value and e-value scales, (p, e)
  combiners, and the lambda shift that discounts an e-value toward 1.
* `procedures`: BH and its weighted, e-value, hybrid, and adaptive
  variants, each a map onto one shared step-up kernel, plus Bonferroni
  thresholding, behind a name registry.
* `constructors` / `sim`: ways to build e-values from data (soft-rank
  permutation statistics, moderated t, chi-square likelihood ratios) and
  simulation scenarios with a seeded, parallel replication driver.
"""

from .calib import (
    BadCalibrator,
    BadLambda,
    Calibrator,
    DEFAULT_CALIBRATOR,
    calibrate_e_to_p,
    calibrate_p_to_e,
    combine_bonferroni,
    combine_mean,
    combine_product,
    combine_quotient,
    parse_calibrator,
    power_calibrator,
    shift_evalue,
    sqrt_calibrator,
)
from .constructors import (
    ModeratedTModel,
    PermutationStatistics,
    chisq_lr_evalue,
    fit_gamma,
    fit_limma_hyperparameters,
    fit_moderated_model,
    moderated_t,
    moderated_t_evalue,
    soft_rank_evalue,
)
from .core import (
    EmptyInput,
    ErrorMetrics,
    LengthMismatch,
    MalformedValue,
    RejectionResult,
    fdp_and_power,
)
from .procedures import (
    REGISTRY,
    ProcedureSpec,
    SingleHypothesis,
    adaptive_e_bh,
    e_bh,
    ep_bh,
    ep_bonferroni,
    ep_storey,
    normalized_weights,
    p_bh,
    pe_bh,
    simes_evalue,
    storey_pi0,
    weighted_p_bh,
    weighted_p_bh_normalized,
    wbh_storey_normalized,
)
from .sim import (
    AdversarialScenario,
    CampaignResult,
    MicroarrayScenario,
    TTestScenario,
    generate_replicate,
    run_campaign,
    scenario_from_dict,
    scenario_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "AdversarialScenario",
    "BadCalibrator",
    "BadLambda",
    "Calibrator",
    "CampaignResult",
    "DEFAULT_CALIBRATOR",
    "EmptyInput",
    "ErrorMetrics",
    "LengthMismatch",
    "MalformedValue",
    "MicroarrayScenario",
    "ModeratedTModel",
    "PermutationStatistics",
    "ProcedureSpec",
    "REGISTRY",
    "RejectionResult",
    "SingleHypothesis",
    "TTestScenario",
    "adaptive_e_bh",
    "calibrate_e_to_p",
    "calibrate_p_to_e",
    "chisq_lr_evalue",
    "combine_bonferroni",
    "combine_mean",
    "combine_product",
    "combine_quotient",
    "e_bh",
    "ep_bh",
    "ep_bonferroni",
    "ep_storey",
    "fdp_and_power",
    "fit_gamma",
    "fit_limma_hyperparameters",
    "fit_moderated_model",
    "generate_replicate",
    "moderated_t",
    "moderated_t_evalue",
    "normalized_weights",
    "p_bh",
    "parse_calibrator",
    "pe_bh",
    "power_calibrator",
    "run_campaign",
    "scenario_from_dict",
    "scenario_to_dict",
    "shift_evalue",
    "simes_evalue",
    "soft_rank_evalue",
    "sqrt_calibrator",
    "storey_pi0",
    "wbh_storey_normalized",
    "weighted_p_bh",
    "weighted_p_bh_normalized",
]
