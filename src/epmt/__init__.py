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

The `epmt` command is `cli`, argument parsing and the subcommands, over
`table`, its CSV reader and writer; neither is a layer of the library.

Importing the package loads no layer, and so no numpy: each layer, and
every name in `__all__`, resolves on first access, a name from the first
layer that holds it, and then stays in the module namespace. `python -m
epmt` and the `epmt` script can thus cap numpy's threads (see `__main__`)
before numpy loads. `cli` imports only the standard library, and each
subcommand loads the layers it runs, so `epmt --version`, `--help` and
usage errors load no numpy at all. `constructors` and `sim` import scipy,
which `adjust` and `combine` never need.
"""

_LAYERS = ("core", "calib", "procedures", "constructors", "sim")


def __getattr__(name):
    from importlib import import_module

    if name in _LAYERS:
        # importing a submodule binds it in the package namespace
        return import_module(f".{name}", __name__)
    if name in __all__:
        # a module imports only from layers before its own, so the first
        # one holding the name defines it
        for layer in _LAYERS:
            module = import_module(f".{layer}", __name__)
            if hasattr(module, name):
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAYERS, *__all__})


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
    "moderated_t_pvalue",
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
