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

Each public name lives in the one module that defines it: import it from
there, as in `from epmt.procedures import ep_bh`. Importing the package
itself loads no module of it, and so no numpy; `python -m epmt` and the
`epmt` script can thus cap numpy's threads (see `__main__`) before numpy
loads. `cli` imports only the standard library, and each subcommand loads
the layers it runs, so `epmt --version`, `--help` and usage errors load no
numpy at all. `constructors` and `sim` import scipy, which `adjust` and
`combine` never need.
"""

__version__ = "0.1.0"
