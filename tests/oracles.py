"""Exact values that the error-rate tests hold the harness's output to.

Each oracle computes, by quadrature or root finding on the scenario's own
distributions, what a campaign's column estimates; a test holds the
column to it from both sides. Its name does not start with test_, so
pytest does not collect it; pytest's default import mode puts tests/ on
sys.path, so a test imports it as `oracles`.
"""

import numpy as np
from scipy import integrate, optimize, special, stats

from epmt.constructors import chisq_lr_evalue


def ep_bonferroni_ttest_power(k=2000, alpha=0.1, effect=2.5):
    """Exact ep-Bonferroni power in the t-test scenario, by quadrature.

    A non-null's p and e are functions of D = ybar - xbar ~ N(-effect, 2/5)
    and of the within-group sum of squares W ~ chisq(8), which are
    independent: t = 2 sqrt(5) D / sqrt(W), p = 2 stdtr(8, -|t|), and
    e = chisq_lr_evalue(W + 2.5 D^2, 9, 10). For fixed W, p falls and e
    rises in |D|, so the hypothesis is rejected (p <= alpha * e / K)
    exactly when |D| >= r(W), the root of the difference; the power is
    the chisq(8) mean over W of P(|D| >= r(W)).
    """
    sd = np.sqrt(2.0 / 5.0)

    def gap(d, w):
        t = 2.0 * np.sqrt(5.0) * d / np.sqrt(w)
        return 2.0 * special.stdtr(8, -t) - alpha * chisq_lr_evalue(w + 2.5 * d * d, 9.0, 10.0) / k

    def rejected(w):
        if gap(0.0, w) <= 0.0:
            return 1.0
        hi = 1.0
        while gap(hi, w) > 0.0:
            hi *= 2.0
        r = optimize.brentq(gap, 0.0, hi, args=(w,), xtol=1e-12)
        return stats.norm.cdf((effect - r) / sd) + stats.norm.cdf((-effect - r) / sd)

    power, _ = integrate.quad(lambda w: rejected(w) * stats.chi2.pdf(w, 8), 0.0, np.inf, epsabs=1e-10, limit=200)
    return power
