"""Reference values of the moderated-t e-value at 400 digits.

    python tests/reference/evalue_table.py

computes every case below with mpmath and rewrites evalue_table.json
beside this file. tests/test_constructors.py compares
constructors.moderated_t_evalue with the table: within 64 ulp for every
e below 1e6, within 1e-12 relative for every larger e, and exactly +inf
where the value is past the float range.

A case is a var_factor v, a df_prior and a df, a gamma and a t. The
reference takes the float inputs as exact: d is the float sum
df_prior + df and g the float quotient gamma / v, as moderated_t_evalue
forms them, so the table measures the formula and not the rounding of its
inputs. With those,

    e = (1 + g)^(-1/2) * (1 + g t^2 / (d + g d + t^2))^((d+1)/2),

its limit (1 + g)^(d/2) at t = +-inf, and for an infinite d the Gaussian
limit (1 + g)^(-1/2) * exp(g t^2 / (2 (1 + g))), +inf at t = +-inf.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
TABLE = HERE / "evalue_table.json"
DIGITS = 400

VAR_FACTOR = 0.1
# (df_prior, df): d = 41.64, 1e3, 1e16, 1e300, 1.7e308, and an infinite d
# through df_prior = inf and through a sum that overflows
DFS = [
    (3.64, 38.0),
    (3.64, 996.36),
    (3.64, 1e16),
    (3.64, 1e300),
    (3.64, 1.7e308),
    (math.inf, 38.0),
    (1e308, 1e308),
]
GAMMAS = [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3]
TS = [
    0.0, -0.0, 1e-200, 1e-8, 0.05, 0.3, -0.7, 1.0, -1.5, 2.0, 2.5, -3.0, 4.0, 5.5,
    -7.0, 10.0, 20.0, -50.0, 1e3, 1e8, 1e200, math.inf, -math.inf,
]


def reference(t: float, d: float, g: float) -> mpmath.mpf:
    """The e-value at DIGITS digits, for exact float inputs."""
    with mpmath.workdps(DIGITS):
        g = mpmath.mpf(g)
        if math.isinf(d):
            if math.isinf(t):
                return mpmath.inf if g > 0 else mpmath.mpf(1)
            t = mpmath.mpf(t)
            return mpmath.exp(g * t * t / (2 * (1 + g))) / mpmath.sqrt(1 + g)
        d = mpmath.mpf(d)
        if math.isinf(t):
            return (1 + g) ** (d / 2)
        tsq = mpmath.mpf(t) ** 2
        return (1 + g * tsq / (d + g * d + tsq)) ** ((d + 1) / 2) / mpmath.sqrt(1 + g)


def as_text(value: mpmath.mpf) -> str:
    """25 significant digits, or "inf" past the float range."""
    return "inf" if float(value) == math.inf else mpmath.nstr(value, 25)


def rows() -> list:
    out = []
    for df_prior, df in DFS:
        d = df_prior + df
        for gamma in GAMMAS:
            g = gamma / VAR_FACTOR
            e = [as_text(reference(t, d, g)) for t in TS]
            out.append({"df_prior": repr(df_prior), "df": repr(df), "gamma": repr(gamma), "e": e})
    return out


def main():
    table = {"digits": DIGITS, "var_factor": repr(VAR_FACTOR), "t": [repr(t) for t in TS], "rows": rows()}
    TABLE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(table['rows'])} rows of {len(TS)} values to {TABLE}", file=sys.stderr)


if __name__ == "__main__":
    main()
