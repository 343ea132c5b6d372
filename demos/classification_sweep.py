"""The standard/nonstandard dichotomy, seen through an initial-data sweep.

For m = 2 the standard solution has u''(0) = -2.  Pushing the second
derivative below that value produces solutions whose Laplacian tends to a
negative constant a, whose profile grows like -|a|/8 r^2, and whose
curvature statistic dives to -infinity; pushing it above makes u' turn
positive (and the profile blow up at finite radius), so the shot stops at
the first u' > 0.  The five classification criteria must agree on
every run, whichever side it lands on.
"""

import math

import numpy as np

from polyliouville import ShootingConfig, analyze


def pipeline(d2):
    return analyze(ShootingConfig(m=2, initial_derivatives=(math.log(2.0), d2)))


def main():
    print("sweep of u''(0) around the standard value -2 (m = 2)\n")
    header = f"{'u2(0)':>8} {'termination':>14} {'alpha':>9} {'lim Du':>10} {'deg p':>6} {'lead':>9} {'verdict':>13} {'agree':>6}"
    print(header)
    print("-" * len(header))
    for d2 in np.linspace(-2.5, -1.7, 9):
        a = pipeline(float(d2))
        rep, fit, out = a.report, a.fit, a.verdict
        lim = rep.delta_limits[0].value if rep.delta_limits else float("nan")
        if fit is None:  # no u - v fit on runs that stopped short of the far field
            deg, lead = "-", "-"
        else:
            deg, lead = str(fit.inferred_degree), f"{fit.leading_coefficient:.4f}"
        print(
            f"{d2:>8.3f} {rep.termination:>14} {rep.alpha_final:>9.5f} {lim:>10.4f}"
            f" {deg:>6} {lead:>9} {out.overall:>13} {str(out.agreement):>6}"
        )
    print()
    print("below -2: nonstandard (negative limit, quadratic growth, alpha < 1).")
    print("at -2: the standard solution.  above -2: u' turns positive, which no")
    print("entire m = 2 solution does, so the run stops there (not_entire) and")
    print("is reported as inconclusive because it never reaches the far field.")


if __name__ == "__main__":
    main()
