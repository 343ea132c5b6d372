"""The standard solution family, reproduced by shooting.

u(r) = log(2 lam / (1 + lam^2 r^2)) solves (-Delta)^m u = (2m-1)! e^{2mu}
on R^{2m} for every lam > 0, with conformal volume alpha = 1 and constant
curvature statistic 2m(2m-1).  This script shoots each member and checks
all three facts against the closed form.  The shooter integrates the
deviation from the family member with the same u(0); these data are that
member's own in floats, so the deviation is 0 and u is exact.
"""

import numpy as np

from polyliouville.shooter import scalar_curvature, shoot, standard_config, standard_solution


def main():
    print("shooting the standard family and comparing with the closed form\n")
    header = f"{'m':>2} {'lam':>5} {'alpha(1000)':>14} {'max |u - exact|':>16} {'Rg dev on [0,10]':>17}"
    print(header)
    print("-" * len(header))
    for m in (1, 2, 3):
        for lam in (0.5, 1.0, 2.0):
            traj, rep = shoot(standard_config(m, lam=lam))
            mask = traj.grid <= 50.0
            exact = standard_solution(m, lam, traj.grid[mask]).u
            u_err = np.max(np.abs(traj.u[mask] - exact))
            rg = scalar_curvature(traj)
            rg_dev = np.max(np.abs(rg[traj.grid <= 10.0] - 2 * m * (2 * m - 1)))
            print(f"{m:>2} {lam:>5.2f} {rep.alpha_final:>14.9f} {u_err:>16.2e} {rg_dev:>17.2e}")
    print()
    print("every row: alpha -> 1, the profile tracks the closed form, and the")
    print("curvature statistic stays pinned at 2m(2m-1).")


if __name__ == "__main__":
    main()
