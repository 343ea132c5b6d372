"""The integral representation v and the gap u - v.

v(r) averages the log kernel against the nonlinearity of a solved
trajectory.  For solutions with finite conformal volume the difference
u - v is an even polynomial: a constant for the standard solution, and a
genuinely quadratic polynomial with negative leading coefficient for
nonstandard ones, with the lead equal to lim Delta u / 8 when m = 2.
"""

import math

import numpy as np

from polyliouville import ShootingConfig, analyze, compute_v, rescale_check, standard_config


def show(label, cfg):
    a = analyze(cfg, np.geomspace(1.0, 400.0, 10))
    radii = a.vprof.grid
    gap = a.traj.sample_w(0, radii) - a.vprof.values
    print(f"{label}")
    print(f"  r:       " + " ".join(f"{r:>9.2f}" for r in radii[:5]))
    print(f"  u - v:   " + " ".join(f"{g:>9.5f}" for g in gap[:5]))
    print(f"  fit: degree {a.fit.inferred_degree}, leading coefficient {a.fit.leading_coefficient:+.6f}")
    if a.report.delta_limits:
        lim = a.report.delta_limits[0].value
        print(f"  lim Delta u / 8 = {lim / 8:+.6f}")
    print()
    return a.traj


def main():
    print("integral representation of the nonlinearity (m = 2)\n")
    std = show("standard (u''(0) = -2): u - v is the constant log 2", standard_config(2))

    cfg = ShootingConfig(m=2, initial_derivatives=(math.log(2.0), -3.0))
    show("nonstandard (u''(0) = -3): u - v is quadratic with negative lead", cfg)

    dev1 = rescale_check(std, 1.0)
    dev2 = rescale_check(std, 2.0)
    print("scale covariance of the representation (deviation should be ~0):")
    print(f"  scale 1: {dev1:.2e}    scale 2: {dev2:.2e}")

    far = compute_v(std, [1000.0]).values[0]
    print(f"\nfar field: v(1000)/log(1000) = {far / math.log(1000.0):.6f} (expected -2 alpha)")


if __name__ == "__main__":
    main()
