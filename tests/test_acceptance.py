"""Acceptance gate: the eight headline claims, each printing one PASS/FAIL line.

Run with -s to see the lines as they complete.  Tolerances and runtime caps
are part of the claims and are asserted, not just reported.
"""

import math
import time
from fractions import Fraction

import numpy as np

from polyliouville.cli import _critical_p, analyze
from polyliouville.exactconst import (
    PiRational,
    pizzetti_coefficients,
    verify_gamma_identity,
)
from polyliouville.greenball import (
    RadialProfile,
    exp_integrability,
    green_ball,
    navier_solve_radial,
)
from polyliouville.polyfield import PolynomialND, almansi_random, ball_average, pizzetti_check
from polyliouville.represent import compute_v, rescale_check
from polyliouville.shooter import (
    ShootingConfig,
    scalar_curvature,
    shoot,
    standard_config,
    standard_solution,
)
from polyliouville.tailfit import fit_even_polynomial


def report(number, ok, detail):
    print(f"[ACCEPTANCE {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"acceptance criterion {number} failed: {detail}"


def test_acceptance_1_gamma_identity():
    t0 = time.perf_counter()
    ok = all(verify_gamma_identity(m) for m in range(1, 11))
    elapsed = time.perf_counter() - t0
    report(1, ok and elapsed < 1.0, f"(2m-1)! |S^2m| = 2 gamma_m for m=1..10 in {elapsed:.2f}s")


def test_acceptance_2_pizzetti_exactness():
    t0 = time.perf_counter()
    cases = 0
    failures = 0
    i = 0
    while cases < 200:
        for n in (2, 3, 4, 6):
            for m in (1, 2, 3):
                deg = i % 7
                x0 = tuple(((i + k) % 3) - 1 for k in range(n))
                rep = pizzetti_check(almansi_random(m, n, deg, seed=7000 + i), m, x0, 1 + i % 3)
                cases += 1
                failures += 0 if (rep.exact and rep.residual == 0) else 1
                i += 1
                if cases == 200:
                    break
            if cases == 200:
                break
    # remainder law for P = |x|^{2m}: only the k = m term survives at the origin
    law_ok = True
    for m in (1, 2, 3):
        n = 2 * m
        P = PolynomialND.constant(n, Fraction(1))
        for _ in range(m):
            P = P * PolynomialND.rsq(n)
        top = Fraction(1)
        for j in range(1, m + 1):
            top *= (2 * j) * (2 * j + n - 2)
        c_m = pizzetti_coefficients(n, m + 1)[m]
        for R in (Fraction(1), Fraction(3, 2)):
            law_ok &= ball_average(P, (0,) * n, R) == c_m * R ** (2 * m) * top
    elapsed = time.perf_counter() - t0
    report(
        2,
        failures == 0 and law_ok and elapsed < 30.0,
        f"200 Almansi cases exact, remainder law exact, in {elapsed:.1f}s",
    )


def test_acceptance_3_green_function():
    t0 = time.perf_counter()
    g = green_ball(2)
    coeff_ok = (
        g.log_coeff == PiRational(Fraction(-1, 8), -2)
        and g.poly_coeffs == (PiRational(Fraction(-1, 32), -2), PiRational(Fraction(1, 32), -2))
    )
    m2_signs_ok = g.sign_constants_exact == (
        PiRational(Fraction(1, 2), -2),
        PiRational(Fraction(1, 16), -2),
    )
    all_signs_ok = all(
        c.is_positive for m in range(1, 6) for c in green_ball(m).sign_constants_exact
    )
    elapsed = time.perf_counter() - t0
    report(
        3,
        coeff_ok and m2_signs_ok and all_signs_ok and elapsed < 5.0,
        f"m=2 coefficients exact, sign constants positive for m<=5, in {elapsed:.2f}s",
    )


def test_acceptance_4_standard_shooting():
    t0 = time.perf_counter()
    traj2, rep2 = shoot(standard_config(2))
    t2 = time.perf_counter() - t0
    mask = traj2.grid <= 50.0
    u_err = np.max(np.abs(traj2.u[mask] - standard_solution(2, 1.0, traj2.grid[mask]).u))
    alpha_dev = abs(rep2.alpha_final - 1.0)
    rg = scalar_curvature(traj2)
    rg_dev = np.max(np.abs(rg[traj2.grid <= 10.0] - 12.0))
    t1 = time.perf_counter()
    traj3, _ = shoot(standard_config(3))
    t3 = time.perf_counter() - t1
    mask3 = traj3.grid <= 50.0
    u3_err = np.max(np.abs(traj3.u[mask3] - standard_solution(3, 1.0, traj3.grid[mask3]).u))
    ok = (
        u_err <= 1e-6
        and alpha_dev <= 1e-4
        and rg_dev <= 1e-4
        and u3_err <= 1e-6
        and t2 < 10.0
        and t3 < 10.0
    )
    report(
        4,
        ok,
        f"m=2 u-err {u_err:.2e}, alpha dev {alpha_dev:.2e}, Rg dev {rg_dev:.2e}; "
        f"m=3 u-err {u3_err:.2e}; runs {t2:.1f}s/{t3:.1f}s",
    )


def test_acceptance_5_nonstandard_m2():
    t0 = time.perf_counter()
    cfg = ShootingConfig(m=2, initial_derivatives=(math.log(2.0), -3.0))
    traj, rep = shoot(cfg)
    lim = rep.delta_limits[0]
    stable = lim.confidence / abs(lim.value) <= 0.01
    radii = np.geomspace(1.0, traj.r_max / 2.0, 24)
    prof = compute_v(traj, radii)
    u = np.interp(radii, traj.grid, traj.u)
    fit = fit_even_polynomial((radii, u - prof.values), 2)
    rg = scalar_curvature(traj)
    curv_ok = np.min(rg[traj.grid <= 10.0]) < -1e6
    elapsed = time.perf_counter() - t0
    ok = (
        lim.value < 0
        and stable
        and fit.inferred_degree == 2
        and fit.leading_coefficient < 0
        and curv_ok
        and elapsed < 30.0
    )
    report(
        5,
        ok,
        f"lim Du = {lim.value:.4f} (stability {lim.confidence / abs(lim.value):.1e}), "
        f"fit degree {fit.inferred_degree} lead {fit.leading_coefficient:.4f}, in {elapsed:.1f}s",
    )


def test_acceptance_6_representation():
    t0 = time.perf_counter()
    traj, rep = shoot(standard_config(2))
    radii = np.linspace(0.0, 20.0, 41)
    prof = compute_v(traj, radii)
    gap = np.interp(radii, traj.grid, traj.u) - prof.values
    const_ok = np.max(np.abs(gap - np.median(gap))) <= 1e-2
    far = compute_v(traj, [1000.0]).values[0]
    slope_ok = abs(far / math.log(1000.0) - (-2.0)) <= 0.05 * 2.0
    resc = rescale_check(traj, 2.0)
    elapsed = time.perf_counter() - t0
    ok = const_ok and slope_ok and resc <= 1e-3 and elapsed < 60.0
    report(
        6,
        ok,
        f"u-v constant to {np.max(np.abs(gap - np.median(gap))):.1e}, "
        f"v(1e3)/log(1e3) = {far / math.log(1000.0):.4f}, rescale dev {resc:.1e}, in {elapsed:.1f}s",
    )


def test_acceptance_7_exp_integrability():
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 801)
    f_vals = (1.0 - grid**2) ** 2
    ok = True
    for m in (1, 2):
        f = RadialProfile(grid, f_vals, m=m)
        v = navier_solve_radial(f)
        ok &= bool(np.all(v.values >= 0.0))
        base = exp_integrability(v, p=1.0)
        for R in (2.0, 4.0):
            fR = RadialProfile(grid * R, f_vals / R ** (2 * m), m=m)
            vR = navier_solve_radial(fR)
            out = exp_integrability(vR, p=1.0)
            ok &= abs(out.value - R ** (2 * m) * base.value) <= 1e-8 * R ** (2 * m) * base.value
        # p chosen so p * ||f||_{L^1} = gamma_m / 2 stays integrable, from
        # its closed form as a2m-check takes it
        out = exp_integrability(v, p=float(_critical_p(m)))
        ok &= math.isfinite(out.value) and not out.overflow
    elapsed = time.perf_counter() - t0
    report(7, ok and elapsed < 10.0, f"positivity, scaling, critical-p finiteness in {elapsed:.1f}s")


def test_acceptance_8_classifier_agreement():
    t0 = time.perf_counter()
    agreements = []
    for d2 in np.linspace(-2.5, -1.5, 20):
        cfg = ShootingConfig(m=2, initial_derivatives=(math.log(2.0), float(d2)))
        agreements.append(analyze(cfg).verdict.agreement)
    sweep_ok = all(agreements)
    alpha_ok = True
    for a0 in np.linspace(-1.0, 1.0, 5):
        _, rep1 = shoot(ShootingConfig(m=1, initial_laplacians=(float(a0),)))
        alpha_ok &= abs(rep1.alpha_final - 1.0) <= 1e-3
    elapsed = time.perf_counter() - t0
    report(
        8,
        sweep_ok and alpha_ok and elapsed < 180.0,
        f"20/20 reports agree, m=1 volumes within 1e-3, in {elapsed:.1f}s",
    )
