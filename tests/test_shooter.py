"""Radial shooting for (-Delta)^m u = (2m-1)! e^{2mu} on R^{2m}.

The closed-form family u(r) = log(2 lam / (1 + lam^2 r^2)) is the oracle for
every accuracy claim; its conformal volume is 1 and its curvature statistic
equals 2m(2m-1) identically.
"""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyliouville import dop853, shooter
from polyliouville.exactconst import constant_table
from polyliouville.shooter import (
    ShootingConfig,
    conformal_factor_ratio,
    derivs_to_laplacians,
    diagnose,
    reference_mu,
    scalar_curvature,
    series_start,
    shoot,
    standard_config,
    standard_laplacians,
    standard_solution,
    standard_volume,
)

LOG2 = math.log(2.0)


class TestStandardSolution:
    def test_closed_form_values(self):
        r = np.array([0.0, 0.5, 1.0, 3.0])
        for m, lam in [(1, 1.0), (2, 0.5), (3, 2.0)]:
            sol = standard_solution(m, lam, r)
            np.testing.assert_allclose(
                sol.u, np.log(2 * lam / (1 + lam**2 * r**2)), rtol=1e-15
            )

    def test_derivative_matches_difference_quotient(self):
        r = np.array([0.5, 1.0, 2.0])
        h = 1e-6
        sol = standard_solution(2, 1.0, r)
        num = (standard_solution(2, 1.0, r + h).u - standard_solution(2, 1.0, r - h).u) / (2 * h)
        np.testing.assert_allclose(sol.p[0], num, atol=1e-9)

    def test_two_sided_log_asymptotics(self):
        # for lam = 2 the profile sits inside the strip -2 log r +- 0.1 log r
        traj, _ = shoot(standard_config(2, lam=2.0))
        far = traj.grid >= 100.0
        gap = np.abs(traj.u[far] + 2.0 * np.log(traj.grid[far]))
        assert np.all(gap <= 0.1 * np.log(traj.grid[far]))


class TestVectorField:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_rhs_matches_closed_form_derivatives(self, m):
        # (w, p) of the closed form is a solution, so the right-hand side
        # of the plain u system, the oracle of u-system runs, must return
        # (p, dp/dr); dp/dr by central difference at h = 1e-6, whose
        # rounding error is a few 1e-10 of the largest entry
        h = 1e-6
        field = self._reference_field(m)
        for r in (0.3, 1.0, 2.5, 7.0, 40.0):
            sol = standard_solution(m, 1.0, np.array([r - h, r, r + h]))
            state = np.r_[sol.w[:, 1], sol.p[:, 1], 0.0].tolist()
            dp = (sol.p[:, 2] - sol.p[:, 0]) / (2 * h)
            got = np.array(field(r, state)[: 2 * m])
            np.testing.assert_array_equal(got[:m], sol.p[:, 1])
            scale = max(1.0, float(np.max(np.abs(dp))))
            np.testing.assert_allclose(got[m:], dp, rtol=0, atol=1e-6 * scale)

    @staticmethod
    def _chain(m, r, y, source):
        """dy/dr of the radial chain in y = (w, p, alpha) for the given
        value of the source, written plainly: the field of u itself for
        source = e^{2mu}, and of the deviation W for e^{2mu} - E_mu."""
        tab = constant_table(m)
        sig_fact = tab.sigma_m * math.factorial(2 * m - 1)
        ratio = float(tab.omega_n / tab.vol_sphere_2m)
        w, p = y[:m], y[m : 2 * m]
        damp = -(2 * m - 1) / r
        dp = [damp * pj + wj for pj, wj in zip(p, w[1:])]
        dp.append(damp * p[-1] + sig_fact * source)
        return p + dp + [ratio * source * r ** (2 * m - 1)]

    @classmethod
    def _reference_field(cls, m):
        """The u system, y = (w, p, alpha), with 2m u clamped at 700."""
        def field(r, y):
            return cls._chain(m, r, y, math.exp(min(2 * m * y[0], 700.0)))

        return field

    @staticmethod
    def _reference_source(m, mu, r, w0):
        """e^{2mu} - E_mu for u = u_mu + W_0 at 40 digits, with 2m u clamped
        at 700, from the same float mu, r and W_0."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            mu, r, w0 = mp.mpf(mu), mp.mpf(r), mp.mpf(w0)
            log_e = 2 * m * (mp.log(2 * mu) - mp.log(1 + mu * mu * r * r))
            return float(mp.exp(min(log_e + 2 * m * w0, 700)) - mp.exp(log_e))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_generated_field_matches_reference(self, m):
        # At W_0 = 0 the source is exactly 0.0, and the field `shoot`
        # integrates is the plainly written chain bit for bit.  Its
        # source, read off its P_{m-1}' at P = 0, is sigma_m (2m-1)! times
        # e^{2mu} - E_mu of the
        # same u = u_mu + W_0 to rounding, for 2m u from -750 to past the
        # clamp at 700; for references below, at and above the data's scale
        # and at both clips of reference_mu, where E_mu(0) is e^{-+700}; and
        # out to radii where E_mu is subnormal or 0.0 and only e^{2mu} is
        # left of the source
        rng = np.random.default_rng(m)
        sig_fact = constant_table(m).sigma_m * math.factorial(2 * m - 1)
        for mu in (0.05, 1.0, 20.0, math.exp(-350.0 / m) / 2, math.exp(350.0 / m) / 2):
            field = shooter._field(m, mu)
            for k in range(80):
                y = (rng.standard_normal(2 * m + 1) * 10.0 ** rng.integers(-3, 4)).tolist()
                y[0] = 0.0
                # r^(2m-1) stays finite, as the plain chain needs
                r = min(10.0 ** rng.uniform(-6.0, 4.0) / min(mu, 1.0) ** rng.uniform(0.0, 1.2),
                        1e300 ** (1 / (2 * m - 1)))
                got, want = np.array(field(r, y)), np.array(self._chain(m, r, y, 0.0))
                assert got.tobytes() == want.tobytes(), (mu, r)
        for mu in (0.05, 1.0, 20.0, math.exp(-350.0 / m) / 2, math.exp(350.0 / m) / 2):
            field = shooter._field(m, mu)
            for k in range(100):
                r = min(10.0 ** rng.uniform(-6.0, 4.0) / min(mu, 1.0) ** rng.uniform(0.0, 1.2),
                        1e150 / mu)
                log_e = 2 * m * (math.log(2 * mu) - math.log1p((mu * r) ** 2))
                w0 = (rng.uniform(-750.0, 800.0) - log_e) / (2 * m)
                y = [w0] + (rng.standard_normal(m - 1) * 10.0).tolist() + [0.0] * (m + 1)
                # sigma_m (2m-1)! times the source, inf where both overflow
                want = sig_fact * self._reference_source(m, mu, r, w0)
                out = field(r, y)
                assert out[:m] == [0.0] * m
                assert math.isclose(out[2 * m - 1], want, rel_tol=1e-12, abs_tol=1e-300), \
                    (mu, r, w0)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_field_matches_closed_form_derivatives(self, m):
        # W = u_lam - u_mu, the difference of two closed forms, solves the
        # deviation system about u_mu, so the field `shoot` integrates must
        # return (P, dP/dr, alpha_dev') there; the derivatives by central
        # difference at h = 1e-6
        h = 1e-6
        for lam, mu in ((1.0, 0.5), (1.0, 1.3), (0.2, 0.3)):
            field = shooter._field(m, mu)
            for r in (0.3, 1.0, 2.5, 7.0, 40.0):
                radii = np.array([r - h, r, r + h])
                sols = [standard_solution(m, x, radii) for x in (lam, mu)]
                w, p = sols[0].w - sols[1].w, sols[0].p - sols[1].p
                alpha = standard_volume(m, lam, radii) - standard_volume(m, mu, radii)
                out = np.array(field(r, np.r_[w[:, 1], p[:, 1], alpha[1]].tolist()))
                assert np.array_equal(out[:m], p[:, 1])
                want = np.r_[(p[:, 2] - p[:, 0]) / (2 * h), (alpha[2] - alpha[0]) / (2 * h)]
                scale = max(1.0, float(np.max(np.abs(want))))
                np.testing.assert_allclose(out[m:], want, rtol=0, atol=1e-6 * scale)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_stage_kernel_matches_field_on_stage_argument(self, m):
        # field.stage(r, y, dy, h) is field on [yi + di h]: the same bits,
        # also past the clamp and with NaN entries (NaN where NaN)
        rng = np.random.default_rng(100 + m)
        field = shooter._field(m, 1.0)
        for k in range(400):
            y = (rng.standard_normal(2 * m + 1) * 10.0 ** rng.integers(-3, 4)).tolist()
            dy = (rng.standard_normal(2 * m + 1) * 10.0 ** rng.integers(-3, 4)).tolist()
            h = 10.0 ** rng.uniform(-8.0, 1.0)
            if k % 4 == 0:
                # w0 = y_0 + dy_0 h lands past 700 / (2m)
                y[0] = rng.uniform(700.0, 800.0) / (2 * m) - dy[0] * h
            if k % 5 == 0:
                (y if k % 2 else dy)[rng.integers(2 * m + 1)] = math.nan
            r = 10.0 ** rng.uniform(-6.0, 4.0)
            got = np.array(field.stage(r, y, dy, h))
            want = np.array(field(r, [yi + di * h for yi, di in zip(y, dy)]))
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


class TestInitialData:
    def test_standard_laplacians_hand_values(self):
        assert standard_laplacians(1, 1.0) == pytest.approx((LOG2,))
        assert standard_laplacians(2, 1.0) == pytest.approx((LOG2, -8.0))
        assert standard_laplacians(3, 1.0) == pytest.approx((LOG2, -12.0, 192.0))

    def test_derivs_to_laplacians(self):
        assert derivs_to_laplacians(1, (0.3,)) == pytest.approx((0.3,))
        assert derivs_to_laplacians(2, (LOG2, -2.0)) == pytest.approx((LOG2, -8.0))
        assert derivs_to_laplacians(3, (LOG2, -2.0, 12.0)) == pytest.approx(
            (LOG2, -12.0, 192.0)
        )

    def test_config_rejects_inconsistent_styles(self):
        with pytest.raises(ValueError):
            ShootingConfig(m=2, initial_laplacians=(0.1, 0.2), initial_derivatives=(0.1, 0.2))
        with pytest.raises(ValueError):
            ShootingConfig(m=2)
        with pytest.raises(ValueError):
            ShootingConfig(m=0, initial_laplacians=())
        with pytest.raises(ValueError):
            ShootingConfig(m=2, initial_laplacians=(0.1,))

    @pytest.mark.parametrize("m, data", [
        (2.0, (0.69, -8.0)),
        (True, (0.69,)),
        (np.float64(1.0), (0.69,)),
    ])
    def test_config_rejects_a_non_integer_m(self, m, data):
        # shoot used to fail on these with a TypeError deep in the integrator
        with pytest.raises(ValueError, match="m must be a positive integer"):
            ShootingConfig(m=m, initial_laplacians=data)

    @pytest.mark.parametrize("m", [2, np.int64(2), np.int32(2)])
    def test_config_accepts_python_and_numpy_integers(self, m):
        cfg = ShootingConfig(m=m, initial_laplacians=(0.69, -8.0))
        assert type(cfg.m) is int and cfg.n == 4

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_config_rejects_non_finite_data(self, bad):
        with pytest.raises(ValueError, match="initial data must be finite"):
            ShootingConfig(m=2, initial_derivatives=(LOG2, bad))
        with pytest.raises(ValueError, match="initial data must be finite"):
            ShootingConfig(m=2, initial_laplacians=(bad, -8.0))
        with pytest.raises(ValueError, match="r_end must be positive and finite"):
            ShootingConfig(m=2, initial_derivatives=(LOG2, -2.0), r_end=abs(bad))

    def test_series_start_small_radius_expansion(self):
        # u(0) = 0 at m = 1 is the closed form at lam = 1/2, u = -log(1 + r^2/4),
        # and mu = e^0 / 2 is 1/2 exactly: the deviation's series is 0, so it
        # earns half of r_end, and the shot is the closed form
        cfg = ShootingConfig(m=1, initial_laplacians=(0.0,), r_end=10.0)
        assert reference_mu(cfg) == 0.5
        r0, state = series_start(cfg)
        assert r0 == 5.0
        assert state.tolist() == [0.0, 0.0, 0.0]
        traj, _ = shoot(cfg)
        assert traj.on_family
        assert np.array_equal(traj.u, -np.log1p(traj.grid**2 / 4))


class TestSeries:
    """The radial power series that every shot starts from (`_series`)."""

    @pytest.mark.parametrize("lam", [0.05, 1.0, 20.0])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_series_matches_closed_form(self, m, lam):
        # u_lam's data about the reference mu = 1.25 lam: W = u_lam - u_mu,
        # with W_0(0) = log(lam / mu) != 0, is a difference of closed forms
        # whose radius of convergence is 1/mu; on [0, r0] every row of the
        # series, alpha_dev too, is that difference to the rounding of the
        # two closed forms
        mu = 1.25 * lam
        at, r0 = shooter._series(standard_config(m, lam), mu)
        assert 0.2 < r0 * mu < 0.3
        radii = r0 * np.array([0.0, 1e-3, 0.1, 0.5, 0.9, 1.0])
        y = at(radii)
        rows = [standard_solution(m, lam, radii), standard_solution(m, mu, radii)]
        rows = [np.vstack([sol.w, sol.p, standard_volume(m, x, radii)])
                for sol, x in zip(rows, (lam, mu))]
        scale = np.maximum(np.abs(rows[0]), np.abs(rows[1]))
        assert np.all(np.abs(y - (rows[0] - rows[1])) <= 2e-14 * scale)
        if m == 1:
            # the normalized area of a disc under the round metric, t / (1 + t)
            t = (lam * radii) ** 2
            np.testing.assert_allclose(rows[0][2], t / (1 + t), rtol=2e-16, atol=0)

    def test_start_is_halved_until_the_series_earns_it(self, monkeypatch):
        # the round sphere's data about mu = 1.25: at the full radius of
        # convergence (0.84 by the root test) the terms do not decay, so the
        # tail rule halves it
        r0 = shooter._series(standard_config(2), 1.25)[1]
        monkeypatch.setattr(shooter, "_SERIES_REACH", 1.0)
        at, r1 = shooter._series(standard_config(2), 1.25)
        assert r1 == 2 * r0
        exact = [standard_solution(2, lam, [r1]) for lam in (1.0, 1.25)]
        np.testing.assert_allclose(at([r1])[:4, 0], np.r_[exact[0].w[:, 0] - exact[1].w[:, 0],
                                                         exact[0].p[:, 0] - exact[1].p[:, 0]],
                                   rtol=1e-14, atol=0)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_series_of_data_on_the_family_is_zero(self, m):
        # standard_laplacians(m, 1) are u_1's data in floats (mu = e^{fl(log 2)}/2
        # is 1.0 exactly), so every row of W is 0 and the series earns r_end / 2
        cfg = standard_config(m, r_end=300.0)
        assert reference_mu(cfg) == 1.0
        at, r0 = shooter._series(cfg, 1.0)
        assert r0 == 150.0
        assert not np.any(at(np.geomspace(1e-3, r0, 50)))

    @pytest.mark.parametrize("cfg", [
        standard_config(2),
        ShootingConfig(m=2, initial_derivatives=(LOG2, -3.0)),
        ShootingConfig(m=2, initial_derivatives=(LOG2, -10.0)),
        ShootingConfig(m=3, initial_derivatives=(LOG2, -2.2, 4.0)),
        ShootingConfig(m=4, initial_laplacians=(LOG2, 2.0, 0.0, 0.0)),
        *(ShootingConfig(m=3, initial_derivatives=(LOG2, d2, d4))
          for d2, d4 in np.random.default_rng(29).uniform((-3.0, 0.0), (-1.5, 30.0), (2, 2))),
    ], ids=["standard m=2", "m=2 d2=-3", "m=2 d2=-10", "m=3 (-2.2, 4)", "m=4 blow-up",
            "m=3 seeded 0", "m=3 seeded 1"])
    def test_series_matches_the_stepper_past_r0(self, cfg):
        # the stepper at 1/100 of the shooter's tolerances, from the series
        # start, agrees with the series on [r0, 2 r0]
        mu = reference_mu(cfg)
        at, r0 = shooter._series(cfg, mu)
        radii = r0 * np.linspace(1.0, 2.0, 6)
        sol = dop853.solve_ivp(shooter._field(cfg.m, mu), (r0, radii[-1]), at([r0])[:, 0],
                               t_eval=radii, rtol=shooter._RTOL / 100, atol=shooter._ATOL / 100)
        assert sol.status == 0
        series = at(radii)
        scale = np.max(np.abs(series), axis=1, keepdims=True)
        assert np.all(np.abs(sol.y - series) <= 1e-12 * scale)

    def test_radius_of_convergence_below_one(self):
        # m = 2 at u''(0) = -10: a root-test radius near 0.67, so the start
        # lies near 0.17, and the grid below it comes from the series
        cfg = ShootingConfig(m=2, initial_derivatives=(LOG2, -10.0), r_end=10.0)
        at, r0 = shooter._series(cfg, reference_mu(cfg))
        assert 0.6 < 4 * r0 < 0.75
        traj, _ = shoot(cfg)
        below = (traj.grid > 0) & (traj.grid < r0)
        y = at(traj.grid[below])
        assert np.array_equal(traj.W[:, below], y[:2])
        assert np.array_equal(traj.P[:, below], y[2:4])
        assert np.array_equal(traj.alpha[below],
                              standard_volume(2, traj.mu, traj.grid[below]) + y[4])
        # a radius's value does not depend on the radii evaluated with it
        assert all(np.array_equal(at(traj.grid[i : i + 1])[:, 0], y[:, i - 1])
                   for i in np.flatnonzero(below)[::40])

    @pytest.mark.parametrize("d2, r_max", [(-0.001, 0.0222981), (-0.01, 0.0700207),
                                           (-0.1, 0.222078)])
    def test_m2_event_fires_on_the_series_segment(self, d2, r_max, monkeypatch):
        # u' turns positive below r0: the shot stops at the same grid radius
        # as the stepper's event did, without integrating
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_ivp called")

        monkeypatch.setattr("polyliouville.shooter.solve_ivp", no_solve)
        cfg = ShootingConfig(m=2, initial_derivatives=(LOG2, d2))
        assert series_start(cfg)[0] > r_max
        traj, rep = shoot(cfg)
        assert rep.termination == "not_entire"
        assert traj.r_max == pytest.approx(r_max, rel=1e-5)  # grid radii are 1% apart
        assert traj.nfev == 0
        assert np.all(traj.p[0] <= 0.0)
        r_next = traj.r_max * shooter._GRID_RATIO
        slope = shooter._series(cfg, traj.mu)[0]([r_next])[2, 0]
        assert standard_solution(2, traj.mu, [r_next]).p[0, 0] + slope > 0.0


class TestStandardShots:
    def test_m2_tracks_closed_form(self, std2):
        traj, rep = std2
        assert rep.termination == "reached_end"
        mask = traj.grid <= 50.0
        exact = standard_solution(2, 1.0, traj.grid[mask]).u
        assert np.max(np.abs(traj.u[mask] - exact)) < 1e-6
        assert abs(rep.alpha_final - 1.0) < 1e-8

    def test_m2_curvature_constant(self, std2):
        traj, _ = std2
        rg = scalar_curvature(traj)
        mask = traj.grid <= 10.0
        assert np.max(np.abs(rg[mask] - 12.0)) < 1e-6

    def test_m3_tracks_closed_form(self, std3):
        traj, rep = std3
        mask = traj.grid <= 50.0
        exact = standard_solution(3, 1.0, traj.grid[mask]).u
        assert np.max(np.abs(traj.u[mask] - exact)) < 1e-6
        rg = scalar_curvature(traj)
        assert np.max(np.abs(rg[traj.grid <= 10.0] - 30.0)) < 1e-4

    def test_m3_tail_curvature_spherical(self, std3_500):
        # reproduce-paper's m = 3 row: the whole tail window, not just r <= 10
        traj, rep = std3_500
        _, rg = rep.scalar_curvature_tail
        assert np.max(np.abs(rg - 30.0)) <= 0.3

    def test_m2_main_run_cost(self, std2):
        # the deviation from u_1 is 0 exactly, so the shot takes no evaluation
        traj, _ = std2
        assert traj.nfev <= 4000

    @pytest.mark.parametrize("m,r_end", [(1, 1000.0), (2, 1000.0), (3, 500.0)])
    def test_error_estimate_bounds_end_point_error(self, m, r_end):
        traj, rep = shoot(standard_config(m, r_end=r_end))
        exact = standard_solution(m, 1.0, traj.grid[-1:]).u[0]
        assert rep.w0_error_estimate >= abs(traj.u[-1] - exact)

    def test_m1_volume_sweep(self):
        for lam in (0.5, 1.0, 2.0):
            traj, rep = shoot(standard_config(1, lam=lam))
            assert abs(rep.alpha_final - 1.0) < 1e-3

    def test_alpha_is_nondecreasing(self, std2):
        traj, _ = std2
        assert np.all(np.diff(traj.alpha) >= -1e-15)

    def test_conformal_factor_self_consistency(self, std2):
        traj, _ = std2
        ratio = conformal_factor_ratio(traj)
        assert np.max(np.abs(ratio - 1.0)) < 1e-6

    def test_sample_w_matches_nodes(self, std2, std3_500):
        traj, _ = std2
        radii = np.array([0.5, 1.0, 2.0])
        # Delta u = -(8 + 4 r^2) / (1 + r^2)^2 for the lam = 1 profile in R^4
        exact = -(8 + 4 * radii**2) / (1 + radii**2) ** 2
        np.testing.assert_allclose(traj.sample_w(1, radii), exact, rtol=1e-6)
        for run in (shoot(standard_config(1))[0], traj, std3_500[0]):
            for j in range(run.m):
                np.testing.assert_array_equal(run.sample_w(j, run.grid), run.w[j])
            assert run.grid[0] == 0.0

    def test_sample_w_interpolates_laplacian(self, std2, std3_500):
        # u_1 written about the reference mu = 1.25 on each run's grid, with
        # the exact deviation W = u_1 - u_1.25 at the nodes: off the grid,
        # the max |error| of every w_j from `sample_w` (the closed form of
        # u_mu plus the Hermite cubic of W_j) is at most that of a global
        # cubic spline (W_j'(0) = 0, not-a-knot) through the same W_j nodes
        # added to the same closed form.  Both sides measure interpolation
        # error of W alone.
        interpolate = pytest.importorskip("scipy.interpolate")
        runs = (shoot(standard_config(1))[0], std2[0], std3_500[0])
        for run in runs:
            nodes = [standard_solution(run.m, lam, run.grid) for lam in (1.0, 1.25)]
            run = replace(run, mu=1.25, W=nodes[0].w - nodes[1].w, P=nodes[0].p - nodes[1].p)
            radii = np.geomspace(1e-3, run.r_max, 10**4, endpoint=False)
            exact = standard_solution(run.m, 1.0, radii)
            family = standard_solution(run.m, 1.25, radii)
            for j in range(run.m):
                spline = interpolate.CubicSpline(run.grid, run.W[j],
                                                 bc_type=((1, 0.0), "not-a-knot"))
                ceiling = np.max(np.abs(family.w[j] + spline(radii) - exact.w[j])) * (1 + 1e-4)
                err = np.max(np.abs(run.sample_w(j, radii) - exact.w[j]))
                assert err <= ceiling, (run.m, j, err, ceiling)


class TestDeviationForm:
    """shoot integrates W = u - u_mu, mu = e^{A_0}/2; on the family's float
    data W is 0 and the trajectory is the closed form."""

    @pytest.mark.parametrize("r_end", [30.0, 100.0, 1000.0])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_standard_shot_is_the_closed_form_at_every_node(self, m, r_end):
        # standard m = 8 included: it is entire, and its W = 0 reaches r_end
        traj, rep = shoot(standard_config(m, r_end=r_end))
        assert traj.termination == rep.termination == "reached_end"
        assert traj.r_max == r_end
        assert traj.mu == rep.reference_mu == 1.0
        assert traj.on_family and rep.data_on_family
        assert not np.any(traj.W) and not np.any(traj.P)
        exact = standard_solution(m, 1.0, traj.grid)
        assert traj.w.tobytes() == exact.w.tobytes()
        # p_mu(0) is -0.0 and p(0) = -0.0 + 0.0 is +0.0; every other node
        # keeps the closed form's bits
        assert traj.p[:, 1:].tobytes() == exact.p[:, 1:].tobytes()
        assert traj.p[:, 0].tolist() == [0.0] * m
        assert traj.alpha.tobytes() == standard_volume(m, 1.0, traj.grid).tobytes()
        assert traj.nfev <= 200

    def test_data_off_the_family_say_so(self, nonstd2):
        traj, rep = nonstd2
        assert traj.mu == rep.reference_mu == 1.0
        assert not traj.on_family and not rep.data_on_family
        assert traj.W[:, 0].tolist() == [0.0, -4.0]  # A_1 = -12 against -8

    def test_standard_volume_is_the_round_sphere_volume(self):
        # m = 1: t / (1 + t); m = 2: 3 x^2 - 2 x^3 with x = t / (1 + t);
        # 1/2 at r = 1/mu, the equator, for every m
        r = np.array([0.0, 0.3, 1.0, 7.0])
        t = r**2
        x = t / (1 + t)
        np.testing.assert_allclose(standard_volume(1, 1.0, r), x, rtol=1e-15)
        np.testing.assert_allclose(standard_volume(2, 1.0, r), 3 * x**2 - 2 * x**3, rtol=1e-15)
        for m in range(1, 9):
            assert standard_volume(m, 4.0, 0.25) == pytest.approx(0.5, rel=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(s=st.floats(min_value=1e-3, max_value=1e3))
    def test_rescaled_maps_mu_to_s_mu(self, nonstd2, s):
        # u(s x) + log s = u_{s mu}(x) + W(s x): mu becomes s mu, W_j picks
        # up s^{2j} and nothing else, and w follows within rounding
        traj, _ = nonstd2
        resc = traj.rescaled(s)
        assert resc.mu == s * traj.mu
        powers = s ** (2 * np.arange(2))
        assert np.array_equal(resc.W, traj.W * powers[:, None])
        assert np.array_equal(resc.P, traj.P * (s * powers)[:, None])
        exact = traj.w[0] + math.log(s)
        assert np.all(np.abs(resc.w[0] - exact) <= 1e-15 * np.maximum(1.0, np.abs(exact)) * 8)


class TestNonstandardShot:
    def test_alpha_and_limit_frozen_values(self, nonstd2):
        traj, rep = nonstd2
        assert rep.termination == "reached_end"
        assert rep.alpha_final == pytest.approx(0.21332616180327657, rel=1e-6)
        lim = rep.delta_limits[0]
        assert lim.value == pytest.approx(-7.630864450107209, rel=1e-6)
        assert lim.confidence / abs(lim.value) < 0.01

    def test_curvature_unbounded_below(self, nonstd2):
        traj, _ = nonstd2
        rg = scalar_curvature(traj)
        assert np.min(rg[traj.grid <= 10.0]) < -1e6

    def test_limit_and_curvature_coherent(self, nonstd2):
        # lim Delta u < 0 forces the curvature statistic to blow down
        traj, rep = nonstd2
        assert rep.delta_limits[0].value < -1e-3
        assert np.min(scalar_curvature(traj)) < -1e6

    def test_overflowed_factor_on_zero_bracket_is_nan(self):
        # u(0) = -400: e^{-2u} overflows and, at m = 1, e^{2u} underflows to
        # a zero bracket; inf * 0 gives R_g NaN (never a wrong number) and
        # the shot still reaches r_end with RuntimeWarning as an error
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj, rep = shoot(ShootingConfig(m=1, initial_laplacians=(-400.0,)))
            rg = scalar_curvature(traj)
        assert rep.termination == "reached_end"
        assert np.isnan(rg).all()


class TestTermination:
    def test_blowup_ends_in_step_underflow(self):
        # u ~ -log(R - r) near the blow-up radius R ~ 1.32: the step size
        # underflows there, and the run stops short of r_end (m = 4 carries
        # no u' event, so the run goes on to the blow-up)
        cfg = ShootingConfig(m=4, initial_laplacians=(LOG2, 2.0, 0.0, 0.0), r_end=50.0)
        traj, rep = shoot(cfg)
        assert rep.termination == "step_underflow"
        assert traj.r_max < 2.0
        assert np.all(np.isfinite(traj.w[-1]))

    @pytest.mark.parametrize("d2", [2.0, 0.5, 0.0])
    def test_m2_nonnegative_laplacian_stops_at_start(self, d2, monkeypatch):
        # Delta u(0) >= 0 lies off every entire m = 2 solution: the shot ends
        # at the start radius with u' > 0 and never calls the integrator
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_ivp called")

        monkeypatch.setattr("polyliouville.shooter.solve_ivp", no_solve)
        cfg = ShootingConfig(m=2, initial_derivatives=(LOG2, d2))
        assert cfg.initial_laplacians[1] >= 0.0
        traj, rep = shoot(cfg)
        assert rep.termination == traj.termination == "not_entire"
        assert traj.grid.tolist() == [0.0, shooter._R0]
        assert traj.nfev == 0
        assert traj.p[0, -1] > 0.0
        assert math.isnan(rep.w0_error_estimate)

    def test_m2_large_u0_stops_at_the_series_start(self):
        # u(0) = 12 puts the series start r0 near 4e-6, below the grid's
        # first radius: the shot stops at r0 itself, where the series holds,
        # and never sums it at 1e-3, far outside its radius of convergence
        cfg = ShootingConfig(m=2, initial_derivatives=(12.0, 1.0))
        r0 = series_start(cfg)[0]
        assert r0 < shooter._R0 / 100
        traj, rep = shoot(cfg)
        assert rep.termination == "not_entire"
        assert traj.grid.tolist() == [0.0, r0]
        assert np.all(np.isfinite(traj.w)) and np.all(np.isfinite(traj.p))
        assert 0.0 < traj.alpha[-1] < 1.0
        assert traj.p[0, -1] > 0.0

    @pytest.mark.parametrize("m, data, termination", [
        (1, (400.0,), "reached_end"),
        (1, (-800.0,), "reached_end"),
        (2, (200.0, -1.0), "not_entire"),
    ])
    def test_data_past_the_reference_clip_still_shoot(self, m, data, termination):
        # A_0 outside [-350/m, 350/m]: mu comes from the clipped A_0, W_0(0)
        # is the rest, and the shot ends as a shot does, with finite values
        cfg = ShootingConfig(m=m, initial_laplacians=data, r_end=50.0)
        a0 = min(max(data[0], -350.0 / m), 350.0 / m)
        assert reference_mu(cfg) == math.exp(a0) / 2
        traj, rep = shoot(cfg)
        assert rep.termination == termination
        assert not traj.on_family
        assert np.all(np.isfinite(traj.W)) and np.all(np.isfinite(traj.alpha))

    @pytest.mark.parametrize("m, data, termination", [
        (3, (-150.0, 1.0, 0.0), "reached_end"),
        (8, (-50.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), "step_underflow"),
    ])
    def test_source_below_the_reference_clip_acts(self, m, data, termination):
        # 2m u(0) far below -700: the source starts below float range and
        # acts only where u has grown to about 0, near r = 40.  The shot
        # agrees on every grid radius with a run of the u system itself
        # from the same series start at the same tolerances; without the
        # source, u would grow like r^2 / (4m) to r_end
        cfg = ShootingConfig(m=m, initial_laplacians=data, r_end=100.0)
        traj, rep = shoot(cfg)
        r0, y0 = series_start(cfg)
        assert r0 < 10.0
        family = standard_solution(m, traj.mu, [r0])
        start = np.r_[family.w[:, 0] + y0[:m], family.p[:, 0] + y0[m : 2 * m]]
        grid = shooter._geometric_grid(shooter._R0, cfg.r_end)
        reference = TestVectorField._reference_field(m)

        def u_system(r, y):
            return reference(r, y + [0.0])[: 2 * m]

        sol = dop853.solve_ivp(u_system, (r0, cfg.r_end), start, t_eval=grid[grid >= r0],
                               rtol=shooter._RTOL, atol=shooter._ATOL)
        assert rep.termination == shooter._TERMINATION[sol.status] == termination
        after = traj.grid >= r0
        assert np.array_equal(traj.grid[after], sol.t)
        u = sol.y[0]
        assert np.all(np.abs(traj.u[after] - u) <= 1e-9 * np.maximum(1.0, np.abs(u)))
        assert traj.u.max() < 2.0

    def test_series_that_earns_no_radius_ends_at_the_origin(self):
        # 2m u(0) = 800 is past the clamp: the series' volume row overflows,
        # no radius is earned, and the shot ends at r = 0 without a warning
        # (it used to raise ValueError on a NaN start)
        traj, rep = shoot(ShootingConfig(m=4, initial_laplacians=(100.0, 100.0, 0.0, 0.0)))
        assert rep.termination == "step_underflow"
        assert traj.grid.tolist() == [0.0] and traj.nfev == 0

    def test_radii_past_the_volume_rows_power_limit(self):
        # r^15 overflows a float from r = 3.6e20: the volume row of standard
        # m = 8 stays 0 past it, and the shot is still the closed form (a
        # float power used to raise OverflowError there)
        traj, rep = shoot(standard_config(8, r_end=1e25))
        assert rep.termination == "reached_end" and traj.r_max == 1e25
        family = standard_solution(8, 1.0, traj.grid)
        assert np.array_equal(traj.w, family.w) and np.array_equal(traj.p, family.p)
        assert traj.alpha_final == 1.0

    @pytest.mark.parametrize("d2", [-1.9, -1.7, -1.5])
    def test_supercritical_m2_stops_at_first_positive_slope(self, d2):
        # every entire m = 2 solution has u' < 0, so the run stops where u'
        # first turns positive, long before the blow-up
        cfg = ShootingConfig(m=2, initial_derivatives=(LOG2, d2))
        traj, rep = shoot(cfg)
        assert rep.termination == "not_entire"
        assert traj.r_max < 3.0
        assert traj.nfev <= 1500
        assert np.all(traj.p[0] <= 0.0)
        assert math.isnan(rep.w0_error_estimate)

    @pytest.mark.parametrize("d2,nfev", [(-2.2, 1676), (-3.0, 1739), (-2.0001, 1154), (None, 0)])
    def test_entire_m2_runs_keep_their_cost(self, d2, nfev):
        # the u' event never fires on these runs and leaves the steps alone
        if d2 is None:
            cfg = standard_config(2)
        else:
            cfg = ShootingConfig(m=2, initial_derivatives=(LOG2, d2))
        traj, rep = shoot(cfg)
        assert rep.termination == "reached_end"
        assert traj.nfev == nfev

    def test_standard_m2_far_field_does_not_trip_the_event(self):
        # u' ~ -2/r stays clear of zero at r = 1e5 (max u' ~ -2e-5)
        traj, rep = shoot(standard_config(2, r_end=1e5))
        assert rep.termination == "reached_end"
        assert traj.r_max == 1e5

    @pytest.mark.parametrize("lam, nfev", [(0.05, 182), (7.0, 329)])
    def test_off_family_m2_far_field_does_not_trip_the_event(self, lam, nfev):
        # these lam are off the family in floats, so the stepper and the u'
        # event run out to r = 1e5 (max u' about -5e-6 and -2e-5)
        traj, rep = shoot(standard_config(2, lam, r_end=1e5))
        assert not traj.on_family
        assert rep.termination == "reached_end"
        assert traj.r_max == 1e5
        assert traj.nfev == nfev
        assert np.max(traj.p[0, 1:]) < 0.0

    @pytest.mark.parametrize("lam", [1.0, 3.0, 20.0])
    @pytest.mark.parametrize("m", range(1, 9))
    def test_family_data_never_step(self, m, lam, monkeypatch):
        # on the family's float data W = 0 is exact: no series, no main run
        # and no companion run, and the estimate is the roundoff floor
        def never(*args, **kwargs):
            raise AssertionError("called on the family's data")

        cfg = standard_config(m, lam)
        with monkeypatch.context() as patch:
            patch.setattr(shooter, "solve_ivp", never)
            patch.setattr(shooter, "_series", never)
            traj, rep = shoot(cfg)
        assert rep.termination == "reached_end"
        assert traj.nfev == 0
        assert np.array_equal(traj.grid[1:], shooter._geometric_grid(shooter._R0, cfg.r_end))
        assert not (traj.W.any() or traj.P.any())
        floor = shooter._RTOL * max(1.0, float(np.max(np.abs(traj.u))))
        assert rep.w0_error_estimate == floor
        # one ulp off in A_{m-1} steps: the check is float equality.  At
        # m = 1 that is A_0, which moves mu with it, and at lam = 3 and 20
        # the next float of A_0 is still the data of the family's u_mu
        last = math.nextafter(cfg.initial_laplacians[-1], math.inf)
        traj, _ = shoot(replace(cfg, initial_laplacians=(*cfg.initial_laplacians[:-1], last),
                                r_end=10.0))
        assert m == 1 or not traj.on_family
        assert (traj.nfev > 0) == (not traj.on_family)

    def test_m3_keeps_running_past_positive_slope(self):
        # no sign theorem for m = 3: u' > 0 from r ~ 1.46, yet r_end is reached
        cfg = ShootingConfig(m=3, initial_derivatives=(LOG2, -2.0, 14.0), r_end=500.0)
        traj, rep = shoot(cfg)
        assert rep.termination == "reached_end"
        assert np.max(traj.p[0]) > 0.0

    @pytest.mark.parametrize("d2", [-3.0, -1.7])
    def test_report_json_dict_is_strict(self, d2):
        # -3: e^{-2u} overflows in the curvature tail (-inf); -1.7 stops at
        # the u' event and has a NaN w0_error_estimate
        traj, rep = shoot(ShootingConfig(m=2, initial_derivatives=(LOG2, d2)))
        blob = json.loads(json.dumps(rep.to_json_dict(), allow_nan=False))
        if d2 == -3.0:
            assert "-inf" in blob["verdict_inputs"]["scalar_curvature_tail"]["value"]
        else:
            assert blob["w0_error_estimate"] == "nan"

    def test_diagnose_consistent_with_trajectory(self, std2):
        traj, _ = std2
        rep = diagnose(traj)
        assert rep.m == traj.m
        assert rep.r_reached == traj.r_max
        assert rep.alpha_final == traj.alpha_final


class TestTrajectoryCsv:
    def test_header_and_round_numbers(self, tmp_path, std2):
        traj, _ = std2
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        with open(path) as fh:
            header = fh.readline().strip()
            first = fh.readline().strip()
        assert header == "r,w0,p0,w1,p1,alpha_R,R_scalar"
        assert first.split(",")[0] == "0"

    def test_rescaled_matches_scaled_family(self, std2):
        traj, _ = std2
        resc = traj.rescaled(2.0)
        exact = standard_solution(2, 2.0, resc.grid).u
        # far-field integration error of the underlying shot dominates here
        assert np.max(np.abs(resc.u - exact)) < 5e-6

    def test_rescaled_origin_column_is_the_rescaled_data(self, std2):
        # u(s x) + log s: A_0 gains log s, A_j the factor s^{2j}, p stays 0
        traj, _ = std2
        s = 1 / 3
        resc = traj.rescaled(s)
        a = traj.w[:, 0]
        np.testing.assert_allclose(resc.w[:, 0], [a[0] + math.log(s), a[1] * s**2], rtol=1e-15)
        assert resc.p[:, 0].tolist() == [0.0, 0.0]
        assert resc.alpha.tolist() == traj.alpha.tolist()
        assert resc.alpha is not traj.alpha

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rescaled_refuses_a_scale_that_is_not_finite_and_positive(self, std2, scale):
        # refused up front: +inf in the arithmetic would warn first
        traj, _ = std2
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="scale must be positive and finite"):
                traj.rescaled(scale)

    def test_rescaled_takes_a_scale_that_ends_below_the_grid_start(self, std2):
        # r_end / s = 1e-4 lies below the shooter's start radius 1e-3: a
        # rescaled trajectory is no new shot, and takes it
        traj, _ = std2
        resc = traj.rescaled(1e7)
        assert resc.r_max == traj.r_max / 1e7
        assert resc.termination == traj.termination and resc.nfev == traj.nfev


# the runs the stepper must reproduce bit for bit: the standard family, two
# rescalings, m = 2 on both sides of -2 (-1.7 ends at the u' event), two
# m = 3 nonstandard runs and the m = 4 blow-up that ends in step_underflow
_ORACLE_CONFIGS = {
    "standard m=1": standard_config(1),
    "standard m=2": standard_config(2),
    "standard m=3": standard_config(3, r_end=500.0),
    "standard m=4": standard_config(4, r_end=200.0),
    "m=1 lam=1.7": standard_config(1, lam=1.7),
    "m=2 lam=2": standard_config(2, lam=2.0),
    "m=2 d2=-2.0001": ShootingConfig(m=2, initial_derivatives=(LOG2, -2.0001)),
    "m=2 d2=-3": ShootingConfig(m=2, initial_derivatives=(LOG2, -3.0)),
    "m=2 d2=-10": ShootingConfig(m=2, initial_derivatives=(LOG2, -10.0)),
    "m=2 d2=-1.7": ShootingConfig(m=2, initial_derivatives=(LOG2, -1.7)),
    "m=3 (-2.2, 4)": ShootingConfig(m=3, initial_derivatives=(LOG2, -2.2, 4.0), r_end=500.0),
    "m=3 (-2.5, 24)": ShootingConfig(m=3, initial_derivatives=(LOG2, -2.5, 24.0), r_end=500.0),
    "m=4 blow-up": ShootingConfig(m=4, initial_laplacians=(LOG2, 2.0, 0.0, 0.0), r_end=50.0),
}


class TestStepperOracle:
    """dop853.solve_ivp against scipy.integrate.solve_ivp(method="DOP853"):
    same arithmetic, so equal t, y, nfev and status, bit for bit.  The m = 2
    event changes sign once in its crossing step on every configuration
    here, so returning the points before the first with u' > 0 keeps the
    points scipy returns up to its root."""

    @staticmethod
    def _run_both(cfg, t_eval, rtol, atol, events):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        r0, y0 = series_start(cfg)
        field = shooter._field(cfg.m, reference_mu(cfg))
        kwargs = dict(t_eval=t_eval, rtol=rtol, atol=atol, events=events)
        mine = dop853.solve_ivp(field, (r0, cfg.r_end), y0, **kwargs)
        # scipy hands the field ndarrays; ours takes and returns float lists
        ref = scipy_integrate.solve_ivp(lambda t, y: np.array(field(t, y.tolist())),
                                        (r0, cfg.r_end), y0, method="DOP853", **kwargs)
        return mine, ref

    @classmethod
    def _both(cls, cfg, companion):
        rtol, atol = shooter._RTOL, shooter._ATOL
        if companion:
            t_eval = np.array([cfg.r_end])
            rtol, atol = rtol * shooter._COMPANION_FACTOR, atol * shooter._COMPANION_FACTOR
            events = None
        else:
            t_eval = shooter._geometric_grid(shooter._R0, cfg.r_end)
            t_eval = t_eval[t_eval >= series_start(cfg)[0]]
            events = shooter._m2_event(reference_mu(cfg)) if cfg.m == 2 else None
        return cls._run_both(cfg, t_eval, rtol, atol, events)

    @staticmethod
    def _assert_same(mine, ref, cfg):
        assert (mine.status, mine.nfev) == (ref.status, ref.nfev)
        if len(ref.t) == 0:
            # no t_eval point was passed: scipy returns empty lists
            assert ref.t == [] and ref.y == []
            assert mine.t.shape == (0,) and mine.y.shape == (2 * cfg.m + 1, 0)
        else:
            assert np.array_equal(mine.t, ref.t)
            assert np.array_equal(mine.y, ref.y)

    @pytest.mark.parametrize("name", list(_ORACLE_CONFIGS))
    def test_main_run_matches_scipy(self, name):
        cfg = _ORACLE_CONFIGS[name]
        self._assert_same(*self._both(cfg, companion=False), cfg)

    @pytest.mark.parametrize("name", list(_ORACLE_CONFIGS))
    def test_companion_run_matches_scipy(self, name):
        cfg = _ORACLE_CONFIGS[name]
        self._assert_same(*self._both(cfg, companion=True), cfg)

    @pytest.mark.parametrize("name, points, status, count", [
        ("standard m=2", [], 0, 0),
        # the standard runs' W is 0, so their stepper starts at r_end / 2
        ("standard m=2", [600.0, 800.0, 950.0], 0, 3),
        ("m=3 (-2.2, 4)", [0.37, 11.0, 400.0], 0, 3),
        ("m=2 d2=-3", ["r0", 2.0, "r_end"], 0, 3),
        ("m=1 lam=1.7", ["r0", 700.0, "r_end"], 0, 3),
        # the u' event fires near r = 1.550826 in a step that ends near
        # r = 1.5581: first with no point before it, then with points of
        # the crossing step on either side of the zero, which must be
        # judged on that step's interpolant and not on an earlier one
        ("m=2 d2=-1.7", [1.554, 10.0], 1, 0),
        ("m=2 d2=-1.7", [1.0, 1.5507, 1.5509, 10.0], 1, 2),
        ("m=2 d2=-1.7", [1.55, 1.5505, 1.5507, 1.5509, 1.5512, 1.554], 1, 3),
    ])
    def test_sparse_t_eval_matches_scipy(self, name, points, status, count):
        # most steps hold no t_eval point here, unlike on the geometric grid;
        # "r0" and "r_end" are the ends of t_span
        cfg = _ORACLE_CONFIGS[name]
        ends = {"r0": series_start(cfg)[0], "r_end": cfg.r_end}
        t_eval = np.array([ends.get(p, p) for p in points])
        events = shooter._m2_event(reference_mu(cfg)) if cfg.m == 2 else None
        mine, ref = self._run_both(cfg, t_eval, shooter._RTOL, shooter._ATOL, events)
        self._assert_same(mine, ref, cfg)
        assert (mine.status, len(mine.t)) == (status, count)

    @pytest.mark.parametrize("name", ["m=2 d2=-1.7", "m=4 blow-up"])
    def test_field_without_stage_kernel_gives_same_result(self, name):
        # a plain fun takes the stepper's adapter, fun(t, [yi + di h]), and
        # must give the run of the fused kernel: the event and the blow-up
        cfg = _ORACLE_CONFIGS[name]
        r0, y0 = series_start(cfg)
        mu = reference_mu(cfg)
        field = shooter._field(cfg.m, mu)
        grid = shooter._geometric_grid(shooter._R0, cfg.r_end)
        kwargs = dict(t_eval=grid[grid >= r0], rtol=shooter._RTOL, atol=shooter._ATOL,
                      events=shooter._m2_event(mu) if cfg.m == 2 else None)
        fused = dop853.solve_ivp(field, (r0, cfg.r_end), y0, **kwargs)
        plain = dop853.solve_ivp(lambda t, y: field(t, y), (r0, cfg.r_end), y0, **kwargs)
        assert (plain.status, plain.nfev) == (fused.status, fused.nfev) != (0, 0)
        assert np.array_equal(plain.t.view(np.int64), fused.t.view(np.int64))
        assert np.array_equal(plain.y.view(np.int64), fused.y.view(np.int64))

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_batched_dense_rows_match_one_step_at_a_time(self, n):
        # scipy forms each step's rows alone, F[3:] = h * np.dot(D, K);
        # the batched pass must give the same bits for every step
        rng = np.random.default_rng(n)
        k = 37
        K = rng.standard_normal((k, 16, n)) * 10.0 ** rng.integers(-6, 7, (k, 16, n))
        y_old, y = rng.standard_normal((2, k, n)) * 10.0 ** rng.integers(-3, 4, (2, k, n))
        h = 10.0 ** rng.uniform(-6.0, 1.0, k)
        F = dop853._dense(K, y_old, y, h)
        for i in range(k):
            delta_y = y[i] - y_old[i]
            want = np.empty((7, n))
            want[0] = delta_y
            want[1] = h[i] * K[i, 0] - delta_y
            want[2] = 2 * delta_y - h[i] * (K[i, 12] + K[i, 0])
            want[3:] = h[i] * np.dot(dop853.D, K[i])
            assert np.array_equal(F[i].view(np.int64), want.view(np.int64))

    def test_artifacts_match_scipy_end_to_end(self, tmp_path, monkeypatch):
        # reproduce-paper and an m = 2 classify that ends at the u' event,
        # once on the package's stepper and once on scipy's: equal bytes
        scipy_integrate = pytest.importorskip("scipy.integrate")
        from polyliouville.cli import run

        def scipy_solve_ivp(fun, t_span, y0, *, t_eval, rtol, atol, events=None):
            sol = scipy_integrate.solve_ivp(
                lambda t, y: np.array(fun(t, y.tolist())), t_span, y0, method="DOP853",
                t_eval=t_eval, rtol=rtol, atol=atol, events=events)
            y = np.asarray(sol.y, dtype=float).reshape(len(y0), -1)
            return dop853.OdeResult(np.asarray(sol.t, dtype=float), y, sol.status, sol.nfev)

        # the classification of a run stopped by the event carries no
        # trajectory bits, so shoot's trajectory of that run is compared too
        event_run = ["--m", "2", "--u0", repr(LOG2), "--d2", "-1.7"]
        commands = [
            (["reproduce-paper"], ["summary.csv"]),
            (["classify", *event_run], ["classification.json"]),
            (["shoot", *event_run], ["trajectory.csv", "report.json"]),
        ]
        for argv, names in commands:
            out = {}
            for which in ("dop853", "scipy"):
                if which == "scipy":
                    monkeypatch.setattr(shooter, "solve_ivp", scipy_solve_ivp)
                assert run(argv + ["--out", str(tmp_path / which)]) == 0
                out[which] = [(tmp_path / which / name).read_bytes() for name in names]
                monkeypatch.undo()
            assert out["dop853"] == out["scipy"], argv
        assert b'"termination": "not_entire"' in out["scipy"][1]

    def test_tableau_order_conditions(self):
        # row sums give the nodes, and the weights integrate t^k exactly
        # for k <= 7 (the quadrature conditions of an order-8 method)
        np.testing.assert_allclose(dop853.A.sum(axis=1), dop853.C, atol=1e-14)
        k = np.arange(8)
        np.testing.assert_allclose(dop853.B @ dop853.C[:12, None] ** k, 1 / (k + 1), atol=1e-14)

    def test_rejects_bad_input(self):
        field = shooter._field(1, 1.0)
        y0 = np.array([0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            dop853.solve_ivp(field, (1.0, 0.5), y0, t_eval=[0.5], rtol=1e-6, atol=1e-9)
        with pytest.raises(ValueError):
            dop853.solve_ivp(field, (0.1, 1.0), y0, t_eval=[2.0], rtol=1e-6, atol=1e-9)
        with pytest.raises(ValueError):
            dop853.solve_ivp(field, (0.1, 1.0), y0, t_eval=[0.5, 0.5], rtol=1e-6, atol=1e-9)
        with pytest.raises(ValueError):
            dop853.solve_ivp(field, (0.1, 1.0), y0 + np.inf, t_eval=[1.0], rtol=1e-6, atol=1e-9)
        with pytest.raises(ValueError):
            dop853.solve_ivp(field, (0.1, 1.0), y0, t_eval=[1.0], rtol=1e-6, atol=1e-9,
                             events=lambda r, y: y[0])

        def downward(r, y):
            return y[0]

        downward.terminal, downward.direction = True, -1
        with pytest.raises(ValueError):
            dop853.solve_ivp(field, (0.1, 1.0), y0, t_eval=[1.0], rtol=1e-6, atol=1e-9,
                             events=downward)
