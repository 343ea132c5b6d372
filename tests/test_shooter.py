"""Radial shooting for (-Delta)^m u = (2m-1)! e^{2mu} on R^{2m}.

The closed-form family u(r) = log(2 lam / (1 + lam^2 r^2)) is the oracle for
every accuracy claim; its conformal volume is 1 and its curvature statistic
equals 2m(2m-1) identically.
"""

import math

import numpy as np
import pytest

from polyliouville import dop853, shooter
from polyliouville.shooter import (
    ShootingConfig,
    conformal_factor_ratio,
    derivs_to_laplacians,
    diagnose,
    rhs,
    scalar_curvature,
    series_start,
    shoot,
    standard_config,
    standard_laplacians,
    standard_solution,
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
        np.testing.assert_allclose(sol.du, num, atol=1e-9)

    def test_offset_center(self):
        r = np.array([0.5, 1.0])
        sol = standard_solution(2, 1.0, r, x0_offset=0.25)
        np.testing.assert_allclose(
            sol.u, np.log(2 / (1 + np.abs(r - 0.25) ** 2)), rtol=1e-14
        )

    def test_two_sided_log_asymptotics(self):
        # for lam = 2 the profile sits inside the strip -2 log r +- 0.1 log r
        traj, _ = shoot(standard_config(2, lam=2.0))
        far = traj.grid >= 100.0
        gap = np.abs(traj.u[far] + 2.0 * np.log(traj.grid[far]))
        assert np.all(gap <= 0.1 * np.log(traj.grid[far]))


class TestVectorField:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_rhs_matches_closed_form_derivatives(self, m):
        # (w, p) of the closed form is a solution, so rhs must return
        # (p, dp/dr); dp/dr by central difference at h = 1e-6, whose
        # rounding error is a few 1e-10 of the largest entry
        h = 1e-6
        for r in (0.3, 1.0, 2.5, 7.0, 40.0):
            sol = standard_solution(m, 1.0, np.array([r - h, r, r + h]))
            state = np.concatenate([sol.w[:, 1], sol.p[:, 1]])
            dp = (sol.p[:, 2] - sol.p[:, 0]) / (2 * h)
            got = rhs(state, r, m)
            np.testing.assert_array_equal(got[:m], sol.p[:, 1])
            scale = max(1.0, float(np.max(np.abs(dp))))
            np.testing.assert_allclose(got[m:], dp, rtol=0, atol=1e-6 * scale)

    def test_rhs_validates_input(self):
        with pytest.raises(ValueError):
            rhs(np.zeros(4), 0.0, 2)
        with pytest.raises(ValueError):
            rhs(np.zeros(3), 1.0, 2)


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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_config_rejects_non_finite_data(self, bad):
        with pytest.raises(ValueError, match="initial data must be finite"):
            ShootingConfig(m=2, initial_derivatives=(LOG2, bad))
        with pytest.raises(ValueError, match="initial data must be finite"):
            ShootingConfig(m=2, initial_laplacians=(bad, -8.0))
        with pytest.raises(ValueError, match="r_end must be positive and finite"):
            ShootingConfig(m=2, initial_derivatives=(LOG2, -2.0), r_end=abs(bad))

    def test_series_start_small_radius_expansion(self):
        cfg = ShootingConfig(m=1, initial_laplacians=(0.0,), r_end=10.0)
        r0, state = series_start(cfg)
        # u = -r^2/4 + O(r^4) when u(0) = 0 and m = 1
        assert state[0] == pytest.approx(-(r0**2) / 4, rel=1e-4)
        assert state[1] == pytest.approx(-r0 / 2, rel=1e-4)


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
        # evaluation counts repeat exactly: 2858 with the 8th-order pair,
        # 7376 with the 5th-order one
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

    def test_sample_w_interpolates_laplacian(self, std2, std3_500):
        traj, _ = std2
        radii = np.array([0.5, 1.0, 2.0])
        # Delta u = -(8 + 4 r^2) / (1 + r^2)^2 for the lam = 1 profile in R^4
        exact = -(8 + 4 * radii**2) / (1 + radii**2) ** 2
        np.testing.assert_allclose(traj.sample_w(1, radii), exact, rtol=1e-6)
        # max |error| of every w_j on off-grid radii, at most that of a global
        # cubic spline (w_j'(0) = 0, not-a-knot) through the same nodes,
        # rounded up in the third digit
        ceilings = {1: [6.78e-10], 2: [3.14e-8, 1.51e-9], 3: [4.47e-5, 5.74e-9, 6.06e-8]}
        runs = {1: shoot(standard_config(1))[0], 2: traj, 3: std3_500[0]}
        for m, run in runs.items():
            radii = np.geomspace(1e-3, run.r_max, 10**4, endpoint=False)
            exact = standard_solution(m, 1.0, radii)
            for j in range(m):
                err = np.max(np.abs(run.sample_w(j, radii) - exact.w[j]))
                assert err <= ceilings[m][j], (m, j, err)
                np.testing.assert_array_equal(run.sample_w(j, run.grid), run.w[j])
            assert run.grid[0] == 0.0


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
        assert traj.grid.tolist() == [0.0, cfg.start_radius()]
        assert traj.nfev == 0
        assert traj.p[0, -1] > 0.0
        assert math.isnan(rep.w0_error_estimate)

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

    @pytest.mark.parametrize("d2,nfev", [(-2.2, 2312), (-3.0, 2324), (-2.0001, 2723), (None, 2858)])
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

    def test_m3_keeps_running_past_positive_slope(self):
        # no sign theorem for m = 3: u' > 0 from r ~ 1.46, yet r_end is reached
        cfg = ShootingConfig(m=3, initial_derivatives=(LOG2, -2.0, 14.0), r_end=500.0)
        traj, rep = shoot(cfg)
        assert rep.termination == "reached_end"
        assert np.max(traj.p[0]) > 0.0

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
    same arithmetic, so equal t, y, nfev and status, bit for bit."""

    @staticmethod
    def _run_both(cfg, t_eval, rtol, atol, events):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        r0, y0 = series_start(cfg)
        field = shooter._vector_field(cfg.m)
        kwargs = dict(t_eval=t_eval, rtol=rtol, atol=atol, events=events)
        mine = dop853.solve_ivp(field, (r0, cfg.r_end), y0, **kwargs)
        ref = scipy_integrate.solve_ivp(field, (r0, cfg.r_end), y0, method="DOP853", **kwargs)
        return mine, ref

    @classmethod
    def _both(cls, cfg, companion):
        rtol = cfg.rel_tol * shooter._TOL_SAFETY
        atol = cfg.abs_tol * shooter._TOL_SAFETY
        if companion:
            t_eval = np.array([cfg.r_end])
            rtol, atol = rtol * shooter._COMPANION_FACTOR, atol * shooter._COMPANION_FACTOR
            events = None
        else:
            t_eval = shooter._geometric_grid(cfg.start_radius(), cfg.r_end)
            events = shooter._m2_u_prime if cfg.m == 2 else None
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
        ("standard m=2", [0.37, 11.0, 800.0], 0, 3),
        ("m=3 (-2.2, 4)", [0.37, 11.0, 400.0], 0, 3),
        ("m=2 d2=-3", ["r0", 2.0, "r_end"], 0, 3),
        ("m=1 lam=1.7", ["r0", 2.0, "r_end"], 0, 3),
        # the u' event fires near r = 1.5508 in a step that ends near
        # r = 1.5581: first with no point before it, then with the root
        # found on the interpolant of that step and not of an earlier one
        ("m=2 d2=-1.7", [1.554, 10.0], 1, 0),
        ("m=2 d2=-1.7", [1.0, 1.5507, 1.5509, 10.0], 1, 2),
    ])
    def test_sparse_t_eval_matches_scipy(self, name, points, status, count):
        # most steps hold no t_eval point here, unlike on the geometric grid;
        # "r0" and "r_end" are the ends of t_span
        cfg = _ORACLE_CONFIGS[name]
        ends = {"r0": cfg.start_radius(), "r_end": cfg.r_end}
        t_eval = np.array([ends.get(p, p) for p in points])
        events = shooter._m2_u_prime if cfg.m == 2 else None
        rtol = cfg.rel_tol * shooter._TOL_SAFETY
        atol = cfg.abs_tol * shooter._TOL_SAFETY
        mine, ref = self._run_both(cfg, t_eval, rtol, atol, events)
        self._assert_same(mine, ref, cfg)
        assert (mine.status, len(mine.t)) == (status, count)

    def test_tableau_order_conditions(self):
        # row sums give the nodes, and the weights integrate t^k exactly
        # for k <= 7 (the quadrature conditions of an order-8 method)
        np.testing.assert_allclose(dop853.A.sum(axis=1), dop853.C, atol=1e-14)
        k = np.arange(8)
        np.testing.assert_allclose(dop853.B @ dop853.C[:12, None] ** k, 1 / (k + 1), atol=1e-14)

    def test_rejects_bad_input(self):
        field = shooter._vector_field(1)
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
