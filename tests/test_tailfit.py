"""Tail limits and even-polynomial growth fits on far-field samples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyliouville.tailfit import PolyFit1D, fit_even_polynomial, tail_limit

TAIL = np.geomspace(100.0, 1000.0, 48)


def test_tail_limit_constant_curve():
    est = tail_limit(TAIL, np.full_like(TAIL, 2.5))
    assert est.value == pytest.approx(2.5, abs=1e-12)
    assert est.confidence < 1e-12


def test_tail_limit_slow_decay_is_flagged():
    # 5/r has not converged on [100, 1000]; the windows must disagree
    est = tail_limit(TAIL, 5.0 / TAIL)
    assert abs(est.value) < 0.02
    assert est.confidence > 1e-4


def test_tail_limit_quadratic_decay():
    est = tail_limit(TAIL, -1.5 + 3.0 / TAIL**2)
    assert est.value == pytest.approx(-1.5, abs=1e-12)
    assert est.confidence < 1e-12


@given(shift=st.floats(-50, 50), scale=st.floats(0.1, 10))
@settings(max_examples=40, deadline=None)
def test_tail_limit_affine_covariance(shift, scale):
    base = -0.75 + 2.0 / TAIL**2
    est0 = tail_limit(TAIL, base)
    est1 = tail_limit(TAIL, scale * base + shift)
    assert est1.value == pytest.approx(scale * est0.value + shift, abs=1e-9)


def test_fit_exact_even_polynomial():
    r = np.linspace(1.0, 4.0, 12)
    fit = fit_even_polynomial((r, 3.0 - 2.0 * r**2), 4)
    assert isinstance(fit, PolyFit1D)
    assert fit.inferred_degree == 2
    assert fit.leading_coefficient == pytest.approx(-2.0, rel=1e-12)
    assert fit.coeffs[0] == pytest.approx(3.0, rel=1e-12)
    assert fit.residual_rms < 1e-12
    assert fit.r_max == 4.0


def test_fit_constant_profile():
    r = np.linspace(1.0, 4.0, 12)
    fit = fit_even_polynomial((r, np.full_like(r, 7.5)), 4)
    assert fit.inferred_degree == 0
    assert fit.leading_coefficient == pytest.approx(7.5, rel=1e-12)


def test_contribution_floor_suppresses_noise_modes():
    r = np.linspace(1.0, 4.0, 12)
    vals = 3.0 - 2.0 * r**2 + 1e-9 * r**4
    assert fit_even_polynomial((r, vals), 4).inferred_degree == 4
    damped = fit_even_polynomial((r, vals), 4, contribution_floor=1e-6)
    assert damped.inferred_degree == 2
    assert damped.leading_coefficient == pytest.approx(-2.0, rel=1e-6)


def test_fit_requires_enough_samples():
    r = np.linspace(1.0, 2.0, 3)
    with pytest.raises(ValueError):
        fit_even_polynomial((r, r**2), 4)


@pytest.mark.parametrize("bad", ["r", "vals"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_fit_refuses_non_finite_samples(bad, value):
    # abs(nan) > cutoff is False: a NaN sample would pass as degree 0
    r = np.linspace(1.0, 4.0, 10)
    vals = 3.0 - 2.0 * r**2
    (r if bad == "r" else vals)[4] = value
    with pytest.raises(ValueError, match="r and vals must be finite"):
        fit_even_polynomial((r, vals), 4)
