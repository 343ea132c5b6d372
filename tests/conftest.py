"""Shared fixtures: solved trajectories are expensive enough to reuse."""

import math

import pytest

from polyliouville.shooter import ShootingConfig, shoot, standard_config


@pytest.fixture(scope="session")
def std2():
    """Standard profile for m=2 (lambda=1) integrated out to r=1000."""
    return shoot(standard_config(2))


@pytest.fixture(scope="session")
def std3():
    """Standard profile for m=3 (lambda=1) integrated out to r=1000."""
    return shoot(standard_config(3))


@pytest.fixture(scope="session")
def std3_500():
    """Standard m = 3 profile at r_end = 500, as reproduce-paper runs it."""
    return shoot(standard_config(3, r_end=500.0))


@pytest.fixture(scope="session")
def nonstd2():
    """m=2 solution with u''(0) = -3, below the standard value -2."""
    cfg = ShootingConfig(m=2, initial_derivatives=(math.log(2.0), -3.0))
    return shoot(cfg)
