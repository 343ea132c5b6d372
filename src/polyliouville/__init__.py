"""Numerical and exact-arithmetic lab for (-Delta)^m u = (2m-1)! e^{2mu} on R^{2m}.

Modules:
    exactconst   exact constants (gamma_m, sphere volumes, Pizzetti weights)
    polyfield    exact multivariate polynomial calculus and ball averages
    greenball    Navier Green function of Delta^m on the unit ball, radial solves
    dop853       the Dormand-Prince 8(5,3) stepper the shooter integrates with
    shooter      radial shooting for the Liouville equation
    tailfit      limit and even-polynomial estimation on tail samples
    represent    integral representation v and polynomial part u - v
    classify     numeric classification standard vs non-standard
    cli          command line entry points and the analyze pipeline
"""

from .classify import ClassificationReport, classify
from .exactconst import (
    ConstantTable,
    PiRational,
    constant_table,
    pizzetti_coefficients,
    verify_gamma_identity,
)
from .greenball import (
    GreenBall,
    RadialProfile,
    exp_integrability,
    green_ball,
    navier_solve_radial,
)
from .polyfield import PolynomialND, almansi_random, ball_average, pizzetti_check
from .represent import compute_lap_v, compute_v, rescale_check
from .shooter import (
    RadialTrajectory,
    ShootingConfig,
    SolveReport,
    shoot,
    standard_config,
    standard_solution,
)
from .tailfit import fit_even_polynomial

__version__ = "0.1.0"


def __getattr__(name):
    # analyze lives in cli, which is imported on first use so that
    # `python -m polyliouville.cli` does not find it already loaded
    if name in ("Analysis", "analyze"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Analysis",
    "ClassificationReport",
    "ConstantTable",
    "GreenBall",
    "PiRational",
    "PolynomialND",
    "RadialProfile",
    "RadialTrajectory",
    "ShootingConfig",
    "SolveReport",
    "almansi_random",
    "analyze",
    "ball_average",
    "classify",
    "compute_lap_v",
    "compute_v",
    "constant_table",
    "exp_integrability",
    "fit_even_polynomial",
    "green_ball",
    "navier_solve_radial",
    "pizzetti_check",
    "pizzetti_coefficients",
    "rescale_check",
    "shoot",
    "standard_config",
    "standard_solution",
    "verify_gamma_identity",
]
