"""Numerical and exact-arithmetic lab for (-Delta)^m u = (2m-1)! e^{2mu} on R^{2m}.

Modules:
    exactconst   exact constants (gamma_m, sphere volumes, Pizzetti weights)
    polyfield    exact multivariate polynomial calculus and ball averages
    greenball    Navier Green function of Delta^m on the unit ball, radial solves
    dop853       the Dormand-Prince 8(5,3) stepper the shooter integrates with
    shooter      radial shooting for the Liouville equation
    tailfit      limit and even-polynomial estimation on tail samples
    represent    integral representation v and polynomial part u - v
    verdict      numeric classification standard vs non-standard (classify)
    cli          command line entry points and the analyze pipeline

What loads at import: nothing but the package's `__init__`, so
`import polyliouville` loads no submodule, no third-party module and none
of the standard library's heavier modules (fractions, decimal,
dataclasses).  Every public name is looked up in `_HOME` on first access
(PEP 562 `__getattr__`), which imports its module and caches the value as
a module global.  The first exact name used therefore pays the exact
layer's import and the first numeric name numpy's, once per process.  No
submodule shares its name with a public name, so the attribute the import
system binds for each submodule it loads never shadows a function.

shoot, compute_v, compute_lap_v and fit_even_polynomial are bound from the
start, as forwarders that import their module and call the real function
on every call; cli imports the first three from here and builds its other
forwarders with `_forwarder`.  perfbench's tracer swaps these attributes
for wrappers and back, so they must exist before first use and must never
rebind themselves.
"""

import importlib

__version__ = "0.1.0"


def _forwarder(module: str, name: str):
    """A function that calls polyliouville.<module>.<name>, importing the
    module on each call: a dictionary lookup once it is loaded."""
    path = f"{__name__}.{module}"

    def forward(*args, **kwargs):
        return getattr(importlib.import_module(path), name)(*args, **kwargs)

    forward.__name__ = forward.__qualname__ = name
    forward.__doc__ = f"Calls {path}.{name}, importing {path} on first use."
    return forward


shoot = _forwarder("shooter", "shoot")
compute_v = _forwarder("represent", "compute_v")
compute_lap_v = _forwarder("represent", "compute_lap_v")
fit_even_polynomial = _forwarder("tailfit", "fit_even_polynomial")

# public name -> the submodule that defines it, for the lazily bound names
_HOME = {
    "Analysis": "cli",
    "analyze": "cli",
    "ConstantTable": "exactconst",
    "PiRational": "exactconst",
    "constant_table": "exactconst",
    "pizzetti_coefficients": "exactconst",
    "verify_gamma_identity": "exactconst",
    "PolynomialND": "polyfield",
    "almansi_random": "polyfield",
    "ball_average": "polyfield",
    "pizzetti_check": "polyfield",
    "ClassificationReport": "verdict",
    "classify": "verdict",
    "GreenBall": "greenball",
    "RadialProfile": "greenball",
    "exp_integrability": "greenball",
    "green_ball": "greenball",
    "navier_solve_radial": "greenball",
    "rescale_check": "represent",
    "RadialTrajectory": "shooter",
    "ShootingConfig": "shooter",
    "SolveReport": "shooter",
    "standard_config": "shooter",
    "standard_solution": "shooter",
}
# submodules, each loaded on first access
_LAZY_SUBMODULES = frozenset(("cli", "dop853", "exactconst", "greenball", "polyfield",
                              "represent", "shooter", "tailfit", "verdict"))


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    if name in _LAZY_SUBMODULES:
        # importing a submodule binds it on the package
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_HOME))


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
