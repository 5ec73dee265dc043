"""Named model fixtures used by tests, demos, and the CLI.

"closed-form" has state-independent data, so the value function solves a
scalar ODE with the exact solution

    V(t) = (f0 - beta0 g20) / beta0 * (1 - exp(-beta0 (T - t)))
           + exp(-beta0 (T - t)) * g10,

and interventions are never profitable (kappa is large).  "intervention"
has a steep running utility at low ratios and cheap injections, giving a
nonempty action region with monotone data.  "geometric" is a drift-
diffusion ratio with no deposit response, for Monte Carlo comparisons.
"zero" has identically zero utilities, so V == 0 and the action region
is empty.
"""

import math

import numpy as np

from .model import CostParams, Curve, ModelSpec, UtilitySpec
from .solver import Grid


def closed_form_params() -> dict:
    return {"f0": 1.0, "g10": 0.0, "g20": 0.0, "beta0": 0.5, "T": 1.0}


def closed_form_value(f0: float, g10: float, g20: float, beta0: float, T: float):
    """Exact no-intervention value for constant data; returns V(t, x), constant in x."""

    def value(t: float, x: float = 0.0) -> float:
        s = T - t
        if beta0 == 0.0:
            return f0 * s + g10
        return (f0 - beta0 * g20) / beta0 * (1.0 - math.exp(-beta0 * s)) \
            + math.exp(-beta0 * s) * g10

    return value


def closed_form_spec() -> ModelSpec:
    p = closed_form_params()
    return ModelSpec(
        c1=1.0,
        T=p["T"],
        lam=Curve.constant(0.0),
        mu_tilde=Curve.constant(0.1),
        sigma_tilde=Curve.constant(0.2),
        beta=Curve.constant(p["beta0"]),
        utilities=UtilitySpec(
            f=Curve.constant(p["f0"]),
            g1=Curve.constant(p["g10"]),
            g2=Curve.constant(p["g20"]),
        ),
        costs=CostParams(kappa=10.0, k_min=0.5, k_max=1.0),
    )


def intervention_spec() -> ModelSpec:
    """Monotone data with a steep running utility at low ratios: the solver
    injects capital at small x, and the top of the grid stays continuation."""
    return ModelSpec(
        c1=1.0,
        T=2.0,
        lam=Curve.constant(0.25),
        mu_tilde=Curve.constant(0.05),
        sigma_tilde=Curve.constant(0.25),
        beta=Curve.constant(0.35),
        utilities=UtilitySpec(
            f=Curve.saturating(level=1.0, rate=5.0, scale=1.0),
            g1=Curve.saturating(level=0.5, rate=1.0, scale=0.5),
            g2=Curve.table([0.0, 0.5, 1.0, 2.0, 4.0], [0.9, 0.55, 0.3, 0.08, 0.01]),
        ),
        costs=CostParams(kappa=0.04, k_min=0.1, k_max=1.5),
    )


def geometric_spec() -> ModelSpec:
    """No deposit response (lam == 0): geometric dynamics for MC fixtures."""
    return ModelSpec(
        c1=1.0,
        T=1.0,
        lam=Curve.constant(0.0),
        mu_tilde=Curve.constant(0.1),
        sigma_tilde=Curve.constant(0.2),
        beta=Curve.table([0.0, 0.5, 1.0], [0.2, 0.4, 0.3]),
        utilities=UtilitySpec(
            f=Curve.saturating(level=1.0, rate=1.0, scale=1.0),
            g1=Curve.saturating(level=0.5, rate=1.0, scale=0.5),
            g2=Curve.table([0.0, 1.0, 3.0], [0.6, 0.25, 0.05]),
        ),
        costs=CostParams(kappa=0.08, k_min=0.1, k_max=1.0),
    )


def zero_spec() -> ModelSpec:
    return ModelSpec(
        c1=1.0,
        T=1.0,
        lam=Curve.constant(0.3),
        mu_tilde=Curve.constant(0.05),
        sigma_tilde=Curve.constant(0.2),
        beta=Curve.constant(0.2),
        utilities=UtilitySpec(
            f=Curve.constant(0.0),
            g1=Curve.constant(0.0),
            g2=Curve.constant(0.0),
        ),
        costs=CostParams(kappa=0.1, k_min=0.1, k_max=1.0),
    )


def suggested_grid(name: str) -> Grid:
    if name == "closed-form":
        return Grid(0.1, 2.1, 400, 400)
    if name == "intervention":
        return Grid(0.1, 4.1, 401, 200)
    if name == "geometric":
        return Grid(0.1, 3.1, 201, 200)
    if name == "zero":
        return Grid(0.1, 2.1, 101, 100)
    raise KeyError(name)


FIXTURES = {
    "closed-form": closed_form_spec,
    "intervention": intervention_spec,
    "geometric": geometric_spec,
    "zero": zero_spec,
}


def get_fixture(name: str) -> ModelSpec:
    try:
        return FIXTURES[name]()
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; known: {sorted(FIXTURES)}") from None


def fixture_reference(name: str):
    """Exact value callable (t, x_nodes) -> V for fixtures that have one, else None."""
    if name == "closed-form":
        p = closed_form_params()
        return closed_form_value(p["f0"], p["g10"], p["g20"], p["beta0"], p["T"])
    return None
