"""Curves, hazard quadrature, and hypothesis validation.

Expected values are computed by hand in the comments; quadrature and
inversion on piecewise-linear intensities are exact, so those assertions
are tight.
"""

import dataclasses
import importlib
import json
import math
import pkgutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import impulse_qvi
from impulse_qvi.dynamics import ImpulseSchedule
from impulse_qvi.fixtures import (FIXTURES, closed_form_spec, fixture_reference, geometric_spec,
                                  get_fixture, intervention_spec, suggested_grid, zero_spec)
from impulse_qvi.model import (CostParams, Curve, ModelSpec, UtilitySpec,
                               _sorted_distinct, diffusion, drift, hazard_grid,
                               injection_cost, invert_hazard, sampled_lipschitz, survival_grid,
                               validate)
from impulse_qvi.solver import Grid


def make_spec(lam=0.0, mu=0.1, sigma=0.2, beta=0.5, f=1.0, g1=0.0, g2=0.0,
              c1=1.0, T=1.0, kappa=0.05, k_min=0.1, k_max=1.0):
    """Constant-data spec with the scalar knobs a test needs."""
    as_curve = lambda v: v if isinstance(v, Curve) else Curve.constant(v)
    return ModelSpec(
        c1=c1, T=T,
        lam=as_curve(lam), mu_tilde=as_curve(mu),
        sigma_tilde=as_curve(sigma), beta=as_curve(beta),
        utilities=UtilitySpec(f=as_curve(f), g1=as_curve(g1), g2=as_curve(g2)),
        costs=CostParams(kappa=kappa, k_min=k_min, k_max=k_max),
    )


# ---------------------------------------------------------------- curves


def test_curve_table_interpolation_and_flat_extension():
    c = Curve.table([0.0, 1.0], [1.0, 3.0])
    assert c(0.5) == 2.0          # midpoint of a linear segment
    assert c(-1.0) == 1.0         # flat below
    assert c(5.0) == 3.0          # flat above
    np.testing.assert_array_equal(c(np.array([0.0, 1.0])), [1.0, 3.0])
    assert c.is_piecewise_linear()
    assert c.upper_bound() == 3.0


def test_curve_saturating_shape():
    # level - scale*exp(-rate*x): 0 at x=0, -> level as x grows
    c = Curve.saturating(level=1.0, rate=5.0, scale=1.0)
    assert c(0.0) == 0.0
    assert c(100.0) == pytest.approx(1.0, abs=1e-12)
    assert c.upper_bound() == 1.0
    assert not c.is_piecewise_linear()
    with pytest.raises(ValueError):
        Curve.saturating(level=1.0, rate=-2.0)


def test_curve_saturating_far_off_the_grid_does_not_warn():
    # rate * q overflows for a finite q of 1e308; exp(-inf) = 0 gives the
    # level, and exp(+inf) gives -inf, with no RuntimeWarning
    c = Curve.saturating(level=1.0, rate=5.0, scale=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = c(np.array([1e308, 1.7e308, -1e308]))
        assert c(1e308) == 1.0
    np.testing.assert_array_equal(out, [1.0, 1.0, -np.inf])


def test_curve_constant():
    c = Curve.constant(0.3)
    assert c(-7.0) == 0.3 and c(12.0) == 0.3
    assert c.is_piecewise_linear()
    assert c.breakpoints().size == 0  # no kinks anywhere


def test_curve_values_are_float64_for_every_kind():
    # integer fields are stored as floats, so no caller converts a curve's
    # values: a constant of 1 gives 1.0, not the integer 1
    for c in (Curve("constant", value=1), Curve("saturating", level=1, rate=2, scale=1),
              Curve("table", x=[0, 1], y=[0, 2])):
        assert c(np.arange(3.0)).dtype == np.float64
        assert type(c(0.5)) is float
    assert Curve("constant", value=1).to_dict() == {"kind": "constant", "value": 1.0}


_CURVE_DICTS = {  # the to_dict of each curve below, by kind
    "constant": {"kind": "constant", "value": 0.25},
    "table": {"kind": "table", "x": [0.0, 0.5, 2.0], "y": [0.9, 0.55, 0.08]},
    "saturating": {"kind": "saturating", "level": 0.5, "rate": 1.0, "scale": 0.5},
}


@pytest.mark.parametrize("curve", [
    Curve.constant(0.25),
    Curve.table([0.0, 0.5, 2.0], [0.9, 0.55, 0.08]),
    Curve.saturating(level=0.5, rate=1.0, scale=0.5),
])
def test_curve_json_round_trip(curve):
    # the dict is what the spec JSON and the config hash hold, every
    # number a Python float
    d = curve.to_dict()
    assert d == _CURVE_DICTS[curve.kind]
    numbers = [w for key, v in d.items() if key != "kind"
               for w in (v if isinstance(v, list) else [v])]
    assert all(type(w) is float for w in numbers)
    back = Curve.from_dict(json.loads(json.dumps(d)))
    probe = np.linspace(-1.0, 3.0, 17)
    np.testing.assert_array_equal(back(probe), curve(probe))


# ------------------------------------------------------- coefficients


def test_drift_hand_value():
    # (c1 - x) lambda + mu x = (1 - 0.5)*2 + 0.1*0.5 = 1.05
    spec = make_spec(lam=2.0, mu=0.1)
    assert drift(0.3, 0.5, spec) == 1.05


def test_diffusion_hand_value():
    # sigma * x = 0.2 * 1.5 = 0.3
    spec = make_spec(sigma=0.2)
    assert diffusion(0.0, 1.5, spec) == pytest.approx(0.3, rel=1e-15)


def test_drift_vectorized():
    spec = make_spec(lam=2.0, mu=0.1)
    x = np.array([0.5, 1.0])
    np.testing.assert_allclose(drift(0.0, x, spec),
                               (1.0 - x) * 2.0 + 0.1 * x, rtol=1e-15)


# ------------------------------------------------ hazard and survival


def test_cumulative_hazard_constant():
    # integral of 0.1 over windows of length 0, 1 and 2 from t0 = 1
    beta = Curve.constant(0.1)
    assert hazard_grid(beta, 1.0, [1.0, 2.0, 3.0]).tolist() == [0.0, 0.1, 0.2]
    assert survival_grid(make_spec(beta=0.1), 1.0, [3.0])[0] == math.exp(-0.2)


def test_cumulative_hazard_linear_exact():
    # beta(s) = s: integral over [0,1] = 1/2, over [0.25, 0.75] = 1/4;
    # trapezoid on the breakpoint-refined partition is exact for PL data
    beta = Curve.table([0.0, 1.0], [0.0, 1.0])
    assert hazard_grid(beta, 0.0, [1.0])[0] == 0.5
    assert hazard_grid(beta, 0.25, [0.75])[0] == 0.25


def test_cumulative_hazard_kinked():
    # table (0,0.2) (1,0.4) (2,0.3): trapezoids 0.3 + 0.35 = 0.65, and the
    # first 0.3 at the kink
    beta = Curve.table([0.0, 1.0, 2.0], [0.2, 0.4, 0.3])
    np.testing.assert_allclose(hazard_grid(beta, 0.0, [1.0, 2.0]), [0.3, 0.65], rtol=0,
                               atol=1e-15)


def test_survival_multiplicative():
    spec = geometric_spec()
    for (t, s, u) in [(0.0, 0.35, 1.0), (0.1, 0.6, 0.9), (0.0, 0.5, 0.5)]:
        lhs = survival_grid(spec, t, [s])[0] * survival_grid(spec, s, [u])[0]
        assert lhs == pytest.approx(survival_grid(spec, t, [u])[0], abs=1e-12)


def test_invert_hazard_constant():
    # beta=0.5 from t0=0: Lambda(t)=0.5 t, so target 0.25 -> t=0.5;
    # total hazard over [0,1] is 0.5, so target 10 never clears -> inf
    beta = Curve.constant(0.5)
    out = invert_hazard(beta, 0.0, np.array([0.25, 10.0]), 1.0)
    assert out[0] == pytest.approx(0.5, abs=1e-14)
    assert out[1] == math.inf


def test_invert_hazard_linear_branch():
    # beta(s)=s: Lambda(t)=t^2/2; target 0.5 -> t=1 via the stable
    # quadratic branch delta = 2 rem / (a + sqrt(a^2 + 2 b rem))
    beta = Curve.table([0.0, 2.0], [0.0, 2.0])
    out = invert_hazard(beta, 0.0, np.array([0.5]), 2.0)
    assert out[0] == pytest.approx(1.0, abs=1e-14)


def test_invert_hazard_round_trip_random():
    rng = np.random.default_rng(42)
    knots = np.sort(rng.uniform(0.0, 2.0, 5))
    knots[0] = 0.0
    beta = Curve.table(knots, rng.uniform(0.05, 1.0, 5))
    total = hazard_grid(beta, 0.0, [2.0])[0]
    targets = rng.uniform(0.0, total * 0.999, 50)
    times = invert_hazard(beta, 0.0, targets, 2.0)
    back = hazard_grid(beta, 0.0, times)
    np.testing.assert_allclose(back, targets, atol=1e-10)


# ------------------------------------------------------- cost kernels


def test_injection_cost_subadditivity_dyadic():
    # cost(k1+k2) + kappa == cost(k1) + cost(k2); on dyadic inputs both
    # sides are exactly representable, so equality is bitwise
    costs = CostParams(kappa=0.0625, k_min=0.0625, k_max=1.0)
    rng = np.random.default_rng(7)
    n = rng.integers(4096, 65536, size=(100, 2))
    k = n.astype(float) / 65536.0
    lhs = injection_cost(k[:, 0] + k[:, 1], costs) + costs.kappa
    rhs = injection_cost(k[:, 0], costs) + injection_cost(k[:, 1], costs)
    assert np.array_equal(lhs, rhs)


# ---------------------------------------------------------- validation


def test_sorted_distinct_matches_np_unique():
    # finite input with repeats and both signed zeros, 0-d, 1-d and 2-d
    rng = np.random.default_rng(8)
    cases = [np.empty(0), np.array(2.5), np.array([0.0, -0.0, 0.0]), np.ones((3, 4))]
    for _ in range(200):
        pool = np.concatenate((rng.normal(size=5), [0.0, -0.0]))
        cases.append(rng.choice(pool, size=int(rng.integers(1, 40))))
    for a in cases:
        assert _sorted_distinct(a).tobytes() == np.unique(a).tobytes()


def test_sampled_lipschitz_abs():
    pts = np.linspace(0.0, 2.0, 401)
    L, pair = sampled_lipschitz(lambda x: np.abs(x - 1.0), pts)
    assert L == pytest.approx(1.0, abs=1e-12)
    assert pair[0] < pair[1]


def test_sampled_lipschitz_saturating():
    # steepest slope of 1 - e^{-5x} on [0, 2] is 5 at x=0
    c = Curve.saturating(level=1.0, rate=5.0, scale=1.0)
    L, pair = sampled_lipschitz(c, np.linspace(0.0, 2.0, 2001))
    assert 4.5 <= L <= 5.0
    assert pair[0] == 0.0  # steepest quotient anchored at the left edge


def test_sampled_lipschitz_matches_pairwise_brute_force():
    # the adjacent-difference pass finds the max over all pairs, up to the
    # rounding of the wide pairs' own quotients
    rng = np.random.default_rng(31)
    for trial in range(200):
        pts = np.unique(rng.uniform(-3.0, 3.0) + rng.uniform(0.0, 4.0, rng.integers(2, 60)))
        a, b = rng.normal(size=2) * 10.0 ** rng.uniform(-3.0, 3.0, 2)
        fn = [lambda x: a * x + b, lambda x: np.full_like(x, b),
              lambda x: np.sin(a * x) + b * x * x][trial % 3]
        L, pair = sampled_lipschitz(fn, pts)
        vals = fn(pts)
        iu = np.triu_indices(pts.size, k=1)
        brute = np.max(np.abs(vals[iu[0]] - vals[iu[1]]) / (pts[iu[1]] - pts[iu[0]]))
        assert abs(L - brute) <= np.spacing(max(L, brute)), (trial, L, brute)
        assert pair[0] < pair[1]
        if trial % 3 == 1:
            assert L == 0.0


@pytest.mark.parametrize("spec_fn,name", [
    (closed_form_spec, "closed-form"),
    (intervention_spec, "intervention"),
    (geometric_spec, "geometric"),
    (zero_spec, "zero"),
])
def test_validate_fixtures_pass(spec_fn, name):
    spec = spec_fn()
    grid = suggested_grid(name)
    rep = validate(spec, grid.x_nodes())
    assert rep.passed, [e.name for e in rep.failures()]


def test_validate_no_terminal_impulse_margin():
    # g1 with slope exactly 1: g1(x+K) - (K + kappa) = g1(x) - kappa
    # at every probe, so the worst margin equals kappa
    spec = make_spec(g1=Curve.table([0.0, 10.0], [0.0, 10.0]), kappa=0.05)
    rep = validate(spec, np.linspace(0.1, 4.0, 101))
    e = rep.entry("no_terminal_impulse")
    assert e.passed
    assert e.value == pytest.approx(0.05, abs=1e-12)


def test_validate_terminal_impulse_profitable_fails():
    # slope-2 terminal utility: jumping K gains 2K - K - kappa > 0
    spec = make_spec(g1=Curve.table([0.0, 10.0], [0.0, 20.0]), kappa=0.05)
    rep = validate(spec, np.linspace(0.1, 4.0, 101))
    assert not rep.entry("no_terminal_impulse").passed
    assert not rep.passed


def test_validate_probes_g1_knots_beyond_the_grid_nodes():
    # g1's last segment rises with slope 82, between two nodes of a 7-node
    # grid: at the knot 0.9661 a jump past 0.9991 gains about 2.39.  The
    # nodes alone miss it, so admissibility depended on n_x; the knots and
    # the knots minus k_min and k_max are probed too
    spec = make_spec(c1=0.0, T=0.0808, lam=0.0, mu=-14.25, sigma=0.155, beta=1.776,
                     f=0.8496, g1=Curve.table([0.4647, 0.9661, 0.9991], [-1.787, -1.392, 1.310]),
                     g2=Curve.table([1.0965, 1.1514], [0.472, 0.857]),
                     kappa=0.2793, k_min=0.00121, k_max=0.0357)
    nodes = Grid(0.43802, 1.28287, 7, 8).x_nodes()
    e = validate(spec, nodes).entry("no_terminal_impulse")
    assert not e.passed
    assert e.worst_point == (0.9661,) and e.value < -2.0
    # a probe range below every knot probes no knot
    assert validate(spec, nodes[:1] * [1.0, 1.01]).entry("no_terminal_impulse").passed


def test_validate_finds_a_terminal_impulse_between_k_samples():
    # a 0.002-wide tent at 1.114: from x = 1, K = 0.114 lands on its top
    # and gains 1 - 0.114 - 0.05 over g1(1) = -1.  A 33-point K sample of
    # [0.1, 1] steps over it (margin +0.15); the exact sup does not
    g1 = Curve.table([0, 0.999, 1, 1.001, 1.049, 1.05, 1.113, 1.114, 1.115, 10],
                     [0, 0, -1, 0, 0, -1, -1, 0, -1, -1])
    e = validate(make_spec(g1=g1), np.linspace(0.1, 4.0, 40)).entry("no_terminal_impulse")
    assert not e.passed
    assert e.value == pytest.approx(-0.836, abs=1e-12) and e.worst_point == (1.0,)


_g1_curves = st.one_of(
    st.builds(Curve.saturating, st.floats(-2.0, 2.0), st.floats(0.1, 5.0), st.floats(0.1, 2.0)),
    st.integers(2, 6).flatmap(lambda n: st.builds(
        lambda xs, ys: Curve.table(sorted(xs), ys),
        st.lists(st.floats(0.0, 4.0), min_size=n, max_size=n, unique=True),
        st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))))


@settings(max_examples=150, deadline=None)
@given(g1=_g1_curves, kappa=st.floats(0.001, 0.5), k_min=st.floats(0.01, 1.0),
       width=st.floats(0.01, 2.0), lo=st.floats(0.01, 1.0), span=st.floats(0.1, 4.0),
       n=st.integers(2, 30))
def test_no_terminal_impulse_margin_is_the_exact_sup(g1, kappa, k_min, width, lo, span, n):
    # against a dense K scan at the same x: the exact sup is never below the
    # scan's max, so the margin is never above the scan's beyond rounding,
    # and never below it by more than the gain's slope times the spacing
    k_max = k_min + width
    spec = make_spec(g1=g1, kappa=kappa, k_min=k_min, k_max=k_max)
    if g1.kind == "saturating":
        tops, slope = np.array([math.log(g1.scale * g1.rate) / g1.rate]), g1.scale * g1.rate
    else:
        with np.errstate(over="ignore"):  # knots may lie closer than any slope's reach
            tops, slope = g1.x, float(np.max(np.abs(np.diff(g1.y) / np.diff(g1.x))))
    xs = np.concatenate([np.linspace(lo, lo + span, n), tops, tops - k_min, tops - k_max])
    xs = _sorted_distinct(xs[(xs >= lo) & (xs <= lo + span)])
    e = validate(spec, xs).entry("no_terminal_impulse")
    ks = np.linspace(k_min, k_max, 4001)
    scan = float(np.min(g1(xs) - np.max(g1(xs[:, None] + ks) - ks - kappa, axis=1)))
    assert e.value <= scan + 1e-12 * (1.0 + slope)
    assert e.value >= scan - (1.0 + slope) * (k_max - k_min) / 4000 - 1e-12


def test_validate_negative_hazard_fails():
    spec = make_spec(beta=Curve.table([0.0, 1.0], [0.2, -0.1]))
    rep = validate(spec, np.linspace(0.1, 2.0, 51))
    assert not rep.entry("hazard_nonnegative").passed


def test_validation_report_round_trip():
    spec = intervention_spec()
    rep = validate(spec, np.linspace(0.1, 4.0, 51))
    d = rep._asdict()
    assert rep.passed is True
    assert {e._asdict()["name"] for e in d["entries"]} >= {
        "lipschitz_lambda", "lipschitz_f", "no_terminal_impulse",
        "hazard_nonnegative", "ellipticity_proxy"}


# --------------------------------------------------------- spec plumbing


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_specs_load_from_their_dicts(name):
    # every key a fixture writes is one that from_dict reads
    spec = get_fixture(name)
    back = ModelSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert back.sha256() == spec.sha256()


def test_fixture_lookups_agree_on_the_names():
    # the three lookups read one table: each known name has a spec, a grid
    # and a reference entry (closed-form alone has an exact value), and an
    # unknown name raises the same KeyError, naming the known ones, from each
    for name in FIXTURES:
        assert isinstance(get_fixture(name), ModelSpec)
        assert isinstance(suggested_grid(name), Grid)
    assert [name for name in FIXTURES if fixture_reference(name) is not None] == ["closed-form"]
    errors = []
    for lookup in (get_fixture, suggested_grid, fixture_reference):
        with pytest.raises(KeyError) as exc:
            lookup("bogus")
        errors.append(exc.value.args)
    assert errors == [(f"unknown fixture 'bogus'; known: {sorted(FIXTURES)}",)] * 3


def test_model_spec_json_round_trip(tmp_path):
    spec = intervention_spec()
    p = tmp_path / "spec.json"
    spec.to_json(p)
    back = ModelSpec.from_json(p)
    assert back.to_dict() == spec.to_dict()
    probe = np.linspace(0.0, 4.0, 33)
    np.testing.assert_array_equal(back.utilities.g2(probe),
                                  spec.utilities.g2(probe))
    np.testing.assert_array_equal(back.beta(np.linspace(0, spec.T, 9)),
                                  spec.beta(np.linspace(0, spec.T, 9)))


def test_cost_params_invariants():
    with pytest.raises(ValueError):
        CostParams(kappa=0.0, k_min=0.1, k_max=1.0)
    with pytest.raises(ValueError):
        CostParams(kappa=0.1, k_min=0.0, k_max=1.0)
    with pytest.raises(ValueError):
        CostParams(kappa=0.1, k_min=1.5, k_max=1.0)


def test_model_spec_invariants():
    with pytest.raises(ValueError):
        make_spec(c1=1.5)
    with pytest.raises(ValueError):
        make_spec(T=0.0)
    with pytest.raises(ValueError):
        # time curves must be piecewise linear for exact quadrature
        make_spec(beta=Curve.saturating(level=0.5, rate=1.0, scale=0.5))


# ---------------------------------------------------------- record types


def test_array_holding_specs_compare_by_identity_and_hash():
    # two builds of a table curve, of a fixture spec or of a schedule are
    # distinct objects: == is identity, not a field-wise comparison of
    # arrays that has no truth value, and each hashes into a set; the
    # value comparison of two specs is their sha256()
    for build in (lambda: Curve.table([0, 1], [0, 1]), geometric_spec,
                  lambda: ImpulseSchedule([0.5], [0.2])):
        a, b = build(), build()
        assert a == a and a != b
        assert len({a, b, a}) == 2
    assert geometric_spec().sha256() == geometric_spec().sha256()
    # Grid and CostParams keep value equality: together they key a cache
    assert Grid(0.1, 2.1, 21, 10) == Grid(0.1, 2.1, 21, 10)
    assert hash(CostParams(0.05, 0.1, 1.0)) == hash(CostParams(0.05, 0.1, 1.0))


def test_only_validating_types_are_dataclasses():
    # a dataclass compiles its generated methods at every import, so a
    # record that only carries values is a NamedTuple, and a dataclass is
    # kept only where its __post_init__ validates
    modules = [importlib.import_module(f"impulse_qvi.{m.name}")
               for m in pkgutil.iter_modules(impulse_qvi.__path__)]
    classes = [v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__ == m.__name__]
    kept = [c for c in classes if dataclasses.is_dataclass(c)]
    assert all("__post_init__" in vars(c) for c in kept)
    assert {c.__name__ for c in kept} == {"Grid", "CostParams", "Curve", "ModelSpec",
                                         "ImpulseSchedule"}
