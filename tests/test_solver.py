"""Scheme correctness: decoupled-row oracles, a banded-solver reference for
the implicit step, impulse-operator brute force, the closed-form solve,
region labeling, and ordering properties.  SciPy serves only as a
reference; the comparisons that need it skip without it."""

import ctypes
import itertools
import math
import pathlib
import tempfile
import tracemalloc
import warnings
from collections import deque
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, example, given, settings, strategies as st

from impulse_qvi.diagnostics import convergence_study, dpp_residual
from impulse_qvi.fixtures import (FIXTURES, closed_form_spec, closed_form_value,
                                  fixture_reference, geometric_spec,
                                  get_fixture, intervention_spec,
                                  suggested_grid, zero_spec)
from impulse_qvi.model import (CostParams, Curve, UtilitySpec, diffusion, drift,
                               injection_cost)
from impulse_qvi import solver
from impulse_qvi.solver import (Grid, NumericalError, SolveResult, ValueSurface, _StepPlan,
                                _eliminate, _impulse_plan, _label_components,
                                _projection_certified, _sweep,
                                _window_argmax, impulse_max,
                                interp_extended, pde_step, read_surface_csv,
                                solve, value_bounds, write_boundary_csv,
                                write_policy_csv, write_surface_csv)

from test_model import make_spec


# ------------------------------------------------------------- stencil


def test_pde_step_decoupled_source_and_discount():
    # sigma = lambda = mu = 0 decouples the rows: one implicit step from a
    # constant slice c gives (c/dt + f - beta g2) / (1/dt + beta) at every
    # node; T=1, n_t=10 so dt=0.1
    spec = make_spec(lam=0.0, mu=0.0, sigma=0.0, beta=0.5, f=1.5, g2=0.2, T=1.0)
    grid = Grid(0.1, 2.1, 21, 10)
    c = 2.0
    v = pde_step(np.full(21, c), 0.4, grid, spec)
    expected = (c / 0.1 + (1.5 - 0.5 * 0.2)) / (1.0 / 0.1 + 0.5)
    np.testing.assert_allclose(v, expected, rtol=1e-13)


def test_pde_step_preserves_constants():
    # diffusion and upwinded drift rows sum to 1/dt + beta, so constants
    # stay constant when f = beta = 0
    spec = make_spec(lam=0.0, mu=0.1, sigma=0.3, beta=0.0, f=0.0, T=1.0)
    grid = Grid(0.1, 2.1, 41, 20)
    v = pde_step(np.full(41, 0.7), 0.3, grid, spec)
    np.testing.assert_allclose(v, 0.7, rtol=1e-13)


def _assemble_reference(v_next, t, grid, spec):
    """The implicit step's tridiagonal system, from the model's drift and
    diffusion: (sub-, main and superdiagonal in LAPACK's dl, d, du layout,
    right-hand side)."""
    dt = spec.T / grid.n_t
    x, h = grid.x_nodes(), grid.h
    mu = np.asarray(drift(t, x, spec), dtype=float)
    sig = np.asarray(diffusion(t, x, spec), dtype=float)
    beta_t = float(spec.beta(t))
    dcoef = 0.5 * sig**2 / h**2
    up = np.maximum(mu, 0.0) / h
    dn = np.maximum(-mu, 0.0) / h
    lower, upper = -(dcoef + dn), -(dcoef + up)
    diag = 1.0 / dt + beta_t + 2.0 * dcoef + up + dn
    diag[0] = 1.0 / dt + beta_t + up[0]
    upper[0] = -up[0]
    diag[-1] = 1.0 / dt + beta_t + dcoef[-1] + dn[-1]
    lower[-1] = -(dcoef[-1] + dn[-1])
    u = spec.utilities
    rhs = v_next / dt + np.asarray(u.f(x), dtype=float) - beta_t * np.asarray(u.g2(x), dtype=float)
    return lower[1:], diag, upper[:-1], rhs


def _pde_step_reference(v_next, t, grid, spec):
    """The implicit step assembled into LAPACK band storage and solved by
    scipy.linalg.solve_banded (LAPACK dgtsv, with row interchanges)."""
    pytest.importorskip("scipy")
    from scipy.linalg import solve_banded

    dl, d, du, rhs = _assemble_reference(v_next, t, grid, spec)
    ab = np.zeros((3, d.size))
    ab[0, 1:] = du
    ab[1] = d
    ab[2, :-1] = dl
    return solve_banded((1, 1), ab, rhs)


def _would_interchange(dl, d, du):
    """Whether dgtsv would swap rows: some pivot |d'_i| < |dl_i|."""
    piv = float(d[0])
    for i in range(dl.size):
        if abs(piv) < abs(dl[i]):
            return True
        piv = d[i + 1] - dl[i] / piv * du[i]
    return False


def _recurring_beta_case():
    """beta flat at 0.3 on [0.6, 1], a ramp up to 0.5 and back down over
    [0.2, 0.6] (its own triple at each of 79 steps), then flat at 0.3
    again on [0, 0.2]: the sweep's first triple recurs after more than one
    block of other runs."""
    beta = Curve.table([0.0, 0.2, 0.4, 0.6], [0.3, 0.3, 0.5, 0.3])
    spec = make_spec(beta=beta, g1=Curve.saturating(1.0, 2.0), g2=0.5)
    return spec, Grid(0.1, 2.1, 41, 200)


def _step_blocks(grid, spec):
    """A sweep's step times, t_nodes[n_t - 1] down to t_nodes[0], in the
    arrays of at most _StepPlan._BLOCK that a plan takes."""
    times = grid.t_nodes(spec.T)[-2::-1]
    return [times[k:k + _StepPlan._BLOCK] for k in range(0, times.size, _StepPlan._BLOCK)]


def _both_substitutions(grid, spec):
    """Two plans for a sweep's step times: one that solves with dgttrs
    wherever numpy's LAPACK binds, and one built while the binding reads
    as absent, so it keeps the Python substitution."""
    plan = _StepPlan(grid, spec, _step_blocks(grid, spec))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_dgttrs", lambda: None)
        fallback = _StepPlan(grid, spec, _step_blocks(grid, spec))
    assert type(fallback._sub) is solver._PythonSubstitution
    expected = solver._PythonSubstitution if solver._dgttrs() is None else solver._Dgttrs
    assert type(plan._sub) is expected
    return plan, fallback


def test_dgttrs_binds_from_numpy_wheel():
    # where numpy's wheel ships its OpenBLAS, dgttrs binds and passes the
    # bitwise self-check; a build without that library takes the fallback
    libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    if not any(libs.glob("libscipy_openblas64_*")):
        pytest.skip("numpy was not installed from a wheel that ships OpenBLAS")
    assert solver._dgttrs() is not None


def _fake_dgttrs(fused=False, du2_term=True):
    """A stand-in for dgttrs in Python, with its argument list, running its
    no-interchange substitution (LAPACK dgtts2) on the arrays behind the
    pointers: with every multiply-subtract rounded once (fused, taken in
    exact rationals) or with the DU2 term dropped, as a build that
    contracts or simplifies the Fortran would."""
    def msub(c, a, b):  # c - a * b
        return float(Fraction(c) - Fraction(a) * Fraction(b)) if fused else c - a * b

    def fn(trans, n, nrhs, dl, d, du, du2, ipiv, b, ldb, info, trans_len):
        n = n._obj.value
        view = lambda p, k: np.ctypeslib.as_array((ctypes.c_double * k).from_address(p.value))
        dl, d, du, x = view(dl, n - 1), view(d, n), view(du, n - 1), view(b, n)
        for i in range(n - 1):
            x[i + 1] = msub(x[i + 1], dl[i], x[i])
        x[n - 1] = x[n - 1] / d[n - 1]
        x[n - 2] = msub(x[n - 2], du[n - 2], x[n - 1]) / d[n - 2]
        for i in range(n - 3, -1, -1):
            y = msub(x[i], du[i], x[i + 1])
            x[i] = (msub(y, 0.0, x[i + 2]) if du2_term else y) / d[i]
        info._obj.value = 0
    return fn


def test_dgttrs_self_check_rejects_fused_or_simplified_builds():
    # the probe system tells the exact substitution from one whose
    # multiply-adds are fused or whose zero DU2 term is dropped
    assert solver._substitutions_agree(_fake_dgttrs())
    assert not solver._substitutions_agree(_fake_dgttrs(fused=True))
    assert not solver._substitutions_agree(_fake_dgttrs(du2_term=False))


def test_dgttrs_nonzero_info_raises():
    # dgttrs rejecting an argument raises; it never falls back silently
    if solver._dgttrs() is None:
        pytest.skip("numpy's LAPACK does not bind here")
    spec, grid = intervention_spec(), suggested_grid("intervention")
    plan = _StepPlan(grid, spec, [np.array([0.5])])
    v = np.asarray(spec.utilities.g1(grid.x_nodes()), dtype=float)
    next(plan.times)
    plan.step(v, 0.5)
    plan._sub._n.value = -1  # N < 0
    with pytest.raises(RuntimeError, match="dgttrs rejected argument 2"):
        plan.step(v, 0.5)


def _run_lengths(spec, times):
    """Lengths of the runs of consecutive step times whose triple
    (mu_tilde, sigma_tilde, beta) keeps its bits, in sweep order."""
    bits = np.stack([c(times) for c in (spec.mu_tilde, spec.sigma_tilde, spec.beta)],
                    axis=1).view(np.uint64)
    starts = np.flatnonzero(np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)])
    return np.diff(np.r_[starts, len(times)]).tolist()


@pytest.mark.parametrize("name", ["closed-form", "intervention", "geometric", "zero",
                                  "recurring-beta"])
def test_pde_step_matches_banded_reference(name):
    # every step of the grid, chained down from the terminal slice through
    # one sweep's plan (as solve runs them): bit for bit the step a fresh
    # plan takes and the step of the Python substitution, then bit for bit
    # the banded reference.  The plan factors each run once, one that
    # spans blocks included: closed-form is one run longer than a block,
    # geometric a run per step, and recurring-beta's first run of 80 steps
    # goes on into the second block
    if name == "recurring-beta":
        spec, grid = _recurring_beta_case()
    else:
        spec, grid = get_fixture(name), suggested_grid(name)
    tn = grid.t_nodes(spec.T)
    plan, fallback = _both_substitutions(grid, spec)
    runs = _run_lengths(spec, tn[-2::-1])
    assert {"closed-form": runs == [grid.n_t] and grid.n_t > _StepPlan._BLOCK,
            "geometric": runs == [1] * grid.n_t,
            "recurring-beta": runs[0] > _StepPlan._BLOCK}.get(name, True), runs
    if name == "recurring-beta":
        # more runs than one block, and the first step's triple recurs at the last
        ends = tn[[-2, 0]]
        triples = np.array([c(ends) for c in (spec.mu_tilde, spec.sigma_tilde, spec.beta)])
        assert len(runs) > _StepPlan._BLOCK and triples[:, 0].tobytes() == triples[:, 1].tobytes()
    factored = []
    factor = plan._factor
    plan._factor = lambda coef: factored.append(coef.shape[1]) or factor(coef)
    v = np.asarray(spec.utilities.g1(grid.x_nodes()), dtype=float)
    steps = []
    for j, t, t_fallback in zip(range(grid.n_t - 1, -1, -1), plan.times, fallback.times):
        assert t == t_fallback == tn[j]
        got = pde_step(v, t, grid, spec, plan)
        assert got.tobytes() == pde_step(v, t, grid, spec).tobytes(), (name, j)
        assert got.tobytes() == fallback.step(v, t).tobytes(), (name, j)
        steps.append((j, v, got))
        v = got
    assert sum(factored) == len(runs) and max(factored) <= _StepPlan._BLOCK, factored
    for j, v_next, got in steps:
        assert got.tobytes() == _pde_step_reference(v_next, tn[j], grid, spec).tobytes(), (name, j)


@pytest.mark.parametrize("name", ["closed-form", "intervention", "geometric", "zero"])
def test_standalone_pde_step_off_node_matches_banded_reference(name):
    # a step with no plan, at a time between two nodes, builds its own
    # plan for that time alone: bit for bit the banded reference
    spec, grid = get_fixture(name), suggested_grid(name)
    t = 0.3141 * spec.T
    assert t not in grid.t_nodes(spec.T)
    v = np.asarray(spec.utilities.g1(grid.x_nodes()), dtype=float)
    assert pde_step(v, t, grid, spec).tobytes() == _pde_step_reference(v, t, grid, spec).tobytes()


def test_step_plan_steps_at_the_time_it_gave_last():
    # plan.times gives the step times in the order given; a step at any
    # other time than the one it gave last, or before it gave one, raises
    spec, grid = geometric_spec(), Grid(0.1, 2.1, 21, 4)
    v = np.asarray(spec.utilities.g1(grid.x_nodes()), dtype=float)
    plan = _StepPlan(grid, spec, [np.array([0.75, 0.5])])
    with pytest.raises(ValueError, match="not the step time that the plan gave last"):
        plan.step(v, 0.75)
    assert next(plan.times) == 0.75
    plan.step(v, 0.75)
    with pytest.raises(ValueError, match="not the step time that the plan gave last"):
        plan.step(v, 0.5)
    assert next(plan.times) == 0.5
    plan.step(v, 0.5)
    assert next(plan.times, None) is None


@settings(max_examples=200, deadline=None)
@given(n_t=st.integers(1, 5000), T=st.floats(1e-3, 1e3))
@example(n_t=25_600, T=1.0)           # the finest level of a 7-level ladder from 400
@example(n_t=102_401, T=math.pi)      # large and odd, with a non-dyadic horizon
@example(n_t=35, T=0.7)
@example(n_t=3, T=1.0 / 3.0)
@example(n_t=49, T=1.0)               # 49 * (1 / 49) is not 1
def test_t_node_is_linspace_bit_for_bit(n_t, T):
    # the one statement of node j's time is np.linspace's node j, for every
    # node at once (t_nodes) and for a node alone
    grid = Grid(0.1, 2.1, 5, n_t)
    tn = np.linspace(0.0, T, n_t + 1)
    assert grid.t_nodes(T).tobytes() == tn.tobytes()
    ends = [0, n_t // 2, n_t - 1, n_t]
    assert np.array([grid.t_node(j, T) for j in ends]).tobytes() == tn[ends].tobytes()


@pytest.mark.parametrize("n_t, T", [(1, 1.0), (63, 0.7), (64, 1.0), (65, math.pi),
                                    (129, 1.0 / 3.0), (1001, 2.0)])
def test_sweep_slices_carry_t_nodes(n_t, T):
    # the sweep takes its step times a block at a time: each slice carries
    # its node's time, bit for bit t_nodes(T)[j], across the block edges
    spec, grid = replace(closed_form_spec(), T=T), Grid(0.1, 2.1, 5, n_t)
    _, slices = _sweep(spec, grid, 1e-9)
    js, ts = zip(*((j, t) for j, t, _, _, _ in slices))
    assert js == tuple(range(n_t, -1, -1))
    assert np.array(ts).tobytes() == grid.t_nodes(T)[::-1].tobytes()


def test_pde_step_signed_zeros_match_banded_reference():
    # dgtsv's back substitution subtracts 0 * x[i+2]: it turns a -0.0
    # result into +0.0 when x[i+2] is negative.  Slices of signed zeros and
    # ones with f = -0.0 reach that case, coupled rows and decoupled ones
    grid = Grid(0.5, 1.5, 5, 1)
    for sigma, lam in ((0.0, 0.0), (0.3, 0.5)):
        for f in (0.0, -0.0):
            spec = make_spec(lam=lam, mu=0.0, sigma=sigma, beta=0.0, f=f, c1=1.0)
            for v in itertools.product((-0.0, 0.0, -1.0, 1.0), repeat=5):
                v = np.array(v)
                got = pde_step(v, 0.0, grid, spec)
                assert got.tobytes() == _pde_step_reference(v, 0.0, grid, spec).tobytes(), v


def _time_curve(lo, hi):
    """A constant or a table curve with values in [lo, hi]."""
    values = st.floats(lo, hi, allow_subnormal=False)
    table = st.lists(values, min_size=2, max_size=4).flatmap(
        lambda ys: st.lists(st.floats(0.0, 4.0), min_size=len(ys), max_size=len(ys),
                            unique=True).map(lambda xs: Curve.table(sorted(xs), ys)))
    return st.one_of(values.map(Curve.constant), table)


def _state_curve(lo, hi):
    saturating = st.builds(Curve.saturating, st.floats(lo, hi), st.floats(0.1, 5.0),
                           st.floats(0.1, 2.0))
    return st.one_of(_time_curve(lo, hi), saturating)


_specs = st.builds(
    lambda c1, T, lam, mu, sig, beta, f, g1, g2: make_spec(
        c1=c1, T=T, lam=lam, mu=mu, sigma=sig, beta=beta, f=f, g1=g1, g2=g2),
    st.floats(0.0, 1.0), st.floats(0.05, 5.0), _time_curve(0.0, 3.0),
    _time_curve(-1.0, 1.0), _time_curve(0.0, 3.0), _time_curve(0.0, 2.0),
    _state_curve(-2.0, 2.0), _state_curve(-2.0, 2.0), _state_curve(-2.0, 2.0))

_grids = st.builds(lambda lo, width, n_x, n_t: Grid(lo, lo + width, n_x, n_t),
                   st.floats(0.01, 1.0), st.floats(0.1, 5.0),
                   st.integers(3, 40), st.integers(1, 12))


# grids 1e-12 to 1e-6 wide: cells far below any fixture's, where a pivot's
# rounding error can exceed c itself
_tiny_grids = st.builds(lambda lo, width, n_x: Grid(lo, lo + width, n_x, 1),
                        st.floats(0.01, 1.0), st.floats(1e-12, 1e-6), st.integers(3, 40))


def _assembled_rows(spec, grid):
    """The step rows of the runs that start in a sweep's first block of
    steps, as _StepPlan assembles them, before elimination, with the
    pivots elimination gives them and c = 1/dt + beta per run (columns)."""
    rows = []

    def capture(lower, diag, upper):
        rows.extend((lower.copy(), diag.copy(), upper.copy()))
        fact = _eliminate(lower, diag, upper)
        rows.append(diag.copy())
        return fact

    times = grid.t_nodes(spec.T)[-2::-1]
    plan = _StepPlan(grid, spec, _step_blocks(grid, spec))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_eliminate", capture)
        next(plan.times)
    starts = np.cumsum([0] + _run_lengths(spec, times[:_StepPlan._BLOCK])[:-1])
    return (*rows, 1.0 / plan.dt + spec.beta(times[starts]))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=_specs, grid=_grids)
# strong outgoing drift at x_min on a one-step grid: a forward difference
# there gave a row with a negative margin
@example(spec=make_spec(lam=6.0, mu=0.0, sigma=0.0, beta=0.0, c1=0.0, T=1.0),
         grid=Grid(0.1, 1.1, 11, 1))
def test_pde_step_dominance_guard(spec, grid):
    # every assembled row, whatever the drift's sign at either end, has
    # nonpositive off-diagonals and margin diag - |lower| - |upper| of at
    # least 1/dt + beta, up to the rounding of diag's sum
    lower, diag, upper, _, c = _assembled_rows(spec, grid)
    event(f"drift(0, x_min) < 0: {drift(0.0, grid.x_min, spec) < 0.0}")
    assert np.all(lower[1:] <= 0.0) and np.all(upper[:-1] <= 0.0)
    margin = diag - np.abs(upper)
    margin[1:] -= np.abs(lower[1:])
    assert np.all(margin >= c - 4 * np.finfo(float).eps * diag)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=_specs, grid=st.one_of(_grids, _tiny_grids))
def test_pde_step_pivot_floor(spec, grid):
    # on random admissible data, on coarse grids or ones down to 1e-12
    # wide, every computed pivot keeps at least half of its exact floor c
    *_, piv, c = _assembled_rows(spec, grid)
    event(f"cell width below 1e-6: {grid.h < 1e-6}")
    assert np.all(piv >= 0.5 * c)


def _solve_exact(dl, d, du, rhs):
    """The tridiagonal system, taken as exact rationals from its floats,
    solved in exact arithmetic (elimination without interchanges)."""
    dl, d, du, b = ([Fraction(float(a)) for a in arr] for arr in (dl, d, du, rhs))
    for i in range(len(dl)):
        f = dl[i] / d[i]
        d[i + 1] -= f * du[i]
        b[i + 1] -= f * b[i]
    x = [b[-1] / d[-1]]
    for i in range(len(d) - 2, -1, -1):
        x.append((b[i] - du[i] * x[-1]) / d[i])
    return np.array([float(v) for v in reversed(x)])


def test_pde_step_pivot_floor_on_tiny_cells():
    # inward drift +0.25 at x_min, sigma = 1.  On a 1e-9-wide grid the step
    # solves the exact rational system of its rows within u times the ratio
    # of diffusion to drift coupling at x_min, 0.5 sigma^2 x^2 / (h mu),
    # about 3e9 (measured: 1.4e-7 relative).  On a 1e-15-wide grid rounding
    # swamps 1/dt + beta, a pivot falls below half of it and the step
    # refuses the cell
    spec = make_spec(c1=0.0, mu=0.5, sigma=1.0, beta=0.0, f=0.0, g1=0.0, g2=0.0)
    v = np.linspace(-1.0, 1.0, 7)
    grid = Grid(0.5, 0.5 + 1e-9, 7, 1)
    assert drift(0.0, grid.x_min, spec) == 0.25
    exact = _solve_exact(*_assemble_reference(v, 0.0, grid, spec))
    ratio = 0.5 * grid.x_min**2 / (grid.h * 0.25)
    np.testing.assert_allclose(pde_step(v, 0.0, grid, spec), exact,
                               rtol=np.finfo(float).eps * ratio)
    with pytest.raises(NumericalError, match="too small for double precision"):
        pde_step(v, 0.0, Grid(0.5, 0.5 + 1e-15, 7, 1), spec)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=_specs, grid=_grids, seed=st.integers(0, 2**32 - 1))
def test_pde_step_random_specs_match_banded_reference(spec, grid, seed):
    # a whole sweep's steps on random admissible data, either drift sign at
    # x_min, each from the same slice as the reference: bitwise the Python
    # substitution's step, bitwise the reference where dgtsv would not
    # interchange rows and within 1e-12 relative where it would; a step
    # never raises
    plan, fallback = _both_substitutions(grid, spec)
    v = np.random.default_rng(seed).uniform(-1.0, 1.0, grid.n_x)
    event(f"drift(0, x_min) < 0: {drift(0.0, grid.x_min, spec) < 0.0}")
    for t, t_fallback in zip(plan.times, fallback.times):
        assert t == t_fallback
        dl, d, du, _ = _assemble_reference(v, t, grid, spec)
        expected = _pde_step_reference(v, t, grid, spec)
        got = pde_step(v, t, grid, spec, plan)
        assert got.tobytes() == fallback.step(v, t).tobytes()
        interchange = _would_interchange(dl, d, du)
        event(f"dgtsv would interchange rows: {interchange}")
        if interchange:
            scale = float(np.max(np.abs(expected)))
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * scale)
        else:
            assert got.tobytes() == expected.tobytes()
        v = got


def test_pde_step_rejects_non_finite_input():
    spec, grid = intervention_spec(), suggested_grid("intervention")
    v = np.asarray(spec.utilities.g1(grid.x_nodes()), dtype=float)
    v[7] = np.nan
    with pytest.raises(ValueError):
        pde_step(v, 0.5, grid, spec)


def test_interp_extended():
    x = np.array([1.0, 2.0, 3.0])
    v = np.array([2.0, 3.0, 10.0])
    # linear continuation below the grid with the first cell's slope
    assert interp_extended(x, v, 0.0) == pytest.approx(1.0, abs=1e-14)
    # flat above
    assert interp_extended(x, v, 9.0) == 10.0
    assert interp_extended(x, v, 2.5) == pytest.approx(6.5, abs=1e-14)


def test_nearest_node_clips_finite_states_far_off_the_grid():
    # the quotient (y - x_min) / h overflows to +-inf, silently, and clips
    grid = Grid(0.1, 4.1, 81, 40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nodes = grid.nearest_node(np.array([1e308, -1e308, 1.7e308, -1.7e308]))
    np.testing.assert_array_equal(nodes, [grid.n_x - 1, 0, grid.n_x - 1, 0])


@settings(max_examples=200, deadline=None)
@given(grid=_grids, data=st.data())
def test_nearest_node_is_the_clipped_rounding(grid, data):
    # the same ints as np.clip(np.rint(q), 0, n_x - 1), on states on and
    # off the grid, half-node ties, +-inf, NaN and 1e308 among them
    x = grid.x_nodes()
    ties = (x[:-1] + 0.5 * grid.h).tolist()
    y = np.array(data.draw(st.lists(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(grid.x_min - 2.0 * grid.h, grid.x_max + 2.0 * grid.h),
        st.sampled_from(ties + [1e308, -1e308, np.inf, -np.inf, np.nan])), min_size=1)))
    with np.errstate(all="ignore"):
        q = (y - grid.x_min) / grid.h
        want = np.clip(np.rint(q), 0, grid.n_x - 1).astype(int)
        got = grid.nearest_node(y)
    np.testing.assert_array_equal(got, want)


# ------------------------------------------------------ impulse operator


def test_impulse_max_constant_slice():
    # constant slice: gains are c - (K + kappa), best at K = k_min
    grid = Grid(0.0, 4.0, 41, 1)
    costs = CostParams(kappa=0.05, k_min=0.1, k_max=1.0)
    v = np.full(41, 2.0)
    iv, ks = impulse_max(v, grid, costs)
    np.testing.assert_array_equal(iv, 2.0 - (0.1 + 0.05))
    np.testing.assert_array_equal(ks, 0.1)


def test_impulse_max_slope_one_picks_smallest_jump():
    # v = x with everything dyadic (h = dk = 1/4, kappa = 1/16): every
    # on-grid jump ties at exactly x - kappa bitwise, so the tie-break
    # must take the smallest K; beyond x_max the flat extension loses
    grid = Grid(0.0, 4.0, 17, 1)
    costs = CostParams(kappa=0.0625, k_min=0.5, k_max=1.5)
    x = grid.x_nodes()
    iv, ks = impulse_max(x.copy(), grid, costs)
    on_grid = x + costs.k_min <= 4.0
    np.testing.assert_array_equal(iv[on_grid], x[on_grid] - 0.0625)
    np.testing.assert_array_equal(ks[on_grid], 0.5)
    assert np.all(iv[~on_grid] < x[~on_grid] - 0.0625)


@pytest.mark.parametrize("k_min, k_max", [
    (0.1875, 1.4375),  # window ends between nodes
    (0.25, 1.5),       # window ends on nodes, which only the end candidates cover
    (0.0625, 0.3125),  # one or two nodes per window
    (0.5, 0.5),        # a single K
    (1.0, 9.0),        # every window runs past x_max
])
def test_impulse_max_tie_break_matches_candidate_scan(k_min, k_max):
    # dyadic grid, costs and slices keep every gain exact, and v = x + c
    # with small integer c makes exact ties common: the operator must pick
    # the first maximum over k_min, the nodes inside the window ascending,
    # then k_max
    rng = np.random.default_rng(7)
    grid = Grid(0.0, 5.0, 41, 1)  # h = 1/8
    costs = CostParams(kappa=0.0625, k_min=k_min, k_max=k_max)
    x = grid.x_nodes()
    for _ in range(20):
        v = x + rng.integers(0, 3, x.size)
        iv, ks = impulse_max(v, grid, costs)
        for i in range(x.size):
            inside = x[(x > x[i] + k_min) & (x < x[i] + k_max)] - x[i]
            k = np.concatenate(([k_min], inside, [k_max]))
            gains = interp_extended(x, v, x[i] + k) - injection_cost(k, costs)
            b = int(np.argmax(gains))
            assert (iv[i], ks[i]) == (gains[b], k[b])


def test_window_argmax_matches_loop():
    # rounding makes window lengths vary by a node or two on this grid, so
    # windows need several block-wide runs; integer w makes ties common
    rng = np.random.default_rng(8)
    grid = Grid(0.1, 4.1, 401, 1)
    x = grid.x_nodes()
    runs = set()
    for k_min, k_max in ((0.1, 1.5), (0.1, 0.125), (0.03, 0.07), (2.0, 7.0)):
        costs = CostParams(kappa=0.04, k_min=k_min, k_max=k_max)
        plan = _impulse_plan(grid, costs)
        runs.add(len(plan.starts))
        for _ in range(10):
            w = rng.integers(0, 3, x.size).astype(float)
            j = _window_argmax(w, plan)
            for i in range(x.size):
                inside = np.flatnonzero((x > x[i] + k_min) & (x < x[i] + k_max))
                if inside.size:
                    assert j[i] == inside[np.argmax(w[inside])], (k_min, k_max, i)
    assert max(runs) >= 2


def test_impulse_max_matches_brute_force():
    # a dense K scan that contains the 33-point injection grid the operator
    # used to search: the exact sup is at least every scanned gain and
    # exceeds the scan's max by at most the gain's slope bound times the
    # scan step
    rng = np.random.default_rng(31)
    grid = Grid(0.2, 3.4, 81, 1)
    costs = CostParams(kappa=0.07, k_min=0.15, k_max=1.2)
    x = grid.x_nodes()
    k = np.union1d(np.linspace(costs.k_min, costs.k_max, 33),
                   np.linspace(costs.k_min, costs.k_max, 4001))
    step = float(np.max(np.diff(k)))
    for _ in range(10):
        v = np.cumsum(rng.normal(0.0, 0.3, 81))  # rough but continuous
        iv, ks = impulse_max(v, grid, costs)
        assert np.all((ks >= costs.k_min) & (ks <= costs.k_max))
        np.testing.assert_array_equal(iv, interp_extended(x, v, x + ks) - injection_cost(ks, costs))
        slope = float(np.max(np.abs(np.diff(v)))) / grid.h + 1.0
        for i in rng.integers(0, 81, 12):
            gains = interp_extended(x, v, x[i] + k) - injection_cost(k, costs)
            assert iv[i] >= gains.max() - 1e-12
            assert iv[i] <= gains.max() + slope * step


@pytest.mark.parametrize("m", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("n_x, k_min, k_max", [
    (3, 0.5, 0.75),       # every window empty
    (5, 0.25, 9.0),       # every window runs past x_max
    (41, 0.0625, 0.3125),
    (41, 0.1875, 1.4375),
    (17, 1.0, 1.0),       # a single K
    (401, 0.1, 1.5),      # several block-wide runs per window
])
def test_impulse_max_stack_matches_rows(m, n_x, k_min, k_max):
    # a stack is cut into row blocks; each row must come out bit for bit
    # as the slice alone.  Half the rows are dyadic (v = x + small integer
    # on a dyadic grid: exact gains and frequent ties), half are rough
    rng = np.random.default_rng(1000 * m + n_x)
    grid = Grid(0.0, 5.0, n_x, 1)
    costs = CostParams(kappa=0.0625, k_min=k_min, k_max=k_max)
    x = grid.x_nodes()
    dyadic = x + rng.integers(0, 3, (m, n_x))
    rough = np.cumsum(rng.normal(0.0, 0.3, (m, n_x)), axis=1)
    stack = np.where(rng.random((m, 1)) < 0.5, dyadic, rough)
    iv, ks = impulse_max(stack, grid, costs)
    assert iv.shape == ks.shape == (m, n_x)
    for r in range(m):
        iv_r, ks_r = impulse_max(stack[r], grid, costs)
        assert iv_r.shape == ks_r.shape == (n_x,)
        assert iv[r].tobytes() == iv_r.tobytes() and ks[r].tobytes() == ks_r.tobytes(), r


def test_evaluate_matches_bilinear_formula_at_each_t():
    # evaluate at each t gives bit for bit the bilinear formula at that t,
    # on coarse x grids equal to, inside, and wider than the fine one (the
    # last one reaches below x_min, where the lowest-cell line applies),
    # with t clipped to [0, T]
    rng = np.random.default_rng(5)
    fine = ValueSurface(Grid(0.1, 2.1, 41, 16), 1.5, np.cumsum(rng.normal(size=(17, 41)), axis=1),
                        None, {})
    tn, xn = fine.t_nodes(), fine.grid.x_nodes()
    for coarse in (Grid(0.1, 2.1, 41, 8), Grid(0.3, 1.7, 7, 3), Grid(0.0, 2.5, 23, 5)):
        ts = np.concatenate((coarse.t_nodes(1.5), [-0.1, 0.7, 1.6]))
        xq = coarse.x_nodes()
        for t in ts:
            tc = min(max(float(t), 0.0), fine.T)
            j = min(max(int(np.searchsorted(tn, tc, side="right")) - 1, 0), tn.size - 2)
            w = (tc - tn[j]) / (tn[j + 1] - tn[j])
            want = ((1.0 - w) * interp_extended(xn, fine.values[j], xq)
                    + w * interp_extended(xn, fine.values[j + 1], xq))
            assert fine.evaluate(t, xq).tobytes() == want.tobytes(), (coarse, t)
    assert isinstance(fine.evaluate(0.7, 1.05), float)


# --------------------------------------------------- projection certificate


# random admissible specs with random costs, and specs whose slices start
# flat (g1 = 0) and spread out under a rising running utility, so that the
# certificate holds near T and fails further back
_cost_specs = st.one_of(
    st.builds(lambda spec, kappa, k_min, dk: replace(spec, costs=CostParams(kappa, k_min,
                                                                            k_min + dk)),
              _specs, st.floats(1e-4, 0.5), st.floats(1e-3, 0.5), st.floats(0.0, 2.0)),
    st.builds(lambda level, rate, T, kappa, k_min: make_spec(
        f=Curve.saturating(level, rate), g1=0.0, T=T, kappa=kappa, k_min=k_min,
        k_max=k_min + 0.5),
        st.floats(0.2, 2.0), st.floats(0.5, 5.0), st.floats(0.5, 5.0),
        st.floats(1e-3, 0.3), st.floats(1e-3, 0.3)))


@st.composite
def _cost_cases(draw):
    """A spec from _cost_specs on a grid from _grids.  solve rejects an
    injection window that starts inside the first cell, so where k_min < h
    the window moves out, keeping its length, to start in [h, 2h]."""
    spec, grid = draw(_cost_specs), draw(_grids)
    c = spec.costs
    if c.k_min < grid.h:
        k_min = draw(st.floats(grid.h, 2.0 * grid.h))
        spec = replace(spec, costs=CostParams(c.kappa, k_min, k_min + (c.k_max - c.k_min)))
    return spec, grid


def _sweep_or_error(spec, grid):
    """The sweep's slices as (j, V[j] bytes, updates, last), last the bytes
    of the loop's final IV and maximizers (or None), or the sweep's error."""
    try:
        _, slices = _sweep(spec, grid, 1e-9)
        return [(j, v.tobytes(), updates, last and tuple(a.tobytes() for a in last))
                for j, _, v, updates, last in slices]
    except (ValueError, NumericalError) as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_cost_cases())
def test_projection_certificate_drops_no_projection(case):
    # a certified sweep against one whose certificate never fires: the same
    # V bit for bit, the same update counts, or the same error
    spec, grid = case
    fired = []

    def counting(v_max, v_min, costs):
        fired.append(_projection_certified(v_max, v_min, costs))
        return fired[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_projection_certified", counting)
        certified = _sweep_or_error(spec, grid)
        mp.setattr(solver, "_projection_certified", lambda *a: False)
        full = _sweep_or_error(spec, grid)
    if isinstance(certified[0], type):
        event(f"both raise {certified[0].__name__}")
        assert certified == full
        return
    event(f"slices certified: {'all' if all(fired) else 'some' if any(fired) else 'none'}")
    assert [s[:2] for s in certified] == [s[:2] for s in full]  # V bit for bit, in sweep order
    assert [s[2] for s in certified] == [s[2] for s in full]


@pytest.mark.parametrize("base", [0.0, 0.37, 1e3 + 0.1, -7e5 - 0.3, 3e8 + 0.7])
def test_projection_certificate_near_its_bound(base):
    # slices whose spread sits within a few ulps of k_min + kappa, with the
    # maximum exactly k_min away from the minimum (the most profitable
    # injection): wherever the certificate fires, the computed residual
    # max(IV - v) is at most 0, so the loop would have exited at once
    grid = Grid(0.1, 4.1, 401, 1)  # h = 0.01, so k_min is 10 cells
    costs = CostParams(kappa=0.3, k_min=0.1, k_max=0.7)
    floor = costs.k_min + costs.kappa
    rng = np.random.default_rng(int(abs(base)))
    fired = []
    for step in range(-400, 41, 4):
        spread = floor + step * np.spacing(max(abs(base), floor))
        v = base + spread * rng.uniform(0.0, 1.0, grid.n_x)
        v[100], v[110] = base, base + spread
        v_max, v_min = float(np.max(v)), float(np.min(v))
        if _projection_certified(v_max, v_min, costs):
            fired.append(step)
            iv, _ = impulse_max(v, grid, costs)
            assert float(np.max(iv - v)) <= 0.0, step
    assert fired and max(fired) < 0  # fires below the bound only, and not vacuously


def test_projection_cap_holds_where_v_exceeds_c1():
    # drift(t, x_min) = -1.86 < 0.  With the x_min row a forward difference
    # V rose above C1 here, so a cap taken from C1 alone was too small; the
    # upwinded row keeps every step an M-matrix, every slice from the step
    # at or below C1, and each slice's update count within the C1 cap
    spec = make_spec(c1=0.0, T=1.85, lam=0.0, mu=-2.0, sigma=0.2, beta=0.45,
                     f=Curve.table([1.05, 1.18], [-0.4, 1.5]),
                     g1=Curve.table([1.01, 1.05, 1.34], [1.6, -0.5, -1.1]),
                     g2=Curve.table([0.95, 1.07], [-0.8, -1.3]),
                     kappa=0.05, k_min=0.005, k_max=1.6)
    grid = Grid(0.93, 1.43, 101, 55)  # h <= k_min
    tn = grid.t_nodes(spec.T)
    assert drift(0.0, grid.x_min, spec) < 0.0
    res = solve(spec, grid)
    V, md, kappa = res.surface.values, res.surface.metadata, spec.costs.kappa
    assert V.max() <= md["c1_bound"]
    assert np.all(V[:-1] >= res.surface.iv_values[:-1] - md["tol_inner"])
    steps = [pde_step(V[j + 1], tn[j], grid, spec) for j in range(grid.n_t)]
    assert max(float(v.max()) for v in steps) <= md["c1_bound"]
    c1_caps = [math.ceil((md["c1_bound"] - v.min()) / kappa) + 1 for v in steps]
    assert all(n <= cap for n, cap in zip(md["inner_iterations"], c1_caps))


def _found_sub_cell_spec():
    """Random-search find: k_min = 0.00121 inside the first cell of
    Grid(0.43802, 1.28287, 7, 8) (h = 0.141), where projection converged
    only geometrically and hit its cap."""
    return make_spec(c1=0.0, T=0.0808, lam=0.0, mu=-14.25, sigma=0.155, beta=1.776,
                     f=0.8496, g1=Curve.table([0.4647, 0.9661, 0.9991], [-1.787, -1.392, 1.310]),
                     g2=Curve.table([1.0965, 1.1514], [0.472, 0.857]),
                     kappa=0.2793, k_min=0.00121, k_max=0.0357)


def test_sub_cell_injection_window_is_rejected():
    # the sweep refuses h > k_min as input and names the smallest n_x.  That
    # n_x passes the cell check, and validation's finer probes then find the
    # profitable terminal impulse of g1's steep last segment
    spec = _found_sub_cell_spec()
    with pytest.raises(ValueError, match=r"exceeds k_min .* use --nx >= 700$"):
        solve(spec, Grid(0.43802, 1.28287, 7, 8))
    with pytest.raises(ValueError, match="--nx >= 700"):
        solve(spec, Grid(0.43802, 1.28287, 699, 8))
    with pytest.raises(ValueError, match="no_terminal_impulse"):
        solve(spec, Grid(0.43802, 1.28287, 700, 8))


@settings(max_examples=100, deadline=None)
@given(spec=_specs, grid=_grids, frac=st.floats(1e-6, 1.0, exclude_max=True),
       dk=st.floats(0.0, 2.0))
def test_sub_cell_injection_windows_are_rejected(spec, grid, frac, dk):
    # every k_min < h is rejected before any step, whatever the spec, with
    # an n_x that puts k_min at or beyond one cell
    k_min = frac * grid.h
    spec = replace(spec, costs=CostParams(0.1, k_min, k_min + dk))
    with pytest.raises(ValueError, match=r"use --nx >= (\d+)$") as err:
        _sweep(spec, grid, 1e-9)
    n_x = int(err.value.args[0].rsplit(" ", 1)[1])
    assert Grid(grid.x_min, grid.x_max, n_x, 1).h <= k_min


def test_skipped_projection_with_a_residual_raises():
    # a certificate that always fires skips real projections on the
    # intervention fixture; the finish must notice the residual
    spec = intervention_spec()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_projection_certified", lambda *a: True)
        with pytest.raises(NumericalError, match="projection skipped"):
            solve(spec, Grid(0.1, 4.1, 101, 20))


# ------------------------------------------------------------- solve


def test_solve_closed_form_fixture():
    spec = closed_form_spec()
    ref = fixture_reference("closed-form")
    grid = Grid(0.1, 2.1, 101, 400)
    res = solve(spec, grid)
    tn = res.surface.t_nodes()
    exact = np.array([ref(t) for t in tn])[:, None]
    rel = np.abs(res.surface.values - exact) / np.maximum(np.abs(exact), 1e-12)
    assert float(rel.max()) <= 1e-3
    # data is x-free, so the solution must be x-free too
    assert float(np.max(np.ptp(res.surface.values, axis=1))) <= 1e-12
    assert not res.labels.any()
    assert res.surface.metadata["landing_violations"] == 0


def _injection_case(a, x1, b, T, kappa, k_min, k_max):
    """(spec, exact V(t, x)) of the case with an exact value where impulses
    act.  sigma = mu = lam = 0 holds X between injections, and f = a min(x,
    X1) with beta = b: with a k_min > b (k_min + kappa) an injection's net
    value falls with its time, so the optimum injects at once, n times,
    Y_n = clip(X1 - x, n k_min, n k_max) in all, and
      V(t, x) = max_n a min(x + Y_n, X1) D(t) - Y_n - n kappa,
    D(t) = (1 - exp(-b (T - t))) / b.  sigma = 0 breaks the ellipticity the
    CLI's check assumes, so this case is a test, not a fixture."""
    assert a * k_min > b * (k_min + kappa)
    spec = make_spec(lam=0.0, mu=0.0, sigma=0.0, beta=b, f=Curve.table([0.0, x1], [0.0, a * x1]),
                     g1=0.0, g2=0.0, T=T, kappa=kappa, k_min=k_min, k_max=k_max)

    def exact(t, x):
        d = (1.0 - math.exp(-b * (T - t))) / b
        best = a * np.minimum(x, x1) * d
        for n in range(1, math.ceil(x1 / k_min) + 2):  # Y_n >= x1 - x from then on
            y = np.clip(x1 - x, n * k_min, n * k_max)
            best = np.maximum(best, a * np.minimum(x + y, x1) * d - y - n * kappa)
        return best
    return spec, exact


def test_solve_matches_exact_value_where_impulses_act():
    # X1 and the multiples of k_max lie on nodes
    kappa = 0.05
    spec, exact = _injection_case(a=1.5, x1=2.0, b=0.5, T=2.0, kappa=kappa, k_min=0.1, k_max=0.5)
    errors = []
    for n_t in (50, 100, 200, 400):
        res = solve(spec, Grid(0.1, 4.1, 401, n_t))
        xn = res.surface.grid.x_nodes()
        err = regret = 0.0
        for t, v, act, xi0 in zip(res.surface.t_nodes(), res.surface.values, res.labels, res.xi0):
            err = max(err, float(np.max(np.abs(v - exact(t, xn)))))
            # what the recorded injection gives up against the exact value
            x, k = xn[act], xi0[act]
            regret = max(regret, float(np.max(exact(t, x) - (exact(t, x + k) - k - kappa),
                                              initial=0.0)))
        assert res.labels.any() and regret <= err, (n_t, regret, err)
        errors.append(err)
    ratios = [e0 / e1 for e0, e1 in zip(errors, errors[1:])]
    assert all(1.6 <= r <= 2.4 for r in ratios), (errors, ratios)


_INJECTION_GRID = Grid(0.1, 4.1, 201, 1)  # h = 0.02; n_t is drawn


@st.composite
def _injection_cases(draw):
    """(a, X1, b, T, kappa, k_min, k_max) with a k_min > b (k_min + kappa),
    X1 on a node of _INJECTION_GRID and k_min, k_max on multiples of its
    h, so every landing the scheme can choose is a node; and n_t."""
    h = _INJECTION_GRID.h
    k_min = draw(st.integers(1, 15)) * h
    k_max = draw(st.integers(max(5, round(k_min / h)), 50)) * h
    x1 = float(_INJECTION_GRID.x_nodes()[draw(st.integers(10, 150))])
    b = draw(st.floats(0.05, 1.5))
    a = draw(st.floats(b + 0.1, 4.0))
    # kappa < k_min (a - b) / b is the condition; a large kappa prices injections out
    kappa = min(draw(st.floats(0.02, 0.98)) * k_min * (a - b) / b, 1.0)
    return (a, x1, b, 2.0, kappa, k_min, k_max), draw(st.integers(10, 60))


def _injection_budget(a, x1, b, T, kappa, k_min, k_max, dt, h, tol_inner=1e-9):
    """The error budget of a solve of _injection_case, fixed before any
    outcome was seen: sup |V - exact| <= a X1 dt / (2e) exp(b^2 T dt / 2)
    + 0 h + (n + 1) tol_inner, n = ceil((X1 - x_min) / k_max) + 1.

    Each node steps by v = r (v_next + f dt), r = 1 / (1 + b dt), so the
    holding value is f(x) D_m with D_m = (1 - r^m) / b; and D(t) - D_m <=
    b s e^{-bs} (dt / 2) exp(b^2 s dt / 2) <= dt / (2e) exp(b^2 T dt / 2)
    at s = T - t, from ln(1 + u) >= u - u^2 / 2, times f <= a X1.  An
    exact optimum's chain of injections lands on nodes when X1, k_min and
    k_max do, and the window ends and inner nodes are the only candidates
    of impulse_max, so no h term arises.  The projection stops at a
    residual of tol_inner, which each of at most n links of a chain may
    lose."""
    n = math.ceil((x1 - _INJECTION_GRID.x_min) / k_max) + 1
    time = a * x1 * dt / (2.0 * math.e) * math.exp(b * b * T * dt / 2.0)
    return time + 0.0 * h + (n + 1) * tol_inner


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_injection_cases())
def test_solve_matches_exact_value_on_random_injection_cases(case):
    params, n_t = case
    spec, exact = _injection_case(*params)
    res = solve(spec, replace(_INJECTION_GRID, n_t=n_t))
    xn = _INJECTION_GRID.x_nodes()
    err = max(float(np.max(np.abs(v - exact(t, xn))))
              for t, v in zip(res.surface.t_nodes(), res.surface.values))
    event(f"action nodes: {'some' if res.labels.any() else 'none'}")
    assert err <= _injection_budget(*params, spec.T / n_t, _INJECTION_GRID.h), (params, n_t, err)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_injection_cases())
def test_policy_is_the_formulas_first_injection(case):
    # at interior action nodes (both x-neighbours acting), xi0 is within h
    # of a first injection of the formula: some K in [k_min, k_max] with
    # |K - xi0| <= h whose exact gain V(x + K) - K - kappa is within twice
    # the value budget of V(x), the error the solve may make on each side
    # (a near-tie between chains of n and n + 1 injections falls within it)
    params, n_t = case
    spec, exact = _injection_case(*params)
    kappa, k_min, k_max = params[4:]
    grid = replace(_INJECTION_GRID, n_t=n_t)
    h, xn = grid.h, grid.x_nodes()
    slack = 2.0 * _injection_budget(*params, spec.T / n_t, h)
    res = solve(spec, grid)
    lab = res.labels
    inner = np.zeros_like(lab)
    inner[:, 1:-1] = lab[:, :-2] & lab[:, 1:-1] & lab[:, 2:]
    shifts = np.linspace(-h, h, 41)
    for t, row, xi0 in zip(res.surface.t_nodes(), inner, res.xi0):
        x, k = xn[row], xi0[row]
        ks = np.clip(k[:, None] + shifts, k_min, k_max)
        gain = exact(t, x[:, None] + ks) - ks - kappa
        assert np.all(gain.max(axis=1) >= exact(t, x) - slack), (params, n_t, t)
    event(f"interior action nodes: {'some' if inner.any() else 'none'}")


# --------------------------------------------- kept impulse values


@settings(max_examples=150, deadline=None)
@given(case=_cost_cases(), seed=st.integers(0, 2**32 - 1), ties=st.booleans())
def test_impulse_max_reads_only_the_plans_read_nodes(case, seed, ties):
    # nodes outside the plan's `read` mask may take any value: impulse_max
    # returns the same bits, which is what lets the projection loop keep IV
    spec, grid = case
    plan = _impulse_plan(grid, spec.costs)
    rng = np.random.default_rng(seed)
    x = grid.x_nodes()
    v = x + rng.integers(0, 3, x.size) if ties else rng.normal(0.0, 2.0, x.size)
    other = v.copy()
    other[~plan.read] = rng.normal(0.0, 1e3, int(np.count_nonzero(~plan.read)))
    event(f"unread nodes: {'some' if not plan.read.all() else 'none'}")
    for a, b in zip(impulse_max(v, grid, spec.costs), impulse_max(other, grid, spec.costs)):
        assert a.tobytes() == b.tobytes()


@st.composite
def _projecting_cases(draw):
    """Specs whose slices project, so that the loop updates: the
    intervention fixture with drawn costs on a drawn grid (it raises nodes
    near x_min), or an exact injection case on a coarse time grid (chains
    of injections at one instant)."""
    if draw(st.booleans()):
        grid = Grid(0.1, 4.1, draw(st.integers(41, 201)), draw(st.integers(2, 30)))
        k_min = grid.h * draw(st.floats(1.0, 25.0))
        costs = CostParams(draw(st.floats(0.005, 0.08)), k_min, k_min + draw(st.floats(0.0, 1.5)))
        return replace(intervention_spec(), costs=costs), grid
    params, n_t = draw(_injection_cases())
    return _injection_case(*params)[0], replace(_INJECTION_GRID, n_t=min(n_t, 20))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(_cost_cases(), _projecting_cases()))
def test_kept_impulse_values_change_nothing(case):
    # a sweep that keeps IV where no read node was raised against one that
    # recomputes it after every update: the same V, update counts and last
    # (IV, maximizers) bit for bit, or the same error
    spec, grid = case
    kept, reads_changed = [], solver._reads_changed

    def counting(read, before, after):
        kept.append(not reads_changed(read, before, after))
        return not kept[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_reads_changed", counting)
        skipping = _sweep_or_error(spec, grid)
        mp.setattr(solver, "_reads_changed", lambda *a: True)
        full = _sweep_or_error(spec, grid)
    if isinstance(skipping[0], type):
        event(f"both raise {skipping[0].__name__}")
    else:
        share = 'no update' if not kept else 'all' if all(kept) else 'some' if any(kept) else 'none'
        event(f"updates whose IV was kept: {share}")
    assert skipping == full


def _solve_counting(spec, grid, recompute=False):
    """solve() and its impulse_max call count; with recompute=True, the
    projection loop calls impulse_max after every update."""
    calls = []

    def counted(*args):
        calls.append(None)
        return impulse_max(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "impulse_max", counted)
        if recompute:
            mp.setattr(solver, "_reads_changed", lambda *a: True)
        res = solve(spec, grid)
    return res, len(calls)


def _assert_same_result(a, b):
    for x, y in ((a.surface.values, b.surface.values), (a.surface.iv_values, b.surface.iv_values),
                 (a.labels, b.labels), (a.xi0, b.xi0)):
        assert x.tobytes() == y.tobytes()
    assert a.surface.metadata == b.surface.metadata


def test_chained_injections_recompute_impulse_values():
    # chains of injections at one instant: an update raises nodes that
    # other windows read, so the loop must call impulse_max again
    spec, _ = _injection_case(a=1.5, x1=2.0, b=0.5, T=2.0, kappa=0.05, k_min=0.1, k_max=0.5)
    grid = Grid(0.1, 4.1, 401, 50)
    res, calls = _solve_counting(spec, grid)
    full, full_calls = _solve_counting(spec, grid, recompute=True)
    assert grid.n_t + 1 < calls < full_calls
    _assert_same_result(res, full)


def test_intervention_keeps_every_confirming_impulse_value():
    # the intervention fixture raises only nodes near x_min, which no window
    # reads: one impulse_max per step, and one stacked call for the rest
    spec, grid = intervention_spec(), suggested_grid("intervention")
    res, calls = _solve_counting(spec, grid)
    full, full_calls = _solve_counting(spec, grid, recompute=True)
    assert calls == grid.n_t + 1 == 201
    assert full_calls == calls + sum(res.surface.metadata["inner_iterations"])
    _assert_same_result(res, full)


def _traced_peak(fn, *args):
    """fn(*args) and its peak of traced allocations, in bytes."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_solve_streams_the_sweep_into_its_arrays():
    # traced peak of a solve on the intervention fixture's grid: V, IV and
    # the maximizers, one V-sized temporary, the labels and 1 MiB for the
    # working slices (with every projected slice's IV and maximizers held
    # until the sweep ended, the peak was 4.47 MiB here)
    grid = suggested_grid("intervention")
    res, peak = _traced_peak(solve, intervention_spec(), grid)
    bound = 4 * res.surface.values.nbytes + res.labels.nbytes + 2**20
    assert peak <= bound, (peak / 2**20, bound / 2**20)


@pytest.mark.parametrize("name", ["intervention", "closed-form"])
def test_solve_finish_builds_no_full_size_temporary(monkeypatch, name):
    # after the sweep's last slice, solve holds V, IV and the maximizers;
    # its finish (IV of the slices without a projection loop, the labels,
    # the policy and the residuals) may add the labels, the traced peak of
    # one impulse_max call on as many of those slices as a block holds,
    # and 256 KiB.  On closed-form every slice has no loop, on intervention
    # only the terminal one
    spec, grid = get_fixture(name), suggested_grid(name)
    sweep = solver._sweep
    at_end, unlooped = [], []

    def traced(*args):
        c1, slices = sweep(*args)

        def gen():
            for s in slices:
                unlooped.append(s[4] is None)
                yield s
            at_end.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()  # what follows is solve's finish
        return c1, gen()

    _impulse_plan(grid, spec.costs)  # built outside both traces
    monkeypatch.setattr(solver, "_sweep", traced)
    res, peak = _traced_peak(solve, spec, grid)
    rows = min(solver._ROWS, sum(unlooped))
    _, block = _traced_peak(impulse_max, np.zeros((rows, grid.n_x)), grid, spec.costs)
    bound = at_end[0] + res.labels.nbytes + block + 2**18
    assert peak <= bound, ((peak - at_end[0]) / 2**20, (bound - at_end[0]) / 2**20)


def test_boundary_csv_memory(tmp_path):
    # traced peak of writing the intervention fixture's boundary: at most
    # three label-mask sizes (the padded mask and its row changes take one
    # byte per node each) and 128 KiB for the runs and the rows
    res = solve(intervention_spec(), suggested_grid("intervention"))
    _, peak = _traced_peak(write_boundary_csv, tmp_path / "boundary.csv", res, {})
    bound = 3 * res.labels.nbytes + 2**17
    assert peak <= bound, (peak / 2**20, bound / 2**20)


@settings(max_examples=30, deadline=None)
@given(f0=st.floats(-2.0, 2.0), g10=st.floats(-2.0, 2.0), g20=st.floats(-2.0, 2.0),
       beta0=st.floats(0.1, 2.0))
def test_time_convergence_first_order_on_closed_form_family(f0, g10, g20, beta0):
    # implicit Euler on x-free data: halving dt halves the sup error against
    # the exact value, the band of acceptance criterion 9.  The value must
    # move in t (beta0 = 0 or a stationary start makes the step exact)
    drive = (f0 - beta0 * g20) / beta0 - g10  # V = g10 + drive (1 - exp(-beta0 (T - t)))
    assume(abs(drive) >= 0.1)
    base = closed_form_spec()
    spec = replace(base, beta=Curve.constant(beta0), utilities=UtilitySpec(
        f=Curve.constant(f0), g1=Curve.constant(g10), g2=Curve.constant(g20)))
    exact = closed_form_value(f0, g10, g20, beta0, spec.T)
    study = convergence_study(spec, Grid(0.1, 2.1, 11, 50), 3, reference=exact)
    e = study.reference_errors
    assert 1.6 <= e[0] / e[1] <= 2.4 and 1.6 <= e[1] / e[2] <= 2.4, e


def test_solve_zero_fixture():
    spec = zero_spec()
    res = solve(spec, suggested_grid("zero"))
    assert np.all(res.surface.values == 0.0)
    assert not res.labels.any()
    # IV of the zero slice is exactly -(k_min + kappa) everywhere
    expected_iv = -(spec.costs.k_min + spec.costs.kappa)
    np.testing.assert_array_equal(res.surface.iv_values, expected_iv)


def test_solve_rejects_invalid_spec():
    bad = make_spec(g1=Curve.table([0.0, 10.0], [0.0, 20.0]), kappa=0.05)
    with pytest.raises(ValueError, match="no_terminal_impulse"):
        solve(bad, Grid(0.1, 2.1, 31, 10))


def test_solve_monotone_in_running_utility():
    # pointwise-larger f cannot lower the value anywhere
    spec1 = intervention_spec()
    f2 = Curve.saturating(level=1.2, rate=5.0, scale=1.0)
    spec2 = replace(spec1, utilities=UtilitySpec(
        f=f2, g1=spec1.utilities.g1, g2=spec1.utilities.g2))
    grid = Grid(0.1, 4.1, 201, 100)
    v1 = solve(spec1, grid).surface.values
    v2 = solve(spec2, grid).surface.values
    assert np.all(v2 >= v1 - 1e-12)


def test_solve_monotone_in_fixed_cost():
    spec_cheap = intervention_spec()  # kappa = 0.04
    spec_dear = replace(spec_cheap, costs=CostParams(kappa=0.4, k_min=0.1,
                                                     k_max=1.5))
    grid = Grid(0.1, 4.1, 201, 100)
    v_cheap = solve(spec_cheap, grid).surface.values
    v_dear = solve(spec_dear, grid).surface.values
    assert np.all(v_cheap >= v_dear - 1e-12)


def _monotone_curve(increasing):
    """A constant, a monotone table or, rising only, a saturating curve."""
    values = st.floats(-2.0, 2.0, allow_subnormal=False)
    table = st.lists(values, min_size=2, max_size=4).flatmap(
        lambda ys: st.lists(st.floats(0.0, 4.0), min_size=len(ys), max_size=len(ys),
                            unique=True).map(
            lambda xs: Curve.table(sorted(xs), sorted(ys, reverse=not increasing))))
    kinds = [values.map(Curve.constant), table]
    if increasing:
        kinds.append(st.builds(Curve.saturating, values, st.floats(0.1, 5.0),
                               st.floats(0.1, 2.0)))
    return st.one_of(kinds)


@st.composite
def _monotone_cases(draw):
    """f and g1 nondecreasing, g2 nonincreasing, on a grid from _grids with
    h <= k_min: the window starts within one cell of h, or anywhere up to
    h + 1."""
    grid = draw(_grids)
    k_min = draw(st.one_of(st.floats(grid.h, 2.0 * grid.h), st.floats(grid.h, grid.h + 1.0)))
    spec = make_spec(c1=draw(st.floats(0.0, 1.0)), T=draw(st.floats(0.05, 5.0)),
                     lam=draw(_time_curve(0.0, 3.0)), mu=draw(_time_curve(-1.0, 1.0)),
                     sigma=draw(_time_curve(0.0, 3.0)), beta=draw(_time_curve(0.0, 2.0)),
                     f=draw(_monotone_curve(True)), g1=draw(_monotone_curve(True)),
                     g2=draw(_monotone_curve(False)), kappa=draw(st.floats(1e-4, 0.5)),
                     k_min=k_min, k_max=k_min + draw(st.floats(0.0, 2.0)))
    return spec, grid


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_monotone_cases())
def test_solve_monotone_in_x_for_monotone_data(case):
    # a larger ratio earns at least as much running and terminal utility
    # and pays no more at default, and the flow keeps the order of its
    # starting points, so V is nondecreasing in x.  The M-matrix steps and
    # the projection keep that on the grid, up to rounding: 2^-40 of max |V|
    spec, grid = case
    try:
        V = solve(spec, grid).surface.values
    except (ValueError, NumericalError) as exc:
        event(f"raises {type(exc).__name__}")
        return
    drop = float(np.min(np.diff(V, axis=1)))
    event(f"some step down in x below 0: {drop < 0.0}")
    assert drop >= -2.0**-40 * float(np.max(np.abs(V)))


def _raised(curve, delta):
    """curve + delta, of the same kind."""
    if curve.kind == "constant":
        return Curve.constant(curve.value + delta)
    if curve.kind == "table":
        return Curve.table(curve.x, curve.y + delta)
    return Curve.saturating(curve.level + delta, curve.rate, curve.scale)


# the datum raised, and the sign of the change it may make to V: more
# running or terminal utility, or a wider injection window, cannot lower V;
# a dearer default or fixed fee cannot raise it
_DATA_SIGNS = {"f": 1.0, "g1": 1.0, "k_max": 1.0, "g2": -1.0, "kappa": -1.0}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_cost_cases(), datum=st.sampled_from(sorted(_DATA_SIGNS)),
       delta=st.floats(1e-6, 1.0))
def test_solve_is_monotone_in_the_data(case, datum, delta):
    # the discrete comparison principle on which convergence to the unique
    # viscosity solution rests (Barles and Souganidis, 1991): raising one
    # datum by delta > 0 keeps the solutions ordered, up to the projection's
    # tol_inner and rounding
    spec, grid = case
    u, c = spec.utilities, spec.costs
    if datum in ("f", "g1", "g2"):
        raised = replace(spec, utilities=u._replace(**{datum: _raised(getattr(u, datum), delta)}))
    else:
        raised = replace(spec, costs=replace(c, **{datum: getattr(c, datum) + delta}))
    try:
        V = solve(spec, grid).surface.values
        V_raised = solve(raised, grid).surface.values
    except (ValueError, NumericalError) as exc:
        event(f"raises {type(exc).__name__}")
        return
    tol = 1e-8 + 2.0**-40 * max(float(np.max(np.abs(V))), float(np.max(np.abs(V_raised))))
    change = _DATA_SIGNS[datum] * (V_raised - V)
    event(f"{datum}: V moves: {bool(np.any(change > tol))}")
    assert float(np.min(change)) >= -tol, (datum, float(np.min(change)))


def test_obstacle_inequality_on_solved_fixtures():
    cases = [
        (closed_form_spec(), Grid(0.1, 2.1, 101, 100)),
        (intervention_spec(), Grid(0.1, 4.1, 201, 100)),
        (geometric_spec(), Grid(0.1, 3.1, 101, 100)),
        (zero_spec(), suggested_grid("zero")),
    ]
    for spec, grid in cases:
        res = solve(spec, grid)
        gap = float(np.min(res.surface.values - res.surface.iv_values))
        assert gap >= -1e-8


def test_extract_regions_matches_solve():
    spec = intervention_spec()
    res = solve(spec, Grid(0.1, 4.1, 201, 100))
    # the projected slices keep their loops' IV and maximizers: those of
    # one stacked call, and the policy is the maximizer on the action nodes
    iv, ks = impulse_max(res.surface.values, res.surface.grid, spec.costs)
    assert iv.tobytes() == res.surface.iv_values.tobytes()
    assert res.xi0.tobytes() == np.where(res.labels, ks, np.nan).tobytes()
    assert any(res.surface.metadata["inner_iterations"])  # some slice was projected


_ZERO_UTILITIES = UtilitySpec(f=Curve.constant(0.0), g1=Curve.constant(0.0),
                              g2=Curve.constant(0.0))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_cost_cases(), zero=st.booleans())
# a negative sup g1 is no bound on V: discounting lifts V above it
@example(case=(make_spec(beta=1.0, f=0.0, g1=-1.0, mu=0.0, sigma=0.0), Grid(1.0, 2.0, 11, 1)),
         zero=False)
# V rose above C1 = 0.0625 here while the x_min row was a forward difference
@example(case=(make_spec(c1=0.0, T=0.125, lam=Curve.table([0.0, 1.0], [0.0, 1.0]), mu=0.0,
                         sigma=0.0, beta=0.0, f=Curve.table([0.0, 2.0], [1.0, 0.0]), g1=0.0,
                         kappa=0.5, k_min=0.5, k_max=0.5), Grid(1.0, 2.0, 3, 1)),
         zero=False)
def test_solve_invariants_on_random_specs(case, zero):
    # on random admissible specs a solve raises an explicit error or keeps
    # the scheme's invariants: -C0 <= V <= C1 (every step is an M-matrix,
    # either drift sign at x_min), V >= IV - tol_inner off the terminal slice,
    # labels read off V - IV <= eps_region, the policy the maximizer of one
    # stacked impulse_max on them, and V == 0 with no action node for zero
    # utilities
    spec, grid = case
    if zero:
        spec = replace(spec, utilities=_ZERO_UTILITIES)
    try:
        res = solve(spec, grid)
    except (ValueError, NumericalError) as exc:
        event(f"raises {type(exc).__name__}")
        return
    V, IV, md = res.surface.values, res.surface.iv_values, res.surface.metadata
    event(f"drift(0, x_min) < 0: {drift(0.0, grid.x_min, spec) < 0.0}")
    assert V.max() <= md["c1_bound"] + 1e-9
    assert V.min() >= -value_bounds(spec, grid)[0] - 1e-9
    assert np.all(V[:-1] >= IV[:-1] - md["tol_inner"])
    np.testing.assert_array_equal(res.labels, V - IV <= md["eps_region"])
    np.testing.assert_array_equal(np.isfinite(res.xi0), res.labels)
    iv, ks = impulse_max(V, grid, spec.costs)
    assert iv.tobytes() == IV.tobytes()
    assert res.xi0.tobytes() == np.where(res.labels, ks, np.nan).tobytes()
    if zero:
        assert np.all(V == 0.0) and not res.labels.any()
    event(f"zero utilities: {zero}, action nodes: {res.labels.any()}")


# ---------------------------------------------------------------- DPP


def test_dpp_residual_zero_at_theta_equals_t():
    spec = intervention_spec()
    res = solve(spec, Grid(0.1, 4.1, 201, 100))
    for x in (0.15, 1.3):  # one action-side point, one continuation point
        est = dpp_residual(spec, res, 0.5, x, 0.5, dt=0.01,
                           n_paths=50, seed=1)
        assert est.estimate == 0.0
        assert est.std_error == 0.0


def test_dpp_residual_midpoint_within_budget():
    spec = intervention_spec()
    grid = Grid(0.1, 4.1, 201, 100)
    res = solve(spec, grid)
    budget_fd = spec.T / grid.n_t + grid.h
    for (t, x) in [(0.5, 0.7), (1.0, 1.5)]:
        theta = t + 0.5 * (spec.T - t)
        est = dpp_residual(spec, res, t, x, theta, dt=0.02,
                           n_paths=4000, seed=77)
        assert abs(est.estimate) <= 3.0 * est.std_error + budget_fd


# ------------------------------------------------------------- exports


def test_surface_csv_round_trip(tmp_path):
    # geometric has no action nodes, intervention has some
    for spec, grid in ((geometric_spec(), Grid(0.1, 3.1, 51, 20)),
                       (intervention_spec(), Grid(0.1, 4.1, 81, 40))):
        res = solve(spec, grid)
        p = tmp_path / "surface.csv"
        write_surface_csv(p, res, meta={"config_hash": "abc", "seed": 0})
        back = read_surface_csv(p, spec)
        assert back.surface.grid == grid
        assert back.surface.T == spec.T
        for key in ("eps_region", "tol_inner", "spec_sha256"):
            assert back.surface.metadata[key] == res.surface.metadata[key]
        np.testing.assert_array_equal(back.surface.values, res.surface.values)
        np.testing.assert_array_equal(back.surface.iv_values, res.surface.iv_values)
        np.testing.assert_array_equal(back.labels, res.labels)
        np.testing.assert_array_equal(np.isnan(back.xi0), np.isnan(res.xi0))
        np.testing.assert_array_equal(back.xi0, res.xi0)
        with open(p, "a", encoding="utf-8") as fh:
            fh.write("\n")  # a trailing blank line is tolerated
        np.testing.assert_array_equal(read_surface_csv(p, spec).xi0, res.xi0)
    assert res.labels.any()


def _same_result(a, b):
    """Two SolveResults equal bit for bit (NaN xi0 included)."""
    assert a.surface.grid == b.surface.grid and a.surface.T == b.surface.T
    for x, y in ((a.surface.values, b.surface.values), (a.surface.iv_values, b.surface.iv_values),
                 (a.labels, b.labels), (a.xi0, b.xi0)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_solve_result_keeps_xi0_alone(tmp_path, name):
    # the action set is stated once, as the nodes where xi0 is a number;
    # the labels read off it are V - IV <= eps_region bit for bit, from
    # solve and after a surface.csv round trip
    assert SolveResult._fields == ("surface", "xi0")
    spec = get_fixture(name)
    res = solve(spec, replace(suggested_grid(name), n_x=81, n_t=40))
    surface = res.surface
    stored = surface.values - surface.iv_values <= surface.metadata["eps_region"]
    assert res.labels.tobytes() == (~np.isnan(res.xi0)).tobytes() == stored.tobytes()
    p = tmp_path / "surface.csv"
    write_surface_csv(p, res, {})
    back = read_surface_csv(p, spec)
    _same_result(back, res)
    assert back.labels.tobytes() == (~np.isnan(back.xi0)).tobytes() == stored.tobytes()


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_cost_cases())
def test_surface_csv_round_trip_on_random_specs(case):
    # a surface that solve writes for a random admissible spec reads back
    # bit for bit under that spec, every action's xi0 in [k_min, k_max]
    spec, grid = case
    try:
        res = solve(spec, grid)
    except (ValueError, NumericalError) as exc:
        event(f"raises {type(exc).__name__}")
        return
    with tempfile.TemporaryDirectory() as tmp:
        p = pathlib.Path(tmp) / "surface.csv"
        write_surface_csv(p, res, meta={"config_hash": "abc", "seed": 0})
        _same_result(read_surface_csv(p, spec), res)
    xi0 = res.xi0[res.labels]
    assert np.all((xi0 >= spec.costs.k_min) & (xi0 <= spec.costs.k_max))


@pytest.mark.parametrize("side", ["below k_min", "above k_max"])
def test_surface_csv_read_for_a_spec_refuses_xi0_out_of_range(tmp_path, side):
    # read for its spec, an action row whose xi0 lies one ulp outside
    # [k_min, k_max] is refused, naming its data row
    spec = intervention_spec()
    res = solve(spec, Grid(0.1, 4.1, 81, 40))
    c = spec.costs
    j, i = np.argwhere(res.labels)[-1].tolist()
    xi0 = res.xi0.copy()
    xi0[j, i] = (np.nextafter(c.k_min, -np.inf) if side == "below k_min"
                 else np.nextafter(c.k_max, np.inf))
    p = tmp_path / "surface.csv"
    write_surface_csv(p, res._replace(xi0=xi0), {})
    with pytest.raises(ValueError) as exc:
        read_surface_csv(p, spec)
    assert str(exc.value) == (f"surface data row {j * 81 + i + 1} has xi0={xi0[j, i]!r} outside "
                              f"[k_min, k_max] = [{c.k_min!r}, {c.k_max!r}]")


def test_surface_csv_reader_and_writers_take_spec_and_meta(tmp_path):
    # one call form each: a surface is read only under its spec's checks,
    # and no artifact is written without the meta of its header
    spec = intervention_spec()
    res = solve(spec, Grid(0.1, 4.1, 41, 10))
    p = tmp_path / "surface.csv"
    write_surface_csv(p, res, {})
    with pytest.raises(TypeError):
        read_surface_csv(p)
    out = tmp_path / "out.csv"
    for write in (write_surface_csv, write_policy_csv, write_boundary_csv):
        with pytest.raises(TypeError):
            write(out, res)
        assert not out.exists()


def test_surface_csv_blocks_round_trip(tmp_path):
    # a slice count that is no multiple of the reader's block, over more
    # than two blocks, with actions past the second block, reads back bit
    # for bit; so it does with blank lines between slices, at a block
    # boundary and inside a block
    blk = solver._READ_SLICES
    grid = Grid(0.1, 4.1, 41, 4 * blk + 2)
    assert (grid.n_t + 1) % blk and (blk + 3) % blk  # slice blk + 3 is inside a block
    spec = intervention_spec()
    res = solve(spec, grid)
    assert res.labels[2 * blk:].any() and not res.labels.all()
    p = tmp_path / "surface.csv"
    write_surface_csv(p, res, {})
    _same_result(read_surface_csv(p, spec), res)
    lines = p.read_text().splitlines(keepends=True)
    first = len(lines) - (grid.n_t + 1) * grid.n_x  # the first data line
    for j in (blk + 3, blk):  # slices j - 1 and j, back to front
        lines.insert(first + j * grid.n_x, "\n")
    p.write_text("".join(lines))
    _same_result(read_surface_csv(p, spec), res)


def test_surface_csv_read_memory(tmp_path):
    # traced peak of reading the intervention fixture's surface: the four
    # result arrays and 0.5 MiB for one block of rows, never the file's
    # lines (all 80,601 rows held as strings peaked at 13.45 MiB here,
    # blocks of 16 slices at 3.79 MiB against 1.92 MiB of arrays)
    spec = intervention_spec()
    res = solve(spec, suggested_grid("intervention"))
    p = tmp_path / "surface.csv"
    write_surface_csv(p, res, {})
    back, peak = _traced_peak(read_surface_csv, p, spec)
    _same_result(back, res)
    arrays = 3 * res.surface.values.nbytes + res.labels.nbytes  # V, IV, xi0, labels
    assert peak <= arrays + 2**19, (peak / 2**20, arrays / 2**20)


def test_surface_csv_row_bytes(tmp_path):
    spec = intervention_spec()
    res = solve(spec, Grid(0.1, 4.1, 41, 10))
    assert res.labels.any()
    p = tmp_path / "surface.csv"
    write_surface_csv(p, res, {})
    s = res.surface
    expected = ["t,x,V,IV,label,xi0"]
    for j, t in enumerate(s.t_nodes()):
        for i, x in enumerate(s.grid.x_nodes()):
            tail = (f"action,{repr(float(res.xi0[j, i]))}"
                    if res.labels[j, i] else "continuation,")
            expected.append(f"{repr(float(t))},{repr(float(x))},{repr(float(s.values[j, i]))},"
                            f"{repr(float(s.iv_values[j, i]))},{tail}")
    lines = p.read_text().splitlines()
    assert lines[-len(expected):] == expected
    assert all(ln.startswith("# ") for ln in lines[:-len(expected)])


def _label_bfs(mask):
    """Breadth-first 4-connected labeling, components numbered in raster
    order of their first node."""
    labels = np.zeros(mask.shape, dtype=int)
    n = 0
    for start in zip(*np.nonzero(mask)):
        if labels[start]:
            continue
        n += 1
        labels[start] = n
        todo = deque([start])
        while todo:
            i, j = todo.popleft()
            for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if 0 <= a < mask.shape[0] and 0 <= b < mask.shape[1] and mask[a, b] and not labels[a, b]:
                    labels[a, b] = n
                    todo.append((a, b))
    return labels, n


def _label_masks():
    """Random masks of every density and shape, 1 x n and n x 1 included,
    then empty, full and checkerboard masks."""
    rng = np.random.default_rng(20)
    masks = []
    for k in range(320):
        shape = [(1, int(rng.integers(1, 40))), (int(rng.integers(1, 40)), 1),
                 tuple(int(m) for m in rng.integers(1, 30, 2))][k % 3]
        masks.append(rng.random(shape) < rng.uniform(0.05, 0.95))
    for shape in ((1, 1), (1, 7), (7, 1), (12, 17)):
        board = np.indices(shape).sum(axis=0) % 2 == 0
        masks += [np.zeros(shape, dtype=bool), np.ones(shape, dtype=bool), board, ~board]
    return masks


def _label_map(mask):
    """_label_components' runs expanded to a dense label map, 0 on the
    background, with the component count; the runs must cover the mask's
    nodes once each."""
    labels = np.zeros(mask.shape, dtype=int)
    rows, starts, ends, run_labels = _label_components(mask)
    for j, s, e, c in zip(rows, starts, ends, run_labels):
        labels[j, s:e] = c
    assert sum(ends) - sum(starts) == np.count_nonzero(mask)
    return labels, max(run_labels, default=0)


def test_label_components_matches_bfs():
    for mask in _label_masks():
        labels, n = _label_map(mask)
        expected, n_expected = _label_bfs(mask)
        assert n == n_expected
        np.testing.assert_array_equal(labels, expected)


def test_label_components_matches_ndimage():
    ndimage = pytest.importorskip("scipy.ndimage")
    cross = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    masks = _label_masks()
    for name in ("intervention", "geometric"):
        spec, grid = get_fixture(name), suggested_grid(name)
        masks.append(solve(spec, grid).labels)
    for mask in masks:
        labels, n = _label_map(mask)
        expected, n_expected = ndimage.label(mask, structure=cross)
        assert n == n_expected
        np.testing.assert_array_equal(labels, expected)


def test_policy_and_boundary_csv(tmp_path):
    spec = intervention_spec()
    res = solve(spec, Grid(0.1, 4.1, 201, 100))
    n_action = int(res.labels.sum())
    assert n_action > 0
    pp = tmp_path / "policy.csv"
    bp = tmp_path / "boundary.csv"
    write_policy_csv(pp, res, {})
    write_boundary_csv(bp, res, {})
    plines = pp.read_text().splitlines()
    assert plines[0] == "t,x,xi0"
    assert len(plines) - 1 == n_action
    blines = bp.read_text().splitlines()
    assert blines[0] == "component,t,boundary_x"
    assert len(blines) > 1
    # the reported upper edge is the largest action x at that time slice
    xs = [float(ln.split(",")[2]) for ln in blines[1:]]
    xn = res.surface.grid.x_nodes()
    assert max(xs) == pytest.approx(float(xn[res.labels.any(axis=0)].max()))


def test_value_surface_evaluate_bilinear():
    spec = geometric_spec()
    res = solve(spec, Grid(0.1, 3.1, 51, 20))
    s = res.surface
    tn, xn = s.t_nodes(), s.grid.x_nodes()
    assert s.evaluate(float(tn[3]), float(xn[5])) == s.values[3, 5]
    mid = s.evaluate(float(tn[3]), float(0.5 * (xn[5] + xn[6])))
    assert mid == pytest.approx(0.5 * (s.values[3, 5] + s.values[3, 6]), rel=1e-12)
