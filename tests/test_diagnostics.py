"""Surface diagnostics: obstacle, bounds, regularity, smooth fit, structure,
and the refinement study."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import impulse_qvi
from impulse_qvi import diagnostics, dynamics, solver
from impulse_qvi.diagnostics import (CheckReport, ConvergenceStudy,
                                     check_bounds,
                                     check_obstacle, check_regularity,
                                     check_smooth_fit, check_theta_structure,
                                     convergence_study,
                                     standard_checks)
from impulse_qvi.fixtures import (closed_form_spec, fixture_reference,
                                  geometric_spec, get_fixture, intervention_spec,
                                  suggested_grid, zero_spec)
from impulse_qvi.model import CostParams, Curve
from impulse_qvi.solver import Grid, SolveResult, ValueSurface, solve, value_bounds

from test_model import make_spec
from test_solver import _cost_cases


@pytest.fixture(scope="module")
def intervention_solution():
    spec = intervention_spec()
    grid = Grid(0.1, 4.1, 201, 100)
    return spec, grid, solve(spec, grid)


def test_standard_checks_closed_form_all_pass():
    reports = standard_checks(closed_form_spec(), Grid(0.1, 2.1, 101, 100),
                              seed=3)
    by_name = {r.name: r for r in reports}
    assert set(by_name) == {"obstacle", "bounds", "regularity", "smooth_fit",
                            "theta_structure"}
    assert all(r.passed for r in reports)
    # no interventions are ever profitable here, so smooth fit is vacuous
    assert by_name["smooth_fit"].vacuous
    assert by_name["theta_structure"].vacuous


def test_standard_checks_intervention_all_pass():
    reports = standard_checks(intervention_spec(), Grid(0.1, 4.1, 201, 100),
                              seed=3)
    by_name = {r.name: r for r in reports}
    assert all(r.passed for r in reports), [r.line() for r in reports]
    assert not by_name["smooth_fit"].vacuous
    assert by_name["smooth_fit"].details["n_nodes"] > 0
    # region-edge nodes straddle a genuine kink and must be excluded
    assert by_name["smooth_fit"].details["excluded_boundary_nodes"] > 0
    assert by_name["theta_structure"].details["landing_violations"] == 0


def test_check_obstacle_detects_corruption(intervention_solution):
    spec, grid, res = intervention_solution
    good = check_obstacle(res.surface, spec)
    assert good.passed
    values = res.surface.values.copy()
    j, i = 5, 40
    values[j, i] = res.surface.iv_values[j, i] - 1e-3
    bad_surface = ValueSurface(grid, spec.T, values, res.surface.iv_values,
                               dict(res.surface.metadata))
    bad = check_obstacle(bad_surface, spec)
    assert not bad.passed
    assert bad.measured == pytest.approx(-1e-3, rel=0.3)
    assert bad.worst_location is not None


def _stacked_obstacle(surface, spec):
    """measured and worst_location from one stacked impulse_max call over
    the whole surface, the first row-major np.argmin of V - IV."""
    iv, _ = solver.impulse_max(surface.values, surface.grid, spec.costs)
    gap = surface.values - iv
    j, i = np.unravel_index(int(np.argmin(gap)), gap.shape)
    return float(gap[j, i]), (float(surface.t_nodes()[j]), float(surface.grid.x_nodes()[i]))


def _with_values(res, values):
    s = res.surface
    return ValueSurface(s.grid, s.T, values, s.iv_values, dict(s.metadata))


@pytest.mark.parametrize("case", ["solved", "nan", "equal rows", "equal rows past block 0"])
def test_check_obstacle_matches_one_stacked_reduction(intervention_solution, case):
    # the row-block reduction reports bit for bit what one stacked
    # impulse_max call and np.argmin give: a NaN is the minimum (its first
    # row-major node, though a violation comes earlier), and equal minima
    # in several row blocks go to the first
    spec, grid, res = intervention_solution
    blk = solver._ROWS
    values = res.surface.values.copy()
    assert values.shape[0] > 4 * blk
    if case == "nan":
        values[5, 40] = res.surface.iv_values[5, 40] - 1e-3
        values[3 * blk + 2, 7] = values[2 * blk + 1, 90] = np.nan
    elif case != "solved":  # every row the same solved row, from row blk + 3 on with a violation
        row = values[blk // 2].copy()
        values[:] = row
        row[40] = res.surface.iv_values[blk // 2, 40] - 1e-3
        values[0 if case == "equal rows" else blk + 3:] = row
    surface = _with_values(res, values)
    measured, loc = _stacked_obstacle(surface, spec)
    report = check_obstacle(surface, spec)
    assert np.array([report.measured]).tobytes() == np.array([measured]).tobytes()
    assert report.worst_location == loc
    if case == "nan":
        assert math.isnan(measured) and loc[0] == surface.t_nodes()[2 * blk + 1]
    elif case != "solved":
        first = 0 if case == "equal rows" else blk + 3
        assert loc == (surface.t_nodes()[first], grid.x_nodes()[40]) and measured < -1e-4


def test_check_obstacle_memory():
    # traced peak of the obstacle check on the intervention fixture's
    # surface: V's size and 1 MiB for one row block's impulse operator (the
    # stacked IV, maximizer and gap arrays peaked at 2.41 MiB here)
    spec = intervention_spec()
    surface = solve(spec, suggested_grid("intervention")).surface
    solver._impulse_plan(surface.grid, spec.costs)  # the cached plan is not the check's
    tracemalloc.start()
    try:
        report = check_obstacle(surface, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    bound = surface.values.nbytes + 2**20
    assert peak < bound, (peak / 2**20, bound / 2**20)


def test_smooth_fit_tightens_under_refinement():
    spec = intervention_spec()
    coarse = solve(spec, Grid(0.1, 4.1, 201, 100))
    fine = solve(spec, Grid(0.1, 4.1, 401, 200))
    rep_c = check_smooth_fit(coarse)
    rep_f = check_smooth_fit(fine)
    assert rep_c.passed and rep_f.passed
    assert not rep_c.vacuous and not rep_f.vacuous
    assert rep_f.threshold < rep_c.threshold  # 5h + 10 tol/h shrinks with h
    assert rep_f.measured <= rep_c.measured  # and the measured error shrinks


def test_smooth_fit_vacuous_on_empty_region():
    spec = geometric_spec()
    res = solve(spec, Grid(0.1, 3.1, 101, 50))
    assert not res.labels.any()
    rep = check_smooth_fit(res)
    assert rep.passed and rep.vacuous


def test_check_bounds_closed_form():
    spec = closed_form_spec()
    res = solve(spec, Grid(0.1, 2.1, 101, 100))
    rep = check_bounds(res.surface, spec, seed=5)
    assert rep.passed
    assert "MC n_paths=4000," in rep.tolerance_note
    # C1 = T sup f + sup g1 = 1 here, and V peaks at 2(1 - e^{-1/2}) < 1
    assert rep.details["c1"] == pytest.approx(1.0)
    assert rep.details["upper_margin"] > 0.2


@pytest.fixture(scope="module")
def geometric_solution():
    spec = geometric_spec()
    return spec, solve(spec, suggested_grid("geometric"))


def test_check_bounds_geometric_passes_below_zero(geometric_solution):
    # V dips below 0 at x_min, inside the derived lower bound -C0 (the CLI
    # test runs seeds 0-3)
    spec, res = geometric_solution
    rep = check_bounds(res.surface, spec, seed=0)
    assert rep.passed, rep.line()
    assert res.surface.values.min() < 0.0
    assert rep.details["c0"] == value_bounds(spec, res.surface.grid)[0] > 0.0
    assert rep.details["lower_grid_margin"] > 0.0


def test_check_bounds_reports_a_node_below_minus_c0(geometric_solution):
    # the grid sub-check is the worst one here: measured and worst_location
    # come from it, not from an MC sample
    spec, res = geometric_solution
    surf = res.surface
    c0 = value_bounds(spec, surf.grid)[0]
    values = surf.values.copy()
    j, i = 7, 150  # no MC sample time row
    values[j, i] = -c0 - 1e-3
    bad = ValueSurface(surf.grid, surf.T, values, surf.iv_values, dict(surf.metadata))
    rep = check_bounds(bad, spec, seed=0)
    assert not rep.passed
    assert rep.measured == pytest.approx(-1e-3, abs=1e-8)
    assert rep.worst_location == (surf.t_nodes()[j], surf.grid.x_nodes()[i])


def test_lower_bound_c0_mirrors_c1():
    # beta g2 - f peaks at 2 * 0.75 - 0.5 = 1 and g1 bottoms out at -0.25
    # on the nodes: C0 = T * 1 + 0.25; with f large and g1 >= 0, C0 = 0
    grid = Grid(0.0, 2.0, 5, 4)
    spec = make_spec(T=2.0, beta=Curve.table([0.0, 2.0], [1.0, 2.0]),
                     f=0.5, g2=Curve.table([0.0, 2.0], [0.75, 0.0]),
                     g1=Curve.table([0.0, 2.0], [-0.25, 1.0]))
    assert value_bounds(spec, grid)[0] == 2.0 * 1.0 + 0.25
    assert value_bounds(replace(spec, utilities=spec.utilities._replace(f=Curve.constant(5.0),
                                                                        g1=Curve.constant(0.0))),
                        grid)[0] == 0.0


def _outer_bound_sources(spec, grid):
    """max over the full (n_t + 1) x n_x grid of f - beta g2 and of
    beta g2 - f, from the outer products: the former form of the bounds."""
    x = grid.x_nodes()
    beta = np.asarray(spec.beta(grid.t_nodes(spec.T)), dtype=float)
    fx = np.asarray(spec.utilities.f(x), dtype=float)
    g2x = np.asarray(spec.utilities.g2(x), dtype=float)
    return (float(np.max(fx[None, :] - beta[:, None] * g2x[None, :])),
            float(np.max(beta[:, None] * g2x[None, :] - fx[None, :])))


def _c1_outer(spec, grid):
    return (max(0.0, _outer_bound_sources(spec, grid)[0]) * spec.T
            + max(0.0, spec.utilities.g1.upper_bound()))


def _c0_outer(spec, grid):
    sink = max(0.0, _outer_bound_sources(spec, grid)[1])
    return sink * spec.T + max(0.0, -float(np.min(spec.utilities.g1(grid.x_nodes()))))


_level = st.floats(-3.0, 3.0)


@st.composite
def _table(draw, lo, hi, values):
    """A table curve on 2-5 sorted distinct knots in [lo, hi]."""
    knots = draw(st.lists(st.floats(lo, hi), min_size=2, max_size=5, unique=True))
    return Curve.table(sorted(knots), draw(st.lists(values, min_size=len(knots),
                                                    max_size=len(knots))))


@settings(max_examples=200, deadline=None)
@given(T=st.floats(0.1, 3.0), n_t=st.integers(1, 60), n_x=st.integers(3, 40),
       beta=st.one_of(st.floats(0.0, 3.0).map(Curve.constant), _table(0.0, 3.0, st.floats(0.0, 3.0))),
       f=st.one_of(_level.map(Curve.constant), _table(0.0, 2.5, _level),
                   st.builds(Curve.saturating, st.floats(0.0, 2.0), st.floats(0.1, 5.0))),
       g2=st.one_of(st.just(Curve.constant(0.0)), _level.map(Curve.constant),
                    _table(0.0, 2.5, _level)),
       g1=st.one_of(_level.map(Curve.constant), _table(0.0, 2.5, _level)))
def test_bounds_from_beta_extremes_equal_the_outer_product(T, n_t, n_x, beta, f, g2, g1):
    # C1 and C0 take the max over time at beta's smallest or largest value;
    # a non-monotone beta table puts both extremes at interior time nodes
    spec = make_spec(T=T, beta=beta, f=f, g2=g2, g1=g1)
    grid = Grid(0.1, 2.1, n_x, n_t)
    c0, c1 = value_bounds(spec, grid)
    assert c1.hex() == _c1_outer(spec, grid).hex()
    assert c0.hex() == _c0_outer(spec, grid).hex()


def test_check_regularity_one_sided():
    spec = closed_form_spec()
    coarse = solve(spec, Grid(0.1, 2.1, 101, 50)).surface
    fine = solve(spec, Grid(0.1, 2.1, 101, 100)).surface
    ok = check_regularity(coarse, fine.grid, fine.values)
    assert ok.passed  # smooth data: proxies shrink under refinement
    # inflate the fine surface to force >10% proxy growth
    bad = check_regularity(coarse, fine.grid, fine.values * 3.0)
    assert not bad.passed


def _swept_surface(spec, grid, tol_inner=1e-9):
    """V of the backward sweep on grid, every row stacked: the surface that
    a V-only sweep reduces row by row.  It has no IV; the oracles that
    read it read V alone."""
    _, slices = solver._sweep(spec, grid, tol_inner)
    V = np.empty((grid.n_t + 1, grid.n_x))
    for j, _, v, _, _ in slices:
        V[j] = v
    return ValueSurface(grid, spec.T, V, None, {})


def _lipschitz_whole(surface):
    """The space-Lipschitz quotient over the whole surface at once."""
    return float(np.max(np.abs(np.diff(surface.values, axis=1)))) / surface.grid.h


def _holder_whole(surface):
    """The time-Holder quotient over the whole surface at once."""
    dt = surface.T / surface.grid.n_t
    xn = surface.grid.x_nodes()
    dv = np.abs(np.diff(surface.values, axis=0))
    return float(np.max(dv / ((1.0 + np.abs(xn))[None, :] * math.sqrt(dt))))


@pytest.mark.parametrize("name", ["closed-form", "intervention", "geometric", "zero"])
def test_regularity_rows_match_whole_surface_oracle(name):
    # check_regularity reduces the solved surface in stored order and the
    # time-refined sweep in sweep order, row by row: bit for bit the
    # quotients over each whole surface, and a NaN anywhere gives NaN
    spec, grid = get_fixture(name), suggested_grid(name)
    coarse = solve(spec, grid).surface
    fine_grid = replace(grid, n_t=2 * grid.n_t)
    fine = _swept_surface(spec, fine_grid)
    rep = check_regularity(coarse, fine_grid,
                           (v for _, _, v, _, _ in solver._sweep(spec, fine_grid, 1e-9)[1]))
    got = [rep.details[k] for k in ("lipschitz_coarse", "lipschitz_fine",
                                    "holder_coarse", "holder_fine")]
    expected = [_lipschitz_whole(coarse), _lipschitz_whole(fine),
                _holder_whole(coarse), _holder_whole(fine)]
    assert [q.hex() for q in got] == [q.hex() for q in expected]
    values = coarse.values.copy()
    values[grid.n_t // 2, grid.n_x // 2] = np.nan
    holed = coarse._replace(values=values)
    lip, hol = diagnostics._quotients(values[::-1], grid, spec.T)
    assert math.isnan(lip) and math.isnan(hol)
    assert math.isnan(_lipschitz_whole(holed)) and math.isnan(_holder_whole(holed))


def test_theta_structure_flags_landing_violation():
    # synthetic one-slice surface whose action region covers everything,
    # so every landing point is itself labeled action
    grid = Grid(0.1, 2.1, 21, 1)
    costs = intervention_spec().costs
    values = np.zeros((2, 21))
    labels = np.ones((2, 21), dtype=bool)
    xi0 = np.full((2, 21), costs.k_min)
    surface = ValueSurface(grid, 2.0, values, values.copy(), {})
    rep = check_theta_structure(SolveResult(surface, labels, xi0))
    assert not rep.passed
    assert rep.details["landing_violations"] > 0


def _smooth_fit_loops(res, tol=None):
    """check_smooth_fit as a loop over the sampled nodes, the eligible nodes
    listed one by one: the reference of the array form."""
    surface = res.surface
    grid = surface.grid
    h = grid.h
    if tol is None:
        tol_inner = float(surface.metadata["tol_inner"])
        tol = 5.0 * h + 10.0 * tol_inner / h
        note = f"tol = 5 h + 10 tol_inner / h with h={h:.4g}"
    else:
        note = f"explicit tol {tol:.4g} with h={h:.4g}"
    lab = res.labels
    inner = np.zeros_like(lab)
    inner[:, 1:-1] = lab[:, :-2] & lab[:, 1:-1] & lab[:, 2:]
    j, i = np.nonzero(inner)
    i_land = grid.nearest_node(grid.x_nodes()[i] + res.xi0[j, i])
    keep = (i_land >= 1) & (i_land <= grid.n_x - 2)
    nodes = list(zip(j[keep].tolist(), i[keep].tolist(), i_land[keep].tolist()))
    excluded = int(np.count_nonzero(res.labels)) - len(nodes)
    sample = nodes[::max(1, len(nodes) // 200)]
    tn = surface.t_nodes()
    xn = grid.x_nodes()
    worst = 0.0
    loc = None
    for j, i, i_land in sample:
        row = surface.values[j]
        for ii in (i, i_land):
            err = abs((row[ii + 1] - row[ii - 1]) / (2.0 * h) - 1.0)
            if err > worst:
                worst = err
                loc = (float(tn[j]), float(xn[ii]))
    return CheckReport(
        name="smooth_fit", passed=bool(not nodes or worst <= tol), measured=float(worst),
        threshold=float(tol),
        operation="central-difference V_x at action and landing nodes vs 1",
        tolerance_note=note if nodes else "no interior action nodes; vacuous",
        worst_location=loc, vacuous=not nodes,
        details={"n_nodes": len(sample), "excluded_boundary_nodes": excluded})


def _theta_structure_loops(res):
    """check_theta_structure as a loop over the time rows: the reference of
    the array form."""
    surface = res.surface
    grid = surface.grid
    tn = surface.t_nodes()
    xn = grid.x_nodes()
    landing_violations = 0
    worst_chain = np.inf
    loc = None
    n_action = 0
    for j in range(surface.values.shape[0]):
        idx = np.nonzero(res.labels[j])[0]
        if idx.size == 0:
            continue
        n_action += idx.size
        iv_row = surface.iv_values[j]
        second = np.abs(np.diff(surface.values[j], 2))
        e_int = float(np.max(second)) / 8.0 if second.size else 0.0
        slack = 2.0 * e_int + 1e-12
        land = xn[idx] + res.xi0[j, idx]
        landing_violations += int(np.count_nonzero(res.labels[j, grid.nearest_node(land)]))
        chain = iv_row[idx] - (solver.interp_extended(xn, iv_row, land) - res.xi0[j, idx]) + slack
        i_bad = int(np.argmin(chain))
        if chain[i_bad] < worst_chain:
            worst_chain = float(chain[i_bad])
            loc = (float(tn[j]), float(xn[idx[i_bad]]))
    vacuous = n_action == 0
    return CheckReport(
        name="theta_structure", passed=bool(landing_violations == 0 and worst_chain >= 0.0),
        measured=0.0 if vacuous else float(worst_chain), threshold=0.0,
        operation="maximizer exists, lands in continuation, operator chain inequality",
        tolerance_note=("action region empty; vacuous" if vacuous
                        else "chain slack 2.0 x max|second difference|/8 per slice"),
        worst_location=loc, vacuous=vacuous,
        details={} if vacuous else {"n_action_nodes": n_action,
                                    "landing_violations": landing_violations})


@st.composite
def _solve_results(draw):
    """A SolveResult of 3-25 nodes and 1-12 steps: labels with empty rows
    and edge nodes, xi0 landing between nodes and beyond x_max, and V and
    IV on a coarse lattice, so that differences tie."""
    n_x, n_t = draw(st.integers(3, 25)), draw(st.integers(1, 12))
    h = draw(st.sampled_from([0.05, 0.1, 0.25]))
    grid = Grid(0.1, 0.1 + h * (n_x - 1), n_x, n_t)
    shape = (n_t + 1, n_x)

    def array(elements):
        return np.array(draw(st.lists(elements, min_size=shape[0] * shape[1],
                                      max_size=shape[0] * shape[1]))).reshape(shape)

    rows = np.array(draw(st.lists(st.booleans(), min_size=shape[0], max_size=shape[0])))
    labels = array(st.booleans()) & rows[:, None]
    # quarter cells put landings on nodes and halfway between them
    xi0 = np.where(labels, array(st.integers(1, 4 * n_x + 8)) * (h / 4.0), np.nan)
    values = array(st.integers(-8, 8)) / 4.0
    iv = values - array(st.integers(0, 3)) / 4.0
    tol_inner = draw(st.sampled_from([1e-9, 1e-4]))
    return SolveResult(ValueSurface(grid, 1.0, values, iv, {"tol_inner": tol_inner}), labels, xi0)


def _dense_result():
    """Every node acting on a 60 x 13 grid: 689 eligible nodes, so the
    smooth-fit sample takes every third."""
    grid = Grid(0.1, 3.05, 60, 12)
    xn = grid.x_nodes()
    values = np.round(np.sin(3.0 * xn)[None, :] * np.linspace(1.0, 2.0, 13)[:, None], 2)
    xi0 = np.broadcast_to(0.12 + 0.01 * np.arange(60.0) % 0.4, (13, 60)).copy()
    surface = ValueSurface(grid, 1.0, values, values - 0.01, {"tol_inner": 1e-9})
    return SolveResult(surface, np.ones((13, 60), dtype=bool), xi0)


@settings(max_examples=300, deadline=None)
@given(res=_solve_results(), tol=st.sampled_from([None, 0.0, 0.5, 2.0]))
@example(res=_dense_result(), tol=None)
def test_region_checks_match_their_loop_references(res, tol):
    # the array forms report what the loops reported, field for field,
    # worst locations (the first extreme in row-major order) included
    assert repr(check_smooth_fit(res, tol)._asdict()) == repr(_smooth_fit_loops(res, tol)._asdict())
    assert (repr(check_theta_structure(res)._asdict())
            == repr(_theta_structure_loops(res)._asdict()))


def test_solver_is_numerics_only():
    # the solver binds nothing of the path engine; the check that runs
    # paths is defined in diagnostics
    assert not any(v is dynamics or getattr(v, "__module__", None) == dynamics.__name__
                   for v in vars(solver).values())
    assert not hasattr(solver, "dpp_residual")
    assert diagnostics.dpp_residual.__module__ == diagnostics.__name__
    assert "dpp_residual" in impulse_qvi.__all__
    for name in ("running_cost", "terminal_value", "sample_default", "mc_cost_f"):
        assert name not in impulse_qvi.__all__


def test_check_report_shape():
    rep = CheckReport(name="demo", passed=True, measured=0.5, threshold=1.0,
                      operation="op", tolerance_note="note", details={"k": 1})
    d = rep._asdict()
    assert "runtime" not in d  # wall clock never reaches artifacts
    assert d["details"] == {"k": 1}
    assert "demo" in rep.line() and "PASS" in rep.line()
    vac = CheckReport(name="v", passed=True, measured=0.0, threshold=0.0,
                      operation="op", tolerance_note="n", details={}, vacuous=True)
    assert "vacuous" in vac.line()


def test_convergence_study_closed_form():
    spec = closed_form_spec()
    ref = fixture_reference("closed-form")
    study = convergence_study(spec, Grid(0.1, 2.1, 51, 50), 3, reference=ref)
    assert len(study.rows) == 3
    assert len(study.ratios) == 1
    assert len(study.reference_errors) == 3
    # first order in time: reference errors halve, Cauchy ratio near 2
    r01 = study.reference_errors[0] / study.reference_errors[1]
    r12 = study.reference_errors[1] / study.reference_errors[2]
    assert 1.6 <= r01 <= 2.4 and 1.6 <= r12 <= 2.4
    assert study.ratios[0] >= 1.8
    d = study._asdict()
    assert d["rows"][0]["sup_diff_to_next"] > d["rows"][1]["sup_diff_to_next"]


def test_convergence_study_zero_fixture_degenerate():
    spec = zero_spec()
    study = convergence_study(spec, Grid(0.1, 2.1, 31, 10), 3)
    assert all(d == 0.0 for d in
               (row["sup_diff_to_next"] for row in study.rows[:-1]))
    assert study.ratios[0] == np.inf  # 0/0 ladder reported as inf, not NaN


def _convergence_study_all_levels(spec, grids, reference=None, tol_inner=1e-9):
    """The former convergence_study, every level held at once and each
    reduction over full-size arrays: the oracle of the lockstep ladder."""
    surfaces = [_swept_surface(spec, g, tol_inner) for g in grids]
    rows = [{"n_x": g.n_x, "n_t": g.n_t, "h": g.h, "dt": spec.T / g.n_t} for g in grids]

    def exact(s):
        xn = s.grid.x_nodes()
        return np.array([np.broadcast_to(reference(t, xn), xn.shape) for t in s.t_nodes()])

    ref_errors = [] if reference is None else [
        float(np.max(np.abs(s.values - exact(s)))) for s in surfaces]
    diffs = [float(np.max(np.abs(a.values - np.array([b.evaluate(t, a.grid.x_nodes())
                                                        for t in a.t_nodes()]))))
             for a, b in zip(surfaces, surfaces[1:])]
    for i, d in enumerate(diffs):
        rows[i]["sup_diff_to_next"] = d
    ratios = [diffs[i] / diffs[i + 1] if diffs[i + 1] > 0 else math.inf
              for i in range(len(diffs) - 1)]
    return ConvergenceStudy(rows=rows, ratios=ratios, reference_errors=ref_errors)


def _ladder(grid, levels):
    return [replace(grid, n_t=grid.n_t * 2**i) for i in range(levels)]


@pytest.mark.parametrize("spec, grid, levels, reference", [
    (closed_form_spec(), suggested_grid("closed-form"), 3, fixture_reference("closed-form")),
    (zero_spec(), Grid(0.1, 2.1, 31, 10), 3, None),
    # odd n_t, and row counts that are not multiples of the block
    (intervention_spec(), Grid(0.1, 4.1, 41, 35), 4, None),
], ids=["closed-form-cli-ladder", "zero", "intervention-odd-n_t"])
def test_convergence_study_matches_all_levels_oracle(spec, grid, levels, reference):
    study = convergence_study(spec, grid, levels, reference=reference)
    oracle = _convergence_study_all_levels(spec, _ladder(grid, levels), reference=reference)
    assert repr(study._asdict()) == repr(oracle._asdict())


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_cost_cases(), levels=st.integers(2, 3), half=st.integers(0, 5))
def test_convergence_study_matches_oracle_on_random_specs(case, levels, half):
    # a random admissible spec on a ladder from an odd n_t: the same table
    # as the oracle, or the same error from both
    spec, grid = case
    grid = replace(grid, n_t=2 * half + 1)
    try:
        study = convergence_study(spec, grid, levels)
    except (ValueError, solver.NumericalError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            _convergence_study_all_levels(spec, _ladder(grid, levels))
        return
    oracle = _convergence_study_all_levels(spec, _ladder(grid, levels))
    assert repr(study._asdict()) == repr(oracle._asdict())


# Feynman-Kac cross-check: with kappa = 1e6 no injection pays, so V is the
# no-control value that mc_cost_g estimates.  Fixed before any outcome was
# seen: 16 derandomized cases, x0 = 1, the grid [0.05, 6] at 600 x 400,
# 20,000 paths at the solve's dt, MC seed 7, and the budget 3 SE + dt + h
# + 1e-8, check_bounds' MC budget taken two-sided
@settings(max_examples=16, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_cost_cases())
def test_priced_out_value_matches_no_control_monte_carlo(case):
    spec, _ = case
    grid = Grid(0.05, 6.0, 600, 400)
    c = spec.costs
    spec = replace(spec, costs=CostParams(1e6, max(c.k_min, grid.h), max(c.k_max, grid.h)))
    dt = spec.T / grid.n_t
    v = float(solve(spec, grid).surface.evaluate(0.0, 1.0))
    est = dynamics.mc_cost_g(spec, 0.0, 1.0, None, dt, 20000, 7)
    assert abs(v - est.estimate) <= 3.0 * est.std_error + dt + grid.h + 1e-8, (spec, v, est)


def _traced_peak(run):
    """The tracemalloc peak, in bytes, of run()."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_convergence_study_holds_no_level():
    # traced peak of a 5-level closed-form ladder on the CLI's 400 x 400
    # grid: below 32 rows of n_x doubles per level, 0.49 MiB, since each
    # level holds its current row and one block of its step plan, whatever
    # its n_t.  (The ladder that stored a level while it swept the next
    # peaked at 15.1 MiB here, and the one whose plans held a table of
    # every step at 1.49 MiB.)  That includes validate's transient at the
    # start of each sweep, about 80 rows
    levels, n_x = 5, 400
    bound = levels * 32 * 8 * n_x
    peak = _traced_peak(lambda: convergence_study(
        closed_form_spec(), Grid(0.1, 2.1, n_x, 400), levels,
        reference=fixture_reference("closed-form")))
    assert peak < bound, (peak / 2**20, bound / 2**20)


def test_convergence_study_peak_grows_by_rows_not_steps():
    # on a narrow grid the rows are small, so a table that grows with the
    # steps would show: levels 3 to 7 add 48,000 steps, so 8 B per step
    # would add 375 KiB, and the plans that tabled every step grew by
    # 5.2 MiB here.  Each added level may add 128 rows of n_x doubles
    # (164 KiB for all four): its current row, one block of its step plan
    # and its generators, whatever its n_t
    grid = Grid(0.1, 2.1, 41, 400)
    spec, ref = closed_form_spec(), fixture_reference("closed-form")
    peaks = [_traced_peak(lambda: convergence_study(spec, grid, levels, reference=ref))
             for levels in (3, 7)]
    assert peaks[1] - peaks[0] < 4 * 128 * 8 * grid.n_x, [p / 2**10 for p in peaks]


def test_standard_checks_holds_no_fine_surface():
    # the regularity check reduces the time-refined sweep row by row, so
    # on intervention's suggested grid the traced peak stays at 3.5 MiB,
    # the solve's three stacked arrays (1.85 MiB) and blocked temporaries
    # (with the fine surface stored it was 5.67 MiB here).  A first run
    # imports numpy.random lazily, which is not the checks' own memory
    spec, grid = intervention_spec(), suggested_grid("intervention")
    standard_checks(spec, Grid(grid.x_min, grid.x_max, 81, 10))
    peak = _traced_peak(lambda: standard_checks(spec, grid))
    assert peak <= 3.5 * 2**20, peak / 2**20


@pytest.mark.parametrize("fails, expected", [
    ({2: 0, 1: 5}, 1),         # the finest fails first; level 1 fails later on
    ({1: 0, 0: 10}, 0),        # the middle fails first; level 0 fails at its end
    ({2: 0, 1: 3, 0: 10}, 0),
    ({2: 4}, 2),               # only the finest fails
    ({1: 7}, 1),
])
def test_convergence_study_raises_the_lowest_failing_level(monkeypatch, fails, expected):
    # the lockstep ladder meets a finer level's failure first, yet raises
    # the error that sweeping the levels one after another would: the
    # first error of the lowest level that fails.  Level i's sweep raises
    # before its slice fails[i], a ValueError on even levels and a
    # NumericalError on odd ones
    grid = Grid(0.1, 2.1, 31, 10)
    sweep = diagnostics._sweep

    def failing(spec, g, tol_inner):
        level = (g.n_t // grid.n_t).bit_length() - 1
        error = (ValueError, solver.NumericalError)[level % 2]
        c1, slices = sweep(spec, g, tol_inner)

        def gen():
            for k, s in enumerate(slices):
                if fails.get(level) == k:
                    raise error(f"level {level} fails at slice {k}")
                yield s
        return c1, gen()

    monkeypatch.setattr(diagnostics, "_sweep", failing)
    with pytest.raises((ValueError, solver.NumericalError)) as caught:
        convergence_study(zero_spec(), grid, 3)
    assert caught.type is (ValueError, solver.NumericalError)[expected % 2]
    assert str(caught.value) == f"level {expected} fails at slice {fails[expected]}"
