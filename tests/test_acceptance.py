"""Acceptance gate: ten criteria, one summary line each.

Each test measures its quantity, records a `criterion N: PASS/FAIL` line
(echoed in the pytest terminal summary), then asserts.  Tolerances, seeds,
and grids are frozen here on purpose -- a change that moves these numbers
is a change in behavior, not in style.
"""

import filecmp
import math
import time

import numpy as np
import pytest

from conftest import record_criterion
from impulse_qvi import cli
from impulse_qvi.diagnostics import check_smooth_fit, convergence_study, dpp_residual
from impulse_qvi.dynamics import (FeedbackPolicy, ImpulseSchedule,
                                  filtration_reduction_check)
from impulse_qvi.fixtures import fixture_reference, get_fixture, suggested_grid
from impulse_qvi.model import CostParams, injection_cost
from impulse_qvi.solver import Grid, impulse_max, interp_extended, solve

FIXTURE_NAMES = ("closed-form", "intervention", "geometric", "zero")

_CACHE = {}


def solved(name):
    """Suggested-grid solution for a named fixture, solved once per run."""
    if name not in _CACHE:
        spec = get_fixture(name)
        start = time.perf_counter()
        res = solve(spec, suggested_grid(name))
        _CACHE[name] = (spec, res, time.perf_counter() - start)
    return _CACHE[name]


def _record(n, ok, detail):
    record_criterion(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_closed_form_reproduction():
    spec, res, wall = solved("closed-form")
    ref = fixture_reference("closed-form")
    tn = res.surface.t_nodes()
    xn = res.surface.grid.x_nodes()
    exact = np.array([[ref(t, x) for x in xn] for t in tn])
    rel = np.max(np.abs(res.surface.values - exact) / np.maximum(np.abs(exact), 1e-12))
    ok = rel <= 1e-3 and wall <= 10.0
    _record(1, ok, f"closed-form max rel error {rel:.2e} (tol 1e-03), "
                   f"solve {wall:.1f} s (limit 10 s) on 400x400")
    assert rel <= 1e-3
    assert wall <= 10.0


def test_criterion_02_filtration_reduction():
    n_paths, dt, seed = 100_000, 0.005, 101
    geo = get_fixture("geometric")
    spec_i, res_i, _ = solved("intervention")
    feedback = FeedbackPolicy(res_i)
    cases = [
        ("no impulses", geo, 1.0, None),
        ("2-impulse schedule", geo, 1.0,
         ImpulseSchedule(np.array([0.2, 0.8]), np.array([0.3, 0.5]))),
        ("feedback policy", spec_i, 0.15, feedback),
    ]
    ratios = []
    ok = True
    for label, spec, x0, control in cases:
        start = time.perf_counter()
        rep = filtration_reduction_check(spec, 0.0, x0, control, dt,
                                         n_paths, seed)
        wall = time.perf_counter() - start
        ratios.append(abs(rep.difference) / (3.0 * rep.combined_se))
        ok = ok and rep.passed and wall <= 60.0
        assert wall <= 60.0, (label, wall)
        assert rep.passed, (label, rep.difference, rep.combined_se)
    _record(2, ok, "two cost representations agree within 3 SE at n=1e5; "
                   "|diff|/3SE = " + ", ".join(f"{r:.2f}" for r in ratios))
    assert ok


def test_criterion_03_obstacle_inequality():
    worst = {}
    for name in FIXTURE_NAMES:
        _, res, _ = solved(name)
        worst[name] = float(np.min(res.surface.values - res.surface.iv_values))
    ok = all(v >= -1e-8 for v in worst.values())
    _record(3, ok, "min(V - IV) over suggested grids: " +
            ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))
    assert ok, worst


def test_criterion_04_dpp_residual():
    spec, res, _ = solved("intervention")
    dt, n_paths, seed = 0.01, 20_000, 77
    budget_disc = spec.T / res.surface.grid.n_t + res.surface.grid.h
    worst_ratio = 0.0
    ok = True
    for t in (0.2, 0.6, 1.0, 1.4):
        theta = t + 0.5 * (spec.T - t)
        for x in (0.3, 0.7, 1.1, 1.5, 1.9):
            est = dpp_residual(spec, res, t, x, theta, dt, n_paths, seed)
            budget = 3.0 * est.std_error + budget_disc
            worst_ratio = max(worst_ratio, abs(est.estimate) / budget)
            ok = ok and abs(est.estimate) <= budget
    _record(4, ok, f"20 interior points, theta at half horizon: worst "
                   f"|residual|/(3 SE + dt + h) = {worst_ratio:.3f}")
    assert ok
    assert worst_ratio <= 1.0


def test_criterion_05_smooth_fit():
    spec = get_fixture("intervention")
    _, res_c, _ = solved("intervention")           # h = 0.01
    res_f = solve(spec, Grid(0.1, 4.1, 801, 400))       # h = 0.005
    reps = []
    for res, h in ((res_c, 0.01), (res_f, 0.005)):
        tol = 5.0 * h + 1e-6 / h
        reps.append(check_smooth_fit(res, tol=tol))
    rep_c, rep_f = reps
    ok = (rep_c.passed and rep_f.passed and not rep_c.vacuous
          and not rep_f.vacuous and rep_f.threshold < rep_c.threshold
          and rep_f.measured <= rep_c.measured)
    _record(5, ok, f"|V_x - 1| at action+landing nodes: {rep_c.measured:.4f} "
                   f"(tol {rep_c.threshold:.4f}) at h=0.01, {rep_f.measured:.4f} "
                   f"(tol {rep_f.threshold:.4f}) at h=0.005")
    assert ok, (rep_c.line(), rep_f.line())


def test_criterion_06_monotone_structure():
    ok = True
    notes = []
    for name in FIXTURE_NAMES:
        _, res, _ = solved(name)
        drop = float(np.min(np.diff(res.surface.values, axis=1)))
        n_x = res.surface.grid.n_x
        n_top = max(1, n_x // 10)
        tail_actions = int(res.labels[:, n_x - n_top:].sum())
        ok = ok and drop >= -1e-8 and tail_actions == 0
        notes.append(f"{name} min step {drop:.1e}, tail actions {tail_actions}")
    _record(6, ok, "V(t,.) nondecreasing and top 10% of x-grid action-free: "
            + "; ".join(notes))
    assert ok, notes


def test_criterion_07_impulse_operator_oracle():
    # exhaustive (node, K) scan over a dense K set that contains the n_k-point
    # injection grid the operator once searched: the exact sup is at least
    # every scanned gain, and above the scan's max by at most the gain's
    # slope bound (max |v_x| + 1) times the scan step
    rng = np.random.default_rng(2024)
    worst_below, worst_excess = 0.0, 0.0
    for _ in range(50):
        n_x = int(rng.integers(20, 80))
        n_k = int(rng.integers(2, 40))
        x_min = float(rng.uniform(0.05, 0.5))
        grid = Grid(x_min, x_min + float(rng.uniform(1.0, 4.0)), n_x, 1)
        k_min = float(rng.uniform(0.05, 0.5))
        costs = CostParams(kappa=float(rng.uniform(0.01, 0.5)), k_min=k_min,
                           k_max=k_min + float(rng.uniform(0.1, 2.0)))
        v = np.cumsum(rng.normal(0.0, 0.3, n_x))
        iv, ks = impulse_max(v, grid, costs)
        x = grid.x_nodes()
        kg = np.union1d(np.linspace(costs.k_min, costs.k_max, n_k),
                        np.linspace(costs.k_min, costs.k_max, 2001))
        bound = (float(np.max(np.abs(np.diff(v)))) / grid.h + 1.0) * float(np.max(np.diff(kg)))
        assert np.all((ks >= costs.k_min) & (ks <= costs.k_max))
        assert np.array_equal(iv, interp_extended(x, v, x + ks) - injection_cost(ks, costs))
        dense = np.max(interp_extended(x, v, x[:, None] + kg[None, :])
                       - injection_cost(kg, costs)[None, :], axis=1)
        worst_below = max(worst_below, float(np.max(dense - iv)))
        worst_excess = max(worst_excess, float(np.max(iv - dense)) / bound)
    ok = worst_below <= 1e-12 and worst_excess <= 1.0
    _record(7, ok, f"impulse operator vs exhaustive (node, K) scan on 50 "
                   f"random slices: scan above operator by at most {worst_below:.1e} "
                   f"(tol 1e-12), operator above scan by at most "
                   f"{worst_excess:.2f} of the slope bound (cap 1)")
    assert ok


def test_criterion_08_cost_subadditivity():
    rng = np.random.default_rng(88)
    dyadic = CostParams(kappa=0.0625, k_min=0.0625, k_max=8.0)
    n = rng.integers(2**12, 2**16, size=(10_000, 2))
    k1, k2 = n[:, 0] / 2.0**16, n[:, 1] / 2.0**16
    lhs = injection_cost(k1 + k2, dyadic) + dyadic.kappa
    rhs = injection_cost(k1, dyadic) + injection_cost(k2, dyadic)
    dyadic_exact = bool(np.array_equal(lhs, rhs))

    generic = CostParams(kappa=0.04, k_min=0.1, k_max=1.5)
    k1 = rng.uniform(0.05, 2.0, 10_000)
    k2 = rng.uniform(0.05, 2.0, 10_000)
    lhs = injection_cost(k1 + k2, generic) + generic.kappa
    rhs = injection_cost(k1, generic) + injection_cost(k2, generic)
    ulps = np.abs(lhs - rhs) / np.spacing(np.maximum(np.abs(lhs), np.abs(rhs)))
    generic_ok = bool(np.all(ulps <= 2.0))
    ok = dyadic_exact and generic_ok
    _record(8, ok, f"cost(K1+K2)+kappa == cost(K1)+cost(K2): bitwise on 1e4 "
                   f"dyadic pairs; {float(np.max(ulps)):.1f} ulp worst on 1e4 "
                   f"generic pairs (cap 2)")
    assert dyadic_exact
    assert generic_ok


def test_criterion_09_time_convergence():
    ref = fixture_reference("closed-form")
    study = convergence_study(get_fixture("closed-form"), Grid(0.1, 2.1, 101, 100), 3,
                              reference=ref)
    e = study.reference_errors
    ref_ratios = (e[0] / e[1], e[1] / e[2])
    ref_ok = all(1.6 <= r <= 2.4 for r in ref_ratios)

    cauchy = {}
    for name in ("intervention", "geometric"):
        spec = get_fixture(name)
        g0 = suggested_grid(name)
        st = convergence_study(spec, Grid(g0.x_min, g0.x_max, 201, 50), 3)
        cauchy[name] = st.ratios[0]
    cauchy_ok = all(r >= 1.8 for r in cauchy.values())
    ok = ref_ok and cauchy_ok
    _record(9, ok, f"halving dt: closed-form error ratios "
                   f"{ref_ratios[0]:.2f}, {ref_ratios[1]:.2f} (in [1.6, 2.4]); "
                   f"Cauchy ratios intervention {cauchy['intervention']:.2f}, "
                   f"geometric {cauchy['geometric']:.2f} (>= 1.8)")
    assert ref_ok, ref_ratios
    assert cauchy_ok, cauchy


def test_criterion_10_deterministic_artifacts(tmp_path):
    sched = tmp_path / "sched.json"
    sched.write_text("[[0.2, 0.3], [0.8, 0.5]]")
    jobs = [
        ("solve", ["--spec", "fixture:closed-form", "--nx", "101", "--nt",
                   "50"]),
        ("simulate", ["--spec", "fixture:geometric", "--seed", "5", "--paths",
                      "800", "--dt", "0.01", "--policy", "schedule",
                      "--schedule", str(sched), "--record-paths", "2"]),
        ("validate", ["--spec", "fixture:intervention"]),
        ("check", ["--spec", "fixture:zero", "--seed", "9", "--nx", "31",
                   "--nt", "10"]),
        ("converge", ["--spec", "fixture:closed-form", "--nx", "31", "--nt",
                      "25", "--levels", "2"]),
    ]
    n_files = 0
    ok = True
    for cmd, extra in jobs:
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{cmd}_{tag}"
            assert cli.main([cmd, "--out", str(out)] + extra) == 0, cmd
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            same = filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False)
            ok = ok and same
            assert same, (cmd, name)
            n_files += 1
    _record(10, ok, f"all five subcommands rerun byte-identical "
                    f"({n_files} artifacts compared)")
    assert ok
