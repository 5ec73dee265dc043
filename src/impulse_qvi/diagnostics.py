"""Lemma-level diagnostics for solved surfaces.

Each check returns a CheckReport naming the operation, the tolerance it
applied, the measured quantity, and the worst location.  Checks never
raise on a violation; they report it.  Reports carry no wall-clock
time, so repeated runs stay byte-identical.  check_smooth_fit(res,
tol=None) and check_theta_structure(res) read the action region from the
SolveResult alone, through SolveResult.landings, and check_bounds reads
C0 and C1 from solver.value_bounds, as the solver's sweep reads C1.

The checks that need the model's paths live here too: check_bounds
takes its no-control MC value, the default-truncated cost_g, from
dynamics.filtration_reduction_check, and dpp_residual runs a
SolveResult's own policy through the Monte Carlo engine, so that the
solver itself stays numerics only.
"""

import collections
import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .dynamics import (FeedbackPolicy, MCEstimate, _Moments, _simulate_chunks,
                       filtration_reduction_check)
from .model import ModelSpec, survival_grid
from .solver import (_ROWS, TOL_INNER, Grid, SolveResult, ValueSurface, _sweep, impulse_max,
                     interp_extended, solve, value_bounds)


class CheckReport(NamedTuple):
    name: str
    passed: bool
    measured: float
    threshold: float
    operation: str
    tolerance_note: str
    details: dict
    worst_location: tuple | None = None
    vacuous: bool = False

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        if self.vacuous:
            tag = "PASS (vacuous)"
        return (f"{self.name:<18} {tag:<15} measured={self.measured:.6g} "
                f"threshold={self.threshold:.6g} [{self.operation}; {self.tolerance_note}]")


def check_obstacle(surface: ValueSurface, spec: ModelSpec) -> CheckReport:
    """V >= IV everywhere within a slack of 1e-8, IV recomputed fresh from
    the stored values.

    V - IV is reduced by row blocks, one impulse_max call of _ROWS rows
    each, so no IV, maximizer or gap array as large as V is built.  The
    worst node is the first row-major minimum, a NaN taken as the
    minimum, as np.argmin over the whole gap would give."""
    values = surface.values
    worst, at = math.inf, 0  # the worst gap so far and its flat index
    for r in range(0, values.shape[0], _ROWS):
        block = values[r:r + _ROWS]
        gap = block - impulse_max(block, surface.grid, spec.costs)[0]
        k = int(np.argmin(gap))
        g = float(gap.flat[k])
        # strict: an earlier block keeps a tie, and the first NaN stays the minimum
        if g < worst or (math.isnan(g) and not math.isnan(worst)):
            worst, at = g, r * values.shape[1] + k
    j, i = np.unravel_index(at, values.shape)
    loc = (float(surface.t_nodes()[j]), float(surface.grid.x_nodes()[i]))
    return CheckReport(
        name="obstacle",
        passed=bool(worst >= -1e-8),
        measured=worst,
        threshold=-1e-8,
        operation="min over the grid of V - IV (IV recomputed)",
        tolerance_note="obstacle slack 1e-08",
        worst_location=loc,
        details={},
    )


_BOUNDS_PATHS = 4000  # Monte Carlo paths per sampled point of check_bounds


def check_bounds(surface: ValueSurface, spec: ModelSpec, seed: int = 0) -> CheckReport:
    """-C0 <= V <= C1 (solver.value_bounds) over the surface, and V >=
    (no-control MC value) - 3 SE - (dt + h) at 6 sampled points, each the
    cost_g of filtration_reduction_check over _BOUNDS_PATHS paths with the
    surface's dt as the MC step.
    measured and worst_location are those of the worst of the three."""
    grid = surface.grid
    tn = surface.t_nodes()
    xn = grid.x_nodes()
    dt = surface.T / grid.n_t

    c0, c1 = value_bounds(spec, grid)
    upper_margin = c1 + 1e-9 - float(np.max(surface.values))
    iu, ju = np.unravel_index(int(np.argmax(surface.values)), surface.values.shape)
    grid_margin = float(np.min(surface.values)) + c0 + 1e-9
    il, jl = np.unravel_index(int(np.argmin(surface.values)), surface.values.shape)

    # no-control MC lower bound at a deterministic sample of interior points
    t_samples = tn[[0, grid.n_t // 2]]
    qs = np.linspace(0.15, 0.85, 3)
    x_samples = np.quantile(xn, qs)
    budget = dt + grid.h
    worst_lower = np.inf
    loc_lower = None
    for ts in t_samples:
        for xs in x_samples:
            est = filtration_reduction_check(spec, float(ts), float(xs), None, dt,
                                             _BOUNDS_PATHS, seed).cost_g
            margin = float(surface.evaluate(ts, xs)) - (est.estimate - 3.0 * est.std_error - budget)
            if margin < worst_lower:
                worst_lower = margin
                loc_lower = (float(ts), float(xs))

    # the first worst sub-check, MC lower bound first on ties
    measured, loc = min([(worst_lower, loc_lower),
                         (upper_margin, (float(tn[iu]), float(xn[ju]))),
                         (grid_margin, (float(tn[il]), float(xn[jl])))], key=lambda m: m[0])
    return CheckReport(
        name="bounds",
        passed=bool(measured >= 0.0),
        measured=float(measured),
        threshold=0.0,
        operation="-C0 <= V <= C1 and V >= no-control MC value - 3 SE - (dt + h)",
        tolerance_note=f"C0={c0:.6g}, C1={c1:.6g}, MC n_paths={_BOUNDS_PATHS}, "
                       f"budget dt+h={budget:.3g}",
        worst_location=loc,
        details={"c0": c0, "c1": c1, "upper_margin": upper_margin,
                 "worst_lower_margin": worst_lower, "lower_grid_margin": grid_margin},
    )


def _quotients(rows, grid: Grid, T: float) -> tuple[float, float]:
    """max |V[j, i+1] - V[j, i]| / h and max |V[j+1, i] - V[j, i]| / ((1 + |x_i|) sqrt(dt))
    over a surface's rows in time order, either way, as running np.maximum scalars."""
    scale = (1.0 + np.abs(grid.x_nodes())) * math.sqrt(T / grid.n_t)
    rows = iter(rows)
    prev = next(rows)
    lip = np.abs(np.diff(prev)).max()
    hol = -math.inf
    for v in rows:
        lip = np.maximum(lip, np.abs(np.diff(v)).max())
        hol = np.maximum(hol, (np.abs(v - prev) / scale).max())
        prev = v
    return float(lip) / grid.h, float(hol)


def check_regularity(coarse: ValueSurface, fine_grid: Grid, fine_rows) -> CheckReport:
    """Space-Lipschitz and time-Holder difference quotients must not grow by
    more than 10% under refinement (they may shrink; smooth data sends the Holder
    quotient to zero like sqrt(dt)).  fine_rows may come straight from a sweep."""
    lip_c, hol_c = _quotients(coarse.values, coarse.grid, coarse.T)
    lip_f, hol_f = _quotients(fine_rows, fine_grid, coarse.T)
    finite = all(np.isfinite(v) for v in (lip_c, lip_f, hol_c, hol_f))
    lip_ok = lip_f <= lip_c * 1.1 + 1e-9
    hol_ok = hol_f <= hol_c * 1.1 + 1e-9
    growth = max(lip_f / max(lip_c, 1e-9), hol_f / max(hol_c, 1e-9))
    return CheckReport(
        name="regularity",
        passed=bool(finite and lip_ok and hol_ok),
        measured=float(growth),
        threshold=1.1,
        operation="growth of max |dV/dx| and max |dV| / ((1+|x|) sqrt(dt)) under refinement",
        tolerance_note="allowed growth 10%; shrinking always passes",
        details={"lipschitz_coarse": lip_c, "lipschitz_fine": lip_f,
                 "holder_coarse": hol_c, "holder_fine": hol_f},
    )


def check_smooth_fit(res: SolveResult, tol: float | None = None) -> CheckReport:
    """|V_x - 1| at sampled interior action nodes and at their landing
    nodes, central differences; default tolerance 5 h + 10 tol_inner / h.
    Below 400 eligible nodes every one is sampled; from 400 on, every
    (n // 200)-th of the n, which is 200 to 300 nodes.

    A node is sampled where a central difference can see the contact set:
    grid-interior, both x-neighbors also action (the region edge carries a
    genuine one-sided kink when the minimum jump size is positive), and a
    grid-interior landing node (SolveResult.landings)."""
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
    j, i, i_land = res.landings(inner)
    eligible = np.flatnonzero((i_land >= 1) & (i_land <= grid.n_x - 2))
    sample = eligible[::max(1, eligible.size // 200)]
    # each sampled node, then its landing node
    jj = np.repeat(j[sample], 2)
    ii = np.stack([i[sample], i_land[sample]], axis=1).ravel()
    err = np.abs((surface.values[jj, ii + 1] - surface.values[jj, ii - 1]) / (2.0 * h) - 1.0)
    worst, loc = 0.0, None
    if err.size and err.max() > 0.0:
        k = int(np.argmax(err))
        worst, loc = float(err[k]), (float(surface.t_nodes()[jj[k]]), float(grid.x_nodes()[ii[k]]))
    vacuous = eligible.size == 0
    return CheckReport(
        name="smooth_fit",
        passed=bool(vacuous or worst <= tol),
        measured=worst,
        threshold=float(tol),
        operation="central-difference V_x at action and landing nodes vs 1",
        tolerance_note="no interior action nodes; vacuous" if vacuous else note,
        worst_location=loc,
        vacuous=vacuous,
        details={"n_nodes": int(sample.size),
                 "excluded_boundary_nodes": int(np.count_nonzero(lab)) - int(eligible.size)},
    )


def check_theta_structure(res: SolveResult) -> CheckReport:
    """At every action node: the maximizer exists, the post-injection point
    is continuation (within one grid cell), and the operator chain
    IV(x) >= IV(x + xi0) - xi0 holds within a slack of twice the slice's
    interpolation error bound, max|second difference|/8."""
    surface = res.surface
    xn = surface.grid.x_nodes()
    labels = res.labels
    j, i, i_land = res.landings(labels)
    xi0 = res.xi0[j, i]
    land = xn[i] + xi0
    iv_land = np.empty_like(land)
    slack = np.empty_like(land)
    rows, starts = np.unique(j, return_index=True)
    for r, s, e in zip(rows.tolist(), starts.tolist(), [*starts[1:].tolist(), j.size]):
        iv_land[s:e] = interp_extended(xn, surface.iv_values[r], land[s:e])
        slack[s:e] = 2.0 * (np.max(np.abs(np.diff(surface.values[r], 2))) / 8.0) + 1e-12
    chain = surface.iv_values[j, i] - (iv_land - xi0) + slack
    landing_violations = int(np.count_nonzero(labels[j, i_land]))
    vacuous = j.size == 0
    worst, loc = 0.0, None
    if not vacuous:
        k = int(np.argmin(chain))
        worst, loc = float(chain[k]), (float(surface.t_nodes()[j[k]]), float(xn[i[k]]))
    return CheckReport(
        name="theta_structure",
        passed=bool(landing_violations == 0 and worst >= 0.0),
        measured=worst,
        threshold=0.0,
        operation="maximizer exists, lands in continuation, operator chain inequality",
        tolerance_note=("action region empty; vacuous" if vacuous
                        else "chain slack 2.0 x max|second difference|/8 per slice"),
        worst_location=loc,
        vacuous=vacuous,
        details={} if vacuous else {"n_action_nodes": int(j.size),
                                    "landing_violations": landing_violations},
    )


def dpp_residual(spec: ModelSpec, res: SolveResult, t: float, x: float,
                 theta: float, dt: float, n_paths: int, seed) -> MCEstimate:
    """Monte Carlo dynamic-programming residual at (t, x):

        E[ int_t^theta rho (f - beta g2) ds  -  sum rho(tau_n)(K_n + kappa)
           + rho(theta) V(theta, X(theta)) ]  -  V(t, x)

    under res's own feedback policy.  Returns (residual, se); theta == t
    gives exactly zero.
    """
    if not t <= theta <= spec.T:
        raise ValueError("need t <= theta <= T")
    surface, policy = res.surface, FeedbackPolicy(res)
    rho_end = survival_grid(spec, t, [theta])[0]
    v_start = float(surface.evaluate(t, x))
    acc = _Moments()
    for chunk in _simulate_chunks(spec, t, x, policy, dt, seed, n_paths, t_end=theta):
        vals = chunk.run_f - chunk.imp_f + rho_end * surface.evaluate(theta, chunk.final_states)
        # subtract V(t,x) per path, not after averaging: the theta == t case
        # then averages exact zeros instead of accumulating float-mean noise
        acc.add(np.asarray(vals) - v_start)
    return acc.estimate()


def standard_checks(spec: ModelSpec, grid: Grid, tol_inner: float = TOL_INNER,
                    eps_region: float | None = None, seed: int = 0) -> list:
    """Solve once and run every surface diagnostic, a list of CheckReports;
    the regularity check reduces a time-refined sweep of V row by row."""
    res = solve(spec, grid, tol_inner=tol_inner, eps_region=eps_region)
    fine = replace(grid, n_t=2 * grid.n_t)
    _, fine_slices = _sweep(spec, fine, tol_inner)
    fine_rows = (v for _, _, v, _, _ in fine_slices)
    return [
        check_obstacle(res.surface, spec),
        check_bounds(res.surface, spec, seed=seed),
        check_regularity(res.surface, fine, fine_rows),
        check_smooth_fit(res),
        check_theta_structure(res),
    ]


class ConvergenceStudy(NamedTuple):
    """Successive-refinement table with sup differences and ratios."""

    rows: list
    ratios: list
    reference_errors: list


def convergence_study(spec: ModelSpec, grid: Grid, levels: int, reference=None,
                      tol_inner: float = TOL_INNER) -> ConvergenceStudy:
    """Solve the doubling ladder of `levels` grids, the x grid of `grid`
    with n_t * 2**i time steps at level i (the value surfaces only).

    Successive solutions are compared on the coarser level's nodes: row r
    of a level and row 2r of the next lie at the same t, since T/(2n) is
    exactly half of T/n (sup difference).  When a reference callable
    (t, x_nodes) -> V is given, each level also records its sup error
    against it, one call per time node.

    The levels are swept in lockstep, driven by the finest: when level i
    yields row 2r, level i - 1 is advanced to row r and the two rows are
    compared.  So every level holds only its current row, and no level is
    stored.  Each reduction is a running np.maximum of the row maxima, so a
    NaN anywhere still gives NaN.  Errors are those of sweeping the levels
    one after another: when a level fails, the coarser levels are run to
    the end, and the first error of the lowest failing level is raised.
    """
    grids = [replace(grid, n_t=grid.n_t * 2**i) for i in range(levels)]
    rows = [{"n_x": g.n_x, "n_t": g.n_t, "h": g.h, "dt": spec.T / g.n_t} for g in grids]
    xn = grid.x_nodes()
    sweeps = [_sweep(spec, g, tol_inner)[1] for g in grids]
    ref_errors = [-math.inf] * levels if reference is not None else []
    diffs = [-math.inf] * (levels - 1)

    def take(i):
        """The next slice (j, v) of level i, its reference error taken."""
        j, t, v, _, _ = next(sweeps[i])
        if reference is not None:
            ref_errors[i] = np.maximum(ref_errors[i], np.abs(v - reference(t, xn)).max())
        return j, v

    try:
        for _ in range(grids[-1].n_t + 1):
            i = levels - 1
            j, v = take(i)
            while i and j % 2 == 0:  # row j of level i and row j/2 of level i - 1 share t
                i -= 1
                j, coarse = take(i)
                diffs[i] = np.maximum(diffs[i], np.abs(coarse - v).max())
                v = coarse
    except Exception:  # level i failed; a coarser level's failure comes first
        for sweep in sweeps[:i]:  # lowest first, each run to its end
            try:
                collections.deque(sweep, maxlen=0)
            except Exception as coarser:
                raise coarser from None
        raise
    diffs = [float(d) for d in diffs]
    for i, d in enumerate(diffs):
        rows[i]["sup_diff_to_next"] = d
    ratios = [diffs[i] / diffs[i + 1] if diffs[i + 1] > 0 else math.inf
              for i in range(len(diffs) - 1)]
    return ConvergenceStudy(rows=rows, ratios=ratios,
                            reference_errors=[float(e) for e in ref_errors])
