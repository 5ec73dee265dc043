"""Lemma-level diagnostics for solved surfaces.

Each check returns a CheckReport naming the operation, the tolerance it
applied, the measured quantity, and the worst location.  Checks never
raise on a violation; they report it.  Reports carry no wall-clock
time, so repeated runs stay byte-identical.

The checks that need the model's paths live here too: extract_regions
rebuilds a surface's policy, and dpp_residual runs it through the Monte
Carlo engine, so that the solver itself stays numerics only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import FeedbackPolicy, MCEstimate, _mean_se, _simulate_batch, mc_cost_g
from .model import ModelSpec, survival
from .solver import (Grid, SolveResult, ValueSurface, _blend, _labels, _source_extremes,
                     _sweep, _time_cell, impulse_max, interp_extended, solve, upper_bound_c1)


@dataclass
class CheckReport:
    name: str
    passed: bool
    measured: float
    threshold: float
    operation: str
    tolerance_note: str
    worst_location: tuple | None = None
    vacuous: bool = False
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "vacuous": bool(self.vacuous),
            "measured": float(self.measured),
            "threshold": float(self.threshold),
            "operation": self.operation,
            "tolerance_note": self.tolerance_note,
            "worst_location": None if self.worst_location is None
            else [float(v) for v in self.worst_location],
            "details": self.details,
        }

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        if self.vacuous:
            tag = "PASS (vacuous)"
        return (f"{self.name:<18} {tag:<15} measured={self.measured:.6g} "
                f"threshold={self.threshold:.6g} [{self.operation}; {self.tolerance_note}]")


def check_obstacle(surface: ValueSurface, spec: ModelSpec) -> CheckReport:
    """V >= IV everywhere within a slack of 1e-8, IV recomputed fresh from
    the stored values."""
    iv, _ = impulse_max(surface.values, surface.grid, spec.costs)
    gap = surface.values - iv
    j, i = np.unravel_index(int(np.argmin(gap)), gap.shape)  # the first worst node, row-major
    worst = float(gap[j, i])
    loc = (float(surface.t_nodes()[j]), float(surface.grid.x_nodes()[i]))
    return CheckReport(
        name="obstacle",
        passed=bool(worst >= -1e-8),
        measured=worst,
        threshold=-1e-8,
        operation="min over the grid of V - IV (IV recomputed)",
        tolerance_note="obstacle slack 1e-08",
        worst_location=loc,
    )


def lower_bound_c0(spec: ModelSpec, grid: Grid) -> float:
    """C0 = T * max(0, max over the grid of beta g2 - f) + max(0, -min over
    the nodes of g1): the mirror of solver.upper_bound_c1.  The monotone
    scheme keeps V >= -C0, since every step is an M-matrix whose rows sum to
    1/dt + beta and projection only raises V.

    The max of beta g2 - f is minus the min of f - beta g2 bit for bit,
    since rounded subtraction is sign-symmetric."""
    sink = max(0.0, -_source_extremes(spec, grid)[0])
    return sink * spec.T + max(0.0, -float(np.min(spec.utilities.g1(grid.x_nodes()))))


def check_bounds(surface: ValueSurface, spec: ModelSpec, n_paths: int = 4000,
                 seed: int = 0) -> CheckReport:
    """V <= C1 = T * sup(f - beta g2)^+ + (sup g1)^+ and V >= -C0 (see
    lower_bound_c0) over the surface, and V >= (no-control MC value) - 3 SE
    - (dt + h) at 6 sampled points, with the surface's dt as the MC step.
    measured and worst_location are those of the worst of the three."""
    grid = surface.grid
    tn = surface.t_nodes()
    xn = grid.x_nodes()
    dt = surface.T / grid.n_t

    c1 = upper_bound_c1(spec, grid)
    upper_margin = c1 + 1e-9 - float(np.max(surface.values))
    iu, ju = np.unravel_index(int(np.argmax(surface.values)), surface.values.shape)
    c0 = lower_bound_c0(spec, grid)
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
            est = mc_cost_g(spec, float(ts), float(xs), None, dt, n_paths, seed)
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
        tolerance_note=f"C0={c0:.6g}, C1={c1:.6g}, MC n_paths={n_paths}, budget dt+h={budget:.3g}",
        worst_location=loc,
        details={"c0": c0, "c1": c1, "upper_margin": upper_margin,
                 "worst_lower_margin": worst_lower, "lower_grid_margin": grid_margin},
    )


def _lipschitz_proxy(surface: ValueSurface) -> float:
    return float(np.max(np.abs(np.diff(surface.values, axis=1)))) / surface.grid.h


def _holder_proxy(surface: ValueSurface) -> float:
    dt = surface.T / surface.grid.n_t
    xn = surface.grid.x_nodes()
    dv = np.abs(np.diff(surface.values, axis=0))
    return float(np.max(dv / ((1.0 + np.abs(xn))[None, :] * math.sqrt(dt))))


def check_regularity(coarse: ValueSurface, fine: ValueSurface) -> CheckReport:
    """Space-Lipschitz and time-Holder difference quotients must not grow
    by more than 10% under refinement (they may shrink; smooth data sends
    the Holder quotient to zero like sqrt(dt))."""
    lip_c, lip_f = _lipschitz_proxy(coarse), _lipschitz_proxy(fine)
    hol_c, hol_f = _holder_proxy(coarse), _holder_proxy(fine)
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


def _eligible_action_nodes(res: SolveResult):
    """Action nodes where a central difference can see the contact set:
    grid-interior, both x-neighbors also action (the region edge carries a
    genuine one-sided kink when the minimum jump size is positive), and a
    grid-interior landing node.  Returns (j, i, i_land) in row-major order."""
    grid = res.surface.grid
    lab = res.labels
    inner = np.zeros_like(lab)
    inner[:, 1:-1] = lab[:, :-2] & lab[:, 1:-1] & lab[:, 2:]
    j, i = np.nonzero(inner)
    i_land = grid.nearest_node(grid.x_nodes()[i] + res.xi0[j, i])
    keep = (i_land >= 1) & (i_land <= grid.n_x - 2)
    return list(zip(j[keep].tolist(), i[keep].tolist(), i_land[keep].tolist()))


def check_smooth_fit(res: SolveResult, spec: ModelSpec, tol: float | None = None) -> CheckReport:
    """|V_x - 1| at up to about 200 sampled interior action nodes and at
    their landing nodes, central differences; default tolerance
    5 h + 10 tol_inner / h."""
    surface = res.surface
    grid = surface.grid
    h = grid.h
    if tol is None:
        tol_inner = float(surface.metadata["tol_inner"])
        tol = 5.0 * h + 10.0 * tol_inner / h
        note = f"tol = 5 h + 10 tol_inner / h with h={h:.4g}"
    else:
        note = f"explicit tol {tol:.4g} with h={h:.4g}"
    nodes = _eligible_action_nodes(res)
    excluded = int(np.count_nonzero(res.labels)) - len(nodes)
    if not nodes:
        return CheckReport(
            name="smooth_fit",
            passed=True,
            vacuous=True,
            measured=0.0,
            threshold=tol,
            operation="central-difference V_x at action and landing nodes vs 1",
            tolerance_note="no interior action nodes; vacuous",
                details={"n_nodes": 0, "excluded_boundary_nodes": excluded},
        )
    stride = max(1, len(nodes) // 200)
    sample = nodes[::stride]
    tn = surface.t_nodes()
    xn = grid.x_nodes()
    worst = 0.0
    loc = None
    for j, i, i_land in sample:
        row = surface.values[j]
        for ii in (i, i_land):
            vx = (row[ii + 1] - row[ii - 1]) / (2.0 * h)
            err = abs(vx - 1.0)
            if err > worst:
                worst = err
                loc = (float(tn[j]), float(xn[ii]))
    return CheckReport(
        name="smooth_fit",
        passed=bool(worst <= tol),
        measured=float(worst),
        threshold=float(tol),
        operation="central-difference V_x at action and landing nodes vs 1",
        tolerance_note=note,
        worst_location=loc,
        details={"n_nodes": len(sample), "excluded_boundary_nodes": excluded},
    )


def check_theta_structure(res: SolveResult, spec: ModelSpec) -> CheckReport:
    """At every action node: the maximizer exists, the post-injection point
    is continuation (within one grid cell), and the operator chain
    IV(x) >= IV(x + xi0) - xi0 holds within a slack of twice the slice's
    interpolation error bound, max|second difference|/8."""
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
        chain = iv_row[idx] - (interp_extended(xn, iv_row, land) - res.xi0[j, idx]) + slack
        i_bad = int(np.argmin(chain))
        if chain[i_bad] < worst_chain:
            worst_chain = float(chain[i_bad])
            loc = (float(tn[j]), float(xn[idx[i_bad]]))
    if n_action == 0:
        return CheckReport(
            name="theta_structure",
            passed=True,
            vacuous=True,
            measured=0.0,
            threshold=0.0,
            operation="maximizer exists, lands in continuation, operator chain inequality",
            tolerance_note="action region empty; vacuous",
            )
    return CheckReport(
        name="theta_structure",
        passed=bool(landing_violations == 0 and worst_chain >= 0.0),
        measured=float(worst_chain),
        threshold=0.0,
        operation="maximizer exists, lands in continuation, operator chain inequality",
        tolerance_note="chain slack 2.0 x max|second difference|/8 per slice",
        worst_location=loc,
        details={"n_action_nodes": n_action, "landing_violations": landing_violations},
    )


def extract_regions(surface: ValueSurface, spec: ModelSpec) -> SolveResult:
    """Recompute labels and maximizers from a (possibly loaded) surface,
    with the surface's own eps_region."""
    iv, ks = impulse_max(surface.values, surface.grid, spec.costs)
    return SolveResult(surface, *_labels(surface.values, iv, ks, surface.metadata["eps_region"]))


def dpp_residual(spec: ModelSpec, surface: ValueSurface, t: float, x: float,
                 theta: float, dt: float, n_paths: int, seed,
                 policy: FeedbackPolicy | None = None) -> MCEstimate:
    """Monte Carlo dynamic-programming residual at (t, x):

        E[ int_t^theta rho (f - beta g2) ds  -  sum rho(tau_n)(K_n + kappa)
           + rho(theta) V(theta, X(theta)) ]  -  V(t, x)

    under the surface's own feedback policy.  Returns (residual, se);
    theta == t gives exactly zero.
    """
    if not t <= theta <= spec.T:
        raise ValueError("need t <= theta <= T")
    if policy is None:
        policy = FeedbackPolicy.from_solution(extract_regions(surface, spec))
    batch = _simulate_batch(spec, t, x, policy, dt, seed, n_paths, t_end=theta)
    rho_end = survival(t, theta, spec)
    vals = batch.run_f - batch.imp_f + rho_end * surface.evaluate(theta, batch.final_states)
    # subtract V(t,x) per path, not after averaging: the theta == t case then
    # averages exact zeros instead of accumulating float-mean noise
    resid = np.asarray(vals) - float(surface.evaluate(t, x))
    return _mean_se(resid)


def standard_checks(spec: ModelSpec, grid: Grid, tol_inner: float = 1e-9,
                    eps_region: float | None = None, seed: int = 0) -> list:
    """Solve once (plus a time-refined sweep, V only, for regularity) and
    run every surface diagnostic.  Returns the list of CheckReports."""
    res = solve(spec, grid, tol_inner=tol_inner, eps_region=eps_region)
    fine_surface = _values_only(spec, Grid(grid.x_min, grid.x_max, grid.n_x, 2 * grid.n_t),
                                tol_inner)
    return [
        check_obstacle(res.surface, spec),
        check_bounds(res.surface, spec, seed=seed),
        check_regularity(res.surface, fine_surface),
        check_smooth_fit(res, spec),
        check_theta_structure(res, spec),
    ]


@dataclass
class ConvergenceStudy:
    """Successive-refinement table with sup differences and ratios."""

    rows: list
    ratios: list
    reference_errors: list

    def to_dict(self) -> dict:
        return {"rows": self.rows, "ratios": self.ratios,
                "reference_errors": self.reference_errors}


def reference_values(reference, t_nodes, x_nodes) -> np.ndarray:
    """The exact reference on a grid: one call reference(t, x_nodes) per
    time node, broadcast over x."""
    return np.array([np.broadcast_to(reference(t, x_nodes), x_nodes.shape) for t in t_nodes])


def _values_only(spec: ModelSpec, grid: Grid, tol_inner: float) -> ValueSurface:
    """The value surface of a solve without IV, labels or policy, for
    checks that read V alone.  No residual is recomputed, so a slice whose
    projection the sweep skipped rests on the certificate's proof alone."""
    _, slices = _sweep(spec, grid, tol_inner)
    V = np.empty((grid.n_t + 1, grid.n_x))
    for j, v, _, _ in slices:
        V[j] = v
    return ValueSurface(grid, spec.T, V)


def convergence_study(spec: ModelSpec, grids: list, reference=None,
                      tol_inner: float = 1e-9) -> ConvergenceStudy:
    """Solve on each grid of a refinement ladder (the value surfaces only).

    Successive solutions are compared on the coarser grid's nodes
    (sup difference, the finer level read by the bilinear rule of
    ValueSurface.evaluate); when a reference callable (t, x_nodes) -> V is
    given, each level also records its sup error against it, one call per
    time node.

    Every level is streamed slice by slice, in sweep order.  Its reference
    error is taken row by row, and its difference to the coarser level
    from a window of two finer rows, the cell of each coarser row, against
    the stored coarser level.  A level is stored only while a finer level
    still has to be compared with it: the ladder holds at most the
    previous level and the one being swept, and the last level is never
    stored.  Each reduction keeps one max per row, so a NaN anywhere still
    gives NaN.
    """
    rows = [{"n_x": g.n_x, "n_t": g.n_t, "h": g.h, "dt": spec.T / g.n_t} for g in grids]
    ref_errors, diffs = [], []
    coarse = None  # (t nodes, x nodes, V) of the previous level
    for i, g in enumerate(grids):
        tn, xn = g.t_nodes(spec.T), g.x_nodes()
        if coarse is not None:  # rebinding cv first drops the level before it
            ctn, cxn, cv = coarse
            cell, weight = _time_cell(tn, ctn)
            # cell ascends with the coarser rows: cell j holds rows starts[j]:starts[j + 1]
            starts = np.searchsorted(cell, np.arange(g.n_t + 1)).tolist()
            diff_rows = np.empty(ctn.size)
        _, slices = _sweep(spec, g, tol_inner)
        kept = np.empty((g.n_t + 1, g.n_x)) if i + 1 < len(grids) else None
        ref_rows = np.empty(g.n_t + 1)
        upper = None  # the finer slice j + 1
        for j, v, _, _ in slices:
            if kept is not None:
                kept[j] = v
            if reference is not None:
                ref_rows[j] = np.abs(v - reference(tn[j], xn)).max()
            if coarse is not None and j < g.n_t:
                for r in range(starts[j], starts[j + 1]):
                    diff_rows[r] = np.abs(cv[r] - _blend(xn, v, upper, weight[r], cxn)).max()
            upper = v
        if reference is not None:
            ref_errors.append(float(ref_rows.max()))
        if coarse is not None:
            diffs.append(float(diff_rows.max()))
        coarse = None if kept is None else (tn, xn, kept)
    for i, d in enumerate(diffs):
        rows[i]["sup_diff_to_next"] = d
    ratios = [diffs[i] / diffs[i + 1] if diffs[i + 1] > 0 else math.inf
              for i in range(len(diffs) - 1)]
    return ConvergenceStudy(rows=rows, ratios=ratios, reference_errors=ref_errors)
