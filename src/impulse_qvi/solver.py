"""Finite-difference solver for the impulse-control quasi-variational
inequality of the ratio model.

Backward in time from V(T, x) = g1(x), each step solves one implicit
Euler step of

    -dV/dt - mu(t,x) V_x - 0.5 sigma(t,x)^2 V_xx - f(x)
        + beta(t) (V + g2(x)) = 0

(central second difference, drift upwinded; zero second difference at
x_min, zero first difference at x_max, and at either end outgoing drift
drops) and then projects onto the impulse obstacle

    v <- max(v, max_K v~(x + K) - (K + kappa))

until the sup-norm update drops below the inner tolerance.  Each
profitable injection costs at least kappa while values stay bounded, so
the projection count is certified by ceil((M - min v) / kappa) + 1 with
M = max(C1, max v).  Every step is an M-matrix, so the discrete maximum
principle keeps V <= C1; projection never raises max v, since every gain
is v~(x + K) - (K + kappa) <= max v - (k_min + kappa), so M bounds the
slice through its whole loop.  The count needs h <= k_min, so that each
gain reads only nodes to its right; a window inside one cell is rejected.

A slice whose spread is small needs no projection: every gain is
v~(x + K) - (K + kappa) <= max v - (k_min + kappa), so max v - min v <=
k_min + kappa gives IV <= min v <= v, and the loop would stop at its first
check.  The sweep skips the loop when, in floating point,

    max v - min v <= F - 2^-47 (A + F),   F = k_min + kappa, A = max |v|.

With u = 2^-53 the margin 64 u (A + F) covers every rounding: an
interpolated value exceeds max v by at most 8 u A (one rounding each in
the slope, the product and the sum, and fl(q - x_j) <= fl(x_{j+1} - x_j)
keeps the product within |fl(v_{j+1} - v_j)| (1 + u)^2); a cost
fl(K + kappa) is at least fl(F) >= F (1 - u) by monotone rounding; and the
spread, the margin and the bound are rounded once each.  Together less
than 9 u A + 6 u F, so every computed gain is at most min v and the first
residual max(IV - v) is at most 0 <= tol_inner.  The proof assumes
injection_cost(K) >= K + kappa.  solve() computes IV for every skipped
slice after the sweep and raises NumericalError if its residual exceeds
tol_inner; a projected slice keeps the IV of its loop's last check.  The
sweeps that read V alone (the convergence ladder and the time-refined
sweep of diagnostics.standard_checks) recompute no residual and rely on
the proof alone.

The sweep hands out its slices one at a time, in sweep order, and each
caller keeps only what it needs: solve writes V, IV and the maximizers
straight into its stacked arrays, a values-only sweep keeps V, and the
convergence ladder keeps a level only while a finer level still has to be
compared with it.

The tridiagonal system of a step is solved by Gaussian elimination
without pivoting, in the operation order of LAPACK dgtsv's
no-interchange branch: fact_i = dl_i / d'_i, d'_{i+1} = d_{i+1} -
fact_i du_i, then a forward and a back substitution.  Each row sums to
c = 1/dt + beta with nonpositive off-diagonals, d_{i+1} = c + |dl_i| +
|du_{i+1}|, so by induction every pivot d'_i >= c + |du_i| in exact
arithmetic: d'_0 = d_0, and d'_i >= c + |du_i| gives |fact_i du_i| <=
|dl_i|, so d'_{i+1} >= d_{i+1} - |dl_i|.  Elimination without pivoting
is then stable, with growth factor at most 2 (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., section 9.5).  A step needs
every computed pivot >= c/2, the rest being rounding allowance that only
a cell too small for double precision exhausts.  The matrix depends on t
only through (mu_tilde(t), sigma_tilde(t), beta(t)), so a sweep factors
it once per run of consecutive steps that share the triple.

The factoring runs in numpy.  Each step's substitution runs in LAPACK
dgttrs from the OpenBLAS that numpy's wheel ships, called through ctypes
with TRANS = 'N', NRHS = 1, IPIV = 1..n and DU2 = 0.  With no
interchanges recorded, dgttrs runs the forward and back substitution of
dgtsv's no-interchange branch, operation for operation, zero DU2 term
included.  (dgttrf is not used: it interchanges rows where this order
does not.)  The routine is bound once per process, when the first
sweep's step plan is built, never at import.  It is kept only if it
solves a fixed probe system bit for bit as the Python substitution does,
which a build that fuses multiply-adds or drops the zero term fails.
Without the library, its symbol or that agreement, the steps run the
Python substitution, the reference; a nonzero INFO raises.

A node is labeled "action" when V - IV <= eps_region; the maximizing
injection xi0 there is the policy.  solve, read_surface_csv and
diagnostics.extract_regions return the one SolveResult(surface, labels,
xi0) that the CSV writers, the diagnostics and dynamics.FeedbackPolicy
read.  Grid.nearest_node is the one snapping rule: an injection from x
lands on the node nearest x + xi0, and the feedback policy snaps its
queries the same way.  Connected action regions (4-neighbour, in the
(t, x) grid) are labeled by a run-based two-pass scan.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import pathlib
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .model import ModelSpec, injection_cost, validate


@dataclass(frozen=True)
class Grid:
    """Uniform space-time grid: n_x nodes on [x_min, x_max], n_t time steps
    on [0, T]."""

    x_min: float
    x_max: float
    n_x: int
    n_t: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError("need x_min < x_max")
        if self.n_x < 3 or self.n_t < 1:
            raise ValueError("need n_x >= 3, n_t >= 1")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)

    def x_nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_x)

    def t_nodes(self, T: float) -> np.ndarray:
        return np.linspace(0.0, T, self.n_t + 1)

    def nearest_node(self, y) -> np.ndarray:
        """Index of the node nearest to each y (halves to even), clipped to
        the grid: where an injection from x to y = x + xi0 lands."""
        return np.clip(np.rint((y - self.x_min) / self.h), 0, self.n_x - 1).astype(int)

    def to_dict(self) -> dict:
        return {"x_min": self.x_min, "x_max": self.x_max, "n_x": self.n_x,
                "n_t": self.n_t}


def interp_extended(x_nodes: np.ndarray, v: np.ndarray, xq) -> np.ndarray:
    """Linear interpolation of a value slice, flat above the grid and
    linear (lowest-cell slope) below it."""
    xq = np.asarray(xq, dtype=float)
    out = np.interp(xq, x_nodes, v)
    below = xq < x_nodes[0]
    if np.any(below):
        slope = (v[1] - v[0]) / (x_nodes[1] - x_nodes[0])
        out = np.where(below, v[0] + slope * (xq - x_nodes[0]), out)
    return out


class _ImpulsePlan(NamedTuple):
    """What impulse_max needs that depends on the grid and the costs only."""

    x: np.ndarray        # grid nodes
    k_table: np.ndarray  # rows k_min, node K (set per slice), k_max
    empty: np.ndarray    # no node strictly inside the window x + (k_min, k_max)
    idx: np.ndarray      # flat index of each entry, one block per row
    starts: np.ndarray   # first entry of each block-wide run covering a window


@functools.lru_cache(maxsize=16)
def _impulse_plan(grid: Grid, costs) -> _ImpulsePlan:
    """Window bounds, in floating point: node j is inside the window of
    node i when x_i + k_min < x_j < x_i + k_max.  The block width is the
    shortest window that ends before the last node; windows that end on it
    run on into the -inf padding, and longer windows are covered by a few
    overlapping runs (one or two on a uniform grid)."""
    x = grid.x_nodes()
    n = x.size
    lo = np.searchsorted(x, x + costs.k_min, side="right")
    hi = np.searchsorted(x, x + costs.k_max, side="left") - 1
    empty = lo > hi
    lo[empty] = hi[empty] = n - 1  # a stand-in window; its node is never chosen
    tail = hi == n - 1
    length = hi - lo + 1
    width = int(length[~tail].min()) if not tail.all() else int(length.max())
    hi = np.where(tail, np.maximum(hi, lo + width - 1), hi)
    n_runs = -(-int(np.max(hi - lo) + 1) // width)
    starts = np.minimum(lo + width * np.arange(n_runs)[:, None], hi - width + 1)
    idx = np.arange(-(-(int(hi.max()) + 1) // width) * width).reshape(-1, width)
    k_table = np.empty((3, n))
    k_table[0], k_table[2] = costs.k_min, costs.k_max
    plan = _ImpulsePlan(x, k_table, empty, idx, starts)
    for a in plan:
        a.flags.writeable = False
    return plan


def _window_argmax(w: np.ndarray, plan: _ImpulsePlan) -> np.ndarray:
    """First index of the largest w[..., j] in each node's window, in
    O(w.size); the leading axes of w are independent rows.

    van Herk/Gil-Werman: with blocks as wide as a run, a run spans at most
    two blocks, so its max is the larger of the first block's suffix max at
    its start and the second block's prefix max at its end.
    """
    idx = plan.idx
    lead = w.shape[:-1]
    rows = (slice(None),) * len(lead)  # indexes the rows; w[rows + (s,)] is w[s] on one slice
    blk = np.full(lead + (idx.size,), -np.inf)  # -inf pads v - x to whole blocks
    blk[..., :w.shape[-1]] = w
    blk = blk.reshape(lead + idx.shape)
    pre = np.maximum.accumulate(blk, axis=-1)
    rise = np.ones(pre.shape, dtype=bool)
    np.greater(pre[..., 1:], pre[..., :-1], out=rise[..., 1:])  # strict: a tie keeps the earlier index
    pre_at = np.maximum.accumulate(np.where(rise, idx, idx[:, :1]), axis=-1)
    # suffix maxima run on the reversed blocks; an entry that equals the
    # suffix max from it on is where that max first occurs, so the nearest
    # such entry at or after j is the first index of the suffix max at j
    suf = np.maximum.accumulate(blk[..., ::-1], axis=-1)
    suf_at = np.minimum.accumulate(np.where(blk[..., ::-1] == suf, idx[:, ::-1], idx.size - 1),
                                   axis=-1)
    flat = lead + (idx.size,)
    pre, pre_at = pre.reshape(flat), pre_at.reshape(flat)
    suf, suf_at = suf[..., ::-1].reshape(flat), suf_at[..., ::-1].reshape(flat)
    s, e = rows + (plan.starts,), rows + (plan.starts + (idx.shape[1] - 1),)
    a, b = suf[s], pre[e]
    val, at = np.maximum(a, b), np.where(a >= b, suf_at[s], pre_at[e])
    best, first = val[rows + (0,)], at[rows + (0,)]
    for r in range(1, len(plan.starts)):  # runs ascend; strict: the earlier run keeps a tie
        later = val[rows + (r,)] > best
        best = np.where(later, val[rows + (r,)], best)
        first = np.where(later, at[rows + (r,)], first)
    return first


def _impulse_rows(v: np.ndarray, plan: _ImpulsePlan, costs) -> tuple[np.ndarray, np.ndarray]:
    """impulse_max on one slice (n_x,) or on a block of rows (m, n_x)."""
    x = plan.x
    rows = (slice(None),) * (v.ndim - 1)  # k[rows + (c,)] is row c of the K table
    k = np.broadcast_to(plan.k_table, v.shape[:-1] + plan.k_table.shape).copy()
    k[rows + (1,)] = np.where(plan.empty, costs.k_min,
                              np.minimum(np.maximum(x[_window_argmax(v - x, plan)] - x,
                                                    costs.k_min), costs.k_max))
    # K >= k_min > 0 keeps every query at or above x_min, where
    # interp_extended is np.interp; np.interp takes one slice at a time
    q = x + k
    if v.ndim == 1:
        value = np.interp(q, x, v)
    else:
        value = np.array([np.interp(q_row, x, v_row) for q_row, v_row in zip(q, v)])
    gains = value - injection_cost(k, costs)
    best, k_best = gains[rows + (0,)], k[rows + (0,)]
    for c in (1, 2):  # strict: a tie keeps the smaller K
        take = gains[rows + (c,)] > best
        best = np.where(take, gains[rows + (c,)], best)
        k_best = np.where(take, k[rows + (c,)], k_best)
    return best, k_best


_ROWS = 16  # rows per block of a stacked impulse_max call


def impulse_max(v_slice: np.ndarray, grid: Grid, costs) -> tuple[np.ndarray, np.ndarray]:
    """Impulse operator on one slice (n_x,) or on each row of a stack
    (m, n_x): the exact sup over K in [k_min, k_max] of
    v~(x + K) - (K + kappa), with the interpolation extension above.

    v~(y) - y is piecewise linear with kinks only at nodes, so the sup over
    the window x + [k_min, k_max] is taken at one of its two ends or at a
    node strictly inside it; the best node maximizes v_j - x_j, found for
    every window at once by a sliding-window max.  A stack runs in blocks
    of _ROWS rows, to bound the temporaries, and each row's result is bit
    for bit that of the row alone.

    Returns (values, maximizers), shaped like v_slice.  Ties go to the
    smallest K: k_min, then the nodes ascending, then k_max.  Each value is
    the gain evaluated at its returned K, so recomputing it from the
    maximizer is bitwise exact.
    """
    plan = _impulse_plan(grid, costs)
    v = np.asarray(v_slice, dtype=float)
    if v.ndim == 1:
        return _impulse_rows(v, plan, costs)
    best, k_best = np.empty_like(v), np.empty_like(v)
    for r in range(0, v.shape[0], _ROWS):
        best[r:r + _ROWS], k_best[r:r + _ROWS] = _impulse_rows(v[r:r + _ROWS], plan, costs)
    return best, k_best


class NumericalError(RuntimeError):
    """The scheme cannot proceed on this grid: a step's pivot fell below
    c/2 (a cell too small for double precision) or a projection hit its cap."""


def _eliminate(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Gaussian elimination without interchanges of tridiagonal systems,
    one per column: dgtsv's no-interchange branch, fact_i = dl_i / d'_i and
    d'_{i+1} = d_{i+1} - fact_i du_i.  Returns fact (it overwrites
    lower[1:]); diag becomes the pivots d'."""
    fact = lower[1:]
    for i in range(diag.shape[0] - 1):
        fact[i] = lower[i + 1] / diag[i]
        diag[i + 1] = diag[i + 1] - fact[i] * upper[i]
    return fact


class _PythonSubstitution:
    """The substitution of one factored system (multipliers fact, the
    superdiagonal du with a trailing 0, pivots piv) on the right-hand side
    b, in place, in Python floats and in dgtsv's no-interchange order: the
    reference for _Dgttrs, and the path taken where _dgttrs() is None."""

    def __init__(self, n: int):
        self.b = np.empty(n)

    def load(self, fact, du, piv):
        self._fact, self._back_du, self._back_piv = (
            fact.tolist(), du[::-1].tolist(), piv[::-1].tolist())

    def __call__(self):
        # forward elimination of the right-hand side
        b = self.b.tolist()
        acc = b[0]
        y = [acc]
        for bi, fi in zip(b[1:], self._fact):
            acc = bi - fi * acc
            y.append(acc)
        # back substitution, with the zeroed second superdiagonal of the
        # interchange layout kept in: it decides the sign of a zero result.
        # Subtracting 0.0 * (+0.0) changes nothing, so starting from
        # x[n] = x[n+1] = +0.0 with du_{n-1} = 0 also gives dgtsv's last two rows
        x0 = x1 = 0.0
        out = []
        for yi, ui, di in zip(reversed(y), self._back_du, self._back_piv):
            x1, x0 = x0, (yi - ui * x0 - 0.0 * x1) / di
            out.append(x0)
        self.b[::-1] = out


class _Dgttrs:
    """The same substitution by LAPACK dgttrs(TRANS='N', N, NRHS=1, DL, D,
    DU, DU2, IPIV, B, LDB=N, INFO) with DU2 = 0 and IPIV = 1..N: no row
    interchanges, and then dgttrs runs _PythonSubstitution's operations in
    its order.  The arrays live as long as the object, so the argument
    pointers are built once; `load` copies a run's factors in."""

    def __init__(self, fn, n: int):
        self._fn = fn
        self.b = np.empty(n)
        self._dl, self._d, self._du = np.empty(n - 1), np.empty(n), np.empty(n - 1)
        self._du2, self._ipiv = np.zeros(n - 2), np.arange(1, n + 1, dtype=np.int64)
        self._n, self._info = ctypes.c_int64(n), ctypes.c_int64(0)
        arrays = (self._dl, self._d, self._du, self._du2, self._ipiv, self.b)
        # 64-bit integers by reference, then TRANS's hidden length
        self._args = (b"N", ctypes.byref(self._n), ctypes.byref(ctypes.c_int64(1)),
                      *(ctypes.c_void_p(a.ctypes.data) for a in arrays),
                      ctypes.byref(self._n), ctypes.byref(self._info), ctypes.c_size_t(1))

    def load(self, fact, du, piv):
        self._dl[:], self._d[:], self._du[:] = fact, piv, du[:-1]

    def __call__(self):
        self._fn(*self._args)
        if self._info.value:
            raise RuntimeError(f"LAPACK dgttrs rejected argument {-self._info.value}")


def _substitutions_agree(fn) -> bool:
    """Whether dgttrs through fn solves a fixed probe system bit for bit as
    _PythonSubstitution does.  The probe's solution changes if a
    multiply-add is fused (five coupled rows of inexact products) or if the
    zero DU2 term is dropped (then decoupled rows, where that term turns
    x_5's -0.0 into +0.0)."""
    i = np.arange(8.0)
    lower, upper = -(i + 1.0) / 7.0, -(i + 2.0) / 7.0
    lower[5:] = upper[4:] = 0.0
    diag = 3.0 + i / 3.0
    rhs = np.array([0.3, -1.1, 0.7, 2.9, 0.1, -0.0, 0.5, -0.5])
    fact = _eliminate(lower, diag, upper)
    solved = []
    for sub in (_Dgttrs(fn, rhs.size), _PythonSubstitution(rhs.size)):
        sub.load(fact, upper, diag)
        sub.b[:] = rhs
        sub()
        solved.append(sub.b.tobytes())
    return solved[0] == solved[1]


@functools.cache
def _dgttrs():
    """dgttrs from the OpenBLAS that numpy's wheel ships (symbol
    scipy_dgttrs_64_, 64-bit integers), bound once per process by the
    first _StepPlan.  None when the library or the symbol is missing, or
    when the bound routine fails the probe (a build that contracts
    multiply-adds into FMA would)."""
    libs = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            fn = ctypes.CDLL(str(path)).scipy_dgttrs_64_
        except (OSError, AttributeError):
            continue
        ptr, int64 = ctypes.c_void_p, ctypes.POINTER(ctypes.c_int64)
        fn.argtypes = [ctypes.c_char_p, int64, int64, ptr, ptr, ptr, ptr, ptr, ptr,
                       int64, int64, ctypes.c_size_t]
        fn.restype = None
        if _substitutions_agree(fn):
            return fn
    return None


class _StepPlan:
    """What the implicit steps of one sweep share.

    The step matrix depends on t only through the triple (mu_tilde(t),
    sigma_tilde(t), beta(t)); x, f(x), g2(x) and (c1 - x) lam(x) are held
    once.  The step times, in sweep order, split into runs of consecutive
    steps whose triple keeps its bits.  The runs are factored in order, in
    blocks of up to _BLOCK runs.  The plan holds one substitution
    (_Dgttrs where _dgttrs() binds, else _PythonSubstitution), and each run
    loads its factors into it once.
    """

    _BLOCK = 64

    def __init__(self, grid: Grid, spec: ModelSpec, times):
        u = spec.utilities
        self.x = grid.x_nodes()
        self.h = grid.h
        self.dt = spec.T / grid.n_t
        self.fx = np.asarray(u.f(self.x), dtype=float)
        self.g2x = np.asarray(u.g2(self.x), dtype=float)
        self.mean_rev = (spec.c1 - self.x) * spec.lam(self.x)
        times = np.asarray(times, dtype=float)
        coef = np.stack([np.asarray(c(times), dtype=float)
                         for c in (spec.mu_tilde, spec.sigma_tilde, spec.beta)], axis=1)
        bits = coef.view(np.uint64)
        new_run = np.ones(times.size, dtype=bool)
        new_run[1:] = (bits[1:] != bits[:-1]).any(axis=1)
        self._coef = coef[new_run]
        self._run_at = dict(zip(times.tolist(), (np.cumsum(new_run) - 1).tolist()))
        self._block = (-1, None)
        self._run = (-1,)
        fn = _dgttrs()
        n = self.x.size
        self._sub = _Dgttrs(fn, n) if fn is not None else _PythonSubstitution(n)

    def _factor_block(self, b: int):
        """Assemble and eliminate the triples of runs b*_BLOCK ..: a loop
        over x, each operation a vector over the block's runs (columns)."""
        m, s, beta = self._coef[b * self._BLOCK:(b + 1) * self._BLOCK].T
        x, h, c = self.x[:, None], self.h, 1.0 / self.dt + beta
        mu = self.mean_rev[:, None] + m * x
        dcoef = 0.5 * (s * x)**2 / h**2
        up = np.maximum(mu, 0.0) / h
        dn = np.maximum(-mu, 0.0) / h

        lower = -(dcoef + dn)          # coefficient of v[i-1] in row i
        upper = -(dcoef + up)          # coefficient of v[i+1] in row i
        diag = c + 2.0 * dcoef + up + dn

        # x_min: zero second difference (linear-extrapolation ghost); x_max:
        # flat ghost, diffusion one-sided.  At either end outgoing drift drops
        # and incoming drift upwinds into the interior, so every row sums to c
        diag[0] = c + up[0]
        upper[0] = -up[0]
        diag[-1] = c + dcoef[-1] + dn[-1]
        lower[-1] = -(dcoef[-1] + dn[-1])
        upper[-1] = 0.0

        with np.errstate(all="ignore"):  # a rejected triple may overflow or divide by 0
            fact = _eliminate(lower, diag, upper)
        self._block = (b, (fact.T, upper.T, diag.T, beta.tolist(),
                           np.isfinite(diag).all(axis=0).tolist(),
                           (diag >= 0.5 * c).all(axis=0).tolist()))

    def _start_run(self, k: int):
        b, i = divmod(k, self._BLOCK)
        if self._block[0] != b:
            self._factor_block(b)
        fact, du, piv, beta, finite, floored = self._block[1]
        self._sub.load(fact[i], du[i], piv[i])
        self._run = (k, beta[i] * self.g2x, finite[i], floored[i])

    def step(self, v_next: np.ndarray, t: float) -> np.ndarray:
        k = self._run_at[t]
        if self._run[0] != k:
            self._start_run(k)
        _, beta_g2x, finite, floored = self._run
        rhs = self._sub.b  # v_next / dt + f - beta g2, solved in place
        np.divide(v_next, self.dt, out=rhs)
        np.add(rhs, self.fx, out=rhs)
        np.subtract(rhs, beta_g2x, out=rhs)
        if not (finite and np.isfinite(rhs).all()):
            raise ValueError("PDE step input contains infs or NaNs")
        if not floored:
            raise NumericalError(f"PDE step pivot below half of 1/dt + beta: cell width h = "
                                 f"{self.h:.3g} is too small for double precision")
        self._sub()
        return rhs.copy()


def pde_step(v_next: np.ndarray, t: float, grid: Grid, spec: ModelSpec,
             plan: _StepPlan | None = None) -> np.ndarray:
    """One implicit Euler step of the continuation PDE, from the slice at
    t + dt down to t.  Coefficients are evaluated at (t, x).

    Every row of the assembled tridiagonal system sums to 1/dt + beta with
    nonpositive off-diagonals, so it is a strictly dominant M-matrix.  The
    elimination has no pivoting (see the module docstring); wherever
    dgtsv would not interchange rows its results are dgtsv's bit for bit.
    The substitution runs in LAPACK dgttrs with IPIV = 1..n and DU2 = 0,
    which does the same operations in the same order, or, where numpy's
    LAPACK is absent or fails its bitwise self-check, in Python.
    Non-finite input raises ValueError, a pivot below half of 1/dt + beta
    NumericalError, a nonzero INFO from dgttrs RuntimeError.

    `plan` is the sweep's shared _StepPlan, built by solve() for its step
    times; without one the step builds its own.
    """
    if plan is None:
        plan = _StepPlan(grid, spec, [t])
    return plan.step(v_next, t)


@dataclass
class ValueSurface:
    """Solved value function on the grid, with the impulse-operator values
    of every slice (None on a surface that only a sweep made) and solver
    metadata."""

    grid: Grid
    T: float
    values: np.ndarray
    iv_values: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def t_nodes(self) -> np.ndarray:
        return self.grid.t_nodes(self.T)

    def evaluate(self, t: float, x) -> np.ndarray:
        """Bilinear value lookup at one t: linear in t, extended-linear in
        x (interp_extended).  t is clipped to [0, T] and lies in the cell
        [t_j, t_{j+1}] at weight w = (t - t_j) / (t_{j+1} - t_j), the last
        cell taking t = T."""
        tn, xn = self.t_nodes(), self.grid.x_nodes()
        t = min(max(float(t), 0.0), float(tn[-1]))
        j = min(max(int(np.searchsorted(tn, t, side="right")) - 1, 0), tn.size - 2)
        w = (t - tn[j]) / (tn[j + 1] - tn[j])
        out = ((1.0 - w) * interp_extended(xn, self.values[j], x)
               + w * interp_extended(xn, self.values[j + 1], x))
        return out if np.ndim(out) else float(out)


class SolveResult(NamedTuple):
    """A solved surface with its action labels (True where V - IV <=
    eps_region) and the maximizing injection xi0 there, NaN elsewhere."""

    surface: ValueSurface
    labels: np.ndarray
    xi0: np.ndarray


def _labels(v, iv, ks, eps_region):
    """Action labels V - IV <= eps_region, and ks, in place, turned into
    the maximizer on them, NaN elsewhere."""
    lab = (v - iv) <= eps_region
    ks[~lab] = np.nan
    return lab, ks


def _source_extremes(spec: ModelSpec, grid: Grid) -> tuple:
    """(min, max) over the grid of the source level f - beta g2.

    At a fixed x, the rounded f - b g2 is monotone in b, since correctly
    rounded multiplication and subtraction are monotone in each operand.
    So both extremes over the time nodes are taken at the smallest or the
    largest beta, and they are found in O(n_x), the same values bit for bit
    as over the full (n_t + 1) x n_x grid."""
    u = spec.utilities
    x = grid.x_nodes()
    beta = np.asarray(spec.beta(grid.t_nodes(spec.T)), dtype=float)
    fx = np.asarray(u.f(x), dtype=float)
    g2x = np.asarray(u.g2(x), dtype=float)
    at_min, at_max = fx - beta.min() * g2x, fx - beta.max() * g2x
    return (float(np.min(np.minimum(at_min, at_max))),
            float(np.max(np.maximum(at_min, at_max))))


def upper_bound_c1(spec: ModelSpec, grid: Grid) -> float:
    """C1 = T * max(0, max over the grid of f - beta g2) + max(0, sup g1):
    the horizon times the largest source level plus the terminal bound, an
    upper bound on V that the scheme and the projection both respect, since
    every step is an M-matrix (see pde_step).  A negative sup g1 is not a
    bound: discounting lifts V above it."""
    return max(0.0, _source_extremes(spec, grid)[1]) * spec.T + max(0.0, spec.utilities.c_g1)


def _projection_certified(v_max: float, v_min: float, costs) -> bool:
    """Whether a slice with these extremes provably has no profitable
    injection, so that its projection loop would exit at its first check
    (see the module docstring for the margin).  Valid only while
    injection_cost(K) >= K + kappa."""
    floor = costs.k_min + costs.kappa
    return v_max - v_min <= floor - 2.0**-47 * (max(abs(v_max), abs(v_min)) + floor)


def _uncapped(c1_bound: float, v_max: float, v_min: float, t: float) -> str:
    """Why the projection at t has no finite iteration cap: C1, or the cap
    (M - min v) / kappa with M = max(C1, max v), overflows."""
    if not math.isfinite(c1_bound):
        what = f"the bound C1 = T * max(f - beta g2) + max(0, sup g1) is {c1_bound!r}"
    else:
        what = (f"the projection cap (M - min v) / kappa is not finite (M = "
                f"{max(c1_bound, v_max)!r}, min v = {v_min!r})")
    return (f"{what} at t={t:.6g}, so the impulse projection has no iteration cap; "
            "the spec's numbers are too large for double precision")


def _sweep(spec: ModelSpec, grid: Grid, tol_inner: float) -> tuple[float, Iterator]:
    """The backward sweep alone: the bound C1 and a generator of the
    slices in sweep order, j = n_t down to 0.  Each slice is
    (j, v, updates, last): the time index, the final values V[j], the
    projection updates of its step (0 for the terminal slice), and the
    last impulse_max(v) pair (IV and the maximizers) where the projection
    loop ran, else None.  A slice's arrays are the caller's to keep; the
    sweep holds only the slice it steps from.

    Raises ValueError, at the call, when the spec fails hypothesis
    validation or the injection window fits inside one cell (h > k_min);
    the generator raises ValueError when a slice to project has no finite
    iteration cap (C1 or the cap overflows), and NumericalError when a
    step's pivot falls below c/2 or an inner projection exceeds its
    certified iteration cap.
    """
    x = grid.x_nodes()
    tn = grid.t_nodes(spec.T)
    costs = spec.costs

    if grid.h > costs.k_min:  # the smallest n_x with h <= k_min, after rounding
        cells = (grid.x_max - grid.x_min) / costs.k_min
        if math.isinf(cells):
            raise ValueError(f"cell width h = {grid.h:.6g} exceeds k_min = {costs.k_min:.6g}, and "
                             f"no --nx mends it: --xmax {grid.x_max!r} is too far from --xmin "
                             f"{grid.x_min!r} to count the cells; use a smaller --xmax")
        n_x = math.ceil(cells) + 1
        n_x += Grid(grid.x_min, grid.x_max, n_x, 1).h > costs.k_min
        raise ValueError(f"cell width h = {grid.h:.6g} exceeds k_min = {costs.k_min:.6g}, "
                         f"so the smallest injection lands inside one cell; use --nx >= {n_x}")
    rep = validate(spec, x)
    if not rep.passed:
        names = ", ".join(e.name for e in rep.failures())
        raise ValueError(f"model spec fails validation: {names}")

    plan = _StepPlan(grid, spec, tn[-2::-1])  # the step times, in sweep order
    c1_bound = upper_bound_c1(spec, grid)     # caps the projection count

    def slices():
        v = np.asarray(spec.utilities.g1(x), dtype=float)
        yield grid.n_t, v, 0, None
        for j in range(grid.n_t - 1, -1, -1):
            v = pde_step(v, tn[j], grid, spec, plan)
            v_max, v_min = float(v.max()), float(v.min())
            updates, last = 0, None
            if not _projection_certified(v_max, v_min, costs):
                span = (max(c1_bound, v_max) - v_min) / costs.kappa
                if not math.isfinite(span):
                    raise ValueError(_uncapped(c1_bound, v_max, v_min, tn[j]))
                cap = math.ceil(span) + 1
                while True:
                    iv, ks = impulse_max(v, grid, costs)
                    residual = float(np.max(iv - v))
                    if residual <= tol_inner:
                        break
                    if updates >= cap:
                        raise NumericalError(
                            f"impulse projection failed to settle at t={tn[j]:.6g}: "
                            f"residual {residual:.3e} after {updates} updates (cap {cap})"
                        )
                    v = np.maximum(v, iv)
                    updates += 1
                last = iv, ks
            yield j, v, updates, last

    return c1_bound, slices()


def solve(spec: ModelSpec, grid: Grid, tol_inner: float = 1e-9,
          eps_region: float | None = None) -> SolveResult:
    """Backward QVI sweep; returns the value surface with its action
    labels and injection policy.

    Each slice of the sweep goes straight into the stacked V, IV and
    maximizer arrays.  IV and the maximizers of a projected slice come
    from its loop's last impulse_max call; one stacked call gives those of
    the terminal slice and of the slices whose projection was certified
    away.  From them come the labels, the policy and the largest residual
    max(IV - V).

    Raises ValueError when the spec fails hypothesis validation, h >
    k_min, or a slice to project has no finite iteration cap, and
    NumericalError when a step's pivot falls below c/2, an
    inner projection exceeds its certified iteration cap, or a slice whose
    projection was skipped has a residual above tol_inner.
    """
    if eps_region is None:
        eps_region = 10.0 * tol_inner
    c1_bound, slices = _sweep(spec, grid, tol_inner)
    x = grid.x_nodes()
    tn = grid.t_nodes(spec.T)

    V, IV, XI = (np.empty((grid.n_t + 1, grid.n_x)) for _ in range(3))
    inner_counts = [0] * (grid.n_t + 1)
    rest = []  # the slices without a projection loop
    for j, v, updates, last in slices:
        V[j], inner_counts[j] = v, updates
        if last is None:
            rest.append(j)
        else:
            IV[j], XI[j] = last
    IV[rest], XI[rest] = impulse_max(V[rest], grid, spec.costs)
    LAB, XI = _labels(V, IV, XI, eps_region)
    # the terminal slice is not projected; every other slice left the loop
    # with this residual or was certified below it
    residuals = np.max(IV[:-1] - V[:-1], axis=1)
    bad = np.flatnonzero(residuals > tol_inner)
    if bad.size:
        j = int(bad[0])
        raise NumericalError(
            f"impulse projection skipped at t={tn[j]:.6g} with residual "
            f"{residuals[j]:.3e} above tol_inner {tol_inner:.3e}"
        )

    # landing nodes of the policy should be continuation (within one cell)
    j_act, i_act = np.nonzero(LAB)
    landing = grid.nearest_node(x[i_act] + XI[j_act, i_act])
    land_violations = int(np.count_nonzero(LAB[j_act, landing]))

    metadata = {
        "tol_inner": tol_inner,
        "eps_region": eps_region,
        "spec_sha256": spec.sha256(),
        "inner_iterations": inner_counts[:-1],
        "max_inner_residual": max(0.0, float(np.max(residuals))),
        "c1_bound": c1_bound,
        "landing_violations": land_violations,
    }
    return SolveResult(ValueSurface(grid, spec.T, V, IV, metadata), LAB, XI)


# ---------------------------------------------------------------------------
# exports


def write_csv(path, meta: dict, columns, rows) -> None:
    """The one CSV layout of every artifact: a `# key=value` line per meta
    key in sorted order, the column line, then rows, an iterable of text
    holding whole lines; utf-8 with `\\n` line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"# {key}={meta[key]}\n" for key in sorted(meta))
        fh.write(",".join(columns) + "\n")
        fh.writelines(rows)


# surface.csv header fields with their parsers: what read_surface_csv needs
# to rebuild the SolveResult, and the spec it was solved for
_SURFACE_HEADER = {"T": float, "x_min": float, "x_max": float, "n_x": int, "n_t": int,
                   "eps_region": float, "tol_inner": float, "spec_sha256": str}


def write_surface_csv(path, res: SolveResult, meta: dict | None = None) -> None:
    """Long format: t, x, V, IV, label, xi0 (xi0 empty on continuation),
    after `# key=value` lines for `meta` and for T, the grid, eps_region,
    tol_inner and spec_sha256.  Rows are built one time slice at a time."""
    surface = res.surface
    known = {**surface.metadata, **surface.grid.to_dict(), "T": surface.T}
    x_txt = [repr(x) for x in surface.grid.x_nodes().tolist()]

    def slices():
        for j, t in enumerate(surface.t_nodes().tolist()):
            tails = [f"action,{xi!r}\n" if act else "continuation,\n"
                     for act, xi in zip(res.labels[j].tolist(), res.xi0[j].tolist())]
            yield "".join([f"{t!r},{x},{v!r},{iv!r},{tail}" for x, v, iv, tail in zip(
                x_txt, surface.values[j].tolist(), surface.iv_values[j].tolist(), tails)])

    write_csv(path, {**(meta or {}), **{k: known[k] for k in _SURFACE_HEADER}},
              ("t", "x", "V", "IV", "label", "xi0"), slices())


_CONTINUATION = (",continuation,\n", ",continuation,")  # row ends; the last may lack a newline
_READ_SLICES = 16  # time slices per block of read_surface_csv
_MIN_ROW_BYTES = len("0,0,0,0,action,0")  # the shortest data row a surface can hold


def _parse_numbers(rows: list, first: int) -> np.ndarray:
    """t, x, V and IV of a block of data rows, the first of them data row
    first + 1 of the file; a value that does not parse names its row."""
    try:
        return np.loadtxt(rows, delimiter=",", usecols=(0, 1, 2, 3), ndmin=2)
    except ValueError as exc:
        for i, row in enumerate(rows):  # find the row, with the same parser
            try:
                np.loadtxt([row], delimiter=",", usecols=(0, 1, 2, 3))
            except ValueError:
                raise ValueError(f"surface data row {first + i + 1} has a t, x, V or IV "
                                 f"that does not parse: {row.strip()!r}") from None
        raise exc


def read_surface_csv(path, spec: ModelSpec | None = None) -> SolveResult:
    """Rebuild the SolveResult written by write_surface_csv on the grid its
    header records; spec, when given, is the spec it must have been solved
    for.

    The rows are read in blocks of _READ_SLICES time slices, one
    np.loadtxt call each, so the file's lines are never held at once.
    Blank lines are skipped; data rows are numbered from 1 over the whole
    file.  Raises ValueError when a header field is missing (as in files
    written before the header existed) or outside its domain (numbers
    finite, tol_inner > 0, n_x and n_t integers), when the header's
    spec_sha256 or T is not the spec's (before any row is read), when a
    value does not parse, when a V, an IV or an action row's xi0 is not
    finite, when the rows do not fill the header's grid (first bounded by
    the file's size, before the grid is allocated), or when a row's
    label is neither action nor continuation or a continuation row carries
    an xi0.
    """
    header = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:  # ends on the column line
            if not line.startswith("#"):
                break
            key, _, value = line[1:].strip().partition("=")
            header[key] = value
        missing = [k for k in _SURFACE_HEADER if k not in header]
        if missing:
            raise ValueError(f"surface header lacks {', '.join(missing)}; "
                             "re-run solve to write a complete surface")
        h = {}
        for key, parse in _SURFACE_HEADER.items():
            try:
                h[key] = parse(header[key])
            except ValueError:  # str never raises
                h[key] = math.nan
            if parse is not str and not (math.isfinite(h[key]) and (key != "tol_inner" or h[key] > 0)):
                raise ValueError(f"surface header {key}={header[key]!r} is outside its domain: "
                                 "every number finite, tol_inner > 0, n_x and n_t integers")
        if spec is not None and h["spec_sha256"] != spec.sha256():
            raise ValueError("it was solved for a different spec")
        if spec is not None and h["T"] != spec.T:
            raise ValueError(f"surface header T={h['T']!r} differs from the spec's T={spec.T!r}")
        grid = Grid(h["x_min"], h["x_max"], h["n_x"], h["n_t"])
        shape = (grid.n_t + 1, grid.n_x)
        unfilled = ValueError(f"rows do not fill the {shape[0]}x{shape[1]} (t, x) grid of the header")
        if shape[0] * shape[1] * _MIN_ROW_BYTES > pathlib.Path(path).stat().st_size:
            raise unfilled  # before the grid is allocated
        tn, xn = grid.t_nodes(h["T"]), grid.x_nodes()
        V, IV, xi0 = np.empty(shape), np.empty(shape), np.full(shape, np.nan)
        action = np.empty(shape, dtype=bool)
        data = (r for r in fh if not r.isspace())
        for j in range(0, shape[0], _READ_SLICES):
            m = min(_READ_SLICES, shape[0] - j)
            rows = list(itertools.islice(data, m * grid.n_x))
            if len(rows) < m * grid.n_x:
                raise unfilled
            first = j * grid.n_x
            num = _parse_numbers(rows, first)
            if not (np.array_equal(num[:, 0], np.repeat(tn[j:j + m], grid.n_x))
                    and np.array_equal(num[:, 1], np.tile(xn, m))):
                raise unfilled
            V[j:j + m], IV[j:j + m] = num[:, 2].reshape(m, -1), num[:, 3].reshape(m, -1)
            # label and xi0 are the last two fields: "continuation," with xi0
            # empty, or "action," with xi0 parsed; any other label is an error
            act = ~np.fromiter(map(str.endswith, rows, itertools.repeat(_CONTINUATION)),
                               dtype=bool, count=len(rows))
            action[j:j + m] = act.reshape(m, -1)
            at = np.flatnonzero(act)
            parsed = []
            for i in at.tolist():
                label, xi = rows[i].rsplit(",", 2)[1:]
                if label != "action":
                    raise ValueError(f"surface data row {first + i + 1} is neither an action row "
                                     f"nor a continuation row with empty xi0: {rows[i].strip()!r}")
                try:
                    parsed.append(float(xi))
                except ValueError:
                    raise ValueError(f"surface data row {first + i + 1} has an xi0 that does not "
                                     f"parse: {rows[i].strip()!r}") from None
            xi0.reshape(-1)[first + at] = parsed
            finite = np.isfinite(num[:, 2:4]).all(axis=1) & (
                ~act | np.isfinite(xi0.reshape(-1)[first:first + len(rows)]))
            if not finite.all():
                i = int(np.argmin(finite))
                raise ValueError(f"surface data row {first + i + 1} has a V, IV or xi0 that is "
                                 f"not finite: {rows[i].strip()!r}")
        if next(data, None) is not None:
            raise unfilled
    metadata = {k: h[k] for k in ("eps_region", "tol_inner", "spec_sha256")}
    return SolveResult(ValueSurface(grid, h["T"], V, IV, metadata), action, xi0)


def write_policy_csv(path, res: SolveResult, meta: dict | None = None) -> None:
    """Action nodes only, in row-major order: t, x, xi0."""
    j, i = np.nonzero(res.labels)
    rows = zip(res.surface.t_nodes()[j].tolist(), res.surface.grid.x_nodes()[i].tolist(),
               res.xi0[j, i].tolist())
    write_csv(path, meta or {}, ("t", "x", "xi0"), (f"{t!r},{x!r},{xi!r}\n" for t, x, xi in rows))


def _label_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected components of a 2-d boolean mask, numbered from 1 in
    raster order of their first node; 0 marks background.

    Two passes over the runs of True in each row (He, Chao & Suzuki, IEEE
    TIP 2008): a run joins every run of the row above whose columns it
    overlaps, under union-find; then the runs, in raster order, number
    each component as its first run is met.
    """
    mask = np.asarray(mask, dtype=bool)
    edges = np.diff(mask.astype(np.int8), axis=1, prepend=0, append=0)
    row, start = np.nonzero(edges == 1)   # runs in raster order
    end = np.nonzero(edges == -1)[1]      # one past each run's last column
    starts, ends = start.tolist(), end.tolist()
    parent = list(range(row.size))

    def root(r):
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        return r

    above, here, cur = [], [], -1         # runs of the row above and of row cur
    for r, (j, s, e) in enumerate(zip(row.tolist(), starts, ends)):
        if j != cur:
            above, here, cur, p = (here if j == cur + 1 else []), [], j, 0
        here.append(r)
        while p < len(above) and ends[above[p]] <= s:  # left of this run and of every later one
            p += 1
        for q in above[p:]:
            if starts[q] >= e:
                break
            parent[root(r)] = root(q)
    number = {}
    run_label = [number.setdefault(root(r), len(number) + 1) for r in range(row.size)]
    labels = np.zeros(mask.shape, dtype=np.intp)
    labels[mask] = np.repeat(np.asarray(run_label, dtype=np.intp), end - start)
    return labels, len(number)


def write_boundary_csv(path, res: SolveResult, meta: dict | None = None) -> None:
    """Upper edge of each connected action component as a (t, x) polyline,
    by component, then time."""
    tn = res.surface.t_nodes().tolist()
    xn = res.surface.grid.x_nodes().tolist()
    comp, _ = _label_components(res.labels)
    j, i = np.nonzero(comp)  # row-major, so the last i of a (component, row) is its largest
    top = dict(zip(zip(comp[j, i].tolist(), j.tolist()), i.tolist()))
    write_csv(path, meta or {}, ("component", "t", "boundary_x"),
              (f"{c},{tn[j]!r},{xn[i]!r}\n" for (c, j), i in sorted(top.items())))
