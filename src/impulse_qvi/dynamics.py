"""Controlled paths, default sampling, and Monte Carlo cost functionals.

Paths follow the ratio SDE by Euler-Maruyama on a uniform step grid with
impulse times inserted exactly (never rounded).  The default time is the
first jump of a Cox clock with intensity beta(t), sampled by exact
inversion of the cumulative hazard; paths themselves are default-free
and the default only truncates the realized cost.

Two cost representations are computed from the same Brownian numbers:

* cost_g: running f up to default-or-horizon, terminal g1 on survival,
  default penalty g2 at the default time, plus undiscounted injection
  costs up to default-or-horizon;
* cost_f: survival-discounted running gain f - beta*g2 over the whole
  horizon, discounted terminal g1, and discounted injection costs.  Each
  step weights f by its survival integral and g2 by its default
  probability, exact for a hazard constant on the step; a left-rectangle
  rule would leave an O(dt) gap to cost_g, which clips at the default.

Their expectations agree; the gap divided by the combined standard
error is the reduction check.

Per-path RNG streams derive from (master seed, path index): path j uses
the stream of default_rng([seed, j]), so results are reproducible and
growing the path count never perturbs earlier paths.  Each path draws
its default exponential first and its Brownian row second; estimators
that ignore the default still draw it, keeping the Brownian numbers
common across both representations.

Building a Generator per path would cost several times the path's own
draws, so the streams are seeded in bulk instead: _seed_states runs
numpy's SeedSequence hash as uint32 array arithmetic over a block of
path indices, and _pcg64_words runs PCG64's seeding step on the results
as uint64 limb arithmetic.  One reused Generator draws every path: its
pcg64_random_t (the 128-bit state, then the 128-bit inc) is opened once
per chunk as a four-word uint64 view, reached through the pointer that
is the first field of the struct at bit_generator.ctypes.state_address,
and each path's words are written into it in place.  numpy stores each
128-bit word low then high where the compiler has __uint128_t and high
then low where it emulates one (MSVC); the order is chosen once per
chunk as the one under which the chunk's first path reads back, through
the bit_generator.state getter, as the whole state dict of a real
default_rng([seed, start]), and RuntimeError is raised if neither does.
So the numbers are those of default_rng([seed, j]) bit for bit.

Paths run in chunks of _CHUNK = 4096; since every path has its own
stream, the chunk size changes no number.  A chunk holds its Brownian
block, 4096 x n_step x 8 B (6.6 MB at 202 steps), plus a few working
arrays of 4096 doubles that each Euler step writes in place, with the
time-only coefficients evaluated once over the step grid and each path's
default step found once by searchsorted.  Peak RSS of a 65,536-path,
202-step `simulate` is about 46 MB (66 MB with 16,384-path chunks) on a
2-vCPU x86-64 VM with numpy 2.4.
"""

from __future__ import annotations

import ctypes
import json
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (ModelSpec, _sorted_distinct, injection_cost, invert_hazard, survival,
                    survival_grid)

_CHUNK = 4096
_BLOCK = 1024  # paths seeded per array pass

# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 seeding constants
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341  # 64-bit halves
# column orders of _pcg64_words rows in pcg64_random_t: each 128-bit word
# low then high where numpy has __uint128_t, high then low where it
# emulates 128-bit arithmetic (MSVC)
_WORD_ORDERS = ((1, 0, 3, 2), (0, 1, 2, 3))


class ImpulseEvent(NamedTuple):
    time: float
    size: float
    state_before: float
    state_after: float


class MCEstimate(NamedTuple):
    estimate: float
    std_error: float


@dataclass(frozen=True)
class ImpulseSchedule:
    """Deterministic injection times and sizes, one injection per time."""

    times: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.sizes, dtype=float)
        if t.ndim != 1 or t.shape != s.shape:
            raise ValueError("times and sizes must be matching 1-d arrays")
        t.flags.writeable = False
        s.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "sizes", s)

    def validate(self, spec: ModelSpec, t0: float = 0.0) -> None:
        """Raise ValueError unless the schedule is admissible from t0."""
        if self.times.size == 0:
            return
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("impulse times must be strictly increasing")
        if self.times[0] < t0 or self.times[-1] >= spec.T:
            raise ValueError("impulse times must lie in [t0, T)")
        c = spec.costs
        if np.any(self.sizes < c.k_min) or np.any(self.sizes > c.k_max):
            raise ValueError("impulse sizes must lie in [k_min, k_max]")

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump([[float(t), float(s)] for t, s in zip(self.times, self.sizes)], fh)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "ImpulseSchedule":
        with open(path, "r", encoding="utf-8") as fh:
            pairs = json.load(fh)
        pairs = [(float(t), float(s)) for t, s in pairs]
        return cls(np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))


@dataclass
class PathRecord:
    """One simulated path: grid times, post-impulse states, applied impulses,
    the sampled default time (inf if beyond the horizon), and the realized
    cost in the default-truncated representation."""

    times: np.ndarray
    states: np.ndarray
    impulses_applied: list
    default_time: float
    realized_cost: float

    def to_csv(self, fh, meta: dict | None = None) -> None:
        """Long format: time, state, impulse_flag, impulse_size."""
        flags = {}
        for ev in self.impulses_applied:
            flags[float(ev.time)] = float(ev.size)
        if meta:
            for key in sorted(meta):
                fh.write(f"# {key}={meta[key]}\n")
        fh.write("time,state,impulse_flag,impulse_size\n")
        for t, x in zip(self.times, self.states):
            k = flags.get(float(t))
            if k is None:
                fh.write(f"{float(t)!r},{float(x)!r},0,0.0\n")
            else:
                fh.write(f"{float(t)!r},{float(x)!r},1,{k!r}\n")


class FeedbackPolicy:
    """Markov injection rule read off a solved surface.

    Queries snap t to the nearest time node and x with grid.nearest_node,
    the rule that lands an injection; action nodes return the recorded
    injection size, continuation nodes return 0.  A query is made at most
    once per grid time, so no two injections share an instant.
    """

    def __init__(self, t_nodes, grid, action, xi0):
        self.t_nodes = np.asarray(t_nodes, dtype=float)
        self.grid = grid
        action = np.asarray(action, dtype=bool)
        xi0 = np.asarray(xi0, dtype=float)
        if action.shape != (self.t_nodes.size, grid.n_x):
            raise ValueError("action mask shape must be (n_t_nodes, n_x)")
        if xi0.shape != action.shape:
            raise ValueError("xi0 shape must match the action mask")
        self.sizes = np.where(action, xi0, 0.0)  # the injection at each node

    @classmethod
    def from_solution(cls, res) -> "FeedbackPolicy":
        """The policy of a solver.SolveResult."""
        return cls(res.surface.t_nodes(), res.surface.grid, res.labels, res.xi0)

    def injections(self, t: float, x: np.ndarray) -> np.ndarray:
        j = int(np.argmin(np.abs(self.t_nodes - t)))
        ix = self.grid.nearest_node(np.asarray(x))
        return self.sizes[j, ix]


def _time_grid(t0: float, t_end: float, dt: float, extra=()) -> np.ndarray:
    if t_end < t0:
        raise ValueError("need t_end >= t0")
    if t_end == t0:
        return np.array([t0])
    n = max(1, math.ceil((t_end - t0) / dt - 1e-9))
    base = t0 + dt * np.arange(n + 1)
    base[-1] = t_end
    pts = [base]
    extra = np.asarray(extra, dtype=float)
    if extra.size:
        pts.append(extra[(extra >= t0) & (extra <= t_end)])
    return _sorted_distinct(np.concatenate(pts))


@dataclass
class PathBatch:
    """Raw output of the batch engine for one contiguous block of paths."""

    times: np.ndarray
    final_states: np.ndarray
    default_times: np.ndarray
    cost_g: np.ndarray
    run_f: np.ndarray
    imp_f: np.ndarray
    histories: np.ndarray | None = None
    events: list | None = None


def _prepare_control(spec, control, t0, times):
    """Return (schedule index->size map, policy or None)."""
    if control is None:
        return {}, None
    if isinstance(control, ImpulseSchedule):
        control.validate(spec, t0)
        at = {}
        idx = np.searchsorted(times, control.times)
        for i, t_imp, k in zip(idx, control.times, control.sizes):
            if i >= times.size or times[i] != t_imp:
                continue  # impulse after the simulated window
            at[int(i)] = float(k)
        return at, None
    if hasattr(control, "injections"):
        return {}, control
    raise ValueError("control must be None, an ImpulseSchedule, or a feedback policy")


def _words(n: int) -> list:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence reads it."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _mix(x, y):
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def _seed_states(seed_words: list, first: int, count: int) -> np.ndarray:
    """SeedSequence([seed, j]).generate_state(4, np.uint64) for j in
    first..first+count-1, as a (count, 4) uint64 array.

    All arithmetic is on uint32 arrays and wraps mod 2**32; the hash
    constants advance identically for every path, so they stay scalars.
    """
    j = np.arange(first, first + count, dtype=np.uint64)
    j_hi = (j >> 32).astype(np.uint32)
    entropy = [np.full(count, w, dtype=np.uint32) for w in seed_words]
    entropy += [j.astype(np.uint32), j_hi]
    entropy += [np.zeros(count, dtype=np.uint32)] * (4 - len(entropy))
    hc = _INIT_A

    def hashmix(v):
        nonlocal hc
        v = v ^ hc
        hc = hc * _MULT_A & _MASK32
        v = v * hc
        return v ^ (v >> 16)

    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # words past the pool are mixed into every pool word; the last one,
    # j's high word, exists only for j >= 2**32
    for i in range(4, len(entropy)):
        present = j_hi > 0 if i == len(entropy) - 1 else True
        for dst in range(4):
            pool[dst] = np.where(present, _mix(pool[dst], hashmix(entropy[i])), pool[dst])
    out = np.empty((count, 8), dtype="<u4")
    hb = _INIT_B
    for i in range(8):
        v = pool[i % 4] ^ hb
        hb = hb * _MULT_B & _MASK32
        v = v * hb
        out[:, i] = v ^ (v >> 16)
    return out.view("<u8")


def _mul_hi(a, b: int):
    """High 64 bits of the 128-bit products a * b, for a uint64 array a and
    a 64-bit constant b, from 32-bit limbs."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _pcg64_words(seed_words: list, first: int, count: int) -> np.ndarray:
    """PCG64 seeded from _seed_states: (count, 4) uint64 rows of the state
    and inc words (state_hi, state_lo, inc_hi, inc_lo) of
    default_rng([seed, j]) for j in first..first+count-1.

    PCG64's seeding step, inc = 2 initseq + 1 and then two LCG steps from 0,
    state = (s + inc) * mult + inc mod 2**128, on 64-bit limbs; uint64
    array arithmetic wraps, and each carry is a comparison.
    """
    s_hi, s_lo, i_hi, i_lo = _seed_states(seed_words, first, count).T
    inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    lo = s_lo + inc_lo
    hi = s_hi + inc_hi + (lo < s_lo)
    hi = _mul_hi(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    lo = lo * _PCG_MULT_LO
    state_lo = lo + inc_lo
    return np.stack([hi + inc_hi + (state_lo < lo), state_lo, inc_hi, inc_lo], axis=1)


def _state_view(bitgen) -> np.ndarray:
    """The four uint64 words of a PCG64's pcg64_random_t (state, then inc),
    as a writable view: the first field of the struct at
    bitgen.ctypes.state_address points to them."""
    words = ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value
    return np.frombuffer((ctypes.c_uint64 * 4).from_address(words), dtype=np.uint64)


def _word_order(bitgen, mem, words, expected) -> list:
    """The column order of _pcg64_words rows that bitgen's memory takes:
    the first of _WORD_ORDERS whose write of ``words`` makes bitgen.state
    equal ``expected``."""
    for order in map(list, _WORD_ORDERS):
        mem[:] = words[order]
        if bitgen.state == expected:
            return order
    raise RuntimeError("bulk stream seeding disagrees with numpy's default_rng")


def _draw_paths(seed, start, e_draws, z):
    """Fill e_draws[j] and z[j] from the stream of default_rng([seed, start + j])."""
    rng = np.random.default_rng([seed, start])  # rejects bad seeds as numpy does
    bitgen = rng.bit_generator
    expected = bitgen.state
    mem = _state_view(bitgen)  # valid while rng lives
    seed_words = _words(operator.index(seed))
    count = e_draws.size
    order = None
    for b0 in range(0, count, _BLOCK):
        words = _pcg64_words(seed_words, start + b0, min(_BLOCK, count - b0))
        if order is None:
            order = _word_order(bitgen, mem, words[0], expected)
        e = []
        for row, z_row in zip(words[:, order], z[b0:b0 + _BLOCK]):
            mem[:] = row
            e.append(rng.standard_exponential())
            rng.standard_normal(out=z_row)
        e_draws[b0:b0 + len(e)] = e


def _run_chunk(spec, t0, x0, control, times, seed, start, count, record):
    u = spec.utilities
    costs = spec.costs
    n_step = times.size - 1
    dts = np.diff(times)
    rho = survival_grid(spec, t0, times)
    # per step: default probability p_k = rho_k - rho_{k+1} weights g2, and
    # the survival integral p_k d / dLambda_k (rho_k d when the step carries
    # no hazard) weights f; both exact for a hazard constant on the step
    p_def = rho[:-1] - rho[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        d_hazard = np.log(rho[:-1]) - np.log(rho[1:])
        w_run = np.where(d_hazard > 0.0, p_def * dts / d_hazard, rho[:-1] * dts)
    # time-only coefficients, once over the step grid
    mu = np.asarray(spec.mu_tilde(times[:-1]), dtype=float)
    sig = np.asarray(spec.sigma_tilde(times[:-1]), dtype=float)
    coef = list(zip(dts.tolist(), np.sqrt(dts).tolist(), mu.tolist(), sig.tolist(),
                    w_run.tolist(), p_def.tolist()))

    e_draws = np.empty(count)
    z = np.empty((count, n_step))
    _draw_paths(seed, start, e_draws, z)
    tau = np.atleast_1d(invert_hazard(spec.beta, t0, e_draws, spec.T))
    # each path's default step, times[kd] <= tau < times[kd + 1] (n_step for
    # a default at or after the last grid time), and the paths of step k as
    # by_step[ends[k]:ends[k + 1]]
    kd = np.searchsorted(times, tau, "right") - 1
    by_step = np.argsort(kd, kind="stable")
    ends = np.searchsorted(kd, np.arange(n_step + 1), sorter=by_step).tolist()

    sched_at, policy = _prepare_control(spec, control, t0, times)

    x = np.full(count, float(x0))
    run_g = np.zeros(count)  # running f over whole steps, as if no default
    run_g_tau = np.zeros(count)  # running f up to tau, set on the default step
    run_f = np.zeros(count)
    imp_g = np.zeros(count)
    imp_f = np.zeros(count)
    g2_at_tau = np.zeros(count)
    a = np.empty(count)  # work arrays for each step's terms
    b = np.empty(count)
    hist = np.empty((count, times.size)) if record else None
    events = [[] for _ in range(count)] if record else None

    for k in range(times.size):
        tk = times[k]
        # injection at tk: scheduled, or queried from the policy (never at the
        # final grid time, so no injection can ride on the evaluation instant)
        xi = None
        if k in sched_at:
            xi = np.full(count, sched_at[k])
        elif policy is not None and k < n_step:
            xi = np.asarray(policy.injections(tk, x), dtype=float)
        if xi is not None and np.any(xi > 0):
            hit = xi > 0
            if record:
                before = x.copy()
            np.add(x, xi, out=x, where=hit)
            alive = tau >= tk
            imp_g += np.where(hit & alive, injection_cost(xi, costs), 0.0)
            imp_f += np.where(hit, rho[k] * injection_cost(xi, costs), 0.0)
            if record:
                for j in np.nonzero(hit)[0]:
                    events[j].append(ImpulseEvent(float(tk), float(xi[j]), float(before[j]), float(x[j])))
        if record:
            hist[:, k] = x
        if k == n_step:
            break
        d, sqrt_d, mu_k, sig_k, w_k, p_k = coef[k]
        fx = np.asarray(u.f(x), dtype=float)
        g2x = np.asarray(u.g2(x), dtype=float)
        # the default-truncated running term clips the default step at tau
        lo, hi = ends[k], ends[k + 1]
        if lo < hi:
            at = by_step[lo:hi]
            run_g_tau[at] = run_g[at] + fx[at] * (tau[at] - tk)
            g2_at_tau[at] = g2x[at]
        run_g += np.multiply(fx, d, out=a)
        np.multiply(fx, w_k, out=a)
        a -= np.multiply(g2x, p_k, out=b)
        run_f += a
        # x + ((c1 - x) lam(x) + mu x) d + ((sigma x) sqrt(d)) z, in that order
        lam_x = np.asarray(spec.lam(x), dtype=float)
        np.subtract(spec.c1, x, out=a)
        a *= lam_x
        a += np.multiply(x, mu_k, out=b)
        a *= d
        np.multiply(x, sig_k, out=b)
        b *= sqrt_d
        b *= z[:, k]
        x += a
        x += b

    survive = tau >= spec.T
    g1x = np.asarray(u.g1(x), dtype=float)
    run_g = np.where(kd < n_step, run_g_tau, run_g)
    cost_g = run_g + np.where(survive, g1x, 0.0) - np.where(survive, 0.0, g2_at_tau) - imp_g
    return PathBatch(times, x, tau, cost_g, run_f, imp_f, hist, events)


def _simulate_batch(spec, t0, x0, control, dt, seed, n_paths, t_end=None, record=False,
                    path_offset=0) -> PathBatch:
    """Run n_paths Euler paths from (t0, x0), in chunks of _CHUNK paths."""
    if not 0.0 <= t0 <= spec.T:
        raise ValueError("t0 must lie in [0, T]")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_paths < 1:
        raise ValueError("need at least one path")
    t_end = spec.T if t_end is None else float(t_end)
    if t_end > spec.T:
        raise ValueError("t_end beyond the horizon")
    extra = control.times if isinstance(control, ImpulseSchedule) else ()
    times = _time_grid(t0, t_end, dt, extra)

    parts = [_run_chunk(spec, t0, x0, control, times, seed, path_offset + s,
                        min(_CHUNK, n_paths - s), record)
             for s in range(0, n_paths, _CHUNK)]

    if len(parts) == 1:
        return parts[0]
    return PathBatch(
        times=times,
        final_states=np.concatenate([p.final_states for p in parts]),
        default_times=np.concatenate([p.default_times for p in parts]),
        cost_g=np.concatenate([p.cost_g for p in parts]),
        run_f=np.concatenate([p.run_f for p in parts]),
        imp_f=np.concatenate([p.imp_f for p in parts]),
        histories=np.concatenate([p.histories for p in parts]) if record else None,
        events=[e for p in parts for e in p.events] if record else None,
    )


def simulate_paths(spec: ModelSpec, t0: float, x0: float, control, dt: float, seed,
                   n_paths: int, first: int = 0) -> list:
    """Simulate paths first..first+n_paths-1 in one batch; entry i is the
    PathRecord of simulate(..., path_index=first + i) bit for bit."""
    batch = _simulate_batch(spec, t0, x0, control, dt, seed, n_paths, record=True,
                            path_offset=int(first))
    return [PathRecord(times=batch.times, states=batch.histories[i],
                       impulses_applied=batch.events[i],
                       default_time=float(batch.default_times[i]),
                       realized_cost=float(batch.cost_g[i]))
            for i in range(n_paths)]


def simulate(spec: ModelSpec, t0: float, x0: float, control, dt: float, seed,
             path_index: int = 0) -> PathRecord:
    """Simulate one controlled path; deterministic in (seed, path_index).

    The control is None, an ImpulseSchedule, or a FeedbackPolicy.  Impulse
    times are inserted into the step grid, states are post-impulse, and the
    realized cost is the default-truncated representation.
    """
    return simulate_paths(spec, t0, x0, control, dt, seed, 1, first=path_index)[0]


def _mean_se(values: np.ndarray) -> MCEstimate:
    n = values.size
    est = float(np.mean(values))  # numpy pairwise summation: deterministic
    se = float(np.std(values, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return MCEstimate(est, se)


def mc_cost_g(spec: ModelSpec, t0: float, x0: float, control, dt: float,
              n_paths: int, seed) -> MCEstimate:
    """MC estimate of the default-truncated cost representation."""
    batch = _simulate_batch(spec, t0, x0, control, dt, seed, n_paths)
    return _mean_se(batch.cost_g)


@dataclass
class ReductionReport:
    """Agreement of the two cost representations at common Brownian numbers."""

    cost_g: MCEstimate
    cost_f: MCEstimate
    difference: float
    combined_se: float
    n_paths: int
    seed: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "cost_g": {"estimate": self.cost_g.estimate, "std_error": self.cost_g.std_error},
            "cost_f": {"estimate": self.cost_f.estimate, "std_error": self.cost_f.std_error},
            "difference": self.difference,
            "combined_se": self.combined_se,
            "n_paths": self.n_paths,
            "seed": self.seed,
            "passed": self.passed,
        }


def filtration_reduction_check(spec: ModelSpec, t0: float, x0: float, control,
                               dt: float, n_paths: int, seed) -> ReductionReport:
    """Compare both cost representations on one set of Brownian draws.

    Passes when |difference| <= 3 * sqrt(se_g^2 + se_f^2).  With beta == 0
    the two representations agree path by path and the difference is 0.
    """
    batch = _simulate_batch(spec, t0, x0, control, dt, seed, n_paths)
    est_g = _mean_se(batch.cost_g)
    rho_T = survival(t0, spec.T, spec)
    g1x = np.asarray(spec.utilities.g1(batch.final_states), dtype=float)
    est_f = _mean_se(batch.run_f + rho_T * g1x - batch.imp_f)
    diff = est_g.estimate - est_f.estimate
    combined = math.sqrt(est_g.std_error**2 + est_f.std_error**2)
    return ReductionReport(
        cost_g=est_g,
        cost_f=est_f,
        difference=diff,
        combined_se=combined,
        n_paths=int(n_paths),
        seed=int(seed),
        passed=bool(abs(diff) <= 3.0 * combined),
    )
