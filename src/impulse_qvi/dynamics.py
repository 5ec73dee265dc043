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

Random numbers come from one stream per block of _BLOCK = 1024 paths:
path j belongs to block j // 1024 and reads lane j % 1024 of the stream
default_rng([seed, j // 1024]).  Each block first draws its 1,024
default exponentials, then at every Euler step that step's 1,024
normals, so path j's step-k normal is lane j % 1024 of the stream's
(k+1)-th normal draw.  A block is always drawn in full and the lanes of
paths outside the requested range are discarded, so results are
reproducible, growing the path count never perturbs earlier paths, and
neither the chunk size nor a first path inside a block changes any
number.  Estimators that ignore the default still draw it, keeping the
Brownian numbers common across both representations.  Keyed streams of
this kind follow Salmon et al., "Parallel random numbers: as easy as
1, 2, 3" (SC'11).

Each batch is planned once: its time-only terms (the step lengths and
their square roots, mu_tilde, sigma_tilde, the survival rho, the cost_f
weights and the scheduled size at each grid time) are float arrays over
the step grid, and the schedule is validated there.  Paths then run in
chunks of _CHUNK = 4096, and the engine hands out one chunk at a time:
each is written in place into buffers of _CHUNK rows, allocated once per
batch, and its caller reduces it (or copies out its recorded paths)
before the next chunk overwrites them.  So no array is as long as the
path count, and memory does not grow with it: the peak RSS of `simulate`
on fixture:geometric at dt 0.005 is 37.1-37.4 MB from 4,096 to 1,048,576
paths on a 2-vCPU Intel Xeon VM.  Estimates merge the chunks' counts,
sums and squared deviations (_Moments); a batch of one chunk reproduces
np.mean and np.std(ddof=1) bit for bit, and above 4,096 paths an
estimate depends on _CHUNK in its last bits.  A chunk holds one row of
1,024 doubles per block it touches, which every step refills in place,
and the Euler step reads the chunk's normals as one contiguous slice of
those rows, so no count x n_step array is made.  The Euler step writes
into a few working arrays of 4096 doubles, and each path's default step
is found once by searchsorted.  What grows with n_step is 80 bytes per
step: the plan's nine float arrays and each chunk's int64 bounds of the
paths defaulting at each step (a tracemalloc peak of about 88 bytes per
step).

A feedback policy (FeedbackPolicy(res), the policy of a
solver.SolveResult) is asked for the chunk's injections at a grid time
only when FeedbackPolicy.may_act says that some path may act there: that
the lowest state does not snap above the time row's highest acting node,
nor the highest state below its lowest.  Both snap through
Grid.nearest_node, the rule of every lookup, which is nondecreasing in
the state, so a step it skips would have injected nothing, and every
number is the same as with a lookup at every step.  A batch that starts
inside the action region leaves it within a few steps, and after that
each step pays a row lookup, two reductions over the states and one
snap of two values (about 23 us at 4,096 paths on a 2-vCPU Intel Xeon
VM) instead of snapping every state (about 35-45 us).  A state that is
not finite never becomes finite again, so a chunk whose final states are
not all finite has a diverged path and raises ValueError; may_act raises
the same where it meets one first in a row that has an acting node.
"""

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (ModelSpec, _number, _sorted_distinct, injection_cost, invert_hazard,
                    survival_grid)

_CHUNK = 4096
_BLOCK = 1024  # paths per RNG stream


class ImpulseEvent(NamedTuple):
    time: float
    size: float
    state_before: float
    state_after: float


class MCEstimate(NamedTuple):
    estimate: float
    std_error: float


@dataclass(frozen=True, eq=False)
class ImpulseSchedule:
    """Deterministic injection times and sizes, one injection per time.
    == is identity and a schedule hashes by id, since it holds arrays."""

    times: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        t = np.array(self.times, dtype=float)  # a copy: freezing it leaves the caller's array alone
        s = np.array(self.sizes, dtype=float)
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
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.sizes))):
            raise ValueError("impulse times and sizes must be finite")
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
        """Read a JSON list of [time, size] pairs of finite numbers; ValueError
        naming the file, and the entry, otherwise."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                pairs = json.load(fh)
        except ValueError as exc:  # malformed JSON or text
            raise ValueError(f"schedule {path} is not valid JSON: {exc}") from None
        if not isinstance(pairs, list):
            raise ValueError(f"schedule {path} must be a list of [time, size] pairs")
        for i, pair in enumerate(pairs):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ValueError(f"schedule {path} entry {i} must be a [time, size] pair, "
                                 f"not {json.dumps(pair)}")
            pairs[i] = [_number(v, f"{path} entry {i} {name}", "schedule")
                        for v, name in zip(pair, ("time", "size"))]
        return cls(np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs]))


class PathRecord(NamedTuple):
    """One simulated path: grid times, post-impulse states, applied impulses,
    the sampled default time (inf if beyond the horizon), and the realized
    cost in the default-truncated representation."""

    times: np.ndarray
    states: np.ndarray
    impulses_applied: list
    default_time: float
    realized_cost: float


class FeedbackPolicy:
    """Markov injection rule of a solver.SolveResult.

    Queries snap t to the nearest time node and x with grid.nearest_node,
    the rule that lands an injection; action nodes return the recorded
    injection size, continuation nodes return 0.  A query is made at most
    once per grid time, so no two injections share an instant.  The rule
    keeps each time row's action nodes and their sizes, not the
    SolveResult, and a query fills one row of sizes.

    Each time row also keeps the span from its lowest to its highest node
    with a positive size (a row with none never acts), and may_act(t, x)
    is False when no state of x can snap into that span.  The skip is
    exact: nearest_node is nondecreasing in y, so if min(x) snaps above
    the span or max(x) below it, every state does, and no entry of
    injections(t, x) is positive.  may_act costs a row lookup, two
    reductions over x and one nearest_node call on their two values.
    """

    def __init__(self, res):
        self.t_nodes = res.surface.t_nodes()
        self.grid = res.surface.grid
        # per row, its action nodes (SolveResult.labels row by row) and the injection at each
        nodes = (np.flatnonzero(~np.isnan(xi)) for xi in res.xi0)
        self._actions = [(i, xi[i]) for i, xi in zip(nodes, res.xi0)]
        # per row, its lowest and highest acting node; (0, -1) if it has none
        self._spans = [(int(i[0]), int(i[-1])) if i.size else (0, -1)
                       for i in (i[xi > 0] for i, xi in self._actions)]

    def _row(self, t: float) -> int:
        return int(np.abs(self.t_nodes - t).argmin())

    def injections(self, t: float, x: np.ndarray) -> np.ndarray:
        """The injection at the node of each state: xi0 at an action node,
        0 at a continuation node."""
        nodes, sizes = self._actions[self._row(t)]
        row = np.zeros(self.grid.n_x)
        row[nodes] = sizes
        return row[self.grid.nearest_node(np.asarray(x))]

    def may_act(self, t: float, x: np.ndarray) -> bool:
        """False only if no entry of injections(t, x) is positive;
        ValueError if the lowest or highest state of x is not finite, where
        the row has an acting node."""
        lo, hi = self._spans[self._row(t)]
        if lo > hi:
            return False
        ends = (float(x.min()), float(x.max()))
        for y in ends:
            if not math.isfinite(y):
                raise _diverged(y, t)
        first, last = self.grid.nearest_node(np.array(ends))
        return bool(first <= hi and last >= lo)


def _diverged(state: float, t: float) -> ValueError:
    return ValueError(f"an Euler path diverged: a state is {state!r} at t = {float(t)!r}; "
                      "use a smaller --dt")


def _time_grid(t0: float, t_end: float, dt: float, extra=()) -> np.ndarray:
    if t_end < t0:
        raise ValueError("need t_end >= t0")
    if t_end == t0:
        return np.array([t0])
    steps = (t_end - t0) / dt - 1e-9
    if not steps < 2**60:  # the most doubles an array can hold
        raise ValueError(f"dt = {dt!r} makes {steps:.3g} Euler steps over [{t0!r}, {t_end!r}], "
                         "more than an array holds; use a larger --dt")
    n = max(1, math.ceil(steps))
    base = t0 + dt * np.arange(n + 1)
    base[-1] = t_end
    pts = [base]
    extra = np.asarray(extra, dtype=float)
    if extra.size:
        pts.append(extra[(extra >= t0) & (extra <= t_end)])
    return _sorted_distinct(np.concatenate(pts))


class PathBatch(NamedTuple):
    """Raw output of the batch engine for one chunk of contiguous paths."""

    times: np.ndarray
    final_states: np.ndarray
    default_times: np.ndarray
    cost_g: np.ndarray
    run_f: np.ndarray
    imp_f: np.ndarray
    histories: np.ndarray | None = None
    events: list | None = None


def _plan(spec, t0, t_end, dt, control):
    """The time-only terms of a batch, its schedule validated: per grid time
    the time, the survival rho from t0 and the scheduled injection size (0
    where none); per step its length and square root, mu_tilde and
    sigma_tilde at its start, and the weights w_run of f and p_def of g2."""
    if isinstance(control, ImpulseSchedule):
        control.validate(spec, t0)
        times = _time_grid(t0, t_end, dt, control.times)
    elif control is None or isinstance(control, FeedbackPolicy):
        times = _time_grid(t0, t_end, dt)
    else:
        raise ValueError("control must be None, an ImpulseSchedule, or a feedback policy")
    sched = np.zeros(times.size)
    if isinstance(control, ImpulseSchedule):
        keep = control.times <= times[-1]  # impulses after the simulated window drop out
        sched[np.searchsorted(times, control.times[keep])] = control.sizes[keep]
    dts = np.diff(times)
    rho = survival_grid(spec, t0, times)
    # per step: default probability p_k = rho_k - rho_{k+1} weights g2, and
    # the survival integral p_k d / dLambda_k (rho_k d when the step carries
    # no hazard) weights f; both exact for a hazard constant on the step
    p_def = rho[:-1] - rho[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        d_hazard = np.log(rho[:-1]) - np.log(rho[1:])
        w_run = np.where(d_hazard > 0.0, p_def * dts / d_hazard, rho[:-1] * dts)
    mu, sig = spec.mu_tilde(times[:-1]), spec.sigma_tilde(times[:-1])
    return times, rho, sched, dts, np.sqrt(dts), mu, sig, w_run, p_def


def _run_chunk(spec, t0, x0, policy, plan, seed, start, out):
    """Run paths start, start + 1, ... into every row of out, in place."""
    u = spec.utilities
    costs = spec.costs
    times, rho, sched, dts, sqrt_dts, mu, sig, w_run, p_def = plan
    n_step = times.size - 1
    count = out.cost_g.size

    # one stream per block of paths that the chunk touches; z is the
    # chunk's lanes of the blocks' current draw, first the exponentials
    b0 = start // _BLOCK
    gens = [np.random.default_rng([seed, b])
            for b in range(b0, (start + count - 1) // _BLOCK + 1)]
    draws = np.empty((len(gens), _BLOCK))
    z = draws.reshape(-1)[start - b0 * _BLOCK:][:count]
    for g, row in zip(gens, draws):
        g.standard_exponential(out=row)
    tau = out.default_times
    tau[:] = invert_hazard(spec.beta, t0, z, spec.T)
    # each path's default step, times[kd] <= tau < times[kd + 1] (n_step for
    # a default at or after the last grid time), and the paths of step k as
    # by_step[ends[k]:ends[k + 1]]
    kd = np.searchsorted(times, tau, "right") - 1
    by_step = np.argsort(kd, kind="stable")
    ends = np.searchsorted(kd, np.arange(n_step + 1), sorter=by_step)

    x, run_f, imp_f = out.final_states, out.run_f, out.imp_f  # in place
    x[:], run_f[:], imp_f[:] = float(x0), 0.0, 0.0
    run_g = np.zeros(count)  # running f over whole steps, as if no default
    run_g_tau = np.zeros(count)  # running f up to tau, set on the default step
    imp_g = np.zeros(count)
    g2_at_tau = np.zeros(count)
    a = np.empty(count)  # work arrays for each step's terms
    b = np.empty(count)
    record = out.histories is not None
    if record:
        hist, events = out.histories, out.events

    for k in range(times.size):
        tk = times[k]
        # injection at tk: scheduled, or queried from the policy (never at the
        # final grid time, so no injection can ride on the evaluation instant)
        xi = None
        if sched[k] > 0:
            xi = np.full(count, sched[k])
        elif policy is not None and k < n_step and policy.may_act(tk, x):
            xi = policy.injections(tk, x)
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
        d, sqrt_d, mu_k, sig_k = dts[k], sqrt_dts[k], mu[k], sig[k]
        fx = u.f(x)
        g2x = u.g2(x)
        # the default-truncated running term clips the default step at tau
        lo, hi = ends[k], ends[k + 1]
        if lo < hi:
            at = by_step[lo:hi]
            run_g_tau[at] = run_g[at] + fx[at] * (tau[at] - tk)
            g2_at_tau[at] = g2x[at]
        run_g += np.multiply(fx, d, out=a)
        np.multiply(fx, w_run[k], out=a)
        a -= np.multiply(g2x, p_def[k], out=b)
        run_f += a
        # x + ((c1 - x) lam(x) + mu x) d + ((sigma x) sqrt(d)) z, in that order
        np.subtract(spec.c1, x, out=a)
        a *= spec.lam(x)
        a += np.multiply(x, mu_k, out=b)
        a *= d
        for g, row in zip(gens, draws):
            g.standard_normal(out=row)
        np.multiply(x, sig_k, out=b)
        b *= sqrt_d
        b *= z
        x += a
        x += b

    # a non-finite state stays so, so one check of the final states finds
    # any path that diverged; costs are not checked, a curve may overflow
    finite = np.isfinite(x)
    if not finite.all():
        raise _diverged(float(x[~finite][0]), times[-1])
    survive = tau >= spec.T
    g1x = u.g1(x)
    run_g = np.where(kd < n_step, run_g_tau, run_g)
    out.cost_g[:] = run_g + np.where(survive, g1x, 0.0) - np.where(survive, 0.0, g2_at_tau) - imp_g


def _simulate_chunks(spec, t0, x0, control, dt, seed, n_paths, t_end=None, record=False,
                     path_offset=0):
    """Run n_paths Euler paths from (t0, x0) in chunks of at most _CHUNK
    paths that share one plan, and yield each chunk as a PathBatch.  Every
    chunk is a view of the same buffers, so a caller reduces or copies a
    chunk before it asks for the next."""
    if not 0.0 <= t0 <= spec.T:
        raise ValueError("t0 must lie in [0, T]")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if n_paths < 1:
        raise ValueError("need at least one path")
    t_end = spec.T if t_end is None else float(t_end)
    if t_end > spec.T:
        raise ValueError("t_end beyond the horizon")
    plan = _plan(spec, t0, t_end, dt, control)
    policy = None if isinstance(control, ImpulseSchedule) else control
    times, m = plan[0], min(n_paths, _CHUNK)
    bufs = [np.empty(m) for _ in range(5)] + [np.empty((m, times.size)) if record else None]
    for s in range(0, n_paths, _CHUNK):
        count = min(_CHUNK, n_paths - s)
        out = PathBatch(times, *(None if b is None else b[:count] for b in bufs),
                        [[] for _ in range(count)] if record else None)
        _run_chunk(spec, t0, x0, policy, plan, seed, path_offset + s, out)
        yield out


def simulate_paths(spec: ModelSpec, t0: float, x0: float, control, dt: float, seed,
                   n_paths: int, first: int = 0) -> list:
    """Simulate paths first..first+n_paths-1 in one batch; entry i is the
    PathRecord of simulate(..., path_index=first + i) bit for bit."""
    records = []
    for chunk in _simulate_chunks(spec, t0, x0, control, dt, seed, n_paths, record=True,
                                  path_offset=int(first)):
        records += [PathRecord(times=chunk.times, states=chunk.histories[i].copy(),
                               impulses_applied=chunk.events[i],
                               default_time=float(chunk.default_times[i]),
                               realized_cost=float(chunk.cost_g[i]))
                    for i in range(chunk.cost_g.size)]
    return records


def simulate(spec: ModelSpec, t0: float, x0: float, control, dt: float, seed,
             path_index: int = 0) -> PathRecord:
    """Simulate one controlled path; deterministic in (seed, path_index).

    The control is None, an ImpulseSchedule, or a FeedbackPolicy.  Impulse
    times are inserted into the step grid, states are post-impulse, and the
    realized cost is the default-truncated representation.
    """
    return simulate_paths(spec, t0, x0, control, dt, seed, 1, first=path_index)[0]


class _Moments:
    """Mean and standard error of a sample that arrives in chunks.

    Each chunk gives its count n_c, its sum S_c = add.reduce(v) and Q_c, the
    sum of squared deviations from its own mean S_c / n_c.  Chunks merge by
    the pairwise update of Chan, Golub and LeVeque ("Algorithms for
    computing the sample variance", Amer. Statist. 37, 1983): Q gains Q_c
    plus (m_c - m)^2 n n_c / (n + n_c), m and n being those of the chunks
    before.  One chunk gives np.mean and np.std(ddof=1) / sqrt(n) bit for
    bit, since both reduce by add.reduce in the same order; so one sample
    has no standard error, and gives NaN.
    """

    def __init__(self):
        self.n, self.total, self.ssd = 0, 0.0, 0.0

    def add(self, values: np.ndarray) -> None:
        n_c = values.size
        s_c = float(np.add.reduce(values))
        m_c = s_c / n_c
        dev = values - m_c
        q_c = float(np.add.reduce(np.multiply(dev, dev, out=dev)))
        if self.n:
            delta = m_c - self.total / self.n
            q_c += delta * delta * (self.n * n_c / (self.n + n_c))
        self.n += n_c
        self.total += s_c
        self.ssd += q_c

    def estimate(self) -> MCEstimate:
        n = self.n
        se = math.sqrt(self.ssd / (n - 1)) / math.sqrt(n) if n > 1 else math.nan
        return MCEstimate(self.total / n, se)


class ReductionReport(NamedTuple):
    """Agreement of the two cost representations at common Brownian numbers."""

    cost_g: MCEstimate
    cost_f: MCEstimate
    difference: float
    combined_se: float
    n_paths: int
    seed: int
    passed: bool


def filtration_reduction_check(spec: ModelSpec, t0: float, x0: float, control,
                               dt: float, n_paths: int, seed) -> ReductionReport:
    """Compare both cost representations on one set of Brownian draws.

    Passes when |difference| <= 3 * sqrt(se_g^2 + se_f^2).  With beta == 0
    the two representations agree path by path and the difference is 0.
    """
    rho_T = survival_grid(spec, t0, [spec.T])[0]
    acc_g, acc_f = _Moments(), _Moments()
    for chunk in _simulate_chunks(spec, t0, x0, control, dt, seed, n_paths):
        acc_g.add(chunk.cost_g)
        acc_f.add(chunk.run_f + rho_T * spec.utilities.g1(chunk.final_states) - chunk.imp_f)
    est_g, est_f = acc_g.estimate(), acc_f.estimate()
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
