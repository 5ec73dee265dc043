"""Path engine: exact jumps, hazard sampling, the two cost representations.

The RNG layout is load-bearing and pinned here: path j reads lane
j % 1024 of the stream default_rng([seed, j // 1024]), which draws its
block's 1,024 default-clock exponentials first and then one 1,024-normal
row per Euler step.  The tests below check a path's exponential and
normals against that rule, that the chunking and a first path inside a
block change no number, and that a batch's memory grows neither with the
step count nor with the path count.  The engine hands out one chunk at a
time in shared buffers, so tests that compare per-path arrays join copies
of the chunks with _whole_batch.

The Euler step runs in place on preallocated arrays; _run_chunk_reference
below is the plain array loop it replaced, fed the layout's numbers by
_layout_draws, and the engine must match it bit for bit on every output.
The reference maps a schedule to grid indices itself, so it shares no
code with the engine beyond the model's curves and hazard functions.
"""

import inspect
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from impulse_qvi import cli, dynamics
from impulse_qvi.dynamics import (FeedbackPolicy, ImpulseSchedule, _Moments, _simulate_chunks,
                                  filtration_reduction_check, mc_cost_g, simulate,
                                  simulate_paths)
from impulse_qvi.fixtures import (FIXTURES, closed_form_params, closed_form_spec,
                                  geometric_spec, intervention_spec,
                                  suggested_grid)
from impulse_qvi.model import (Curve, diffusion, drift, injection_cost, invert_hazard,
                               survival_grid)
from impulse_qvi.solver import Grid, SolveResult, ValueSurface, solve

from test_model import make_spec
from test_solver import _state_curve, _time_curve


_ROWS = ("final_states", "default_times", "cost_g", "run_f", "imp_f")


def _whole_batch(*args, **kwargs):
    """One PathBatch of every chunk the engine yields, each copied out
    before the next chunk overwrites the shared buffers."""
    chunks = [([getattr(c, name).copy() for name in _ROWS],
               None if c.histories is None else c.histories.copy(), c.events, c.times)
              for c in _simulate_chunks(*args, **kwargs)]
    rows, hist, events, times = zip(*chunks)
    return dynamics.PathBatch(times[0], *(np.concatenate(r) for r in zip(*rows)),
                              None if hist[0] is None else np.concatenate(hist),
                              None if events[0] is None else sum(events, []))


def _drain(*args, **kwargs):
    """Run a batch through the engine, keeping nothing; its step grid."""
    for chunk in _simulate_chunks(*args, **kwargs):
        pass
    return chunk.times


# ------------------------------------------------------------- schedules


def test_schedule_validation():
    spec = geometric_spec()  # T=1, A=[0.1, 1]
    ImpulseSchedule(np.array([0.2, 0.8]), np.array([0.3, 0.5])).validate(spec)
    # the first impulse may fire exactly at the start instant
    ImpulseSchedule(np.array([0.0]), np.array([0.5])).validate(spec, t0=0.0)
    with pytest.raises(ValueError):  # not strictly increasing
        ImpulseSchedule(np.array([0.5, 0.5]), np.array([0.3, 0.3])).validate(spec)
    with pytest.raises(ValueError):  # at or past the horizon
        ImpulseSchedule(np.array([1.0]), np.array([0.3])).validate(spec)
    with pytest.raises(ValueError):  # size below k_min
        ImpulseSchedule(np.array([0.5]), np.array([0.05])).validate(spec)
    with pytest.raises(ValueError):  # before t0
        ImpulseSchedule(np.array([0.1]), np.array([0.3])).validate(spec, t0=0.2)
    for times, sizes in (([np.nan], [0.3]), ([0.5], [np.inf]), ([0.2, np.nan], [0.3, 0.3])):
        with pytest.raises(ValueError, match="must be finite"):  # NaN passed every comparison
            ImpulseSchedule(np.array(times), np.array(sizes)).validate(spec)
    ImpulseSchedule(np.array([]), np.array([])).validate(spec)  # empty is fine


def test_schedule_json_round_trip(tmp_path):
    s = ImpulseSchedule(np.array([0.25, 0.75]), np.array([0.4, 0.1]))
    p = tmp_path / "sched.json"
    s.to_json(p)
    back = ImpulseSchedule.from_json(p)
    np.testing.assert_array_equal(back.times, s.times)
    np.testing.assert_array_equal(back.sizes, s.sizes)


def test_curve_and_schedule_leave_the_caller_arrays_alone():
    # both freeze a copy: the caller may still write its own arrays, and
    # neither object sees the write
    x, y = np.array([0.0, 1.0]), np.array([2.0, 3.0])
    times, sizes = np.array([0.25, 0.75]), np.array([0.4, 0.1])
    curve, sched = Curve.table(x, y), ImpulseSchedule(times, sizes)
    for a in (x, y, times, sizes):
        a[0] = 0.5
    np.testing.assert_array_equal(curve.x, [0.0, 1.0])
    np.testing.assert_array_equal(curve.y, [2.0, 3.0])
    np.testing.assert_array_equal(sched.times, [0.25, 0.75])
    np.testing.assert_array_equal(sched.sizes, [0.4, 0.1])
    assert not any(a.flags.writeable for a in (curve.x, curve.y, sched.times, sched.sizes))


def test_jump_identity_exact():
    spec = geometric_spec()
    sched = ImpulseSchedule(np.array([0.25]), np.array([0.4]))
    rec = simulate(spec, 0.0, 1.0, sched, dt=0.01, seed=3)
    assert len(rec.impulses_applied) == 1
    ev = rec.impulses_applied[0]
    assert ev.time == 0.25  # inserted into the step grid exactly
    assert ev.state_after == ev.state_before + 0.4  # bitwise jump identity
    k = int(np.searchsorted(rec.times, 0.25))
    assert rec.times[k] == 0.25
    assert rec.states[k] == ev.state_after  # stored states are post-impulse


# ------------------------------------------------------------ defaults


def test_default_times_constant_hazard_distribution():
    # P(tau <= T) = 1 - e^{-0.5} ~ 0.3935 for beta=0.5, T=1
    spec = closed_form_spec()
    n = 2000
    batch = _whole_batch(spec, 0.0, 1.0, None, dt=0.5, seed=20, n_paths=n)
    hits = int(np.count_nonzero(batch.default_times < spec.T))
    p = 1.0 - math.exp(-0.5)
    assert abs(hits / n - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)


def test_default_time_uses_documented_rng_layout():
    # path j's exponential is lane j % 1024 of default_rng([seed, j // 1024])'s
    # first 1,024-exponential draw, and its step-k normal lane j % 1024 of
    # the stream's (k+1)-th 1,024-normal draw.  With constant beta the
    # default is e / beta, and with lam = mu = 0 each Euler step is
    # x + ((sigma x) sqrt(d)) z, so every state pins one normal bit for bit
    spec = make_spec(lam=0.0, mu=0.0, sigma=0.3, beta=2.0, T=50.0)
    for j in (0, 4, 1023, 1024, 5000):
        rec = simulate(spec, 0.0, 1.0, None, dt=0.5, seed=123, path_index=j)
        rng = np.random.default_rng([123, j // 1024])
        e = rng.standard_exponential(1024)[j % 1024]
        assert rec.default_time == pytest.approx(e / 2.0, rel=1e-12)
        for k in range(rec.times.size - 1):
            z = rng.standard_normal(1024)[j % 1024]
            x, d = rec.states[k], rec.times[k + 1] - rec.times[k]
            assert rec.states[k + 1] == x + x * 0.3 * math.sqrt(d) * z, (j, k)


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**40 + 7, 2**100 + 3, 2**130 + 5])
@pytest.mark.parametrize("start,count", [(0, 9), (16384, 9), (2**32 - 5, 9),
                                         (2**32 - 1030, 1040)])
def test_bulk_seeding_matches_default_rng(seed, start, count):
    # a whole batch's default times and Euler states come bit for bit from
    # the block streams default_rng([seed, j // 1024]), for multi-word
    # seeds, for path indices near 2**32, and across two blocks; with
    # lam = mu = 0 and d = 1 each step is x + (sigma x) z
    spec = make_spec(lam=0.0, mu=0.0, sigma=0.3, beta=2.0, T=7.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        recs = simulate_paths(spec, 0.0, 1.0, None, 1.0, seed, count, first=start)
    e, z = _layout_draws(seed, start, count, 7)
    tau = np.array([r.default_time for r in recs])
    np.testing.assert_array_equal(tau, invert_hazard(spec.beta, 0.0, e, spec.T))
    states = np.array([r.states for r in recs])
    assert states.shape == (count, 8)
    for k in range(7):
        x = states[:, k]
        np.testing.assert_array_equal(states[:, k + 1], x + x * 0.3 * z[:, k])


def test_default_beyond_horizon_is_inf():
    spec = make_spec(beta=1e-9, T=1.0)
    rec = simulate(spec, 0.0, 1.0, None, dt=0.25, seed=5)
    assert rec.default_time == math.inf


# ------------------------------------------- cost representations


def test_beta_zero_costs_agree_exactly():
    # with no default channel the truncated and discounted representations
    # are the same random variable, so the difference field is exactly 0
    spec = replace(geometric_spec(), beta=Curve.constant(0.0))
    rep = filtration_reduction_check(spec, 0.0, 1.0, None, dt=0.02,
                                     n_paths=400, seed=9)
    assert rep.difference == 0.0
    assert rep.passed
    sched = ImpulseSchedule(np.array([0.3]), np.array([0.5]))
    rep2 = filtration_reduction_check(spec, 0.0, 1.0, sched, dt=0.02,
                                      n_paths=400, seed=9)
    assert rep2.difference == 0.0


def test_constant_hazard_closed_form_mean():
    # E int_0^{tau ^ T} 1 ds = int_0^1 e^{-0.5 s} ds = 2 (1 - e^{-0.5});
    # the G-representation accumulates f dt up to tau exactly, so the only
    # error is Monte Carlo
    spec = closed_form_spec()
    p = closed_form_params()
    exact = (1.0 - math.exp(-p["beta0"] * p["T"])) / p["beta0"]
    est = mc_cost_g(spec, 0.0, 1.0, None, dt=0.05, n_paths=4000, seed=17)
    assert est.std_error > 0.0
    assert abs(est.estimate - exact) <= 3.0 * est.std_error


def test_cost_f_deterministic_for_state_free_data():
    # f,g1,g2 constant in x: every F-representation sample is the same
    # quadrature value, so the SE is exactly zero; the per-step survival
    # integral is exact for the constant hazard, so the steps telescope to
    # the closed form
    spec = closed_form_spec()
    exact = (1.0 - math.exp(-0.5)) / 0.5
    est = filtration_reduction_check(spec, 0.0, 1.0, None, dt=0.02, n_paths=50, seed=4).cost_f
    assert est.std_error == 0.0
    assert abs(est.estimate - exact) <= 1e-12


_C = dynamics._CHUNK


@settings(max_examples=60, deadline=None)
@given(n=st.one_of(st.sampled_from([1, 2, _C - 1, _C, _C + 1, 2 * _C, 3 * _C]),
                   st.integers(1, 3 * _C)),
       seed=st.integers(0, 2**32 - 1), loc=st.floats(-1e6, 1e6), scale=st.floats(0.0, 1e6),
       spikes=st.lists(st.floats(-1e6, 1e6), max_size=8))
def test_merged_moments_match_numpy(n, seed, loc, scale, spikes):
    # chunk-wise moments merged by the pairwise update against numpy over the
    # whole sample: bit for bit for one chunk, to rounding for more; the
    # floor, at the data's scale, covers a zero or tiny spread, where each
    # side's deviations are the rounding of its own mean
    rng = np.random.default_rng(seed)
    v = loc + scale * rng.standard_normal(n)
    v[rng.permutation(n)[:len(spikes)]] = spikes[:n]
    acc = _Moments()
    for s in range(0, n, _C):
        acc.add(v[s:s + _C])
    est, se = acc.estimate()
    mean = float(np.mean(v))
    sd = float(np.std(v, ddof=1) / math.sqrt(n)) if n > 1 else math.nan
    if n <= _C:
        assert repr((est, se)) == repr((mean, sd))
    else:
        floor = 2.0**-46 * float(np.max(np.abs(v)))
        assert abs(est - mean) <= 1e-12 * abs(mean) + floor
        assert abs(se - sd) <= 1e-12 * sd + floor


def test_one_path_has_no_standard_error():
    # as np.std(ddof=1) of one sample, the standard error of one path is NaN,
    # not 0; test_merged_moments_match_numpy checks _Moments at n = 1
    spec = geometric_spec()
    one = mc_cost_g(spec, 0.0, 1.0, None, 0.1, 1, 3)
    assert one.estimate == simulate_paths(spec, 0.0, 1.0, None, 0.1, 3, 1)[0].realized_cost
    assert math.isnan(one.std_error)


def test_reduction_report_dict_fields():
    spec = geometric_spec()
    rep = filtration_reduction_check(spec, 0.0, 1.0, None, dt=0.05,
                                     n_paths=300, seed=2)
    d = cli._sanitize(rep)
    assert set(d) == {"cost_g", "cost_f", "difference", "combined_se",
                      "n_paths", "seed", "passed"}
    assert d["n_paths"] == 300 and d["seed"] == 2


# ------------------------------------------------------ Euler scheme


def test_euler_first_order_on_degenerate_ode():
    # sigma == 0: dX = (0.25 - 0.2 X) dt, X(0) = 2, so
    # X(1) = 1.25 + 0.75 e^{-0.2}; Euler halving should halve the error
    spec = make_spec(lam=0.25, mu=0.05, sigma=0.0, beta=0.0, T=1.0)
    exact = 1.25 + 0.75 * math.exp(-0.2)

    def final_state(dt):
        rec = simulate(spec, 0.0, 2.0, None, dt=dt, seed=0)
        return rec.states[-1]

    e1 = abs(final_state(0.02) - exact)
    e2 = abs(final_state(0.01) - exact)
    assert e1 > 0 and e2 > 0
    assert 1.8 <= e1 / e2 <= 2.2


# ------------------------------------------------------ determinism


def test_path_determinism_and_independence():
    spec = geometric_spec()
    a = simulate(spec, 0.0, 1.0, None, dt=0.01, seed=42, path_index=7)
    b = simulate(spec, 0.0, 1.0, None, dt=0.01, seed=42, path_index=7)
    c = simulate(spec, 0.0, 1.0, None, dt=0.01, seed=42, path_index=8)
    np.testing.assert_array_equal(a.states, b.states)
    assert a.realized_cost == b.realized_cost
    assert not np.array_equal(a.states, c.states)


def test_paths_independent_of_chunking():
    # a batch that starts mid-chunk and crosses two of the full batch's
    # chunk boundaries is, path for path, the full batch's tail; so is one
    # that starts inside an RNG block and ends inside another
    spec = geometric_spec()
    n = 3 * dynamics._CHUNK + 100
    full = _whole_batch(spec, 0.0, 1.0, None, 0.05, 6, n)
    for first, stop in ((dynamics._CHUNK // 2 + 1, n), (1000, 1000 + dynamics._CHUNK + 60)):
        part = _whole_batch(spec, 0.0, 1.0, None, 0.05, 6, stop - first, path_offset=first)
        for name in ("cost_g", "run_f", "imp_f", "final_states", "default_times"):
            assert getattr(full, name)[first:stop].tobytes() == getattr(part, name).tobytes(), \
                (first, name)


def test_batch_memory_stays_within_two_brownian_blocks():
    # 16,384 paths at 1,000 steps run in 4,096-path chunks, so the peak
    # stays below two Brownian blocks of 4,096 x (steps + 1) doubles; one
    # 16,384-path block alone would be four
    spec = geometric_spec()
    _drain(spec, 0.0, 1.0, None, 0.001, 3, 10)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        times = _drain(spec, 0.0, 1.0, None, 0.001, 3, 16384)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_step = times.size - 1
    assert n_step == 1000
    assert peak < 2 * 4096 * (n_step + 1) * 8


def test_batch_memory_does_not_grow_with_steps():
    # 4,096 paths at 5,000 steps hold one normal per path and step at a
    # time: the peak stays far below one 4,096 x 5,000 Brownian block
    spec = geometric_spec()
    _drain(spec, 0.0, 1.0, None, 0.0002, 3, 10)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        times = _drain(spec, 0.0, 1.0, None, 0.0002, 3, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_step = times.size - 1
    assert n_step == 5000
    assert peak < 4096 * n_step * 8 / 20


def test_batch_memory_per_step_is_a_few_float_arrays():
    # 8 paths at 10,000 steps: the time-only terms are float arrays over the
    # step grid, computed once per batch, so the peak stays within 16 doubles
    # per step plus 1 MiB
    spec = geometric_spec()
    _drain(spec, 0.0, 1.0, None, 1e-4, 3, 8)  # warm-up outside the trace
    tracemalloc.start()
    try:
        times = _drain(spec, 0.0, 1.0, None, 1e-4, 3, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_step = times.size - 1
    assert n_step == 10000
    assert peak <= 16 * 8 * n_step + 2**20


def test_batch_memory_does_not_grow_with_paths():
    # each chunk is reduced as it finishes, so eight times the paths (16
    # chunks against 2) add no per-path array to the reduction's peak
    spec = geometric_spec()

    def peak(n_paths):
        tracemalloc.start()
        try:
            filtration_reduction_check(spec, 0.0, 1.0, None, 0.05, n_paths, 3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    filtration_reduction_check(spec, 0.0, 1.0, None, 0.05, 10, 3)  # warm-up outside the trace
    assert peak(16 * dynamics._CHUNK) <= peak(2 * dynamics._CHUNK) + 64 * 1024


def test_dynamics_draws_through_public_generators():
    # the engine draws only through numpy Generators: it binds no ctypes
    # and reaches into no bit generator's state by address
    assert not any(getattr(v, "__name__", None) == "ctypes"
                   or getattr(v, "__module__", None) == "ctypes"
                   for v in vars(dynamics).values())
    assert "state_address" not in inspect.getsource(dynamics)


@pytest.mark.parametrize("policy", ["schedule", "feedback"])
def test_simulate_paths_match_single_paths(policy):
    # one batch of recorded paths is, path by path and bit for bit, the
    # single-path simulate of each index
    if policy == "schedule":
        spec, x0 = geometric_spec(), 1.0
        control = ImpulseSchedule(np.array([0.25, 0.7]), np.array([0.3, 0.5]))
    else:
        spec, x0 = intervention_spec(), 0.15
        control = FeedbackPolicy(solve(spec, Grid(0.1, 4.1, 81, 40)))
    records = simulate_paths(spec, 0.1, x0, control, 0.02, 17, 4, first=2)
    assert len(records) == 4
    assert any(rec.impulses_applied for rec in records)
    for i, rec in enumerate(records, 2):
        one = simulate(spec, 0.1, x0, control, 0.02, 17, path_index=i)
        assert rec.times.tobytes() == one.times.tobytes()
        assert rec.states.tobytes() == one.states.tobytes()
        assert rec.impulses_applied == one.impulses_applied
        assert (rec.default_time, rec.realized_cost) == (one.default_time, one.realized_cost)


# ------------------------------------------------------ feedback rule


def _solve_result(grid, T, action, xi0):
    """A SolveResult on grid over [0, T] with these labels and xi0; V and IV
    are zeros, which FeedbackPolicy does not read."""
    zeros = np.zeros(action.shape)
    return SolveResult(ValueSurface(grid, T, zeros, zeros, {}), action, xi0)


def test_feedback_policy_snapping():
    pol = FeedbackPolicy(_solve_result(
        Grid(0.0, 2.0, 3, 1), 1.0, np.array([[False, True, False], [False, False, False]]),
        np.array([[0.0, 0.7, 0.0], [0.0, 0.0, 0.0]])))
    out = pol.injections(0.4, np.array([0.9, 1.6]))  # t snaps to row 0
    np.testing.assert_array_equal(out, [0.7, 0.0])
    out2 = pol.injections(0.6, np.array([0.9]))      # t snaps to row 1
    np.testing.assert_array_equal(out2, [0.0])
    # x snaps by Grid.nearest_node: halves go to the even node, and
    # queries off the grid clip to its ends
    out3 = pol.injections(0.0, np.array([0.5, 1.5, 1.49, -3.0, 9.0]))
    np.testing.assert_array_equal(out3, [0.0, 0.0, 0.7, 0.0, 0.0])


def test_feedback_policy_holds_no_dense_copy():
    # traced peak of building the intervention fixture's policy, which
    # keeps only the action nodes and their injections, row by row: below
    # a quarter of one dense float array over the grid
    res = solve(intervention_spec(), suggested_grid("intervention"))
    tracemalloc.start()
    try:
        pol = FeedbackPolicy(res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < res.xi0.nbytes / 4, peak / 2**20
    # lookups give the bits of the dense table, on and off the nodes and
    # off the grid
    grid, tn = res.surface.grid, res.surface.t_nodes()
    x = np.linspace(grid.x_min - 0.3, grid.x_max + 0.3, 997)
    dense = np.where(res.labels, res.xi0, 0.0)
    for j in range(0, tn.size, 25):
        assert pol.injections(tn[j], x).tobytes() == dense[j, grid.nearest_node(x)].tobytes()


def test_feedback_policy_triggers_injection():
    spec = intervention_spec()
    res = solve(spec, suggested_grid("intervention"))
    pol = FeedbackPolicy(res)
    rec = simulate(spec, 0.0, 0.15, pol, dt=0.01, seed=11)
    assert len(rec.impulses_applied) >= 1
    ev = rec.impulses_applied[0]
    assert ev.time == 0.0  # x0 = 0.15 starts inside the action region
    assert spec.costs.k_min <= ev.size <= spec.costs.k_max
    assert ev.state_after == ev.state_before + ev.size


# ------------------------------------------- the in-place Euler kernel


def _layout_draws(seed, start, count, n_step):
    """The exponentials and the count x n_step normals of paths
    start..start+count-1 under the documented layout, one whole block
    stream at a time."""
    e, z = np.empty(count), np.empty((count, n_step))
    for j0 in range(start - start % 1024, start + count, 1024):
        rng = np.random.default_rng([seed, j0 // 1024])
        rows = [rng.standard_exponential(1024)] + [rng.standard_normal(1024)
                                                   for _ in range(n_step)]
        lo, hi = max(start, j0), min(start + count, j0 + 1024)
        e[lo - start:hi - start] = rows[0][lo - j0:hi - j0]
        for k, row in enumerate(rows[1:]):
            z[lo - start:hi - start, k] = row[lo - j0:hi - j0]
    return e, z


def _run_chunk_reference(spec, t0, x0, control, times, seed, start, count, record):
    """The engine's chunk loop before the in-place kernel: fresh arrays at
    every step, the running term clipped against tau at every step."""
    u = spec.utilities
    costs = spec.costs
    n_step = times.size - 1
    dts = np.diff(times)
    rho = survival_grid(spec, t0, times)
    p_def = rho[:-1] - rho[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        d_hazard = np.log(rho[:-1]) - np.log(rho[1:])
        w_run = np.where(d_hazard > 0.0, p_def * dts / d_hazard, rho[:-1] * dts)

    e_draws, z = _layout_draws(seed, start, count, n_step)
    tau = np.atleast_1d(invert_hazard(spec.beta, t0, e_draws, spec.T))

    # the schedule by grid index, found by equality; impulses after the grid drop out
    sched_at, policy = {}, control
    if isinstance(control, ImpulseSchedule):
        sched_at = {int(np.flatnonzero(times == t)[0]): float(k)
                    for t, k in zip(control.times, control.sizes) if np.any(times == t)}
        policy = None

    x = np.full(count, float(x0))
    run_g = np.zeros(count)
    run_f = np.zeros(count)
    imp_g = np.zeros(count)
    imp_f = np.zeros(count)
    g2_at_tau = np.zeros(count)
    hist = np.empty((count, times.size)) if record else None
    events = [[] for _ in range(count)] if record else None

    for k in range(times.size):
        tk = times[k]
        xi = None
        if k in sched_at:
            xi = np.full(count, sched_at[k])
        elif policy is not None and k < n_step:
            xi = np.asarray(policy.injections(tk, x), dtype=float)
        if xi is not None and np.any(xi > 0):
            hit = xi > 0
            if record:
                before = x.copy()
            x = np.where(hit, x + xi, x)
            alive = tau >= tk
            imp_g += np.where(hit & alive, injection_cost(xi, costs), 0.0)
            imp_f += np.where(hit, rho[k] * injection_cost(xi, costs), 0.0)
            if record:
                for j in np.nonzero(hit)[0]:
                    events[j].append(dynamics.ImpulseEvent(float(tk), float(xi[j]),
                                                           float(before[j]), float(x[j])))
        if record:
            hist[:, k] = x
        if k == n_step:
            break
        d = dts[k]
        fx = np.asarray(u.f(x), dtype=float)
        g2x = np.asarray(u.g2(x), dtype=float)
        overlap = np.clip(np.minimum(times[k + 1], tau) - tk, 0.0, d)
        run_g += fx * overlap
        run_f += w_run[k] * fx - p_def[k] * g2x
        at_tau = (tau >= tk) & (tau < times[k + 1])
        if np.any(at_tau):
            g2_at_tau[at_tau] = g2x[at_tau]
        x = x + np.asarray(drift(tk, x, spec), dtype=float) * d \
              + np.asarray(diffusion(tk, x, spec), dtype=float) * math.sqrt(d) * z[:, k]

    survive = tau >= spec.T
    g1x = np.asarray(u.g1(x), dtype=float)
    cost_g = run_g + np.where(survive, g1x, 0.0) - np.where(survive, 0.0, g2_at_tau) - imp_g
    return dynamics.PathBatch(times, x, tau, cost_g, run_f, imp_f, hist, events)


def _assert_matches_reference(spec, t0, x0, control, dt, seed, n_paths, record, first=0):
    """The engine's chunks, joined, equal the reference loop, run as one
    chunk, bit for bit."""
    got = _whole_batch(spec, t0, x0, control, dt, seed, n_paths, record=record,
                       path_offset=first)
    extra = control.times if isinstance(control, ImpulseSchedule) else ()
    times = dynamics._time_grid(t0, spec.T, dt, extra)
    ref = _run_chunk_reference(spec, t0, x0, control, times, seed, first, n_paths, record)
    for name in ("times", "cost_g", "run_f", "imp_f", "final_states", "default_times"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), name
    if record:
        assert got.histories.tobytes() == ref.histories.tobytes()
        assert repr(got.events) == repr(ref.events)  # repr tells -0.0 from 0.0
    else:
        assert got.histories is None and got.events is None
    return ref


@pytest.fixture(scope="module")
def fixture_policies():
    return {name: FeedbackPolicy(solve(FIXTURES[name](), suggested_grid(name)))
            for name in FIXTURES}


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("policy", ["none", "schedule", "feedback"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_kernel_matches_reference_loop_on_fixtures(name, policy, record, fixture_policies):
    # more paths than one chunk, from t0 > 0, starting inside the action
    # region of the intervention fixture
    spec = FIXTURES[name]()
    c = spec.costs
    control = {"none": None,
               "schedule": ImpulseSchedule(np.array([0.0, 0.25 * spec.T, 0.7 * spec.T]),
                                           np.array([c.k_min, c.k_max, c.k_min])),
               "feedback": fixture_policies[name]}[policy]
    ref = _assert_matches_reference(spec, 0.0, 0.15, control, 0.05, 13,
                                    dynamics._CHUNK + 37, record, first=5)
    if policy == "schedule" or (policy, name) == ("feedback", "intervention"):
        assert np.any(ref.imp_f > 0)


@st.composite
def _feedback_policies(draw, T=1.0):
    """A random feedback rule on a grid from x_min in [0, 1]: each time row
    has no action node, one, all, or a random set, and xi0 at an action
    node is positive, zero, negative or NaN (only a positive size acts)."""
    x_min = draw(st.floats(0.0, 1.0))
    grid = Grid(x_min, x_min + draw(st.floats(0.5, 4.0)), draw(st.integers(3, 9)),
                draw(st.integers(1, 6)))
    n = grid.n_x
    rows = {"none": st.just([False] * n), "all": st.just([True] * n),
            "one": st.integers(0, n - 1).map(lambda i: [j == i for j in range(n)]),
            "random": st.lists(st.booleans(), min_size=n, max_size=n)}
    action = np.array([draw(st.one_of(*rows.values())) for _ in range(grid.n_t + 1)])
    sizes = draw(st.lists(st.sampled_from([0.5, 0.5, 0.3, 0.0, -0.2, np.nan]),
                          min_size=action.size, max_size=action.size))
    xi0 = np.where(action, np.reshape(sizes, action.shape), np.nan)
    return FeedbackPolicy(_solve_result(grid, T, action, xi0))


def _half_node_ties(grid):
    """States x_min + (i + 0.5) h, where nearest_node rounds half to even."""
    return st.integers(-2, grid.n_x).map(lambda i: grid.x_min + (i + 0.5) * grid.h)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_may_act_is_exact(data):
    # may_act is False exactly when no state snaps into its row's span of
    # acting nodes, and then no injection acts; states include half-node
    # ties and states below x_min and above x_max, which clip to the ends,
    # finite states far off the grid among them
    pol = data.draw(_feedback_policies())
    grid = pol.grid
    states = st.one_of(_half_node_ties(grid), st.floats(grid.x_min, grid.x_max),
                       st.floats(grid.x_min - 3.0, grid.x_min), st.floats(grid.x_max, grid.x_max + 3.0),
                       st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308]))
    x = np.array(data.draw(st.lists(states, min_size=1, max_size=12)))
    t = data.draw(st.one_of(st.floats(-0.2, 1.2), st.sampled_from(list(pol.t_nodes))))
    acting = np.flatnonzero(pol.injections(t, grid.x_nodes()) > 0)  # each node snaps to itself
    nodes = grid.nearest_node(x)
    may = pol.may_act(t, x)
    assert may == bool(acting.size and nodes.min() <= acting[-1] and nodes.max() >= acting[0])
    event(f"may act: {may}")
    if not may:  # all zeros, but where xi0 <= 0 or NaN is recorded at an action node
        assert not np.any(pol.injections(t, x) > 0)
    if acting.size:  # a NaN state is refused, never snapped
        with pytest.raises(ValueError, match=r"a state is nan at t = [-+.e\d]+; use a smaller --dt$"):
            pol.may_act(t, np.append(x, np.nan))


@st.composite
def _kernel_cases(draw):
    """A spec with table-capable lam, mu_tilde, sigma_tilde and beta (beta up
    to 6, so that many defaults land inside steps), any state curves, a
    start, a step, and no control, a schedule or a random feedback rule
    (started on a half-node tie of its grid at times)."""
    spec = make_spec(c1=draw(st.floats(0.0, 1.0)), T=draw(st.floats(0.05, 3.0)),
                     lam=draw(_time_curve(0.0, 3.0)), mu=draw(_time_curve(-1.0, 1.0)),
                     sigma=draw(_time_curve(0.0, 1.0)), beta=draw(_time_curve(0.0, 6.0)),
                     f=draw(_state_curve(-2.0, 2.0)), g1=draw(_state_curve(-2.0, 2.0)),
                     g2=draw(_state_curve(-2.0, 2.0)), k_min=0.1, k_max=1.0)
    t0 = draw(st.floats(0.0, 0.9)) * spec.T
    dt = draw(st.floats(0.01, 0.5)) * spec.T
    x0 = draw(st.floats(0.01, 3.0))
    kind = draw(st.sampled_from(["none", "schedule", "feedback"]))
    control = None
    if kind == "schedule":
        times = draw(st.lists(st.floats(t0, spec.T, exclude_max=True), min_size=1, max_size=4,
                              unique=True))
        sizes = draw(st.lists(st.floats(0.1, 1.0), min_size=len(times), max_size=len(times)))
        control = ImpulseSchedule(np.array(sorted(times)), np.array(sizes))
    elif kind == "feedback":
        control = draw(_feedback_policies(spec.T))
        x0 = draw(st.one_of(st.just(x0), _half_node_ties(control.grid).filter(lambda y: y > 0)))
    return spec, t0, x0, control, dt


@settings(max_examples=150, deadline=None)
@given(case=_kernel_cases(), seed=st.integers(0, 2**32), n_paths=st.integers(1, 40),
       record=st.booleans())
def test_kernel_matches_reference_loop_on_random_specs(case, seed, n_paths, record):
    spec, t0, x0, control, dt = case
    ref = _assert_matches_reference(spec, t0, x0, control, dt, seed, n_paths, record)
    inside = np.isfinite(ref.default_times) & np.isin(ref.default_times, ref.times, invert=True)
    event(f"a default inside a step: {bool(inside.any())}")
