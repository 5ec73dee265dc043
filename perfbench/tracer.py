"""Run one job in-process through ``impulse_qvi.cli.main``.

    python3 perfbench/tracer.py --job JOB.json --result RESULT.json [--traced]

JOB.json is a list of CLI argument lists, one per step.  Each step's wall
time and exit code are written to RESULT.json.  With ``--traced``, timing wrappers are installed around
public functions of ``cli``, ``solver``, ``dynamics``, ``model``,
``diagnostics`` and ``fixtures`` first, and RESULT.json also gets their
times, self times and counts.  A wrapper replaces every module-level name
bound to the wrapped function, so it sits on the name each caller looks up
(``solver.impulse_max`` and ``diagnostics.impulse_max``, ``solver.solve``
and ``cli.solve``); ``cli._DISPATCH`` is not touched because the wrapped
layers sit below it.  The package itself is not edited.

The caller puts the package's ``src`` directory on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from collections import defaultdict


class Tracer:
    """Inclusive time, self time and call count per layer name.  A layer's
    self time is its inclusive time minus that of wrapped layers called
    inside it."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)   # counters filled by hooks
        self._stack = []                 # child time of each open span

    def wrap(self, name, fn, hook=None):
        """Timing wrapper around ``fn``; ``hook(bound_arguments, result)``
        runs after each call, outside the timed interval."""
        sig = inspect.signature(fn) if hook is not None else None
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.total[name] += elapsed
                self.self_time[name] += elapsed - child
                self.calls[name] += 1
            if hook is not None:
                hook(sig.bind(*args, **kwargs).arguments, out)
            return out

        return wrapper

    def counting(self, name, fn):
        """Call-count wrapper without timing, for per-node callables."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _rebind(modules, original, replacement) -> int:
    """Point every module-level name bound to ``original`` at ``replacement``."""
    n = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                n += 1
    return n


def install(tracer: Tracer) -> None:
    """Install the layer wrappers on the package's modules."""
    import numpy as np
    from impulse_qvi import cli, diagnostics, dynamics, fixtures, model, solver

    modules = (cli, solver, dynamics, model, diagnostics, fixtures)
    c = tracer.counts

    def gain_evals(a, out):
        grid = a["grid"]
        # gains evaluated per call: one per (x node, injection sample)
        c["solver.impulse_max.gain_evals"] += grid.n_x * getattr(grid, "n_k", 1)

    def projection_updates(a, out):
        c["solver.projection_updates"] += sum(out.surface.metadata["inner_iterations"])

    def surface_bytes(a, out):
        c["solver.write_surface.bytes"] += os.path.getsize(a["path"])

    def mc_paths(a, out):
        c["dynamics.paths"] += int(a["n_paths"])

    functions = [
        ("solver.impulse_max", solver.impulse_max, gain_evals),
        ("solver.pde_step", solver.pde_step, None),
        ("solver.solve", solver.solve, projection_updates),
        ("solver.write_surface", solver.write_surface_csv, surface_bytes),
        ("solver.write_boundary", solver.write_boundary_csv, None),
        ("solver.write_policy", solver.write_policy_csv, None),
        ("cli.load_surface", cli._load_solution, None),
        ("dynamics.mc", dynamics.filtration_reduction_check, mc_paths),
        ("dynamics.record_paths", dynamics.simulate, None),
        ("model.invert_hazard", model.invert_hazard, None),
        ("model.validate", model.validate, None),
        ("diagnostics.check_obstacle", diagnostics.check_obstacle, None),
        ("diagnostics.check_smooth_fit", diagnostics.check_smooth_fit, None),
        ("diagnostics.check_theta_structure", diagnostics.check_theta_structure, None),
        ("diagnostics.convergence_study", diagnostics.convergence_study, None),
    ]
    for name, fn, hook in functions:
        if _rebind(modules, fn, tracer.wrap(name, fn, hook)) == 0:
            raise RuntimeError(f"no module binds {name}")

    # the reference callable is counted per call, not timed: it runs once
    # per grid node, and its time shows in convergence_study's self time
    ref_factory = fixtures.fixture_reference

    def fixture_reference(name):
        ref = ref_factory(name)
        return None if ref is None else tracer.counting("fixtures.reference.calls", ref)

    _rebind(modules, ref_factory, fixture_reference)

    cli.RunConfig.config_hash = tracer.wrap("cli.config_hash", cli.RunConfig.config_hash)
    dynamics.FeedbackPolicy.injections = tracer.wrap(
        "dynamics.policy_lookup", dynamics.FeedbackPolicy.injections)
    # every per-path stream is built through this name
    np.random.default_rng = tracer.wrap("dynamics.rng_construct", np.random.default_rng)


def _delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--job", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)
    with open(args.job, "r", encoding="utf-8") as fh:
        job = json.load(fh)

    from impulse_qvi import cli

    tracer = Tracer()
    if args.traced:
        install(tracer)
    steps = []
    for step_argv in job:
        before = (dict(tracer.total), dict(tracer.self_time))
        start = time.perf_counter()
        code = cli.main(step_argv)
        wall = time.perf_counter() - start
        steps.append({"wall": wall, "code": code,
                      "total": _delta(tracer.total, before[0]),
                      "self_time": _delta(tracer.self_time, before[1])})
    result = {"steps": steps, "total": tracer.total, "self_time": tracer.self_time,
              "calls": tracer.calls, "counts": tracer.counts}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
