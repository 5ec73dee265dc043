"""The benchmark's workloads: a seed goes in, one job comes out.

A job is a fixed sequence of ``impulse_qvi.cli`` invocations.  Every value
the program receives (the ``--seed`` flags and the schedule JSON) is drawn
here from the workload seed, so the same seed always gives the same job.

Each step carries a gate that reads the step's artifacts and returns a list
of problems.  Gates use tolerance invariants from the acceptance criteria,
never golden hashes: later changes to the impulse operator or to the Monte
Carlo stream layout legitimately change the bits.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

# Fixture facts the jobs rely on.  The grids are the fixtures' suggested
# grids (no grid flag is passed, so the program picks them itself).
INTERVENTION_NT = 200
CLOSED_FORM_NX = 400
CLOSED_FORM_NT = 400
CONVERGE_LEVELS = 3
GEOMETRIC_T = 1.0
GEOMETRIC_K = (0.1, 1.0)            # [k_min, k_max] of fixture:geometric
CLOSED_FORM_SUP = 2.0 * (1.0 - math.exp(-0.5))   # sup |V| of fixture:closed-form

SIMULATE_PATHS = 65536             # 4 chunks of 16384, 64 blocks of 1024
REUSE_PATHS = 20000
RECORD_PATHS = 3                   # the CLI default for simulate
REUSE_X0 = 0.15                    # inside the action region (x <= 0.18)

WHY = {
    "solve": "validate+solve on fixture:intervention and a 3-level converge on "
             "fixture:closed-form: solver numerics, surface/boundary/policy writes, "
             "exact reference; no MC, no artifact read",
    "simulate": "65,536-path MC on fixture:geometric with a seeded 2-impulse schedule: "
                "per-path RNG streams, Euler loop, hazard inversion, cost reductions; "
                "no solver, almost no I/O",
    "reuse": "feedback-policy MC from x0=0.15 and surface-only check on a solved "
             "surface: surface read, policy lookups in the Euler loop, one impulse "
             "operator per slice; no pde_step, no surface write",
}

# Which end-to-end metric each per-layer metric should move, and on which
# workload.  Recorded in BENCHMARK.json beside the workloads.
LAYER_MAP = {
    "solver.impulse_max_s": "solve_s, converge_s on solve; check_s on reuse",
    "solver.impulse_max.calls": "solve_s, converge_s on solve; check_s on reuse",
    "solver.impulse_max.gain_evals": "solve_s, converge_s on solve; check_s on reuse",
    "solver.projection_updates": "solve_s on solve",
    "solver.pde_step_s": "solve_s, converge_s on solve",
    "solver.pde_step.calls": "solve_s, converge_s on solve",
    "solver.solve_s": "solve_s, converge_s on solve",
    "solver.solve_self_s": "solve_s, converge_s on solve",
    "solver.write_surface_s": "solve_s on solve",
    "solver.write_surface.bytes": "solve_s on solve",
    "solver.write_boundary_s": "solve_s on solve (holds the lazy scipy.ndimage import)",
    "solver.write_policy_s": "solve_s on solve",
    "cli.load_surface_s": "simulate_s, check_s on reuse",
    "cli.config_hash_s": "simulate_s, check_s on reuse",
    "dynamics.mc_s": "simulate_s on simulate and reuse",
    "dynamics.paths": "simulate_s on simulate and reuse",
    "dynamics.paths_per_s": "simulate_s on simulate and reuse",
    "dynamics.rng_streams": "simulate_s on simulate and reuse",
    "dynamics.rng_construct_s": "simulate_s on simulate and reuse",
    "dynamics.policy_lookup_s": "simulate_s on reuse",
    "dynamics.policy_lookup.calls": "simulate_s on reuse",
    "dynamics.record_paths_s": "simulate_s on simulate and reuse",
    "model.invert_hazard_s": "simulate_s on simulate and reuse",
    "model.validate_s": "solve_s on solve",
    "diagnostics.check_obstacle_s": "check_s on reuse",
    "diagnostics.check_smooth_fit_s": "check_s on reuse",
    "diagnostics.check_theta_structure_s": "check_s on reuse",
    "diagnostics.convergence_study_self_s": "converge_s on solve",
    "fixtures.reference.calls": "converge_s on solve",
}


@dataclass(frozen=True)
class Step:
    """One CLI invocation: ``impulse-qvi COMMAND --out DIR ARGS``.

    ``args`` may hold ``{work}``, the job's work directory, which is only
    known when the job runs.
    """

    command: str
    args: tuple
    gate: Callable[[str], list]
    out: str | None = None    # fixed output directory (set-up steps)

    def argv(self, out_dir: str, work: str) -> list:
        return [self.command, "--out", out_dir] + [a.format(work=work) for a in self.args]


@dataclass(frozen=True)
class Job:
    """Generated inputs of one workload run: files to write into the work
    directory, untimed set-up steps, and the timed steps of one job."""

    workload: str
    seed: int
    files: tuple          # ((relative name, text), ...)
    setup: tuple          # (Step, ...)
    steps: tuple          # (Step, ...)


# ------------------------------------------------------------------ gates


def _json(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def gate_validate(out_dir: str) -> list:
    rep = _json(out_dir, "validation.json")["report"]
    return [] if rep["passed"] is True else ["validation.json: report.passed is not true"]


def _gate_summary(out_dir: str, want_action: bool) -> list:
    s = _json(out_dir, "summary.json")
    problems = []
    if want_action and not s["n_action_nodes"] > 0:
        problems.append(f"summary.json: n_action_nodes={s['n_action_nodes']}, expected > 0")
    if s["landing_violations"] != 0:
        problems.append(f"summary.json: landing_violations={s['landing_violations']}")
    if not s["min_obstacle_gap"] >= -1e-8:
        problems.append(f"summary.json: min_obstacle_gap={s['min_obstacle_gap']} < -1e-8")
    for name in ("surface.csv", "boundary.csv", "policy.csv"):
        if not os.path.isfile(os.path.join(out_dir, name)):
            problems.append(f"{name} missing")
    return problems


def gate_solve_intervention(out_dir: str) -> list:
    return _gate_summary(out_dir, want_action=True)


def gate_converge_closed_form(out_dir: str) -> list:
    """Criterion 1 (error within 1e-3 of the formula's scale) and
    criterion 9 (error and Cauchy ratios near 2 when dt halves)."""
    study = _json(out_dir, "convergence.json")["study"]
    errs = study["reference_errors"]
    problems = []
    if len(errs) != CONVERGE_LEVELS:
        return [f"convergence.json: {len(errs)} reference errors, expected {CONVERGE_LEVELS}"]
    if not all(isinstance(e, float) and 0.0 <= e <= 1e-3 * CLOSED_FORM_SUP for e in errs):
        problems.append(f"convergence.json: reference errors {errs} exceed "
                        f"1e-3 * sup|V| = {1e-3 * CLOSED_FORM_SUP:.3g}")
    elif not all(e > 0.0 for e in errs[1:]):
        problems.append(f"convergence.json: zero reference error {errs}")
    else:
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        if not all(1.6 <= r <= 2.4 for r in ratios):
            problems.append(f"convergence.json: reference error ratios {ratios} not in [1.6, 2.4]")
    cauchy = study["ratios"]
    if len(cauchy) != CONVERGE_LEVELS - 2 or not all(
            isinstance(r, float) and r >= 1.8 for r in cauchy):
        problems.append(f"convergence.json: Cauchy ratios {cauchy}, expected >= 1.8")
    return problems


def _gate_mc(out_dir: str, n_paths: int) -> list:
    rep = _json(out_dir, "mc_report.json")
    problems = []
    if rep["reduction"]["passed"] is not True:
        problems.append("mc_report.json: reduction.passed is not true "
                        f"(difference {rep['reduction']['difference']}, "
                        f"combined_se {rep['reduction']['combined_se']})")
    if rep["n_paths"] != n_paths:
        problems.append(f"mc_report.json: n_paths={rep['n_paths']}, expected {n_paths}")
    for i in range(RECORD_PATHS):
        if not os.path.isfile(os.path.join(out_dir, f"path_{i:03d}.csv")):
            problems.append(f"path_{i:03d}.csv missing")
    return problems


def gate_simulate(out_dir: str) -> list:
    return _gate_mc(out_dir, SIMULATE_PATHS)


def gate_reuse_simulate(out_dir: str) -> list:
    return _gate_mc(out_dir, REUSE_PATHS)


def gate_check(out_dir: str) -> list:
    rep = _json(out_dir, "checks.json")
    return [] if rep["passed"] is True else ["checks.json: passed is not true"]


# -------------------------------------------------------------- generator


def _draw_schedule(rng: random.Random) -> list:
    """Two injections at distinct times in [0.05, 0.95] * T with sizes
    drawn from [k_min, k_max] of fixture:geometric."""
    while True:
        times = sorted(round(rng.uniform(0.05, 0.95) * GEOMETRIC_T, 3) for _ in range(2))
        if times[0] < times[1]:
            break
    lo, hi = GEOMETRIC_K
    return [[t, round(rng.uniform(lo, hi), 3)] for t in times]


# The Monte Carlo gate is the program's own test that the two cost
# representations agree within 3 standard errors, which a correct program
# fails on a small share of seeds by design.  The workload seed therefore
# picks one of a fixed set of input variants, each of which passes every
# gate; variant 12 is left out because its reuse draw reads 1.007 times the
# threshold.  A change to the Monte Carlo streams re-checks these variants.
VARIANTS = tuple(v for v in range(33) if v != 12)


def make_job(workload: str, seed: int) -> Job:
    """The job of ``workload`` for ``seed``; raises KeyError on an unknown
    workload."""
    if workload not in WHY:
        raise KeyError(f"unknown workload {workload!r}; known: {sorted(WHY)}")
    rng = random.Random(VARIANTS[seed % len(VARIANTS)])
    prog_seed = str(rng.randrange(2**31))
    if workload == "solve":
        steps = (
            Step("validate", ("--spec", "fixture:intervention", "--seed", prog_seed),
                 gate_validate),
            Step("solve", ("--spec", "fixture:intervention", "--seed", prog_seed),
                 gate_solve_intervention),
            Step("converge", ("--spec", "fixture:closed-form", "--levels",
                              str(CONVERGE_LEVELS), "--seed", prog_seed),
                 gate_converge_closed_form),
        )
        return Job(workload, seed, (), (), steps)
    if workload == "simulate":
        schedule = json.dumps(_draw_schedule(rng))
        step = Step("simulate", ("--spec", "fixture:geometric", "--seed", prog_seed,
                                 "--policy", "schedule", "--schedule", "{work}/schedule.json",
                                 "--paths", str(SIMULATE_PATHS), "--dt", "0.005",
                                 "--record-paths", str(RECORD_PATHS)),
                    gate_simulate)
        return Job(workload, seed, (("schedule.json", schedule + "\n"),), (), (step,))
    # reuse: the surface is solved once, untimed, into {work}/surface
    setup = (Step("solve", ("--spec", "fixture:intervention", "--seed", prog_seed),
                  gate_solve_intervention, out="{work}/surface"),)
    steps = (
        Step("simulate", ("--spec", "fixture:intervention", "--seed", prog_seed,
                          "--policy", "feedback", "--surface", "{work}/surface",
                          "--x0", repr(REUSE_X0), "--paths", str(REUSE_PATHS),
                          "--dt", "0.01", "--record-paths", str(RECORD_PATHS)),
             gate_reuse_simulate),
        Step("check", ("--spec", "fixture:intervention", "--seed", prog_seed,
                       "--surface", "{work}/surface"),
             gate_check),
    )
    return Job(workload, seed, (), setup, steps)


def expected_counts(workload: str, projection_updates: int) -> dict:
    """Trace counts the grids imply for one job of ``workload``.

    ``projection_updates`` is the solver's own count (summed inner
    iterations), which the impulse-operator call count includes.
    """
    if workload == "solve":
        converge_nt = [CLOSED_FORM_NT * 2**i for i in range(CONVERGE_LEVELS)]
        return {
            "solver.pde_step.calls": INTERVENTION_NT + sum(converge_nt),
            "solver.impulse_max.calls": (INTERVENTION_NT + 1) + sum(n + 1 for n in converge_nt)
            + projection_updates,
            "fixtures.reference.calls": CLOSED_FORM_NX * sum(n + 1 for n in converge_nt),
            "dynamics.rng_streams": 0,
        }
    if workload == "simulate":
        return {
            "solver.pde_step.calls": 0,
            "solver.impulse_max.calls": 0,
            "dynamics.paths": SIMULATE_PATHS,
            "dynamics.rng_streams": SIMULATE_PATHS + RECORD_PATHS,
        }
    return {
        "solver.pde_step.calls": 0,
        "solver.impulse_max.calls": INTERVENTION_NT + 1,
        "dynamics.paths": REUSE_PATHS,
        "dynamics.rng_streams": REUSE_PATHS + RECORD_PATHS,
    }
