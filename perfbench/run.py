"""Benchmark of the impulse-qvi batch CLI.

    python3 perfbench/run.py --workload {solve,simulate,reuse,all} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is taken from the
checkout's ``src`` directory (nothing needs installing).

``--trace 0`` measures end to end.  Jobs run back to back as child
processes, one invocation at a time (a closed loop with one client), until
S seconds have passed.  Each invocation is a fresh
interpreter, so every number includes interpreter start, import, numerics
and artifact I/O.  Children get ``IMPULSE_QVI_THREADS`` unset and one BLAS
thread.

A shared host's speed drifts by a quarter and more within seconds, which
would swamp the metrics' bounds.  So ``calibrate.py``, fixed work that uses
nothing from the package, runs after every set-up probe and every step, and
``job_s``, ``setup_s`` and the per-subcommand times are scaled to the speed
at which the calibration takes ``CALIBRATE_REF_S``.  A change to the
package moves them as it moves wall time; the unscaled medians are printed
too.

``--trace 1`` measures layers.  Fresh interpreters run the job in-process
through ``impulse_qvi.cli.main``, alternately plain and with the timing
wrappers of ``tracer.py``, until S seconds have passed.  Layer figures are
medians over the traced runs; the traced-minus-plain job time is the
tracing overhead.

Every invocation's artifacts are checked (see ``workloads.py``), and every
rerun within a run must reproduce the first job's artifacts byte for byte.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import filecmp
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# what the console script runs, and what every invocation pays before it
ENTRY = "import sys; from impulse_qvi.cli import main; sys.exit(main())"
IMPORT_PROBE = "import impulse_qvi.cli"
SETUP_PROBES_MIN = 7
# calibrate.py's wall time on the reference machine (2-vCPU Intel Xeon VM);
# end-to-end times are scaled to this speed
CALIBRATE_REF_S = 0.30
RUN_LIMIT_S = 170.0       # hard stop for one run, kept under 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
COMMANDS = ("validate", "solve", "converge", "simulate", "check")

# (name, unit, better); BENCHMARK.json lists the same names
END_TO_END = (
    ("job_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# Per-layer metrics from the traced run: (name, unit, better, source).  The
# source names tracer.py's table and key; None marks a metric derived below.
_LAYERS = (
    ("solver.impulse_max_s", "s", "lower", ("total", "solver.impulse_max")),
    ("solver.impulse_max.calls", "count", "lower", ("calls", "solver.impulse_max")),
    ("solver.impulse_max.gain_evals", "count", "lower",
     ("counts", "solver.impulse_max.gain_evals")),
    ("solver.projection_updates", "count", "lower", ("counts", "solver.projection_updates")),
    ("solver.pde_step_s", "s", "lower", ("total", "solver.pde_step")),
    ("solver.pde_step.calls", "count", "lower", ("calls", "solver.pde_step")),
    ("solver.solve_s", "s", "lower", ("total", "solver.solve")),
    ("solver.solve_self_s", "s", "lower", ("self_time", "solver.solve")),
    ("solver.write_surface_s", "s", "lower", ("total", "solver.write_surface")),
    ("solver.write_surface.bytes", "B", "lower", ("counts", "solver.write_surface.bytes")),
    ("solver.write_boundary_s", "s", "lower", ("total", "solver.write_boundary")),
    ("solver.write_policy_s", "s", "lower", ("total", "solver.write_policy")),
    ("cli.load_surface_s", "s", "lower", ("total", "cli.load_surface")),
    ("cli.config_hash_s", "s", "lower", ("total", "cli.config_hash")),
    ("dynamics.mc_s", "s", "lower", ("total", "dynamics.mc")),
    ("dynamics.paths", "count", "higher", ("counts", "dynamics.paths")),
    ("dynamics.paths_per_s", "1/s", "higher", None),
    ("dynamics.rng_streams", "count", "lower", ("calls", "dynamics.rng_construct")),
    ("dynamics.rng_construct_s", "s", "lower", ("total", "dynamics.rng_construct")),
    ("dynamics.policy_lookup_s", "s", "lower", ("total", "dynamics.policy_lookup")),
    ("dynamics.policy_lookup.calls", "count", "lower", ("calls", "dynamics.policy_lookup")),
    ("dynamics.record_paths_s", "s", "lower", ("total", "dynamics.record_paths")),
    ("model.invert_hazard_s", "s", "lower", ("total", "model.invert_hazard")),
    ("model.validate_s", "s", "lower", ("total", "model.validate")),
    ("diagnostics.check_obstacle_s", "s", "lower", ("total", "diagnostics.check_obstacle")),
    ("diagnostics.check_smooth_fit_s", "s", "lower", ("total", "diagnostics.check_smooth_fit")),
    ("diagnostics.check_theta_structure_s", "s", "lower",
     ("total", "diagnostics.check_theta_structure")),
    ("diagnostics.convergence_study_self_s", "s", "lower",
     ("self_time", "diagnostics.convergence_study")),
    ("fixtures.reference.calls", "count", "lower", ("counts", "fixtures.reference.calls")),
) + tuple(
    # each subcommand in-process, without interpreter start (plain rounds)
    (f"cli.main.{c}_s", "s", "lower", None) for c in COMMANDS
) + (
    ("trace.job_s", "s", "lower", None),
    ("trace.plain_job_s", "s", "lower", None),
    ("trace.overhead_s", "s", "lower", None),
)
PER_LAYER = tuple(entry[:3] for entry in _LAYERS)
_COUNTED = tuple(name for name, unit, _, src in _LAYERS if src and unit != "s")


@dataclass
class Sample:
    """One child process: exit code, wall time and peak RSS."""

    rc: int
    wall_s: float
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("IMPULSE_QVI_THREADS", None)     # the MC thread pool stays off
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # children import compiled modules, as installs do
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list, env: dict, log_path: Path, deadline: float) -> Sample:
    """Run ``python3 ARGS`` to completion; kill it at ``deadline``."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable] + args, env=env, cwd=ROOT,
                                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(proc.returncode, wall, ru.ru_maxrss / 1024.0)


def same_tree(a: Path, b: Path) -> list:
    """Problems found comparing the files of two output directories."""
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return [f"artifact set {names_b} differs from first run's {names_a}"]
    return [f"{n} differs from first run" for n in names_a
            if not filecmp.cmp(a / n, b / n, shallow=False)]


def score(step: W.Step, rc: int, out_dir: Path, ref_dir: Path | None) -> list:
    """Problems with one invocation: exit code, artifact gate, and byte
    identity with the first run of the same step (``ref_dir``)."""
    if rc != 0:
        return [f"{step.command}: exit code {rc}"]
    try:
        problems = list(step.gate(str(out_dir)))
        if ref_dir is not None:
            problems += same_tree(ref_dir, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable artifact: {exc!r}"]
    return [f"{step.command}: {p}" for p in problems]


class Run:
    """State of one benchmark run: work directory, deadline, tallies."""

    def __init__(self, job: W.Job, seconds: float):
        self.job = job
        self.seconds = seconds
        self.start = time.perf_counter()
        self.hard_deadline = self.start + RUN_LIMIT_S
        self.env = child_env()
        self.work = ROOT / ".perfbench_work" / f"{job.workload}-{job.seed}-{os.getpid()}"
        self.measure_start = self.start
        self.round_start = self.start
        self.round_s = 0.0
        self.attempted = 0
        self.problems = []
        self.failed = 0

    def __enter__(self):
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        for name, text in self.job.files:
            (self.work / name).write_text(text, encoding="utf-8")
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def tally(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems

    def invoke(self, step: W.Step, out_dir: Path, ref_dir: Path | None) -> Sample:
        argv = step.argv(str(out_dir), str(self.work))
        sample = run_child(["-c", ENTRY] + argv, self.env, self.work / "log.txt",
                           self.hard_deadline)
        self.tally(score(step, sample.rc, out_dir, ref_dir))
        return sample

    def setup(self) -> None:
        """Untimed: compile the package's bytecode, run the set-up steps."""
        self.probe_setup()
        for step in self.job.setup:
            self.invoke(step, Path(step.out.format(work=self.work)), None)

    def calibrate(self) -> float:
        sample = run_child([str(HERE / "calibrate.py")], self.env, self.work / "log.txt",
                           self.hard_deadline)
        if sample.rc != 0:
            raise RuntimeError(f"calibrate.py exited {sample.rc}")
        return sample.wall_s

    def probe_setup(self) -> Sample:
        return run_child(["-c", IMPORT_PROBE], self.env, self.work / "log.txt",
                         self.hard_deadline)

    def step_dirs(self, tag: str) -> list:
        return [self.work / tag / f"{i}_{s.command}" for i, s in enumerate(self.job.steps)]

    def measuring(self, done: int) -> bool:
        """Whether to start another round: at least one, then while a round
        as long as the longest so far still ends within the run's seconds.
        Called once at the start of each round."""
        now = time.perf_counter()
        if done:
            self.round_s = max(self.round_s, now - self.round_start)
        self.round_start = now
        end = min(self.measure_start + self.seconds, self.hard_deadline - 30.0)
        return done == 0 or now + self.round_s <= end


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure_end_to_end(run: Run) -> tuple:
    """Timed jobs until the run's seconds are used; the first job's
    artifacts are the reference for byte identity.

    A run of ``calibrate.py`` follows every set-up probe and every step.
    Each probe or step time is scaled by the calibration's reference time
    over the mean of the two calibrations on either side of it, so that it
    reads in seconds of a machine running at reference speed.
    """
    steps = run.job.steps
    probes, jobs = [], []
    ref = [None] * len(steps)
    run.measure_start = time.perf_counter()
    cals = [run.calibrate()]

    def timed(sample: Sample) -> tuple:
        """The sample and the speed factor around it."""
        cals.append(run.calibrate())
        return sample, CALIBRATE_REF_S / ((cals[-2] + cals[-1]) / 2.0)

    while run.measuring(len(jobs)):
        probes.append(timed(run.probe_setup()))
        outs = run.step_dirs("ref" if not jobs else "cur")
        shutil.rmtree(run.work / "cur", ignore_errors=True)
        jobs.append([timed(run.invoke(s, out, r)) for s, out, r in zip(steps, outs, ref)])
        ref = run.step_dirs("ref")
    while len(probes) < SETUP_PROBES_MIN:
        probes.append(timed(run.probe_setup()))

    metrics = {
        "job_s": _median([sum(s.wall_s * f for s, f in job) for job in jobs]),
        "setup_s": _median([s.wall_s * f for s, f in probes]),
        "peak_rss_mb": _median([max(s.rss_mb for s, _ in job) for job in jobs]),
    }
    counts = {"job_s": len(jobs), "setup_s": len(probes),
              "peak_rss_mb": len(jobs)}
    per_command = {}
    for i, step in enumerate(steps):
        per_command.setdefault(f"{step.command}_s", []).extend(
            job[i][0].wall_s * job[i][1] for job in jobs)
    per_command["unscaled.job_s"] = [sum(s.wall_s for s, _ in job) for job in jobs]
    per_command["unscaled.setup_s"] = [s.wall_s for s, _ in probes]
    per_command["unscaled.calibrate_s"] = cals
    return metrics, counts, per_command


def _traced_job(run: Run, tag: str, traced: bool) -> dict:
    """One fresh interpreter running the job in-process; returns tracer.py's
    result after scoring the artifacts against the first plain round's."""
    outs = run.step_dirs(tag)
    job_file = run.work / f"{tag}.json"
    job_file.write_text(json.dumps([s.argv(str(o), str(run.work))
                                    for s, o in zip(run.job.steps, outs)]))
    result_file = run.work / f"{tag}.result.json"
    args = [str(HERE / "tracer.py"), "--job", str(job_file), "--result", str(result_file)]
    sample = run_child(args + (["--traced"] if traced else []), run.env,
                       run.work / "log.txt", run.hard_deadline)
    if sample.rc != 0 or not result_file.exists():
        for step in run.job.steps:
            run.tally([f"{step.command}: in-process job exited {sample.rc}"])
        return {}
    result = json.loads(result_file.read_text())
    refs = run.step_dirs("t0-plain")
    for step, out, ref, rec in zip(run.job.steps, outs, refs, result["steps"]):
        run.tally(score(step, rec["code"], out, None if out == ref else ref))
    if outs != refs:
        shutil.rmtree(run.work / tag, ignore_errors=True)
    return result


def _layer_metrics(res: dict) -> dict:
    return {name: res[src[0]].get(src[1], 0.0 if unit == "s" else 0)
            for name, unit, _, src in _LAYERS if src}


def measure_layers(run: Run) -> tuple:
    """Plain and traced in-process jobs, alternating, until the run's
    seconds are used.  Returns (metrics, report lines)."""
    plain, traced = [], []
    run.measure_start = time.perf_counter()
    while run.measuring(len(traced)):
        k = len(traced)
        p = _traced_job(run, f"t{k}-plain", False)
        t = _traced_job(run, f"t{k}-traced", True)
        if not (p and t):
            break
        plain.append(p)
        traced.append(t)
    if not traced:
        return {name: 0 for name, _, _ in PER_LAYER}, ["trace: no successful round"]

    per_run = [_layer_metrics(t) for t in traced]
    lines = []
    for k, m in enumerate(per_run[1:], 1):
        diff = [n for n in _COUNTED if m[n] != per_run[0][n]]
        if diff:
            run.tally([f"trace counts differ between rounds 0 and {k}: {diff}"])
    metrics = {n: _median([m[n] for m in per_run]) for n in per_run[0]}
    metrics.update({n: per_run[0][n] for n in _COUNTED})
    mc = metrics["dynamics.mc_s"]
    metrics["dynamics.paths_per_s"] = metrics["dynamics.paths"] / mc if mc > 0 else 0.0
    for c in COMMANDS:
        walls = [rec["wall"] for p in plain
                 for s, rec in zip(run.job.steps, p["steps"]) if s.command == c]
        metrics[f"cli.main.{c}_s"] = _median(walls)
    metrics["trace.job_s"] = _median([sum(r["wall"] for r in t["steps"]) for t in traced])
    metrics["trace.plain_job_s"] = _median([sum(r["wall"] for r in p["steps"]) for p in plain])
    metrics["trace.overhead_s"] = metrics["trace.job_s"] - metrics["trace.plain_job_s"]

    expected = W.expected_counts(run.job.workload, metrics["solver.projection_updates"])
    for name, want in expected.items():
        got = metrics[name]
        lines.append(f"trace-sanity {name}: {got} "
                     f"{'== grid-implied' if got == want else f'MISMATCH, grid implies {want}'}")
    lines += baseline_claims(run.job, traced)
    lines.append(f"trace rounds: {len(traced)} traced, {len(plain)} plain")
    return metrics, lines


def baseline_claims(job: W.Job, traced: list) -> list:
    """Verdicts on the ROADMAP Baseline claims this workload can test, from
    per-step figures (medians over the traced rounds)."""
    commands = [s.command for s in job.steps]

    def fig(command, table, key):
        i = commands.index(command)
        return _median([t["steps"][i][table].get(key, 0.0) for t in traced])

    claims = []
    if job.workload == "solve":
        claims += [
            ("surface write outweighs solver numerics in solve",
             "write_surface", fig("solve", "total", "solver.write_surface"),
             "solve()", fig("solve", "total", "solver.solve")),
            ("exact reference outweighs the three solves in converge",
             "convergence_study self", fig("converge", "self_time", "diagnostics.convergence_study"),
             "solve() x3", fig("converge", "total", "solver.solve")),
        ]
    if job.workload == "simulate":
        # the stream count includes the recorded paths' few streams
        claims.append(("default_rng construction is most of MC time",
                       "default_rng", fig("simulate", "total", "dynamics.rng_construct"),
                       "half of MC", 0.5 * fig("simulate", "total", "dynamics.mc")))
    return [f"baseline: {text}: {'holds' if a > b else 'does NOT hold'} "
            f"({a_name} {a:.3f} s vs {b_name} {b:.3f} s)"
            for text, a_name, a, b_name, b in claims]


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        cpu = None
    env = child_env()
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": sha,
        "child_env": {v: env.get(v) for v in THREAD_VARS + ("IMPULSE_QVI_THREADS",)},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    job = W.make_job(workload, seed)
    with Run(job, seconds) as run:
        run.setup()
        if trace:
            metrics, lines = measure_layers(run)
            names, counts = PER_LAYER, {}
        else:
            metrics, counts, per_command = measure_end_to_end(run)
            names, lines = END_TO_END, []
            for name, walls in per_command.items():
                lines.append(f"{name:<38} {_median(walls):>14.4f} {'s':<6} n={len(walls)}")
    print(f"# workload {workload}: {W.WHY[workload]}")
    print(f"# seed {seed}, inputs: " + json.dumps(
        [[s.command, *s.args] for s in job.steps]
        + [list(f) for f in job.files]))
    for name, unit, _ in names:
        value = metrics[name]
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.4f}"
        note = f"n={counts[name]}" if name in counts else W.LAYER_MAP.get(name, "")
        print(f"{name:<38} {shown} {unit:<6} {note}")
    for line in lines:
        print(line)
    print(f"{'fail_frac':<38} {run.failed / max(1, run.attempted):>14.4f} {'':<6} "
          f"{run.failed}/{run.attempted} invocations")
    for p in run.problems:
        print(f"FAILED {p}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in names},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="impulse-qvi CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(W.WHY) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "impulse_qvi" / "cli.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    # children inherit this: calibrations and steps all run on one CPU, so
    # they see the same share of the host
    env["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    print("# env " + json.dumps(env, sort_keys=True))
    names = sorted(W.WHY) if args.workload == "all" else [args.workload]
    results = {wl: run_workload(wl, args.seed, args.seconds, bool(args.trace)) for wl in names}
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{wl}.{n}": v for wl, r in results.items()
                        for n, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
