"""Self-tests of the benchmark: ``python3 -m pytest perfbench``.

The trace test runs each workload once in traced mode (about a minute).
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run as R
import workloads as W

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(R.SRC))

from impulse_qvi.dynamics import ImpulseSchedule  # noqa: E402
from impulse_qvi.fixtures import get_fixture, suggested_grid  # noqa: E402


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))


@pytest.mark.parametrize("workload", sorted(W.WHY))
def test_same_seed_same_inputs(workload):
    for seed in (0, 1, 12345):
        assert W.make_job(workload, seed) == W.make_job(workload, seed)
    assert W.make_job(workload, 1).steps != W.make_job(workload, 2).steps


def test_schedules_are_admissible():
    spec = get_fixture("geometric")
    assert (spec.costs.k_min, spec.costs.k_max) == W.GEOMETRIC_K
    assert spec.T == W.GEOMETRIC_T
    for seed in range(200):
        (_, text), = W.make_job("simulate", seed).files
        pairs = json.loads(text)
        assert len(pairs) == 2
        ImpulseSchedule([p[0] for p in pairs], [p[1] for p in pairs]).validate(spec)


def test_grid_constants_match_fixtures():
    assert suggested_grid("intervention").n_t == W.INTERVENTION_NT
    cf = suggested_grid("closed-form")
    assert (cf.n_x, cf.n_t) == (W.CLOSED_FORM_NX, W.CLOSED_FORM_NT)


def _good_artifacts(root: Path) -> dict:
    """Minimal artifact sets that pass each gate."""
    dirs = {}
    d = dirs["check"] = root / "check"
    _write_json(d / "checks.json", {"passed": True})
    d = dirs["simulate"] = root / "simulate"
    _write_json(d / "mc_report.json", {"n_paths": W.SIMULATE_PATHS, "reduction": {
        "passed": True, "difference": 0.0, "combined_se": 0.1}})
    for i in range(W.RECORD_PATHS):
        (d / f"path_{i:03d}.csv").write_text("time,state\n")
    d = dirs["solve"] = root / "solve"
    _write_json(d / "summary.json", {"n_action_nodes": 801, "landing_violations": 0,
                                     "min_obstacle_gap": 0.0})
    for name in ("surface.csv", "boundary.csv", "policy.csv"):
        (d / name).write_text("t,x\n")
    d = dirs["converge"] = root / "converge"
    _write_json(d / "convergence.json", {"study": {
        "reference_errors": [4e-4, 2e-4, 1e-4], "ratios": [2.0]}})
    return dirs


STEPS = {
    "check": W.Step("check", (), W.gate_check),
    "simulate": W.Step("simulate", (), W.gate_simulate),
    "solve": W.Step("solve", (), W.gate_solve_intervention),
    "converge": W.Step("converge", (), W.gate_converge_closed_form),
}

CORRUPTIONS = [
    ("check", "checks.json", lambda d: d.update(passed=False)),
    ("simulate", "mc_report.json", lambda d: d["reduction"].update(passed=False)),
    ("simulate", "mc_report.json", lambda d: d.update(n_paths=1000)),
    ("solve", "summary.json", lambda d: d.update(landing_violations=2)),
    ("solve", "summary.json", lambda d: d.update(n_action_nodes=0)),
    ("solve", "summary.json", lambda d: d.update(min_obstacle_gap=-1e-6)),
    ("solve", "summary.json", lambda d: d.pop("landing_violations")),
    ("converge", "convergence.json",
     lambda d: d["study"].update(reference_errors=[4e-4, 3.9e-4, 1e-4])),
    ("converge", "convergence.json",
     lambda d: d["study"].update(reference_errors=[4e-3, 2e-3, 1e-3])),
    ("converge", "convergence.json", lambda d: d["study"].update(ratios=[1.2])),
    ("converge", "convergence.json", lambda d: d["study"].update(ratios=["inf"])),
]


def test_good_artifacts_pass(tmp_path):
    for command, d in _good_artifacts(tmp_path).items():
        assert R.score(STEPS[command], 0, d, None) == [], command


@pytest.mark.parametrize("command,name,corrupt", CORRUPTIONS)
def test_corrupted_artifact_is_a_failure(tmp_path, command, name, corrupt):
    d = _good_artifacts(tmp_path)[command]
    payload = json.loads((d / name).read_text())
    corrupt(payload)
    (d / name).write_text(json.dumps(payload))
    problems = R.score(STEPS[command], 0, d, None)
    assert problems
    run = R.Run(W.make_job("reuse", 0), 1.0)
    run.tally(problems)
    assert (run.attempted, run.failed) == (1, 1)


def test_exit_code_missing_file_and_changed_bytes_are_failures(tmp_path):
    dirs = _good_artifacts(tmp_path / "a")
    assert R.score(STEPS["check"], 1, dirs["check"], None)
    (dirs["simulate"] / "path_001.csv").unlink()
    assert R.score(STEPS["simulate"], 0, dirs["simulate"], None)
    (dirs["check"] / "checks.txt").write_text("x\n")
    shutil.copytree(dirs["check"], tmp_path / "b")
    assert R.score(STEPS["check"], 0, tmp_path / "b", dirs["check"]) == []
    (tmp_path / "b" / "checks.txt").write_text("y\n")
    assert R.score(STEPS["check"], 0, tmp_path / "b", dirs["check"])


def test_benchmark_json_matches_the_benchmark():
    doc = json.loads((R.ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert {w["name"]: w["why"] for w in doc["workloads"]} == W.WHY
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(R.END_TO_END)
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(R.PER_LAYER)
    assert set(W.LAYER_MAP) <= {m["name"] for m in doc["per_layer"]}


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(R.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_calibration_runs_without_the_package():
    assert "impulse_qvi" not in (HERE / "calibrate.py").read_text()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(HERE / "calibrate.py")], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_a_round_starts_only_if_it_fits_the_window():
    for first_round_s, another in ((6.0, False), (2.0, True)):
        run = R.Run(W.make_job("solve", 0), 10.0)
        run.measure_start = time.perf_counter()
        assert run.measuring(0)
        # as if the first round had just ended after first_round_s
        run.measure_start -= first_round_s
        run.round_start -= first_round_s
        assert run.measuring(1) is another


@pytest.mark.parametrize("workload", sorted(W.WHY))
def test_trace_counts_match_grids(workload):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    sanity = [ln for ln in lines if ln.startswith("trace-sanity")]
    assert sanity and not [ln for ln in sanity if "MISMATCH" in ln], sanity
