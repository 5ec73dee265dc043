"""The benchmark's layer tracer, perfbench/tracer.py, wraps package
functions by name and reads their parameters and results.  A rename or a
signature change in the package breaks it; this runs one tiny traced job
through it."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_job_runs(tmp_path):
    sol = tmp_path / "sol"
    job = [
        ["solve", "--spec", "fixture:intervention", "--nx", "81", "--nt", "40",
         "--out", str(sol)],
        ["simulate", "--spec", "fixture:intervention", "--seed", "1", "--policy", "feedback",
         "--surface", str(sol), "--x0", "0.15", "--paths", "200", "--dt", "0.05",
         "--record-paths", "1", "--out", str(tmp_path / "simulate")],
        ["check", "--spec", "fixture:intervention", "--seed", "1", "--surface", str(sol),
         "--out", str(tmp_path / "check")],
        ["converge", "--spec", "fixture:closed-form", "--nx", "21", "--nt", "5",
         "--levels", "2", "--out", str(tmp_path / "converge")],
    ]
    job_file, result_file = tmp_path / "job.json", tmp_path / "result.json"
    job_file.write_text(json.dumps(job))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--traced",
                           "--job", str(job_file), "--result", str(result_file)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_file.read_text())
    assert [step["code"] for step in result["steps"]] == [0, 0, 0, 0]
    # the wrappers sit on the names the subcommands call
    for layer in ("solver.solve", "solver.write_surface", "cli.load_surface",
                  "dynamics.policy_lookup", "dynamics.mc", "diagnostics.check_theta_structure",
                  "diagnostics.convergence_study"):
        assert result["calls"].get(layer, 0) >= 1, layer
    assert result["counts"]["solver.write_surface.bytes"] > 0
    # the converge step's exact reference is counted through the name that
    # cli._load_spec calls, fixtures.fixture_reference
    assert result["counts"]["fixtures.reference.calls"] > 0
