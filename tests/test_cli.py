"""Command-line front end: exit codes, artifact contents, reproducibility."""

import filecmp
import hashlib
import io
import json
import subprocess
import sys
from dataclasses import replace

import pytest

from impulse_qvi import cli
from impulse_qvi.dynamics import FeedbackPolicy, ImpulseSchedule, simulate
from impulse_qvi.fixtures import closed_form_spec, geometric_spec, intervention_spec
from impulse_qvi.model import Curve
from impulse_qvi.solver import read_surface_csv

from test_model import make_spec
from test_solver import _found_sub_cell_spec


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def data_rows(path):
    """CSV rows that are neither `# meta` nor the header."""
    with open(path, "r", encoding="utf-8") as fh:
        return [ln for ln in fh.read().splitlines()
                if ln and not ln.startswith("#") and not ln[0].isalpha()]


# ------------------------------------------------------------- exit code 2


def test_missing_spec_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    rc = cli.main(["solve", "--spec", str(missing), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert str(missing) in capsys.readouterr().err


def test_unknown_fixture_exits_2(tmp_path, capsys):
    rc = cli.main(["solve", "--spec", "fixture:bogus", "--out", str(tmp_path)])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "check"])
def test_seed_required_exits_2(tmp_path, capsys, command):
    rc = cli.main([command, "--spec", "fixture:zero", "--out", str(tmp_path)])
    assert rc == 2
    assert "--seed" in capsys.readouterr().err


def test_negative_seed_exits_2(tmp_path, capsys):
    rc = cli.main(["simulate", "--spec", "fixture:geometric",
                   "--out", str(tmp_path), "--seed", "-3", "--paths", "10"])
    assert rc == 2
    assert "expected non-negative integer" in capsys.readouterr().err


def test_inadmissible_schedule_exits_2(tmp_path, capsys):
    sched = tmp_path / "sched.json"
    sched.write_text("[[0.2, 99.0]]")  # size far above k_max
    rc = cli.main(["simulate", "--spec", "fixture:geometric",
                   "--out", str(tmp_path / "o"), "--seed", "1",
                   "--policy", "schedule", "--schedule", str(sched)])
    assert rc == 2
    assert "inadmissible schedule" in capsys.readouterr().err


def test_schedule_flag_needs_schedule_policy(tmp_path, capsys):
    sched = tmp_path / "sched.json"
    sched.write_text("[[0.2, 0.3]]")
    rc = cli.main(["simulate", "--spec", "fixture:geometric",
                   "--out", str(tmp_path / "o"), "--seed", "1",
                   "--schedule", str(sched)])
    assert rc == 2


@pytest.mark.parametrize("policy", ["none", "schedule"])
@pytest.mark.parametrize("flag, value", [
    ("--surface", None), ("--nx", "31"), ("--nt", "10"), ("--xmin", "0.2"), ("--xmax", "2.0"),
    ("--tol-inner", "1e-8"), ("--eps-region", "1e-6")])
def test_feedback_flags_need_feedback_policy(tmp_path, capsys, policy, flag, value):
    # a flag only the feedback policy reads is an error, not silently ignored
    sched = tmp_path / "sched.json"
    sched.write_text("[[0.2, 0.3]]")
    out = tmp_path / "o"
    argv = ["simulate", "--spec", "fixture:geometric", "--out", str(out), "--seed", "1",
            "--policy", policy, flag, str(tmp_path / "missing") if value is None else value]
    if policy == "schedule":
        argv += ["--schedule", str(sched)]
    assert cli.main(argv) == 2
    assert f"{flag}: read only with --policy feedback" in capsys.readouterr().err
    assert not out.exists()


def _validate_edited_spec(tmp_path, key, value):
    """Exit code of validate on intervention's spec with the value at the
    dotted key path set to value ("" replaces the whole spec)."""
    spec = intervention_spec().to_dict()
    if key:
        *parents, leaf = key.split(".")
        level = spec
        for name in parents:
            level = level[name]
        level[leaf] = value
    else:
        spec = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return cli.main(["validate", "--spec", str(path), "--out", str(tmp_path / "o"), "--nx", "21"])


# one per level; beta is a constant curve, which has no rate
@pytest.mark.parametrize("key", ["lamda", "costs.kapa", "beta.rate", "utilities.f.levl",
                                 "utilities.f_bound"])
def test_unread_spec_key_exits_2(tmp_path, capsys, key):
    # a key that nothing reads, at any level of the spec, is named by its
    # path instead of being silently ignored
    assert _validate_edited_spec(tmp_path, key, 1.0) == 2
    assert f"unknown spec key {key}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, reason", [
    ("beta", 0.35, "beta must be a JSON object, not float"),
    ("utilities.f", "flat", "utilities.f must be a JSON object, not str"),
    ("costs", [0.04, 0.1, 1.5], "costs must be a JSON object, not list"),
    ("", [1.0], "the spec must be a JSON object, not list"),
], ids=["curve-number", "curve-string", "costs-list", "spec-list"])
def test_spec_level_that_is_not_an_object_exits_2(tmp_path, capsys, key, value, reason):
    # a curve given as a bare number ended in an AttributeError traceback
    assert _validate_edited_spec(tmp_path, key, value) == 2
    assert reason in capsys.readouterr().err


def test_t0_beyond_horizon_exits_2(tmp_path, capsys):
    rc = cli.main(["simulate", "--spec", "fixture:closed-form", "--seed", "1",
                   "--out", str(tmp_path), "--t0", "2.0"])
    assert rc == 2
    assert "t0" in capsys.readouterr().err


def test_sub_cell_injection_window_exits_2(tmp_path, capsys):
    # k_min = 0.00121 inside the first cell (h = 0.141): a grid the program
    # cannot honour, with the n_x that it can
    path = tmp_path / "spec.json"
    _found_sub_cell_spec().to_json(path)
    rc = cli.main(["solve", "--spec", str(path), "--out", str(tmp_path / "o"),
                   "--xmin", "0.43802", "--xmax", "1.28287", "--nx", "7", "--nt", "8"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "exceeds k_min" in err and "use --nx >= 700" in err


@pytest.mark.parametrize("argv", [
    ["converge", "--spec", "fixture:closed-form", "--nx", "31", "--nt", "10", "--levels", "2",
     "--eps-region", "5", "--paths", "3", "--x0", "9", "--dt", "7"],
    ["check", "--spec", "fixture:zero", "--nx", "31", "--nt", "10", "--seed", "9",
     "--paths", "3", "--dt", "7"],
])
def test_flags_a_subcommand_does_not_read_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


# the shared flags each subcommand does not read
_UNREAD = {
    "solve": ["--paths", "--dt", "--t0", "--x0"],
    "validate": ["--nt", "--paths", "--dt", "--tol-inner", "--eps-region", "--t0", "--x0"],
    "check": ["--paths", "--dt", "--t0", "--x0"],
    "converge": ["--paths", "--dt", "--eps-region", "--t0", "--x0"],
    "simulate": [],
}


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in _UNREAD.items() for f in flags])
def test_each_unread_flag_is_rejected(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args([command, "--spec", "fixture:zero", "--out", "o",
                                        "--seed", "1", flag, "1"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv, expected", [
    (["converge", "--spec", "fixture:closed-form", "--nx", "31", "--nt", "10", "--levels", "2"],
     "cadd8b18be8459ff25413cd803c84c3ae9be63e477d19277683d69b4108c1b39"),
    (["check", "--spec", "fixture:zero", "--nx", "31", "--nt", "10", "--seed", "9"],
     "e0a64661e7c1d205b4f7771b33afd044fa3cc1a876eb4e644982c43ad78959cf"),
    (["solve", "--spec", "fixture:intervention", "--seed", "5", "--tol-inner", "1e-8",
      "--eps-region", "1e-6"],
     "a9ff83815d2bf136152552729fa8bedb102113c9f46790b9d7202daf79333d0a"),
    (["validate", "--spec", "fixture:intervention", "--seed", "5", "--nx", "51"],
     "97ab98a92935147d332249d7c01ecae3c88b77b86236400bdca0a08b5c7a6d0d"),
    (["simulate", "--spec", "fixture:geometric", "--seed", "7", "--paths", "300", "--dt", "0.02",
      "--x0", "0.5", "--t0", "0.1", "--record-paths", "1"],
     "b18f15eb9060842669d13f6bf17825b955e755d75c24ec42a9d36032c84d9082"),
])
def test_config_hash_of_valid_runs_is_stable(argv, expected):
    # hashes of invocations that were valid when every subcommand took every
    # shared flag: a flag a subcommand no longer takes keeps its default in
    # the hash payload
    cfg = cli._build_config(cli._build_parser().parse_args(argv + ["--out", "o"]))
    assert cfg.config_hash() == expected


def test_surface_hash_read_in_blocks(tmp_path):
    # --surface is hashed block by block; the digest is that of the whole
    # file, here two and a half blocks long
    path = tmp_path / "surface.csv"
    path.write_bytes(bytes(range(256)) * (5 * cli._HASH_BLOCK // 512))
    cfg = cli._build_config(cli._build_parser().parse_args(
        ["check", "--spec", "fixture:intervention", "--seed", "3", "--surface", str(tmp_path),
         "--out", "o"]))
    assert cfg.hash_payload()["surface_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


# ------------------------------------------------------------- exit code 3


def test_cell_too_small_for_double_precision_exits_3(tmp_path, capsys):
    # a 1e-15-wide grid: rounding swamps 1/dt + beta in the step's pivots,
    # a numerical failure, not a usage error
    path = tmp_path / "spec.json"
    make_spec(c1=0.0, mu=0.5, sigma=1.0, beta=0.0, f=0.0, g1=0.0, g2=0.0).to_json(path)
    rc = cli.main(["solve", "--spec", str(path), "--out", str(tmp_path / "o"),
                   "--xmin", "0.5", "--xmax", repr(0.5 + 1e-15), "--nx", "7", "--nt", "1"])
    assert rc == 3
    assert "too small for double precision" in capsys.readouterr().err


def test_outgoing_drift_at_x_min_solves_below_c1(tmp_path):
    # strong outgoing drift at x_min on a one-step grid, where a forward
    # difference once cost the step its diagonal dominance: the upwinded
    # row keeps it an M-matrix, and V stays below C1
    spec = replace(closed_form_spec(), c1=0.0, lam=Curve.constant(6.0),
                   mu_tilde=Curve.constant(0.0), sigma_tilde=Curve.constant(0.0))
    path, out = tmp_path / "spec.json", tmp_path / "o"
    spec.to_json(path)
    rc = cli.main(["solve", "--spec", str(path), "--out", str(out),
                   "--xmin", "0.1", "--xmax", "1.1", "--nx", "11", "--nt", "1"])
    assert rc == 0
    v = read_surface_csv(out / "surface.csv").surface.values
    assert v.max() <= read_json(out / "summary.json")["c1_bound"]


# ------------------------------------------------------------------- solve


def test_solve_zero_fixture_artifacts(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["solve", "--spec", "fixture:zero", "--out", str(out),
                   "--nx", "41", "--nt", "20"])
    assert rc == 0
    summary = read_json(out / "summary.json")
    assert summary["n_action_nodes"] == 0
    assert summary["grid"] == {"x_min": 0.1, "x_max": 2.1, "n_x": 41,
                               "n_t": 20}
    assert data_rows(out / "boundary.csv") == []  # empty action region
    assert data_rows(out / "policy.csv") == []
    v_col = {row.split(",")[2] for row in data_rows(out / "surface.csv")}
    assert v_col == {"0.0"}


def test_solve_closed_form_matches_formula(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["solve", "--spec", "fixture:closed-form", "--out", str(out),
                   "--nx", "51", "--nt", "400"])
    assert rc == 0
    summary = read_json(out / "summary.json")
    assert summary["max_rel_error_vs_formula"] <= 1e-3
    assert summary["min_obstacle_gap"] >= -1e-8
    assert summary["landing_violations"] == 0
    assert len(summary["config_hash"]) == 64


# ---------------------------------------------------------------- validate


def test_validate_intervention_passes(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["validate", "--spec", "fixture:intervention", "--out", str(out)])
    assert rc == 0
    payload = read_json(out / "validation.json")
    assert payload["report"]["passed"] is True
    assert (out / "validation.txt").read_text().rstrip().endswith("PASSED")


def test_validate_negative_hazard_fails(tmp_path):
    bad = replace(closed_form_spec(), beta=Curve.table([0.0, 1.0], [0.2, -0.1]))
    spec_path = tmp_path / "bad.json"
    bad.to_json(spec_path)
    out = tmp_path / "o"
    rc = cli.main(["validate", "--spec", str(spec_path), "--out", str(out)])
    assert rc == 1
    assert read_json(out / "validation.json")["report"]["passed"] is False


# ------------------------------------------------------------------- check


def test_check_zero_fixture_vacuous(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["check", "--spec", "fixture:zero", "--out", str(out),
                   "--seed", "9", "--nx", "31", "--nt", "10"])
    assert rc == 0
    payload = read_json(out / "checks.json")
    assert payload["passed"] is True
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["smooth_fit"]["vacuous"] is True
    assert "x_min > 0" in by_name["obstacle"]["domain_restriction"]
    assert "ALL CHECKS PASSED" in (out / "checks.txt").read_text()


@pytest.mark.parametrize("seed", range(4))
def test_check_geometric_passes_bounds(tmp_path, seed):
    # V < 0 near x_min is inside the derived lower bound -C0
    out = tmp_path / "o"
    assert cli.main(["check", "--spec", "fixture:geometric", "--out", str(out),
                     "--seed", str(seed)]) == 0
    by_name = {c["name"]: c for c in read_json(out / "checks.json")["checks"]}
    assert by_name["bounds"]["passed"] is True
    assert by_name["bounds"]["details"]["c0"] > 0.0


def test_check_corrupted_surface_exits_1(tmp_path):
    sol = tmp_path / "sol"
    rc = cli.main(["solve", "--spec", "fixture:intervention", "--out", str(sol),
                   "--nx", "81", "--nt", "40"])
    assert rc == 0
    surf = sol / "surface.csv"
    lines = surf.read_text().splitlines()
    for n, ln in enumerate(lines):
        if ln.startswith("#") or ln.startswith("t,"):
            continue
        parts = ln.split(",")
        parts[2] = repr(float(parts[3]) - 1e-3)  # push V below IV
        lines[n] = ",".join(parts)
        break
    surf.write_text("\n".join(lines) + "\n")
    out = tmp_path / "o"
    rc = cli.main(["check", "--spec", "fixture:intervention", "--out", str(out),
                   "--seed", "3", "--surface", str(sol)])
    assert rc == 1
    payload = read_json(out / "checks.json")
    assert payload["passed"] is False
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["obstacle"]["passed"] is False
    # surface mode runs only the checks that read the artifact alone
    assert set(by_name) == {"obstacle", "smooth_fit", "theta_structure"}


@pytest.fixture(scope="module")
def small_surface(tmp_path_factory):
    """A solve output on a grid other than the fixture's suggested one."""
    sol = tmp_path_factory.mktemp("sol")
    rc = cli.main(["solve", "--spec", "fixture:intervention", "--out", str(sol),
                   "--nx", "81", "--nt", "40"])
    assert rc == 0
    return sol


def test_check_surface_takes_grid_from_header(tmp_path, small_surface):
    out = tmp_path / "o"
    rc = cli.main(["check", "--spec", "fixture:intervention", "--out", str(out),
                   "--seed", "3", "--surface", str(small_surface)])
    assert rc == 0
    payload = read_json(out / "checks.json")
    assert payload["grid"] == {"x_min": 0.1, "x_max": 4.1, "n_x": 81,
                               "n_t": 40}
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["obstacle"]["passed"] is True


def _delete_data_row(text):
    lines = text.splitlines(keepends=True)
    del lines[-7]
    return "".join(lines)


def _relabel_first_row(label, xi0):
    """Give the first continuation row another label and xi0 field."""
    def edit(text):
        return text.replace(",continuation,\n", f",{label},{xi0}\n", 1)
    return edit


def _strip_surface_header(text):
    # the layout of surfaces written before the header existed
    return "".join(ln for ln in text.splitlines(keepends=True)
                   if not ln.startswith("#") or ln.startswith(("# config_hash=", "# seed=")))


@pytest.mark.parametrize("command, spec, flags, edit, reason", [
    ("simulate", "fixture:geometric", ["--policy", "feedback"], None, "different spec"),
    ("check", "fixture:intervention", ["--nx", "401"], None, "n_x=401 given, 81"),
    ("check", "fixture:intervention", ["--tol-inner", "1e-3"], None,
     "tol_inner=0.001 given, 1e-09"),
    ("check", "fixture:intervention", [], _delete_data_row, "do not fill"),
    ("check", "fixture:intervention", [], _strip_surface_header, "re-run solve"),
    ("check", "fixture:intervention", [], _relabel_first_row("continuaton", ""),
     "is neither an action row nor a continuation row"),
    ("simulate", "fixture:intervention", ["--policy", "feedback"],
     _relabel_first_row("continuation", "0.5"), "is neither an action row nor a continuation row"),
], ids=["spec-mismatch", "conflicting-nx", "conflicting-tol-inner", "missing-row",
        "no-header", "unknown-label", "xi0-on-continuation"])
def test_unusable_surface_exits_2(tmp_path, capsys, small_surface,
                                  command, spec, flags, edit, reason):
    sol = small_surface
    if edit is not None:
        sol = tmp_path / "sol"
        sol.mkdir()
        (sol / "surface.csv").write_text(edit((small_surface / "surface.csv").read_text()))
    rc = cli.main([command, "--spec", spec, "--out", str(tmp_path / "o"), "--seed", "3",
                   "--surface", str(sol)] + flags)
    assert rc == 2
    assert reason in capsys.readouterr().err


def _edit_last_row(field, value):
    """Set one field of the surface's last data row, in its last slice."""
    def edit(text):
        head, last = text.rstrip("\n").rsplit("\n", 1)
        fields = last.split(",")
        fields[field] = value
        return f"{head}\n{','.join(fields)}\n"
    return edit


def _repeat_last_row(text):
    return text + text.rstrip("\n").rsplit("\n", 1)[1] + "\n"


# the small surface has 41 x 81 data rows, so its last slice lies in the
# reader's third block; the messages number rows over the whole file
@pytest.mark.parametrize("edit, reason", [
    (_edit_last_row(2, "0.5x"), "surface data row 3321 has a t, x, V or IV that does not parse"),
    (_repeat_last_row, "do not fill"),
    (_edit_last_row(4, "continuaton"), "surface data row 3321 is neither an action row"),
], ids=["non-numeric-V", "extra-row", "unknown-label"])
def test_unusable_surface_beyond_first_block_exits_2(tmp_path, capsys, small_surface, edit, reason):
    sol = tmp_path / "sol"
    sol.mkdir()
    (sol / "surface.csv").write_text(edit((small_surface / "surface.csv").read_text()))
    rc = cli.main(["check", "--spec", "fixture:intervention", "--out", str(tmp_path / "o"),
                   "--seed", "3", "--surface", str(sol)])
    assert rc == 2
    assert reason in capsys.readouterr().err


# ---------------------------------------------------------------- simulate


def test_simulate_schedule_artifacts(tmp_path):
    sched = tmp_path / "sched.json"
    sched.write_text("[[0.2, 0.3], [0.8, 0.5]]")
    out = tmp_path / "o"
    rc = cli.main(["simulate", "--spec", "fixture:geometric", "--out", str(out),
                   "--seed", "11", "--paths", "2000", "--dt", "0.02",
                   "--policy", "schedule", "--schedule", str(sched),
                   "--record-paths", "2"])
    assert rc == 0
    payload = read_json(out / "mc_report.json")
    assert payload["control"] == {"kind": "schedule",
                                  "pairs": [[0.2, 0.3], [0.8, 0.5]]}
    red = payload["reduction"]
    assert red["n_paths"] == 2000 and red["seed"] == 11
    assert red["passed"] is True
    assert abs(red["difference"]) <= 3.0 * red["combined_se"]
    assert (out / "path_000.csv").exists() and (out / "path_001.csv").exists()
    assert not (out / "path_002.csv").exists()
    text = (out / "path_000.csv").read_text()
    assert "# seed=11" in text
    assert "# default_time=" in text  # default gates costs, not the path
    flagged = [r for r in data_rows(out / "path_000.csv")
               if r.split(",")[2] == "1"]
    assert [r.split(",")[0] for r in flagged] == ["0.2", "0.8"]
    assert [r.split(",")[3] for r in flagged] == ["0.3", "0.5"]


@pytest.mark.parametrize("policy", ["schedule", "feedback"])
def test_recorded_path_files_match_single_path_simulate(tmp_path, small_surface, policy):
    # the path files of one batched recording are, byte for byte, what the
    # single-path simulate of each index writes
    if policy == "schedule":
        sched = tmp_path / "sched.json"
        sched.write_text("[[0.2, 0.3], [0.8, 0.5]]")
        name, spec, x0, flags = "geometric", geometric_spec(), 1.0, ["--schedule", str(sched)]
        control = ImpulseSchedule.from_json(sched)
    else:
        name, spec, x0 = "intervention", intervention_spec(), 0.15
        flags = ["--surface", str(small_surface)]
        control = FeedbackPolicy.from_solution(read_surface_csv(small_surface / "surface.csv"))
    out = tmp_path / "o"
    rc = cli.main(["simulate", "--spec", f"fixture:{name}", "--out", str(out), "--seed", "8",
                   "--paths", "50", "--dt", "0.02", "--x0", repr(x0), "--policy", policy, "--record-paths", "3"] + flags)
    assert rc == 0
    chash = read_json(out / "mc_report.json")["config_hash"]
    for i in range(3):
        rec = simulate(spec, 0.0, x0, control, 0.02, 8, path_index=i)
        assert rec.impulses_applied
        buf = io.StringIO(newline="\n")
        rec.to_csv(buf, {"config_hash": chash, "seed": 8, "path_index": i, "t0": "0.0",
                         "x0": repr(x0), "default_time": repr(rec.default_time),
                         "realized_cost": repr(rec.realized_cost)})
        assert (out / f"path_{i:03d}.csv").read_bytes() == buf.getvalue().encode()


def test_simulate_feedback_surface_roundtrip(tmp_path):
    grid_flags = ["--nx", "81", "--nt", "40"]
    sol = tmp_path / "sol"
    rc = cli.main(["solve", "--spec", "fixture:intervention",
                   "--out", str(sol)] + grid_flags)
    assert rc == 0
    common = ["simulate", "--spec", "fixture:intervention", "--seed", "4",
              "--paths", "400", "--dt", "0.02", "--x0", "0.15",
              "--policy", "feedback"] + grid_flags
    fresh, loaded = tmp_path / "fresh", tmp_path / "loaded"
    assert cli.main(common + ["--out", str(fresh)]) == 0
    assert cli.main(common + ["--out", str(loaded), "--surface", str(sol)]) == 0
    a = read_json(fresh / "mc_report.json")
    b = read_json(loaded / "mc_report.json")
    assert a["control"]["source"] == "solved"
    assert b["control"]["source"] == "loaded-surface"
    # repr round-trip through the CSV is exact, so the policies coincide
    assert a["reduction"] == b["reduction"]


# ----------------------------------------------------------------- converge


def test_converge_writes_ladder(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["converge", "--spec", "fixture:closed-form", "--out", str(out),
                   "--nx", "31", "--nt", "25", "--levels", "3"])
    assert rc == 0
    payload = read_json(out / "convergence.json")
    study = payload["study"]
    assert [row["n_t"] for row in study["rows"]] == [25, 50, 100]
    assert len(study["ratios"]) == 1
    assert 1.6 <= study["ratios"][0] <= 2.4
    assert len(study["reference_errors"]) == 3
    txt = (out / "convergence.txt").read_text()
    assert txt.startswith("# config_hash=")
    assert "ratios=" in txt


def test_converge_zero_fixture_inf_ratio_serializes(tmp_path):
    out = tmp_path / "o"
    rc = cli.main(["converge", "--spec", "fixture:zero", "--out", str(out),
                   "--nx", "21", "--nt", "10", "--levels", "3"])
    assert rc == 0
    study = read_json(out / "convergence.json")["study"]
    assert study["ratios"] == ["inf"]  # strict JSON: non-finite as repr text


# (report stem, whether it has a .txt, seed, argv) per subcommand, on tiny grids
_REPORTS = {
    "solve": ("summary", False, 5, ["--spec", "fixture:zero", "--nx", "21", "--nt", "10",
                                    "--seed", "5"]),
    "simulate": ("mc_report", False, 7, ["--spec", "fixture:geometric", "--seed", "7",
                                         "--paths", "200", "--dt", "0.05",
                                         "--record-paths", "1"]),
    "validate": ("validation", True, 0, ["--spec", "fixture:intervention", "--nx", "21"]),
    "check": ("checks", True, 9, ["--spec", "fixture:zero", "--nx", "21", "--nt", "10",
                                  "--seed", "9"]),
    "converge": ("convergence", True, 0, ["--spec", "fixture:closed-form", "--nx", "21",
                                          "--nt", "10", "--levels", "2"]),
}


@pytest.mark.parametrize("command", sorted(_REPORTS))
def test_every_report_carries_the_run_header(tmp_path, command):
    stem, has_txt, seed, flags = _REPORTS[command]
    argv = [command] + flags + ["--out", str(tmp_path)]
    chash = cli._build_config(cli._build_parser().parse_args(argv)).config_hash()
    assert cli.main(argv) == 0
    payload = read_json(tmp_path / f"{stem}.json")
    assert {k: payload[k] for k in ("command", "config_hash", "seed", "spec_source")} == {
        "command": command, "config_hash": chash, "seed": seed, "spec_source": flags[1]}
    txt = tmp_path / f"{stem}.txt"
    assert txt.exists() == has_txt
    if has_txt:
        assert txt.read_text().splitlines()[:3] == [
            f"# config_hash={chash}", f"# seed={seed}", f"# {cli._DOMAIN_NOTE}"]


# ------------------------------------------------------------ repeatability


def test_reruns_are_byte_identical(tmp_path):
    def run_twice(cmd, extra):
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{cmd}_{tag}"
            rc = cli.main([cmd, "--out", str(out)] + extra)
            assert rc == 0
            dirs.append(out)
        return dirs

    jobs = [
        ("solve", ["--spec", "fixture:zero", "--nx", "31", "--nt", "10"]),
        ("simulate", ["--spec", "fixture:geometric", "--seed", "7",
                      "--paths", "300", "--dt", "0.02", "--record-paths", "1"]),
        ("converge", ["--spec", "fixture:closed-form", "--nx", "31",
                      "--nt", "25", "--levels", "2"]),
    ]
    for cmd, extra in jobs:
        d1, d2 = run_twice(cmd, extra)
        names = sorted(p.name for p in d1.iterdir())
        assert names == sorted(p.name for p in d2.iterdir())
        for name in names:
            assert filecmp.cmp(d1 / name, d2 / name, shallow=False), (cmd, name)


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "impulse_qvi.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for word in ("solve", "simulate", "validate", "check", "converge"):
        assert word in proc.stdout


def test_cli_import_and_validate_leave_scipy_unloaded(tmp_path):
    # neither SciPy nor numpy.ma (which np.unique imports) is loaded by the
    # package: not on import, validate, solve (with its boundary.csv) or
    # converge
    code = ("import sys; from impulse_qvi import cli; out = sys.argv[1]; "
            "rcs = [cli.main(['validate', '--spec', 'fixture:intervention', '--out', out + '/v']), "
            "cli.main(['solve', '--spec', 'fixture:intervention', '--nx', '41', '--nt', '10', "
            "'--out', out + '/s']), "
            "cli.main(['converge', '--spec', 'fixture:closed-form', '--nx', '31', '--nt', '10', "
            "'--levels', '2', '--out', out + '/c'])]; "
            "print(*rcs, 'scipy' in sys.modules, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-5:] == ["0", "0", "0", "False", "False"]
    assert (tmp_path / "s" / "boundary.csv").is_file()


def test_dgttrs_binds_on_the_first_sweep_only(tmp_path):
    # the LAPACK binding waits for the first sweep's step plan: import,
    # validate and a Monte Carlo run without a solve leave it unbound, so
    # start-up and the simulate-only jobs never pay for it
    code = ("import sys; from impulse_qvi import cli, solver; out = sys.argv[1]; "
            "bound = lambda: solver._dgttrs.cache_info().currsize; seen = [bound()]; "
            "cli.main(['validate', '--spec', 'fixture:intervention', '--out', out + '/v']); "
            "cli.main(['simulate', '--spec', 'fixture:geometric', '--seed', '1', '--paths', '64', "
            "'--dt', '0.05', '--out', out + '/m']); seen.append(bound()); "
            "cli.main(['solve', '--spec', 'fixture:intervention', '--nx', '41', '--nt', '10', "
            "'--out', out + '/s']); seen.append(bound()); print(*seen)")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-3:] == ["0", "0", "1"]


def test_installed_entry_point():
    proc = subprocess.run(["impulse-qvi", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
