"""Command-line front end: exit codes, artifact contents, reproducibility."""

import contextlib
import filecmp
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from impulse_qvi import cli
from impulse_qvi.diagnostics import CheckReport, ConvergenceStudy
from impulse_qvi.dynamics import (FeedbackPolicy, ImpulseEvent, ImpulseSchedule, MCEstimate,
                                  PathBatch, PathRecord, ReductionReport, simulate)
from impulse_qvi.fixtures import FIXTURES, closed_form_spec, geometric_spec, intervention_spec
from impulse_qvi.model import CheckEntry, CostParams, Curve, UtilitySpec, ValidationReport
from impulse_qvi.solver import Grid, ValueSurface, read_surface_csv, write_csv

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
    known = sorted(FIXTURES)
    assert capsys.readouterr().err == f"error: unknown fixture 'bogus'; known: {known}\n"


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


def test_two_paths_give_a_standard_error(tmp_path):
    # --paths 1 exits 2 (test_flag_outside_its_domain_exits_2); two paths
    # are the smallest sample, and give finite standard errors
    rc = cli.main(["simulate", "--spec", "fixture:geometric", "--seed", "1", "--paths", "2",
                   "--dt", "0.1", "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "mc_report.json").read_text())["reduction"]
    assert all(math.isfinite(rep[k]["std_error"]) for k in ("cost_g", "cost_f"))


_SOLVE = ["solve", "--spec", "fixture:zero", "--nx", "21", "--nt", "10"]
_SIMULATE = ["simulate", "--spec", "fixture:geometric", "--seed", "1", "--paths", "50"]


@pytest.mark.parametrize("argv, flag, value", [
    *[(argv, flag, value) for argv, flags in (
        (_SOLVE, ("--xmin", "--xmax", "--tol-inner", "--eps-region")),
        (_SIMULATE, ("--dt", "--t0", "--x0")))
      for flag in flags for value in ("inf", "nan")],
    (_SIMULATE, "--paths", "0"), (_SIMULATE, "--dt", "0"), (_SOLVE, "--tol-inner", "0"),
    (_SIMULATE, "--record-paths", "-1"), (_SOLVE, "--nx", "0"), (_SOLVE, "--xmin", "0"),
    (["converge", "--spec", "fixture:closed-form", "--nx", "21", "--nt", "10"], "--levels", "1"),
    (_SIMULATE, "--paths", "1"),  # one path has no standard error
])
def test_flag_outside_its_domain_exits_2(tmp_path, capsys, argv, flag, value):
    # a non-finite or out-of-range flag is named, before any work is done
    out = tmp_path / "o"
    assert cli.main(argv + [flag, value, "--out", str(out)]) == 2
    assert f"error: argument {flag}: expected " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--xmin", "5", "--xmax", "4"], "need x_min < x_max"),
    (["--nx", "2"], "need n_x >= 3, n_t >= 1"),
])
def test_grid_refusal_exits_2(tmp_path, flags, message):
    # each flag is in its domain, but the grid they make is not
    out = tmp_path / "o"
    assert _main_stderr(["solve", "--spec", "fixture:zero", "--out", str(out)] + flags) \
        == (2, f"error: {message}\n")
    assert not out.exists()


def test_inadmissible_schedule_exits_2(tmp_path, capsys):
    sched = tmp_path / "sched.json"
    sched.write_text("[[0.2, 99.0]]")  # size far above k_max
    rc = cli.main(["simulate", "--spec", "fixture:geometric",
                   "--out", str(tmp_path / "o"), "--seed", "1",
                   "--policy", "schedule", "--schedule", str(sched)])
    assert rc == 2
    assert "inadmissible schedule" in capsys.readouterr().err


@pytest.mark.parametrize("text, reason", [
    ("[[NaN, 0.3]]", "entry 0 time must be finite, not nan"),
    ("[[0.5, NaN]]", "entry 0 size must be finite, not nan"),
    ("[[0.5, true]]", "entry 0 size must be a number, not bool"),
    ("[[true, 0.3]]", "entry 0 time must be a number, not bool"),
    ("[[0.2, 0.3], [0.5]]", "entry 1 must be a [time, size] pair, not [0.5]"),
    ("[[0.2, 0.3]", "is not valid JSON"),
    ('{"0.5": 0.3}', "must be a list of [time, size] pairs"),
], ids=["nan-time", "nan-size", "bool-size", "bool-time", "short-pair", "malformed", "object"])
def test_bad_schedule_entry_exits_2(tmp_path, capsys, text, reason):
    # a schedule entry is a pair of finite JSON numbers; anything else is
    # named with its file, where NaN was dropped and true read as 1.0
    sched = tmp_path / "sched.json"
    sched.write_text(text)
    out = tmp_path / "o"
    rc = cli.main(["simulate", "--spec", "fixture:geometric", "--out", str(out), "--seed", "1",
                   "--policy", "schedule", "--schedule", str(sched)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: schedule {sched} ") and reason in err
    assert not out.exists()


@pytest.mark.parametrize("command, advice", [("solve", "use a smaller --xmax"),
                                             ("simulate", "use a larger --dt")])
def test_uncountable_grid_exits_2(tmp_path, capsys, command, advice):
    # a finite --xmax or T so large that the suggested --nx or the Euler step
    # count is inf ended in an OverflowError traceback; the flag is named
    argv = ["solve", "--spec", "fixture:zero", "--xmax", "1e308"]
    if command == "simulate":
        path = tmp_path / "spec.json"
        replace(geometric_spec(), T=1e308).to_json(path)
        argv = ["simulate", "--spec", str(path), "--seed", "1", "--dt", "1e-10"]
    assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert advice in capsys.readouterr().err


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


_DROP = object()  # the value that deletes a key


def _validate_edited_spec(tmp_path, key, value, command="validate", flags=("--nx", "21")):
    """Exit code of validate (or command, with flags) on intervention's spec
    with the value at the dotted key path set to value, or the key deleted
    for _DROP ("" replaces the whole spec)."""
    spec = intervention_spec().to_dict()
    if key:
        *parents, leaf = key.split(".")
        level = spec
        for name in parents:
            level = level[name]
        if value is _DROP:
            del level[leaf]
        else:
            level[leaf] = value
    else:
        spec = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return cli.main([command, "--spec", str(path), "--out", str(tmp_path / "o"), *flags])


# one per level; beta is a constant curve, which has no rate
@pytest.mark.parametrize("key", ["lamda", "costs.kapa", "beta.rate", "utilities.f.levl",
                                 "utilities.f_bound"])
def test_unread_spec_key_exits_2(tmp_path, capsys, key):
    # a key that nothing reads, at any level of the spec, is named by its
    # path instead of being silently ignored
    assert _validate_edited_spec(tmp_path, key, 1.0) == 2
    assert f"unknown spec key {key}" in capsys.readouterr().err


_KINDS = "must be one of constant, table, saturating, not"


@pytest.mark.parametrize("key, value, reason", [
    ("costs.kappa", _DROP, "missing spec key costs.kappa"),
    ("utilities.g2.y", _DROP, "missing spec key utilities.g2.y"),
    ("utilities.f.kind", _DROP, "missing spec key utilities.f.kind"),
    # a saturating curve's rate and scale are read like any other key
    ("utilities.f.rate", _DROP, "missing spec key utilities.f.rate"),
    ("utilities.g1.scale", _DROP, "missing spec key utilities.g1.scale"),
    ("utilities.g2.x", 5, "spec key utilities.g2.x must be a list of numbers, not int"),
    ("utilities.g2.y", {"a": 1}, "spec key utilities.g2.y must be a list of numbers, not dict"),
    ("utilities.g1.kind", ["table"], f"spec key utilities.g1.kind {_KINDS} ['table']"),
    ("utilities.f.kind", 3, f"spec key utilities.f.kind {_KINDS} 3"),
    ("lambda", {"kind": "saturating", "level": 1.0, "rate": 1.0, "scale": 1.0},
     "lambda must be a constant or table curve"),
    ("utilities.g2.x", [0.0, 1.0, 0.5, 2.0, 4.0],
     "spec curve utilities.g2: table abscissae must be strictly increasing"),
], ids=["costs-kappa", "table-y", "curve-kind", "saturating-rate", "saturating-scale",
        "table-x-number", "table-y-object", "kind-list", "kind-number", "saturating-lambda",
        "table-x-order"])
def test_spec_refusal_names_its_key(tmp_path, capsys, key, value, reason):
    # a refusal names the dotted key, which a bare key such as 'y' or a
    # Python type error does not locate in a nested spec
    assert _validate_edited_spec(tmp_path, key, value) == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("c1", True), ("beta.value", False),
                                        ("utilities.g2.y", [0.9, 0.5, True, 0.1, 0.0])],
                         ids=["top-level", "curve-field", "table-entry"])
def test_boolean_for_a_number_exits_2(tmp_path, capsys, key, value):
    # JSON true/false read as 1.0/0.0 and validated at the parent
    assert _validate_edited_spec(tmp_path, key, value) == 2
    assert f"spec key {key} must be a number, not bool" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("T", float("inf")), ("beta.value", float("inf")),
                                        ("utilities.f.level", float("nan")),
                                        ("utilities.g2.y", [0.9, 0.5, float("-inf"), 0.1, 0.0])],
                         ids=["top-level", "curve-field", "saturating-level", "table-entry"])
@pytest.mark.parametrize("command", ["validate", "solve"])
def test_non_finite_spec_number_exits_2(tmp_path, capsys, key, value, command):
    # Python's json reads NaN, Infinity and -Infinity, which no spec number
    # may be; the key path is named
    assert _validate_edited_spec(tmp_path, key, value, command) == 2
    assert f"spec key {key} must be finite, not " in capsys.readouterr().err


_SMALL_SOLVE = ("--nx", "41", "--nt", "4")


def test_overflowing_projection_cap_exits_2(tmp_path, capsys):
    # T = 1e308 keeps C1 finite (9.96e307), but (C1 - min v) / kappa is
    # inf; math.ceil of it was an OverflowError traceback (exit 1)
    assert _validate_edited_spec(tmp_path, "T", 1e308, "solve", _SMALL_SOLVE) == 2
    err = capsys.readouterr().err
    assert "the projection cap (M - min v) / kappa is not finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("key, value, bound", [
    ("utilities.f.level", 1e308, "the bound C1 = T * max(f - beta g2) + max(0, sup g1) is inf"),
    ("utilities.g2.y", [0.9, 0.55, 0.3, 1e308, 0.01], "the projection cap (M - min v) / kappa"),
    ("utilities.g2.y", [0.9, 0.55, 0.3, -1e308, 0.01], "the projection cap (M - min v) / kappa"),
], ids=["f-level", "g2-entry-up", "g2-entry-down"])
def test_nan_projection_cap_exits_2(tmp_path, capsys, key, value, bound):
    # finite spec numbers whose sweep leaves C1 infinite or a slice NaN:
    # the cap was math.ceil(nan), reported as "cannot convert float NaN to
    # integer", which named no bound
    assert _validate_edited_spec(tmp_path, key, value, "solve", _SMALL_SOLVE) == 2
    err = capsys.readouterr().err
    assert bound in err and "NaN to integer" not in err


def test_infinite_c1_with_certified_projections_still_solves(tmp_path):
    # C1 = 2 * 1e308 overflows, but V stays near f / beta and every slice's
    # projection is certified away, so no cap is needed and the run solves
    spec = replace(intervention_spec(), T=1e308, beta=Curve.constant(10.0),
                   utilities=intervention_spec().utilities._replace(
                       f=Curve.constant(2.0), g1=Curve.constant(0.0), g2=Curve.constant(0.0)))
    spec.to_json(tmp_path / "spec.json")
    assert cli.main(["solve", "--spec", str(tmp_path / "spec.json"), "--out",
                     str(tmp_path / "o"), *_SMALL_SOLVE]) == 0
    assert read_json(tmp_path / "o" / "summary.json")["c1_bound"] == "inf"


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


# one leaf of a spec or schedule file set to a value no number may take
# (exit 2, naming the file), or to a finite extreme, which may solve or
# fail in any of the CLI's ways (exit 0 to 3), but never escape main
_NOT_NUMBERS = (True, False, "0.5", None, math.nan, math.inf, -math.inf, [0.5], {"value": 0.5})
_EXTREMES = (1e308, -1e308)


def _leaves(node, path=()):
    """(path, value) of every scalar in a JSON document."""
    if not isinstance(node, (dict, list)):
        return [(path, node)]
    items = node.items() if isinstance(node, dict) else enumerate(node)
    return [leaf for key, child in items for leaf in _leaves(child, path + (key,))]


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def _mutations(draw, doc):
    """(edited copy of doc, whether it must exit 2, what was done): one leaf
    set, or one key added to or dropped from the object or pair holding a
    leaf."""
    doc = json.loads(json.dumps(doc))
    path, _ = draw(st.sampled_from(_leaves(doc)))
    parent, key = _at(doc, path[:-1]), path[-1]
    how = draw(st.sampled_from(("set", "add", "drop")))
    if how == "set":
        value = draw(st.sampled_from(_NOT_NUMBERS + _EXTREMES))
        parent[key] = value
        return doc, value not in _EXTREMES, (path, value)
    if how == "add":
        if isinstance(parent, dict):
            parent["extra"] = 1.0
        else:
            parent.append(1.0)
        return doc, True, (path[:-1], "added")
    del parent[key]
    return doc, True, (path, "dropped")


def _exits_as_it_must(path, mutation, argv):
    doc, must_refuse, what = mutation
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    rc, err = _main_stderr(argv)
    if must_refuse:
        assert rc == 2 and str(path) in err, (what, rc, err)
    else:
        assert rc in (0, 1, 2, 3), (what, rc, err)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflow at +-1e308
@settings(max_examples=150, deadline=None)
@given(mutation=_mutations(intervention_spec().to_dict()),
       flags=st.sampled_from([("validate", "--nx", "21"), ("solve", *_SMALL_SOLVE)]))
@example(mutation=({**intervention_spec().to_dict(), "T": 1e308}, False, (("T",), 1e308)),
         flags=("solve", *_SMALL_SOLVE))
def test_mutated_spec_exits_as_it_must(mutation, flags):
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "spec.json")
        _exits_as_it_must(spec, mutation, [*flags, "--spec", spec, "--out", tmp + "/o"])


@settings(max_examples=60, deadline=None)
@given(mutation=_mutations([[0.2, 0.3], [0.5, 0.4]]))
def test_mutated_schedule_exits_as_it_must(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        sched = os.path.join(tmp, "sched.json")
        _exits_as_it_must(sched, mutation, [
            "simulate", "--spec", "fixture:geometric", "--seed", "1", "--paths", "64",
            "--record-paths", "0", "--policy", "schedule", "--schedule", sched,
            "--out", tmp + "/o"])


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
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["bogus"], []], ids=["unknown-subcommand", "no-subcommand"])
def test_top_level_usage_error_returns_2(capsys, argv):
    # main returns 2 for a bad command line; it does not raise SystemExit
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


# the shared flags each subcommand does not read
_UNREAD = {
    "solve": ["--paths", "--dt", "--t0", "--x0"],
    "validate": ["--nt", "--paths", "--dt", "--tol-inner", "--eps-region", "--t0", "--x0"],
    "check": ["--paths", "--dt", "--t0", "--x0"],
    "converge": ["--paths", "--dt", "--eps-region", "--t0", "--x0"],
    "simulate": [],
}


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in _UNREAD.items() for f in flags])
def test_each_unread_flag_is_rejected(command, flag):
    with pytest.raises(cli.UsageError, match=f"unrecognized arguments: {flag} 1$"):
        cli._build_parser().parse_args([command, "--spec", "fixture:zero", "--out", "o",
                                        "--seed", "1", flag, "1"])


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


@pytest.fixture(scope="module")
def intervention_surface(tmp_path_factory):
    """A solve output on the intervention fixture's own 401 x 201 grid."""
    sol = tmp_path_factory.mktemp("intervention")
    assert cli.main(["solve", "--spec", "fixture:intervention", "--out", str(sol)]) == 0
    return sol


def test_surface_hash_memory(intervention_surface):
    # traced peak of hashing the intervention fixture's surface (5.9 MB):
    # a few blocks, never the file, and each block below glibc's initial
    # 128 KiB mmap threshold (1 MiB blocks peaked at 2.01 MiB here)
    cfg = cli._build_config(cli._build_parser().parse_args(
        ["check", "--spec", "fixture:intervention", "--seed", "3",
         "--surface", str(intervention_surface), "--out", "o"]))
    tracemalloc.start()
    try:
        digest = cfg.hash_payload()["surface_sha256"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    whole = (intervention_surface / "surface.csv").read_bytes()
    assert digest == hashlib.sha256(whole).hexdigest()
    assert cli._HASH_BLOCK < 2**17 and peak < 4 * cli._HASH_BLOCK, peak / 2**20


# A child's ru_maxrss counts the pages it shares with its parent until it
# execs, so each child is started by a small launcher process, not by pytest.
_LAUNCH = ("import os, subprocess, sys; "
           "proc = subprocess.Popen(sys.argv[1:], stdin=subprocess.DEVNULL, "
           "stdout=subprocess.DEVNULL); "
           "_, status, usage = os.wait4(proc.pid, 0); "
           "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")


def _peak_rss_mb(args):
    """Least peak RSS (ru_maxrss / 1024) of two child runs of python3 ARGS.
    The children write and read byte code, as installed packages do:
    compiling the package from source moves a peak by 1-2 MB."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    peaks = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-c", _LAUNCH, sys.executable, *args], env=env,
                              capture_output=True, text=True, timeout=120)
        rc, kib = proc.stdout.split()
        assert rc == "0", proc.stderr
        peaks.append(int(kib) / 1024.0)
    return min(peaks)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is counted in KiB on Linux only")
def test_surface_reuse_peak_rss(tmp_path, intervention_surface):
    # the reuse job's two steps on the intervention fixture's surface, each
    # in a fresh child, peak at most 6.5 MB above a child that only imports
    # the CLI: the surface's hash and read blocks stay below glibc's 128 KiB
    # mmap threshold, and the obstacle check builds no array as large as V
    # (1 MiB hash blocks, 16-slice read blocks and a stacked check read +8.2
    # and +7.6 MB)
    base = _peak_rss_mb(["-c", "import impulse_qvi.cli"])
    common = ["--spec", "fixture:intervention", "--seed", "5", "--surface",
              str(intervention_surface)]
    simulate = _peak_rss_mb(["-m", "impulse_qvi.cli", "simulate", *common, "--policy", "feedback",
                             "--x0", "0.15", "--paths", "20000", "--dt", "0.01",
                             "--out", str(tmp_path / "m")])
    check = _peak_rss_mb(["-m", "impulse_qvi.cli", "check", *common,
                          "--out", str(tmp_path / "c")])
    assert simulate - base <= 6.5 and check - base <= 6.5, (base, simulate, check)


def _cli_within_512_mb(argv, timeout=120):
    """The CLI run in a child process under a 512 MB address-space limit."""
    limit = 512 << 20
    return subprocess.run(
        [sys.executable, "-m", "impulse_qvi.cli"] + argv,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("argv", [
    ["solve", "--spec", "fixture:intervention", "--nt", "1000000000"],
    ["simulate", "--spec", "fixture:geometric", "--seed", "1", "--dt", "1e-8"],
], ids=["solve-nt", "simulate-dt"])
def test_request_beyond_the_memory_limit_exits_2(tmp_path, argv):
    # under a 512 MB address-space limit each request fails its first large
    # allocation (solve's V, 2.92 TiB, and 763 MiB), so the child never
    # holds much
    proc = _cli_within_512_mb(argv + ["--out", str(tmp_path)])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: out of memory (Unable to allocate ")
    assert "--nt" in proc.stderr and "--dt" in proc.stderr


def test_deep_ladder_is_not_refused_for_memory(tmp_path):
    # a ladder holds a few rows of n_x per level whatever its n_t, so a
    # request far too deep to finish (1e11 steps) fits under the 512 MB
    # limit and runs until the timeout stops it; a t-node array per level
    # failed it at once, on 745 GiB.  Refusing it up front needs a time
    # budget, not a memory one (ROADMAP E), and would exit 2 here
    with pytest.raises(subprocess.TimeoutExpired):
        _cli_within_512_mb(["converge", "--spec", "fixture:closed-form", "--nx", "41",
                            "--nt", "100000000000", "--levels", "2", "--out", str(tmp_path)],
                           timeout=3)


def test_ten_million_paths_fit_in_512_mb(tmp_path):
    # each chunk is reduced as it finishes, so the path count sets no array
    # length: under the same 512 MB limit, ten million paths run to the end
    proc = _cli_within_512_mb(["simulate", "--spec", "fixture:geometric", "--seed", "1",
                               "--paths", "10000000", "--dt", "1", "--record-paths", "1",
                               "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    assert read_json(tmp_path / "mc_report.json")["reduction"]["n_paths"] == 10_000_000


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


def test_terminal_impulse_between_k_samples_is_refused(tmp_path):
    # g1 has a 0.002-wide tent at 1.114, which a jump of K = 0.114 from
    # x = 1 reaches: validate fails it and solve refuses the spec
    spec = replace(closed_form_spec(), costs=CostParams(kappa=0.05, k_min=0.1, k_max=1.0))
    g1 = Curve.table([0, 0.999, 1, 1.001, 1.049, 1.05, 1.113, 1.114, 1.115, 10],
                     [0, 0, -1, 0, 0, -1, -1, 0, -1, -1])
    spec = replace(spec, utilities=spec.utilities._replace(g1=g1))
    spec.to_json(tmp_path / "tent.json")
    argv = ["--spec", str(tmp_path / "tent.json"), "--out", str(tmp_path / "o")]
    assert cli.main(["validate"] + argv) == 1
    entry = [e for e in read_json(tmp_path / "o" / "validation.json")["report"]["entries"]
             if e["name"] == "no_terminal_impulse"][0]
    assert entry["passed"] is False and entry["value"] == pytest.approx(-0.836, abs=1e-12)
    assert cli.main(["solve"] + argv) == 2


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
    # V and IV swapped in the column line: read by position, IV would pass for V
    ("check", "fixture:intervention", [],
     lambda text: text.replace("\nt,x,V,IV,label,xi0\n", "\nt,x,IV,V,label,xi0\n", 1),
     "surface column line is 't,x,IV,V,label,xi0', not 't,x,V,IV,label,xi0'"),
], ids=["spec-mismatch", "conflicting-nx", "conflicting-tol-inner", "missing-row",
        "no-header", "unknown-label", "xi0-on-continuation", "swapped-columns"])
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


def test_surface_header_grid_beyond_its_file_exits_2(tmp_path, small_surface):
    # n_x = 1e12 asks for a 41 x 1e12 grid, 7.28 TiB per array, where the
    # file holds 3,321 rows: the file's size refutes the header before any
    # allocation, so the reason is the file's, not out of memory
    sol = tmp_path / "sol"
    sol.mkdir()
    text = (small_surface / "surface.csv").read_text()
    (sol / "surface.csv").write_text(text.replace("# n_x=81\n", "# n_x=1000000000000\n", 1))
    proc = _cli_within_512_mb(["check", "--spec", "fixture:intervention", "--seed", "3",
                               "--surface", str(sol), "--out", str(tmp_path / "o")])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: cannot load {sol / 'surface.csv'}: rows do not fill "
                                  "the 41x1000000000000 (t, x) grid of the header")


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


def _main_stderr(argv):
    """cli.main's exit code and stderr text; an exception escapes."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue()


def _loads_surface(sol, out):
    """Both subcommands that read sol/surface.csv, as (exit code, stderr)."""
    common = ["--spec", "fixture:intervention", "--seed", "3", "--surface", sol]
    return [_main_stderr(["check", "--out", os.path.join(out, "check")] + common),
            _main_stderr(["simulate", "--out", os.path.join(out, "simulate"), "--policy",
                          "feedback", "--paths", "64", "--x0", "0.15"] + common)]


# values outside every domain of a surface number; each edit sets one
# header key or one data cell of the small intervention surface (T = 2,
# 41 x 81 nodes, k_min 0.1, k_max 1.5) to a value the reader must refuse
_NOT_FINITE = st.sampled_from(["nan", "inf", "-inf", "abc", ""])
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _count_other_than(value):
    return st.one_of(st.sampled_from(["1.5", f"{value}.0"]),
                     st.integers(-3, 200).filter(lambda v: v != value).map(str))


_HEADER_EDITS = {
    "T": st.one_of(_NOT_FINITE, _FINITE.filter(lambda v: v != 2.0).map(repr)),
    "x_min": st.one_of(_NOT_FINITE, _FINITE.filter(lambda v: v != 0.1).map(repr)),
    "x_max": st.one_of(_NOT_FINITE, _FINITE.filter(lambda v: v != 4.1).map(repr)),
    "n_x": st.one_of(_NOT_FINITE, _count_other_than(81)),
    "n_t": st.one_of(_NOT_FINITE, _count_other_than(40)),
    "eps_region": _NOT_FINITE,
    "tol_inner": st.one_of(_NOT_FINITE, st.floats(max_value=0.0, allow_nan=False).map(repr)),
    "spec_sha256": st.text("0123456789abcdef", max_size=64),
}
_CELL_EDITS = {
    "t": _FINITE, "x": _FINITE, "V": _NOT_FINITE, "IV": _NOT_FINITE,
    "xi0": st.one_of(_NOT_FINITE,
                     st.floats(max_value=0.1, exclude_max=True, allow_nan=False).map(repr),
                     st.floats(min_value=1.5, exclude_min=True, allow_nan=False).map(repr)),
}
_COLUMNS = ("t", "x", "V", "IV", "label", "xi0")


@st.composite
def _surface_edits(draw):
    """(header key, None, text) or (data row index, column, text): one edit.
    A t or x cell takes a finite value other than its own, and an xi0 edit
    goes to the action row at or after the drawn one (wrapping around)."""
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(_HEADER_EDITS)))
        return key, None, draw(_HEADER_EDITS[key])
    column = draw(st.sampled_from(sorted(_CELL_EDITS)))
    return draw(st.integers(0, 41 * 81 - 1)), column, draw(_CELL_EDITS[column])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(edit=_surface_edits())
@example(edit=(100, "xi0", "abc"))
def test_surface_out_of_domain_exits_2(small_surface, edit):
    # one header key or data cell out of its domain: check and simulate
    # both exit 2 and name the file, and a V, IV or xi0 cell its data row;
    # no exception escapes main
    where, column, value = edit
    lines = (small_surface / "surface.csv").read_text().splitlines()
    first = lines.index(",".join(_COLUMNS)) + 1
    if column is None:
        at = [ln.startswith(f"# {where}=") for ln in lines].index(True)
        lines[at] = f"# {where}={value}"
    else:
        at = first + where
        if column == "xi0":
            actions = [i for i, ln in enumerate(lines) if ",action," in ln]
            at = next((i for i in actions if i >= at), actions[0])
        fields = lines[at].split(",")
        if column in ("t", "x"):
            assume(value != float(fields[_COLUMNS.index(column)]))
            value = repr(value)
        fields[_COLUMNS.index(column)] = value
        lines[at] = ",".join(fields)
    with tempfile.TemporaryDirectory() as tmp:
        sol = os.path.join(tmp, "sol")
        os.mkdir(sol)
        with open(os.path.join(sol, "surface.csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        for rc, err in _loads_surface(sol, tmp):
            assert rc == 2 and sol in err, (edit, rc, err)
            if column in ("V", "IV", "xi0"):
                assert f"surface data row {at - first + 1} " in err, (edit, err)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_solved_surface_loads_on_every_fixture(tmp_path, name):
    # the round trip: no surface that solve writes is refused
    sol = tmp_path / "sol"
    assert cli.main(["solve", "--spec", f"fixture:{name}", "--out", str(sol), "--nt", "20"]) == 0
    common = ["--spec", f"fixture:{name}", "--seed", "3", "--surface", str(sol)]
    rc, err = _main_stderr(["check", "--out", str(tmp_path / "check")] + common)
    assert rc in (0, 1) and not err, err
    rc, err = _main_stderr(["simulate", "--out", str(tmp_path / "simulate"), "--policy",
                            "feedback", "--paths", "64"] + common)
    assert rc == 0 and not err, err


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
        control = FeedbackPolicy(read_surface_csv(small_surface / "surface.csv"))
    out = tmp_path / "o"
    rc = cli.main(["simulate", "--spec", f"fixture:{name}", "--out", str(out), "--seed", "8",
                   "--paths", "50", "--dt", "0.02", "--x0", repr(x0), "--policy", policy, "--record-paths", "3"] + flags)
    assert rc == 0
    chash = read_json(out / "mc_report.json")["config_hash"]
    for i in range(3):
        rec = simulate(spec, 0.0, x0, control, 0.02, 8, path_index=i)
        assert rec.impulses_applied
        single = tmp_path / f"single_{i}.csv"
        write_csv(single, {"config_hash": chash, "seed": 8, "path_index": i, "t0": "0.0",
                           "x0": repr(x0), "default_time": repr(rec.default_time),
                           "realized_cost": repr(rec.realized_cost)},
                  cli._PATH_COLUMNS, cli._path_rows(rec))
        assert (out / f"path_{i:03d}.csv").read_bytes() == single.read_bytes()


def test_record_csv_format(tmp_path):
    rec = simulate(geometric_spec(), 0.0, 1.0, ImpulseSchedule(np.array([0.5]), np.array([0.2])),
                   dt=0.25, seed=1)
    p = tmp_path / "path.csv"
    write_csv(p, {"seed": 1, "b": "two"}, cli._PATH_COLUMNS, cli._path_rows(rec))
    lines = p.read_text().splitlines()
    assert lines[0] == "# b=two"       # meta keys sorted
    assert lines[1] == "# seed=1"
    assert lines[2] == "time,state,impulse_flag,impulse_size"
    flagged = [ln for ln in lines[3:] if ln.split(",")[2] == "1"]
    assert len(flagged) == 1 and flagged[0].startswith("0.5,")


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


def test_feedback_from_a_state_far_above_the_grid_exits_0(tmp_path, small_surface):
    # x0 = 1e308 snaps to the surface's top node, a continuation node, so
    # nothing is injected; neither the snap nor the running utility at
    # 1e308 overflows or warns, so the run passes with warnings as errors
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["simulate", "--spec", "fixture:intervention", "--seed", "1",
                       "--policy", "feedback", "--surface", str(small_surface),
                       "--x0", "1e308", "--paths", "10", "--out", str(out)])
    assert rc == 0
    assert read_json(out / "mc_report.json")["x0"] == 1e308
    paths = sorted(out.glob("path_*.csv"))
    assert paths
    for path in paths:  # every impulse_flag is 0
        rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")][1:]
        assert rows and all(row.split(",")[2] == "0" for row in rows)


def test_feedback_lookup_skip_changes_no_artifact_byte(tmp_path, small_surface, monkeypatch):
    # FeedbackPolicy.may_act lets the Euler loop skip the policy lookup on
    # steps where no path can act; with it answering "may act" on every step
    # instead, a three-chunk feedback simulate and a surface check write the
    # same bytes
    lookups = []
    injections = FeedbackPolicy.injections
    monkeypatch.setattr(FeedbackPolicy, "injections",
                        lambda self, t, x: lookups.append(t) or injections(self, t, x))
    argv = {"simulate": ["simulate", "--spec", "fixture:intervention", "--seed", "6",
                         "--policy", "feedback", "--surface", str(small_surface), "--x0", "0.15",
                         "--paths", "9000", "--dt", "0.02"],
            "check": ["check", "--spec", "fixture:intervention", "--seed", "6",
                      "--surface", str(small_surface)]}

    def run(side):
        del lookups[:]
        hashes = {}
        for command, args in argv.items():
            out = tmp_path / side / command
            assert cli.main(args + ["--out", str(out)]) == 0
            hashes[command] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                               for p in sorted(out.iterdir())}
        return hashes, len(lookups)

    skipped, n_skipped = run("skip")
    monkeypatch.setattr(FeedbackPolicy, "may_act", lambda self, t, x: True)
    every, n_every = run("every")
    assert set(skipped["simulate"]) >= {"mc_report.json", "path_000.csv"}
    assert skipped == every
    assert 0 < n_skipped < n_every / 10  # most steps skip the lookup


@pytest.mark.parametrize("control", ["none", "schedule", "feedback"])
def test_diverging_euler_path_exits_2(tmp_path, capsys, control):
    # mu_tilde = 1e6 multiplies the ratio by 1e4 per step of 0.01, so every
    # path overflows within the horizon; the engine refuses the run rather
    # than write NaN estimates (or, with a policy, fail on a NaN's node)
    spec = tmp_path / "diverge.json"
    make_spec(c1=1.0, T=1.0, lam=0.3, mu=1e6, sigma=0.2, beta=0.3,
              f=Curve.saturating(1.0, 5.0, 1.0), g1=Curve.saturating(0.5, 1.0, 0.5), g2=0.1,
              kappa=0.04, k_min=0.1, k_max=1.5).to_json(spec)
    flags = {"none": [], "schedule": ["--schedule", str(tmp_path / "sched.json")],
             "feedback": ["--surface", str(tmp_path / "sol"), "--nx", "41", "--nt", "20"]}[control]
    if control == "schedule":
        (tmp_path / "sched.json").write_text("[[0.3, 0.5]]")
    if control == "feedback":
        assert cli.main(["solve", "--spec", str(spec), "--nx", "41", "--nt", "20",
                         "--out", str(tmp_path / "sol")]) == 0
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
        rc = cli.main(["simulate", "--spec", str(spec), "--seed", "1", "--paths", "100",
                       "--dt", "0.01", "--x0", "0.15", "--policy", control, "--out", str(out)]
                      + flags)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: an Euler path diverged: a state is ")
    assert " at t = " in err and err.endswith("; use a smaller --dt\n")
    assert not (out / "mc_report.json").exists()


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


_ENTRY = CheckEntry("lipschitz_f", True, math.inf, worst_point=(0.5, 1.0))
_ENTRY_JSON = {"name": "lipschitz_f", "passed": True, "value": "inf", "threshold": None,
               "worst_point": [0.5, 1.0], "note": ""}
_GRID_JSON = {"x_min": 0.1, "x_max": "inf", "n_x": 21, "n_t": 10}


def _constant_json(value):
    """The encoding of Curve.constant(value), a dataclass: all its fields."""
    return {"kind": "constant", "value": value, "x": None, "y": None, "level": 0.0, "rate": 1.0,
            "scale": 1.0}


# each record (NamedTuple) and each dataclass that a report or the config
# hash writes, with a non-finite float, and its encoding
_RECORDS = {
    "CheckEntry": (_ENTRY, _ENTRY_JSON),
    "ValidationReport": (ValidationReport([_ENTRY], ["w"]),
                         {"entries": [_ENTRY_JSON], "warnings": ["w"]}),
    "ReductionReport": (
        ReductionReport(MCEstimate(1.0, 0.1), MCEstimate(math.nan, 0.2), -math.inf, 0.3,
                        100, 2, False),
        {"cost_g": {"estimate": 1.0, "std_error": 0.1},
         "cost_f": {"estimate": "nan", "std_error": 0.2}, "difference": "-inf",
         "combined_se": 0.3, "n_paths": 100, "seed": 2, "passed": False}),
    "CheckReport": (
        CheckReport("bounds", False, -math.inf, 0.0, "op", "note", worst_location=(0.0, 1.5),
                    details={"c1": math.inf}),
        {"name": "bounds", "passed": False, "measured": "-inf", "threshold": 0.0,
         "operation": "op", "tolerance_note": "note", "details": {"c1": "inf"},
         "worst_location": [0.0, 1.5], "vacuous": False}),
    "ConvergenceStudy": (
        ConvergenceStudy([{"n_t": 10, "sup_diff_to_next": 0.0}], [math.inf], [math.nan]),
        {"rows": [{"n_t": 10, "sup_diff_to_next": 0.0}], "ratios": ["inf"],
         "reference_errors": ["nan"]}),
    "UtilitySpec": (
        UtilitySpec(Curve.constant(1.0), Curve.constant(0.0), Curve.constant(-math.inf)),
        {"f": _constant_json(1.0), "g1": _constant_json(0.0), "g2": _constant_json("-inf")}),
    "ValueSurface": (
        ValueSurface(Grid(0.1, math.inf, 21, 10), 1.0, [[0.0, math.nan]], None, {"tol_inner": 0.1}),
        {"grid": _GRID_JSON, "T": 1.0, "values": [[0.0, "nan"]], "iv_values": None,
         "metadata": {"tol_inner": 0.1}}),
    "PathRecord": (
        PathRecord([0.0, 1.0], [1.0, 1.2], [ImpulseEvent(0.0, 0.2, 1.0, 1.2)], math.inf, -0.5),
        {"times": [0.0, 1.0], "states": [1.0, 1.2], "default_time": "inf", "realized_cost": -0.5,
         "impulses_applied": [{"time": 0.0, "size": 0.2, "state_before": 1.0,
                               "state_after": 1.2}]}),
    "PathBatch": (
        PathBatch([0.0, 1.0], [1.1], [math.inf], [0.3], [0.4], [0.1]),
        {"times": [0.0, 1.0], "final_states": [1.1], "default_times": ["inf"], "cost_g": [0.3],
         "run_f": [0.4], "imp_f": [0.1], "histories": None, "events": None}),
    "RunConfig": (
        cli.RunConfig("solve", "fixture:zero", None, "o", Grid(0.1, math.inf, 21, 10), None,
                      (("n_x", 21),), 2, 0.01, 5, 1e-9, None, 0.0, 1.0, None, "none", None, 0,
                      2),
        {"command": "solve", "spec_source": "fixture:zero", "spec": None, "out_dir": "o",
         "grid": _GRID_JSON, "reference": None, "explicit_flags": [["n_x", 21]], "n_paths": 2,
         "dt": 0.01, "seed": 5, "tol_inner": 1e-9, "eps_region": None, "t0": 0.0, "x0": 1.0,
         "schedule": None, "policy": "none", "surface_path": None, "record_paths": 0,
         "levels": 2}),
    "Grid": (Grid(0.1, math.inf, 21, 10), _GRID_JSON),
    "CostParams": (CostParams(0.05, 0.1, math.inf), {"kappa": 0.05, "k_min": 0.1, "k_max": "inf"}),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_encoder_writes_a_record_as_its_fields(name):
    # a record's JSON keys are its _fields, a dataclass's its field names, an
    # MCEstimate is a dict, a tuple a list, and a non-finite float its repr
    # string
    record, expected = _RECORDS[name]
    encoded = cli._sanitize(record)
    names = [f.name for f in fields(record)] if is_dataclass(record) else record._fields
    assert list(encoded) == list(names)
    assert encoded == expected
    json.dumps(encoded, allow_nan=False)


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


# the CSV artifacts of each subcommand that writes any, on the argv of _REPORTS
_CSV_ARTIFACTS = {
    "solve": {"surface.csv": "t,x,V,IV,label,xi0", "boundary.csv": "component,t,boundary_x",
              "policy.csv": "t,x,xi0"},
    "simulate": {"path_000.csv": "time,state,impulse_flag,impulse_size"},
}


@pytest.mark.parametrize("command", sorted(_CSV_ARTIFACTS))
def test_every_csv_carries_the_run_header(tmp_path, command):
    # sorted `# key=value` lines with the config hash and the seed, then
    # the column line
    _, _, seed, flags = _REPORTS[command]
    argv = [command] + flags + ["--out", str(tmp_path)]
    chash = cli._build_config(cli._build_parser().parse_args(argv)).config_hash()
    assert cli.main(argv) == 0
    for name, columns in _CSV_ARTIFACTS[command].items():
        lines = (tmp_path / name).read_text(encoding="utf-8").splitlines()
        n = next(i for i, line in enumerate(lines) if not line.startswith("# "))
        meta = dict(line[2:].partition("=")[::2] for line in lines[:n])
        assert list(meta) == sorted(meta), name
        assert (meta["config_hash"], meta["seed"]) == (chash, str(seed)), name
        assert lines[n] == columns, name


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
