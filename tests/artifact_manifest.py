"""The sha256 of every artifact of a fixed list of CLI runs.

`artifact_manifest.json`, beside this file, holds each run of RUNS with
its exit code and the sha256 of each file it writes, and the numpy
version, Python version and machine it was made on.
`test_artifact_manifest.py` reruns the list in process through `cli.main`
and compares the digests with the file, so a change that moves any
artifact byte names the artifact.

A change that moves numbers on purpose regenerates the file and names each
moved artifact, and why it moved, in CHANGES.md:

    PYTHONPATH=src python3 tests/artifact_manifest.py --write

Without --write the script only prints the moved digests, and exits 1 if
any moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "artifact_manifest.json")

_FIXTURES = ("closed-form", "intervention", "geometric", "zero")
_GRID = "--nx 81 --nt 40"
_MC = "--seed 5 --paths 5000"
_SCHEDULE = "[[0.2, 0.3], [0.8, 0.5]]"  # written to {work}/schedule.json
# written to {work}/spec.json and named by a path relative to {work}, the
# working directory of every run, since the artifacts record --spec as
# given: a spec file read through ModelSpec.from_json on the CLI's default
# grid, whose beta table has 10 segments on [0, T]
_SPEC = """{"c1": 0.8, "T": 1.0,
 "lambda": {"kind": "constant", "value": 0.2},
 "mu_tilde": {"kind": "table", "x": [0.0, 0.5, 1.0], "y": [0.08, 0.1, 0.06]},
 "sigma_tilde": {"kind": "constant", "value": 0.25},
 "beta": {"kind": "table", "x": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
          "y": [0.2, 0.35, 0.25, 0.4, 0.3, 0.45, 0.3, 0.5, 0.35, 0.3, 0.4]},
 "utilities": {"f": {"kind": "saturating", "level": 1.0, "rate": 2.0, "scale": 1.0},
               "g1": {"kind": "table", "x": [0.0, 1.0, 3.0], "y": [0.0, 0.4, 0.5]},
               "g2": {"kind": "constant", "value": 0.3}},
 "costs": {"kappa": 0.08, "k_min": 0.1, "k_max": 1.0}}
"""

# (name, command line without --out, which goes after the subcommand);
# "{work}" is the directory that holds every run's output, so a later run
# can read an earlier run's surface
RUNS = (
    *((f"validate-{n}", f"validate --spec fixture:{n}") for n in _FIXTURES),
    *((f"converge-{n}", f"converge --spec fixture:{n} --nx 41 --nt 20 --levels 3")
      for n in _FIXTURES),
    *((f"solve-{n}", f"solve --spec fixture:{n} {_GRID}") for n in _FIXTURES),
    ("check-intervention", f"check --spec fixture:intervention --seed 3 {_GRID}"),
    ("check-intervention-surface",
     "check --spec fixture:intervention --seed 3 --surface {work}/solve-intervention"),
    ("check-geometric-surface",
     "check --spec fixture:geometric --seed 3 --surface {work}/solve-geometric"),
    # a nonzero C0 in checks.json
    ("check-geometric", f"check --spec fixture:geometric --seed 3 {_GRID}"),
    # a wide action label: smooth-fit and theta-structure both fail here
    ("solve-intervention-wide",
     f"solve --spec fixture:intervention {_GRID} --eps-region 0.05"),
    ("check-intervention-wide-surface",
     "check --spec fixture:intervention --seed 3 --surface {work}/solve-intervention-wide"),
    ("simulate-none", f"simulate --spec fixture:geometric {_MC}"),
    ("simulate-schedule", f"simulate --spec fixture:geometric {_MC} --policy schedule "
                          "--schedule {work}/schedule.json"),
    ("simulate-feedback", f"simulate --spec fixture:intervention {_MC} --x0 0.15 "
                          "--policy feedback --surface {work}/solve-intervention"),
    ("simulate-feedback-solved", f"simulate --spec fixture:intervention {_MC} --x0 0.15 "
                                 f"--policy feedback {_GRID}"),
    ("solve-refused", "solve --spec fixture:zero --xmin 5"),
    ("validate-json", "validate --spec spec.json"),
    ("simulate-json", f"simulate --spec spec.json {_MC}"),
)


def environment() -> dict:
    """What the bits rest on besides the source: numpy's streams and exp,
    the interpreter's float repr, and the CPU's dispatch."""
    import numpy as np
    return {"machine": platform.machine(), "numpy": np.__version__,
            "python": platform.python_version()}


def compute(work: str) -> dict:
    """Run RUNS in order in work; {name: {command, exit, artifacts}}."""
    from impulse_qvi import cli
    for fname, text in (("schedule.json", _SCHEDULE), ("spec.json", _SPEC)):
        with open(os.path.join(work, fname), "w", encoding="utf-8") as fh:
            fh.write(text)
    runs = {}
    for name, command in RUNS:
        out = os.path.join(work, name)
        sub, *flags = command.split()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
                contextlib.chdir(work):
            rc = cli.main([sub, "--out", out] + [a.format(work=work) for a in flags])
        artifacts = {}
        for fname in sorted(os.listdir(out)) if os.path.isdir(out) else []:
            with open(os.path.join(out, fname), "rb") as fh:
                artifacts[fname] = hashlib.sha256(fh.read()).hexdigest()
        runs[name] = {"command": command, "exit": rc, "artifacts": artifacts}
    return runs


def moved(old: dict, new: dict) -> list:
    """One line per run, exit code or artifact digest that differs."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name), new.get(name)
        if a is None or b is None:
            lines.append(f"{name}: run {'added' if a is None else 'removed'}")
            continue
        for key in ("command", "exit"):
            if a[key] != b[key]:
                lines.append(f"{name}: {key} {a[key]!r} -> {b[key]!r}")
        for fname in sorted(a["artifacts"].keys() | b["artifacts"].keys()):
            da, db = a["artifacts"].get(fname), b["artifacts"].get(fname)
            if da != db:
                lines.append(f"{name}/{fname}: {da} -> {db}")
    return lines


def load() -> dict:
    with open(MANIFEST, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv not in ([], ["--write"]):
        print("usage: artifact_manifest.py [--write]", file=sys.stderr)
        return 2
    old = load() if os.path.exists(MANIFEST) else {"environment": None, "runs": {}}
    with tempfile.TemporaryDirectory() as work:
        new = {"environment": environment(), "runs": compute(work)}
    if old["environment"] != new["environment"]:
        print(f"environment: {old['environment']} -> {new['environment']}")
    lines = moved(old["runs"], new["runs"])
    for line in lines:
        print(line)
    if argv == ["--write"]:
        with open(MANIFEST, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(new, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {MANIFEST}: {len(lines)} moved")
        return 0
    return 1 if lines else 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(MANIFEST)), "src"))
    sys.exit(main())
