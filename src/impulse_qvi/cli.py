"""Batch front end: solve | simulate | validate | check | converge.

Loads a model spec (a JSON file, or ``fixture:NAME`` for a built-in), runs
one subcommand, and writes every artifact into --out.  Artifacts embed the
config hash and the seed, and rerunning the same invocation reproduces them
byte for byte.  Structured outputs are JSON, arrays CSV (solver.write_csv).

Exit codes: 0 success, 1 check failure, 2 usage, spec or out-of-memory
error, 3 numerical failure (the scheme cannot proceed on the grid).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .diagnostics import (check_obstacle, check_smooth_fit,
                          check_theta_structure, convergence_study, standard_checks)
from .dynamics import (FeedbackPolicy, ImpulseSchedule,
                       filtration_reduction_check, simulate_paths)
from .fixtures import FIXTURES, fixture_reference, get_fixture, suggested_grid
from .model import ModelSpec, validate
from .solver import (Grid, NumericalError, SolveResult, read_surface_csv,
                     solve, write_boundary_csv, write_csv, write_policy_csv,
                     write_surface_csv)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# the smooth-fit hypothesis needs uniform ellipticity, which the state
# multiplying the volatility destroys at x=0; every report carries this
_DOMAIN_NOTE = "diagnostics restricted to x_min > 0 (ellipticity proxy sigma_tilde*x_min)"
_HASH_BLOCK = 1 << 20  # bytes per read while hashing --surface
_PATH_COLUMNS = ("time", "state", "impulse_flag", "impulse_size")  # of each path_NNN.csv


class UsageError(Exception):
    """Bad flags, missing files, or an inadmissible input: exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """One resolved CLI invocation (flags + loaded spec + derived grid)."""

    command: str
    spec_source: str
    spec: ModelSpec
    out_dir: str
    grid: Grid
    reference: object  # exact V(t, x) of a fixture that has one, else None; not hashed
    explicit_flags: tuple  # (header key, value) per grid, --tol-inner or --eps-region flag given
    n_paths: int
    dt: float
    seed: int
    tol_inner: float
    eps_region: float | None
    t0: float
    x0: float
    schedule: ImpulseSchedule | None
    policy: str
    surface_path: str | None
    record_paths: int
    levels: int

    def hash_payload(self) -> dict:
        payload = {key: getattr(self, key) for key in (
            "command", "spec_source", "n_paths", "dt", "seed", "tol_inner", "eps_region", "t0",
            "x0", "policy", "record_paths", "levels")}
        payload.update(spec=self.spec.to_dict(), grid=self.grid.to_dict(),
                       schedule=None if self.schedule is None else _pairs(self.schedule))
        if self.surface_path is not None:
            digest = hashlib.sha256()
            with open(self.surface_path, "rb") as fh:
                for block in iter(lambda: fh.read(_HASH_BLOCK), b""):
                    digest.update(block)
            payload["surface_sha256"] = digest.hexdigest()
        return payload

    def config_hash(self) -> str:
        blob = json.dumps(self.hash_payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _pairs(schedule: ImpulseSchedule) -> list:
    """The schedule's [time, size] pairs, as its JSON file lists them."""
    return list(zip(schedule.times.tolist(), schedule.sizes.tolist()))


def _load_spec(source: str):
    """(spec, default grid, exact reference or None) for --spec: a fixture
    brings its suggested grid and, for closed-form, its exact value."""
    if source.startswith("fixture:"):
        name = source[len("fixture:"):]
        try:
            return get_fixture(name), suggested_grid(name), fixture_reference(name)
        except KeyError as exc:
            raise UsageError(exc.args[0]) from None
    if not os.path.exists(source):
        raise UsageError(f"spec file not found: {source}")
    try:
        return ModelSpec.from_json(source), Grid(0.1, 4.1, 201, 200), None
    except (ValueError, KeyError, TypeError, OverflowError, json.JSONDecodeError) as exc:
        raise UsageError(f"invalid spec {source}: {exc}") from None


# the flags that set the solve, by the surface header key each one must
# match under --surface; simulate reads them for --policy feedback alone
_SOLVE_KEYS = {"nx": "n_x", "nt": "n_t", "xmin": "x_min", "xmax": "x_max",
               "tol_inner": "tol_inner", "eps_region": "eps_region"}


def _build_config(args) -> RunConfig:
    spec, base_grid, reference = _load_spec(args.spec)
    given = {key: getattr(args, dest) for dest, key in _SOLVE_KEYS.items()
             if getattr(args, dest) is not None}
    base = base_grid.to_dict()
    try:
        grid = Grid(**{**base, **{key: v for key, v in given.items() if key in base}})
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.command in ("simulate", "check") and args.seed is None:
        raise UsageError(f"--seed is required for the {args.command} subcommand")
    if not (0.0 <= args.t0 < spec.T):
        raise UsageError(f"--t0 must lie in [0, T) with T={spec.T}")

    schedule = None
    if args.command == "simulate":
        if args.policy == "schedule":
            if args.schedule is None:
                raise UsageError("--policy schedule needs --schedule PATH")
            if not os.path.exists(args.schedule):
                raise UsageError(f"schedule file not found: {args.schedule}")
            schedule = ImpulseSchedule.from_json(args.schedule)
            try:
                schedule.validate(spec, t0=args.t0)
            except ValueError as exc:
                raise UsageError(f"inadmissible schedule {args.schedule}: {exc}") from None
        elif args.schedule is not None:
            raise UsageError("--schedule is only meaningful with --policy schedule")
        if args.policy != "feedback":
            unread = ["--" + dest.replace("_", "-") for dest in ("surface", *_SOLVE_KEYS)
                      if getattr(args, dest) is not None]
            if unread:
                raise UsageError(f"{', '.join(unread)}: read only with --policy feedback")
    surface_path = None
    if args.surface is not None:
        surface_path = os.path.join(args.surface, "surface.csv")
        if not os.path.exists(surface_path):
            raise UsageError(f"surface file not found: {surface_path}")

    return RunConfig(
        command=args.command, spec_source=args.spec, spec=spec, out_dir=args.out, grid=grid,
        reference=reference, explicit_flags=tuple(given.items()), n_paths=args.paths,
        dt=args.dt, seed=0 if args.seed is None else args.seed,
        tol_inner=1e-9 if args.tol_inner is None else args.tol_inner,
        eps_region=args.eps_region, t0=args.t0, x0=args.x0, schedule=schedule,
        policy=args.policy, surface_path=surface_path, record_paths=args.record_paths,
        levels=args.levels)


# ---------------------------------------------------------------- artifacts


def _sanitize(obj):
    """Strict-JSON payloads: non-finite floats become their repr strings."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _write_report(cfg: RunConfig, chash: str, stem: str, payload: dict,
                  lines=None) -> None:
    """Write STEM.json, the run's header keys merged with payload, and,
    given lines, STEM.txt under the three-line header."""
    path = os.path.join(cfg.out_dir, stem)
    header = {"command": cfg.command, "config_hash": chash, "seed": cfg.seed,
              "spec_source": cfg.spec_source}
    with open(path + ".json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_sanitize({**header, **payload}), fh, sort_keys=True, indent=2,
                  allow_nan=False)
        fh.write("\n")
    if lines is not None:
        with open(path + ".txt", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# config_hash={chash}\n# seed={cfg.seed}\n# {_DOMAIN_NOTE}\n")
            fh.writelines(line + "\n" for line in lines)


def _load_solution(cfg: RunConfig) -> SolveResult:
    """Read the --surface artifact, which must have been solved for --spec,
    with every action's xi0 in the spec's [k_min, k_max], and agree with
    each grid flag, --tol-inner and --eps-region given explicitly."""
    try:
        res = read_surface_csv(cfg.surface_path, cfg.spec)
    except ValueError as exc:
        raise UsageError(f"cannot load {cfg.surface_path}: {exc}") from None
    md = res.surface.metadata
    c = cfg.spec.costs
    outside = np.flatnonzero(res.labels & ~((res.xi0 >= c.k_min) & (res.xi0 <= c.k_max)))
    if outside.size:
        i = int(outside[0])
        raise UsageError(f"cannot load {cfg.surface_path}: surface data row {i + 1} has xi0="
                         f"{res.xi0.flat[i]!r} outside [k_min, k_max] = [{c.k_min!r}, "
                         f"{c.k_max!r}] of {cfg.spec_source}")
    stored = {**res.surface.grid.to_dict(), "tol_inner": md["tol_inner"],
              "eps_region": md["eps_region"]}
    clashes = [f"{key}={value!r} given, {stored[key]!r} in the surface header"
               for key, value in cfg.explicit_flags if value != stored[key]]
    if clashes:
        raise UsageError(f"{cfg.surface_path} disagrees with the flags: {'; '.join(clashes)}")
    return res


# --------------------------------------------------------------- subcommands


def cmd_solve(cfg: RunConfig, chash: str) -> int:
    res = solve(cfg.spec, cfg.grid, tol_inner=cfg.tol_inner, eps_region=cfg.eps_region)
    meta = {"config_hash": chash, "seed": cfg.seed}
    write_surface_csv(os.path.join(cfg.out_dir, "surface.csv"), res, meta)
    write_boundary_csv(os.path.join(cfg.out_dir, "boundary.csv"), res, meta)
    write_policy_csv(os.path.join(cfg.out_dir, "policy.csv"), res, meta)
    md = res.surface.metadata
    summary = {
        "grid": cfg.grid.to_dict(),
        "T": cfg.spec.T,
        "n_action_nodes": int(res.labels.sum()),
        "min_obstacle_gap": float(np.min(res.surface.values - res.surface.iv_values)),
        "landing_violations": int(md["landing_violations"]),
        "max_inner_iterations": int(max(md["inner_iterations"], default=0)),
        "max_inner_residual": float(md["max_inner_residual"]),
        "c1_bound": float(md["c1_bound"]),
        "tol_inner": cfg.tol_inner,
        "eps_region": float(md["eps_region"]),
    }
    if cfg.reference is not None:
        # one reference(t, x_nodes) call per time node, as in convergence_study
        xn, err, rel = res.surface.grid.x_nodes(), 0.0, 0.0
        for t, v in zip(res.surface.t_nodes(), res.surface.values):
            exact = cfg.reference(t, xn)
            gap = np.abs(v - exact)
            err, rel = max(err, gap.max()), max(rel, (gap / np.maximum(np.abs(exact), 1e-12)).max())
        summary["max_error_vs_formula"] = float(err)
        summary["max_rel_error_vs_formula"] = float(rel)
    _write_report(cfg, chash, "summary", summary)
    print(f"solve: wrote surface.csv boundary.csv policy.csv summary.json to {cfg.out_dir}")
    return EXIT_OK


def _resolve_control(cfg: RunConfig):
    if cfg.policy == "none":
        return None, {"kind": "none"}
    if cfg.policy == "schedule":
        return cfg.schedule, {"kind": "schedule", "pairs": _pairs(cfg.schedule)}
    if cfg.surface_path is not None:
        return FeedbackPolicy.from_solution(_load_solution(cfg)), {
            "kind": "feedback", "source": "loaded-surface"}
    res = solve(cfg.spec, cfg.grid, tol_inner=cfg.tol_inner, eps_region=cfg.eps_region)
    return FeedbackPolicy.from_solution(res), {"kind": "feedback", "source": "solved"}


def _path_rows(rec):
    """time, state, impulse_flag, impulse_size lines of a recorded path:
    flag 1 and the size at an impulse time, else 0 and 0.0."""
    sizes = {float(ev.time): float(ev.size) for ev in rec.impulses_applied}
    return (f"{t!r},{x!r},1,{sizes[t]!r}\n" if t in sizes else f"{t!r},{x!r},0,0.0\n"
            for t, x in zip(rec.times.tolist(), rec.states.tolist()))


def cmd_simulate(cfg: RunConfig, chash: str) -> int:
    control, control_desc = _resolve_control(cfg)
    report = filtration_reduction_check(cfg.spec, cfg.t0, cfg.x0, control,
                                        cfg.dt, cfg.n_paths, cfg.seed)
    _write_report(cfg, chash, "mc_report", {
        "t0": cfg.t0,
        "x0": cfg.x0,
        "dt": cfg.dt,
        "n_paths": cfg.n_paths,
        "control": control_desc,
        "reduction": report.to_dict(),
    })
    records = simulate_paths(cfg.spec, cfg.t0, cfg.x0, control, cfg.dt, cfg.seed,
                             cfg.record_paths) if cfg.record_paths else []
    for i, rec in enumerate(records):
        meta = {
            "config_hash": chash,
            "seed": cfg.seed,
            "path_index": i,
            "t0": repr(float(cfg.t0)),
            "x0": repr(float(cfg.x0)),
            "default_time": repr(rec.default_time),
            "realized_cost": repr(rec.realized_cost),
        }
        write_csv(os.path.join(cfg.out_dir, f"path_{i:03d}.csv"), meta, _PATH_COLUMNS,
                  _path_rows(rec))
    print(f"simulate: cost_g={report.cost_g.estimate:.6g} (se {report.cost_g.std_error:.2g}) "
          f"cost_f={report.cost_f.estimate:.6g} (se {report.cost_f.std_error:.2g}) "
          f"difference={report.difference:.3g} agree={report.passed}")
    print(f"simulate: wrote mc_report.json and {cfg.record_paths} path files to {cfg.out_dir}")
    return EXIT_OK


def cmd_validate(cfg: RunConfig, chash: str) -> int:
    report = validate(cfg.spec, cfg.grid.x_nodes())
    lines = []
    for e in report.entries:
        status = "PASS" if e.passed else "FAIL"
        thr = "" if e.threshold is None else f" threshold={e.threshold!r}"
        lines.append(f"{e.name:24s} {status}  value={e.value!r}{thr}  {e.note}")
    lines += [f"warning: {w}" for w in report.warnings]
    lines.append("PASSED" if report.passed else "FAILED")
    _write_report(cfg, chash, "validation", {"report": report.to_dict()}, lines)
    print(f"validate: {'PASSED' if report.passed else 'FAILED'} "
          f"({len(report.entries)} entries, {len(report.warnings)} warnings)")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_check(cfg: RunConfig, chash: str) -> int:
    grid = cfg.grid
    if cfg.surface_path is not None:
        # diagnose an existing artifact: only the checks that read the
        # surface alone (no re-solve for bounds/regularity comparisons)
        res = _load_solution(cfg)
        grid = res.surface.grid
        reports = [
            check_obstacle(res.surface, cfg.spec),
            check_smooth_fit(res, cfg.spec),
            check_theta_structure(res, cfg.spec),
        ]
    else:
        reports = standard_checks(cfg.spec, cfg.grid, tol_inner=cfg.tol_inner,
                                  eps_region=cfg.eps_region, seed=cfg.seed)
    entries = []
    for rep in reports:
        d = rep.to_dict()
        d["domain_restriction"] = _DOMAIN_NOTE
        entries.append(d)
    all_passed = all(r.passed for r in reports)
    lines = [rep.line() for rep in reports]
    _write_report(cfg, chash, "checks", {
        "grid": grid.to_dict(),
        "domain_restriction": _DOMAIN_NOTE,
        "passed": all_passed,
        "checks": entries,
    }, lines + ["ALL CHECKS PASSED" if all_passed else "CHECK FAILURES"])
    for line in lines:
        print(line)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def cmd_converge(cfg: RunConfig, chash: str) -> int:
    study = convergence_study(cfg.spec, cfg.grid, cfg.levels, reference=cfg.reference,
                              tol_inner=cfg.tol_inner)
    lines = ["n_t,dt,sup_diff_to_next,reference_error"]
    for i, row in enumerate(study.rows):
        diff = row.get("sup_diff_to_next")
        ref_err = study.reference_errors[i] if study.reference_errors else None
        lines.append(f"{row['n_t']},{row['dt']!r},"
                     f"{'' if diff is None else repr(diff)},"
                     f"{'' if ref_err is None else repr(ref_err)}")
    lines.append(f"ratios={[round(r, 4) for r in study.ratios]!r}")
    _write_report(cfg, chash, "convergence", {"levels": cfg.levels, "study": study.to_dict()},
                  lines)
    print(f"converge: ratios {study.ratios}")
    return EXIT_OK


def _domain(what: str, convert, ok):
    """A flag's type=: its text converted, if the value passes ok."""
    def parse(text: str):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


_FINITE = _domain("finite number", float, math.isfinite)
_POSITIVE = _domain("finite number > 0", float, lambda v: 0 < v < math.inf)
_COUNT = _domain("positive integer", int, lambda v: v > 0)
_INDEX = _domain("non-negative integer", int, lambda v: v >= 0)


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's bad flag raises UsageError, so main returns exit 2."""

    def error(self, message):
        raise UsageError(message)


_COMMANDS = {  # name: (handler, help line)
    "solve": (cmd_solve, "backward QVI sweep; writes surface/boundary/policy CSVs and a summary"),
    "simulate": (cmd_simulate, "controlled SDE paths with default; writes MC report and path CSVs"),
    "validate": (cmd_validate, "standing-hypothesis checks on the model spec"),
    "check": (cmd_check, "solve then run all surface diagnostics; exit 1 on failure"),
    "converge": (cmd_converge, "time-step refinement ladder with Cauchy ratios"),
}
_ALL = tuple(_COMMANDS)
_SOLVING = ("solve", "simulate", "check", "converge")
_SIMULATE = ("simulate",)

# each flag after --spec and --out: (argparse keywords, the subcommands that
# read it, its value where unread).  A subcommand rejects a flag it does not
# read (argparse exits 2) and keeps that value, so a config hash does not
# depend on which subcommand reads what; where read, the value is also the
# flag's default unless the keywords give one.  validate reads no --nt (it
# checks the x nodes only) and check no --paths or --dt (check_bounds fixes
# them); simulate reads the solve flags and --surface for --policy feedback
# alone (_build_config rejects them under the other policies).
_FLAGS = {
    "--nx": (dict(type=_COUNT, help="space nodes"), _ALL, None),
    "--nt": (dict(type=_COUNT, help="time steps"), _SOLVING, None),
    "--xmin": (dict(type=_POSITIVE, help="left edge (> 0)"), _ALL, None),
    "--xmax": (dict(type=_FINITE, help="right edge"), _ALL, None),
    "--paths": (dict(type=_COUNT, help="MC sample size"), _SIMULATE, 10000),
    "--dt": (dict(type=_POSITIVE, help="simulation step"), _SIMULATE, 0.01),
    "--seed": (dict(type=_INDEX, help="RNG seed (required for simulate and check)"), _ALL, None),
    "--tol-inner": (dict(type=_POSITIVE, help="impulse projection tolerance (default 1e-9)"),
                    _SOLVING, None),
    "--eps-region": (dict(type=_FINITE, help="action-label threshold on V - IV"),
                     ("solve", "simulate", "check"), None),
    "--t0": (dict(type=_FINITE, help="simulation start time"), _SIMULATE, 0.0),
    "--x0": (dict(type=_FINITE, help="simulation start state"), _SIMULATE, 1.0),
    "--policy": (dict(choices=("none", "schedule", "feedback"), help="control to simulate"),
                 _SIMULATE, "none"),
    "--schedule": (dict(help="JSON [[time, size], ...] for --policy schedule"), _SIMULATE, None),
    "--surface": (dict(help="solve output dir to reuse instead of re-solving: simulate's "
                            "feedback policy, or check's surface-only checks"),
                  ("simulate", "check"), None),
    "--record-paths": (dict(type=_INDEX, default=3, help="number of individual path CSVs "
                                                         "to write"), _SIMULATE, 0),
    "--levels": (dict(type=_domain("integer >= 2", int, lambda v: v >= 2), default=3,
                      help="refinement levels (n_t doubles each level)"), ("converge",), 2),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impulse-qvi",
        description="Finite-horizon impulse-control QVI: solve, simulate, "
                    "validate, check, converge.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    for name, (_, helptext) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--spec", required=True,
                       help="spec JSON path, or fixture:NAME "
                            f"(known: {', '.join(sorted(FIXTURES))})")
        p.add_argument("--out", required=True, help="output directory")
        for flag, (kwargs, readers, unread) in _FLAGS.items():
            if name in readers:
                p.add_argument(flag, **{"default": unread, **kwargs})
            else:
                p.set_defaults(**{flag[2:].replace("-", "_"): unread})
    return parser


def main(argv=None) -> int:
    try:
        cfg = _build_config(_build_parser().parse_args(argv))
        os.makedirs(cfg.out_dir, exist_ok=True)
        return _COMMANDS[cfg.command][0](cfg, cfg.config_hash())
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"error: out of memory ({str(exc) or 'MemoryError'}): ask for a smaller grid "
              "(--nx, --nt, --levels) or fewer steps (a larger --dt)", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
