"""Batch front end: solve | simulate | validate | check | converge.

Loads a model spec (a JSON file, or ``fixture:NAME`` for a built-in), runs
one subcommand, and writes every artifact into --out.  Artifacts embed the
config hash and the seed, and rerunning the same invocation reproduces them
byte for byte.  Structured outputs are JSON, arrays are CSV; nothing binary.

Exit codes: 0 success, 1 check failure, 2 usage or spec error, 3 numerical
failure (the scheme cannot proceed on the grid).
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
                          check_theta_structure, convergence_study,
                          reference_values, standard_checks)
from .dynamics import (FeedbackPolicy, ImpulseSchedule,
                       filtration_reduction_check, simulate_paths)
from .fixtures import FIXTURES, fixture_reference, get_fixture, suggested_grid
from .model import ModelSpec, validate
from .solver import (Grid, NumericalError, SolveResult, read_surface_csv,
                     solve, write_boundary_csv, write_policy_csv,
                     write_surface_csv)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# the smooth-fit hypothesis needs uniform ellipticity, which the state
# multiplying the volatility destroys at x=0; every report carries this
_DOMAIN_NOTE = "diagnostics restricted to x_min > 0 (ellipticity proxy sigma_tilde*x_min)"
_HASH_BLOCK = 1 << 20  # bytes per read while hashing --surface


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
    schedule_pairs: tuple | None
    policy: str
    surface_path: str | None
    record_paths: int
    levels: int

    def hash_payload(self) -> dict:
        payload = {
            "command": self.command,
            "spec_source": self.spec_source,
            "spec": self.spec.to_dict(),
            "grid": self.grid.to_dict(),
            "n_paths": self.n_paths,
            "dt": self.dt,
            "seed": self.seed,
            "tol_inner": self.tol_inner,
            "eps_region": self.eps_region,
            "t0": self.t0,
            "x0": self.x0,
            "schedule": None if self.schedule_pairs is None else list(self.schedule_pairs),
            "policy": self.policy,
            "record_paths": self.record_paths,
            "levels": self.levels,
        }
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


def _load_spec(source: str):
    """(spec, default grid, exact reference or None) for --spec: a fixture
    brings its suggested grid and, for closed-form, its exact value."""
    if source.startswith("fixture:"):
        name = source[len("fixture:"):]
        try:
            return get_fixture(name), suggested_grid(name), fixture_reference(name)
        except KeyError as exc:
            raise UsageError(str(exc)) from None
    if not os.path.exists(source):
        raise UsageError(f"spec file not found: {source}")
    try:
        return ModelSpec.from_json(source), Grid(0.1, 4.1, 201, 200), None
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise UsageError(f"invalid spec {source}: {exc}") from None


def _build_grid(args, base: Grid) -> Grid:
    nx = base.n_x if args.nx is None else args.nx
    nt = base.n_t if args.nt is None else args.nt
    xmin = base.x_min if args.xmin is None else args.xmin
    xmax = base.x_max if args.xmax is None else args.xmax
    if min(nx, nt) <= 0:
        raise UsageError("--nx, --nt must be positive")
    if xmin <= 0.0:
        raise UsageError("--xmin must be > 0 (ellipticity restriction)")
    try:
        return Grid(xmin, xmax, nx, nt)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _build_config(args) -> RunConfig:
    spec, base_grid, reference = _load_spec(args.spec)
    grid = _build_grid(args, base_grid)
    mc_command = args.command in ("simulate", "check")
    if mc_command and args.seed is None:
        raise UsageError(f"--seed is required for the {args.command} subcommand")
    seed = 0 if args.seed is None else args.seed
    if args.paths <= 0:
        raise UsageError("--paths must be positive")
    if args.dt <= 0.0:
        raise UsageError("--dt must be positive")
    tol_inner = 1e-9 if args.tol_inner is None else args.tol_inner
    if tol_inner <= 0.0:
        raise UsageError("--tol-inner must be positive")
    if not (0.0 <= args.t0 < spec.T):
        raise UsageError(f"--t0 must lie in [0, T) with T={spec.T}")
    if args.record_paths < 0:
        raise UsageError("--record-paths must be >= 0")
    if args.levels < 2:
        raise UsageError("--levels must be >= 2")

    schedule_pairs = None
    surface_path = None
    if args.command == "simulate":
        if args.policy == "schedule":
            if args.schedule is None:
                raise UsageError("--policy schedule needs --schedule PATH")
            if not os.path.exists(args.schedule):
                raise UsageError(f"schedule file not found: {args.schedule}")
            sched = ImpulseSchedule.from_json(args.schedule)
            try:
                sched.validate(spec, t0=args.t0)
            except ValueError as exc:
                raise UsageError(f"inadmissible schedule: {exc}") from None
            schedule_pairs = tuple((float(t), float(s))
                                   for t, s in zip(sched.times, sched.sizes))
        elif args.schedule is not None:
            raise UsageError("--schedule is only meaningful with --policy schedule")
        if args.policy != "feedback":
            unread = [flag for flag, value in (
                ("--surface", args.surface), ("--nx", args.nx), ("--nt", args.nt),
                ("--xmin", args.xmin), ("--xmax", args.xmax), ("--tol-inner", args.tol_inner),
                ("--eps-region", args.eps_region)) if value is not None]
            if unread:
                raise UsageError(f"{', '.join(unread)}: read only with --policy feedback")
    if args.surface is not None:
        surface_path = os.path.join(args.surface, "surface.csv")
        if not os.path.exists(surface_path):
            raise UsageError(f"surface file not found: {surface_path}")

    return RunConfig(
        command=args.command,
        spec_source=args.spec,
        spec=spec,
        out_dir=args.out,
        grid=grid,
        reference=reference,
        explicit_flags=tuple((key, value) for key, value in (
            ("n_x", args.nx), ("n_t", args.nt), ("x_min", args.xmin), ("x_max", args.xmax),
            ("tol_inner", args.tol_inner), ("eps_region", args.eps_region)) if value is not None),
        n_paths=args.paths,
        dt=args.dt,
        seed=seed,
        tol_inner=tol_inner,
        eps_region=args.eps_region,
        t0=args.t0,
        x0=args.x0,
        schedule_pairs=schedule_pairs,
        policy=args.policy,
        surface_path=surface_path,
        record_paths=args.record_paths,
        levels=args.levels,
    )


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
    """Read the --surface artifact, which must have been solved for --spec
    and agree with each grid flag, --tol-inner and --eps-region given
    explicitly."""
    try:
        res = read_surface_csv(cfg.surface_path)
    except ValueError as exc:
        raise UsageError(f"cannot load {cfg.surface_path}: {exc}") from None
    md = res.surface.metadata
    if md["spec_sha256"] != cfg.spec.sha256():
        raise UsageError(f"{cfg.surface_path} was solved for a different spec than {cfg.spec_source}")
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
        exact = reference_values(cfg.reference, res.surface.t_nodes(), res.surface.grid.x_nodes())
        err = np.abs(res.surface.values - exact)
        scale = np.maximum(np.abs(exact), 1e-12)
        summary["max_error_vs_formula"] = float(np.max(err))
        summary["max_rel_error_vs_formula"] = float(np.max(err / scale))
    _write_report(cfg, chash, "summary", summary)
    print(f"solve: wrote surface.csv boundary.csv policy.csv summary.json to {cfg.out_dir}")
    return EXIT_OK


def _resolve_control(cfg: RunConfig):
    if cfg.policy == "none":
        return None, {"kind": "none"}
    if cfg.policy == "schedule":
        pairs = list(cfg.schedule_pairs or ())
        control = ImpulseSchedule(np.array([p[0] for p in pairs]),
                                  np.array([p[1] for p in pairs]))
        return control, {"kind": "schedule", "pairs": pairs}
    if cfg.surface_path is not None:
        return FeedbackPolicy.from_solution(_load_solution(cfg)), {
            "kind": "feedback", "source": "loaded-surface"}
    res = solve(cfg.spec, cfg.grid, tol_inner=cfg.tol_inner, eps_region=cfg.eps_region)
    return FeedbackPolicy.from_solution(res), {"kind": "feedback", "source": "solved"}


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
        with open(os.path.join(cfg.out_dir, f"path_{i:03d}.csv"),
                  "w", encoding="utf-8", newline="\n") as fh:
            rec.to_csv(fh, meta)
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
    grids = [Grid(cfg.grid.x_min, cfg.grid.x_max, cfg.grid.n_x, cfg.grid.n_t * 2**i)
             for i in range(cfg.levels)]
    study = convergence_study(cfg.spec, grids, reference=cfg.reference,
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


_DISPATCH = {
    "solve": cmd_solve,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
    "check": cmd_check,
    "converge": cmd_converge,
}


# the flags shared by several subcommands, and which of them each subcommand
# reads; a subcommand rejects the others (argparse exits 2) and keeps their
# defaults in its RunConfig, so a config hash does not depend on this table
_SHARED_FLAGS = {
    "--nx": dict(type=int, default=None, help="space nodes"),
    "--nt": dict(type=int, default=None, help="time steps"),
    "--xmin": dict(type=float, default=None, help="left edge (> 0)"),
    "--xmax": dict(type=float, default=None, help="right edge"),
    "--paths": dict(type=int, default=10000, help="MC sample size"),
    "--dt": dict(type=float, default=0.01, help="simulation step"),
    "--seed": dict(type=int, default=None, help="RNG seed (required for simulate and check)"),
    "--tol-inner": dict(type=float, default=None,
                        help="impulse projection tolerance (default 1e-9)"),
    "--eps-region": dict(type=float, default=None, help="action-label threshold on V - IV"),
    "--t0": dict(type=float, default=0.0, help="simulation start time"),
    "--x0": dict(type=float, default=1.0, help="simulation start state"),
}
_GRID = ("--nx", "--nt", "--xmin", "--xmax")
_READS = {
    "solve": _GRID + ("--seed", "--tol-inner", "--eps-region"),
    # the standing hypotheses are checked on the x nodes only
    "validate": ("--nx", "--xmin", "--xmax", "--seed"),
    # --paths and --dt are fixed by check_bounds (4,000 paths, the surface's dt)
    "check": _GRID + ("--seed", "--tol-inner", "--eps-region"),
    "converge": _GRID + ("--seed", "--tol-inner"),
    # the grid, --tol-inner and --eps-region serve --policy feedback alone;
    # _build_config rejects them, and --surface, under the other policies
    "simulate": tuple(_SHARED_FLAGS),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impulse-qvi",
        description="Finite-horizon impulse-control QVI: solve, simulate, "
                    "validate, check, converge.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("solve", "backward QVI sweep; writes surface/boundary/policy CSVs and a summary"),
        ("simulate", "controlled SDE paths with default; writes MC report and path CSVs"),
        ("validate", "standing-hypothesis checks on the model spec"),
        ("check", "solve then run all surface diagnostics; exit 1 on failure"),
        ("converge", "time-step refinement ladder with Cauchy ratios"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--spec", required=True,
                       help="spec JSON path, or fixture:NAME "
                            f"(known: {', '.join(sorted(FIXTURES))})")
        p.add_argument("--out", required=True, help="output directory")
        for flag, kwargs in _SHARED_FLAGS.items():
            if flag in _READS[name]:
                p.add_argument(flag, **kwargs)
            else:
                p.set_defaults(**{flag[2:].replace("-", "_"): kwargs["default"]})
        if name == "simulate":
            p.add_argument("--policy", choices=("none", "schedule", "feedback"),
                           default="none", help="control to simulate")
            p.add_argument("--schedule", default=None,
                           help="JSON [[time, size], ...] for --policy schedule")
            p.add_argument("--surface", default=None,
                           help="solve output dir to reuse for --policy feedback")
            p.add_argument("--record-paths", type=int, default=3,
                           help="number of individual path CSVs to write")
        elif name == "check":
            p.add_argument("--surface", default=None,
                           help="solve output dir to diagnose instead of re-solving "
                                "(surface-only checks)")
            p.set_defaults(policy="none", schedule=None, record_paths=0)
        else:
            p.set_defaults(policy="none", schedule=None, surface=None,
                           record_paths=0)
        if name == "converge":
            p.add_argument("--levels", type=int, default=3,
                           help="refinement levels (n_t doubles each level)")
        else:
            p.set_defaults(levels=2)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _build_config(args)
        os.makedirs(cfg.out_dir, exist_ok=True)
        return _DISPATCH[cfg.command](cfg, cfg.config_hash())
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
