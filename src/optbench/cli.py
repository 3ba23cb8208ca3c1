"""Command-line entry point: config resolution (flags > config file > preset >
defaults), subcommand dispatch, deterministic CSV + manifest emission.

Outputs land in --out as <subcommand>.csv (plus extra files for subcommands
with several record shapes) and manifest.json.  Exit codes: 0 success,
1 assertion-check failure, 2 usage error, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from . import experiments as ex
from .linalg import set_blas_threads


class UsageError(Exception):
    pass


class Command(NamedTuple):
    """One subcommand: the name of its runner in optbench.experiments, looked
    up at each run so that a rebound module attribute is the one called; the
    CSV header of each output file, in the order the runner returns the
    tables; and whether the runner returns (rows, check failures)."""

    runner: str
    outputs: dict[str, str]
    checks: bool = False


COMMANDS: dict[str, Command] = {
    "angle": Command("sweep_angle", {"angle.csv": "optimizer,angle_deg,seed,regret_in_loss"}),
    "heatmap": Command("sweep_heatmap", {
        "heatmap.csv": "optimizer,lambda_max,cond,seed,log10_loss"}),
    "minnorm": Command("minnorm_experiment", {
        "minnorm.csv": "optimizer,max_null_component,final_null_component,distance_to_min_norm"}),
    "ridge-path": Command("ridge_path_experiment", {
        "ridge-path.csv": "optimizer,seed,path_discrepancy",
        "ridge-path-recursion.csv": "optimizer,max_recursion_residual"}),
    "regret": Command("check_regret_bound", {
        "regret.csv": "kind,schedule,seed,horizon,regret,bound,ratio,regret_per_round,ok"},
        checks=True),
    "stability": Command("stability_experiment", {
        "stability.csv": "variant,seed,eig_index,eigenvalue,mean_abs_change,mean_loss_change",
        "stability-summary.csv": "variant,seed,spearman"}),
    "theorem-range": Command("check_theorem_convergence_range", {
        "theorem-range.csv": "eta_multiplier,eta,converged,final_regret,eta_reductions,"
                             "eta_monotone,eta_constant_after_entry,edge_case,ok"}, checks=True),
    "distance-bound": Command("check_distance_bound", {
        "distance-bound.csv": "d,cond,eta,distance,bound,ratio,ok"}, checks=True),
    "align-mc": Command("alignment_experiment", {
        "align-mc.csv": "d,rows_sampled,median_angle_deg,frac_below_threshold,"
                        "exact_frac_below_threshold"}),
    "trajectory": Command("trajectory_experiment", {"trajectory.csv": "t,loss,eta_t,grad_norm"}),
}


def defaults(subcommand: str) -> dict:
    """The subcommand's keys and their desk-scale defaults: every keyword-only
    argument of its runner, except ``workers``."""
    runner = getattr(ex, COMMANDS[subcommand].runner)
    return {name: param.default for name, param in inspect.signature(runner).parameters.items()
            if param.kind is param.KEYWORD_ONLY and name != "workers"}


# Named parameter bundles; figure presets carry the reference experiment sizes.
PRESETS: dict[str, dict[str, dict]] = {
    "desk": {cmd: {} for cmd in COMMANDS},
    "paper-fig3": {
        "heatmap": {
            "lambda_max_values": (1.0, 1e2, 1e4, 1e6, 1e8),
            "cond_values": (1.0, 1e2, 1e4, 1e6, 1e8),
            "seeds": 30, "steps": 3000, "d": 100, "n": 300,
        },
    },
    "paper-fig2b": {"angle": {}},       # the angle defaults are the reference values
    "paper-fig4b": {"ridge-path": {}},  # likewise the pool-300/train-10 setup
}


def _parse_value(raw: str, template):
    if isinstance(template, bool):
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise UsageError(f"cannot parse boolean from {raw!r}")
    if isinstance(template, (int, float)):
        try:
            return type(template)(raw)
        except ValueError:
            kind = type(template).__name__
            raise UsageError(f"cannot parse {kind} from {raw!r}") from None
    if isinstance(template, tuple):
        parts = [p for p in raw.split(",") if p != ""]
        if not parts:
            raise UsageError("empty list value")
        return tuple(_parse_value(p, template[0]) for p in parts)
    return raw


def _check_file_value(key: str, value, template):
    """A --config value with the JSON type of the key's default: a bool, an
    integer, a number (made a float), a string, or a non-empty list of one of
    these for a tuple."""
    if isinstance(template, tuple):
        if isinstance(value, list) and value:
            return tuple(_check_file_value(key, v, template[0]) for v in value)
    elif type(value) is type(template):
        return value
    elif type(template) is float and type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    kind = (f"a non-empty list of {type(template[0]).__name__}"
            if isinstance(template, tuple) else type(template).__name__)
    raise UsageError(f"config key {key!r} expects {kind}, got {value!r}")


def resolve_params(subcommand: str, preset: str | None, file_params: dict,
                   overrides: list[str]) -> tuple[dict, dict]:
    """Layer preset, config-file values, and --set overrides onto the
    subcommand defaults; unknown keys and ill-typed values are rejected."""
    params = defaults(subcommand)
    if preset is not None:
        if preset not in PRESETS:
            raise UsageError(f"unknown preset {preset!r}")
        bundle = PRESETS[preset]
        if subcommand not in bundle:
            raise UsageError(f"preset {preset!r} does not apply to {subcommand!r}")
        params.update(bundle[subcommand])
    for key, value in file_params.items():
        if key not in params:
            raise UsageError(f"unknown config key {key!r} for {subcommand!r}")
        params[key] = _check_file_value(key, value, params[key])
    applied: dict[str, object] = {}
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        if key not in params:
            raise UsageError(f"unknown override key {key!r} for {subcommand!r}")
        params[key] = _parse_value(raw, params[key])
        applied[key] = params[key]
    return params, applied


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def emit_csv(records: list[dict], fieldnames: list[str], path: str) -> str:
    """Write records as UTF-8 CSV with LF endings and a mandatory header, via
    a temp file and atomic rename; returns the content's sha256."""
    lines = [",".join(fieldnames)]
    for rec in records:
        lines.append(",".join(_format_cell(rec[name]) for name in fieldnames))
    content = ("\n".join(lines) + "\n").encode("utf-8")
    _write_atomic(path, content)
    return hashlib.sha256(content).hexdigest()


def _write_atomic(path: str, content: bytes) -> None:
    """Write content to path via a temp file and atomic rename."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(content)
    os.replace(tmp, path)


def dispatch(subcommand: str, params: dict, *, seed: int, workers: int, out_dir: str,
             preset: str | None, applied_overrides: dict) -> int:
    command = COMMANDS[subcommand]
    runner = getattr(ex, command.runner)
    extra = {"workers": workers} if "workers" in inspect.signature(runner).parameters else {}
    try:
        result = runner(seed, **params, **extra)
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, failures = result if command.checks else (result, [])
    tables = result if len(command.outputs) > 1 else (result,)
    try:
        os.makedirs(out_dir, exist_ok=True)
        checksums = {}
        for (name, header), records in zip(command.outputs.items(), tables, strict=True):
            checksums[name] = emit_csv(records, header.split(","), os.path.join(out_dir, name))
        manifest = {
            "subcommand": subcommand,
            "preset": preset,
            "overrides": applied_overrides,
            "config": params,
            "master_seed": seed,
            "workers": extra.get("workers", 1),
            "code_version": __version__,
            "files": checksums,
        }
        _write_atomic(os.path.join(out_dir, "manifest.json"),
                      (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    if failures:
        for line in failures:
            print(f"CHECK FAILED: {line}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optbench",
        description="Synthetic least-squares optimizer benchmarks and theorem-level checks.")
    parser.add_argument("subcommand", choices=COMMANDS)
    parser.add_argument("--preset", default=None)
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (required; non-negative)")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel workers (default: available cores)")
    parser.add_argument("--out", default=None, help="output directory (required)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", dest="overrides")
    parser.add_argument("--config", default=None, help="JSON config file")
    return parser


def _config_entry(doc: dict, key: str, kind: type):
    """doc[key] if it has JSON type kind (a bool is not an integer), None if absent."""
    value = doc.get(key)
    if value is not None and type(value) is not kind:
        raise UsageError(f"config {key!r} must be {kind.__name__}, got {value!r}")
    return value


def main(argv: list[str] | None = None) -> int:
    # The --workers processes are the parallelism.  One BLAS thread is set
    # before the arguments are parsed, so that no idle BLAS worker left from
    # numpy's import spins while they are.
    previous = set_blas_threads(1)
    try:
        return _run(argv)
    finally:
        if previous is not None:
            set_blas_threads(previous)


def _run(argv: list[str] | None) -> int:
    """main's work: parse and resolve argv, then dispatch; the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        file_params: dict = {}
        file_seed = None
        file_workers = None
        file_out = None
        if args.config is not None:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    doc = json.load(fh)
            except OSError as exc:
                print(f"i/o error: {exc}", file=sys.stderr)
                return 3
            except json.JSONDecodeError as exc:
                raise UsageError(f"malformed config file: {exc}") from exc
            if not isinstance(doc, dict):
                raise UsageError("config file must hold a JSON object")
            file_params = _config_entry(doc, "params", dict) or {}
            file_seed = _config_entry(doc, "master_seed", int)
            file_workers = _config_entry(doc, "workers", int)
            file_out = _config_entry(doc, "out_dir", str)
        params, applied = resolve_params(args.subcommand, args.preset, file_params,
                                         args.overrides)
        seed = args.seed if args.seed is not None else file_seed
        if seed is None:
            raise UsageError("--seed is required for reproducible runs")
        if seed < 0:
            raise UsageError("--seed must be non-negative")
        out_dir = args.out if args.out is not None else file_out
        if out_dir is None:
            raise UsageError("--out is required")
        workers = args.workers if args.workers is not None else file_workers
        if workers is None:   # the cores this process may run on
            workers = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                       else os.cpu_count() or 1)
        if workers < 1:
            raise UsageError("--workers must be >= 1")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return dispatch(args.subcommand, params, seed=seed, workers=workers,
                    out_dir=out_dir, preset=args.preset, applied_overrides=applied)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
