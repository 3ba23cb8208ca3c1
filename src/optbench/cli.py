"""Command-line entry point: config resolution (flags > config file > preset >
defaults), subcommand dispatch, deterministic CSV + manifest emission.

Outputs land in --out as <subcommand>.csv (plus extra files for subcommands
with several record shapes) and manifest.json.  Exit codes: 0 success,
1 assertion-check failure, 2 usage error, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from . import experiments as ex
from .optim import OptimizerConfig
from .problems import GenSpec, generate_least_squares


class UsageError(Exception):
    pass


class CheckFailure(Exception):
    pass


SUBCOMMANDS = (
    "angle", "heatmap", "minnorm", "ridge-path", "regret",
    "stability", "theorem-range", "distance-bound", "align-mc", "trajectory",
)

# Desk-scale defaults; presets and --set overrides layer on top.
DEFAULTS: dict[str, dict] = {
    "angle": {
        "angles": tuple(float(a) for a in range(0, 50, 5)),
        "cond": 1e4, "lambda_min": 1.0, "seeds": 30, "steps": 3000, "n": 300,
    },
    "heatmap": {
        "lambda_max_values": (1.0, 1e2, 1e4, 1e6),
        "cond_values": (1.0, 1e2, 1e4, 1e6),
        "seeds": 5, "steps": 1500, "d": 30, "n": 300,
    },
    "minnorm": {"n": 40, "d": 2, "lambda_max": 10.0, "steps": 1500},
    "ridge-path": {
        "pool_n": 300, "train_n": 10, "d": 2, "lambda_min": 1.0, "lambda_max": 10.0,
        "seeds": 50, "steps": 1500, "snapshot_stride": 10, "recursion_steps": 200,
    },
    "regret": {
        "kinds": ("linear-adversarial", "quadratic-tracking"),
        "schedules": ("theorem", "corollary"),
        "t_values": (100, 1000, 10000),
        "d": 4, "box_halfwidth": 1.0, "g_bound": 1.0, "eta": 1.0, "seeds": 5,
    },
    "stability": {
        "n": 500, "d": 50, "swaps": 10, "seeds": 5, "lambda_max": 100.0, "cond": 1e4,
        "degenerate_n": 30, "degenerate_d": 50, "degenerate_rank": 25,
    },
    "theorem-range": {
        "d": 10, "cond": 1e4, "eta_multipliers": (1e-3, 1.0, 1e3),
        "lambda_max": 1.0, "steps": 50000, "tol": 1e-8,
    },
    "distance-bound": {
        "d_values": (2, 20), "cond_values": (10.0, 1e3), "eta_values": (1e-4, 1e-2, 1.0),
        "lambda_max": 1.0, "steps": 50000, "bound_scale": 1.0,
    },
    "align-mc": {"dims": (2, 10, 50, 200), "samples_per_dim": 10000, "threshold_deg": 15.0},
    "trajectory": {
        "algo": "adam", "eta": 0.1, "beta1": 0.9, "d": 30, "n": 90,
        "lambda_max": 1.0, "cond": 1e4, "steps": 1500, "stochastic": True,
    },
}

# Named parameter bundles; figure presets carry the reference experiment sizes.
PRESETS: dict[str, dict[str, dict]] = {
    "desk": {cmd: {} for cmd in SUBCOMMANDS},
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
        elem = template[0] if template else 0.0
        return tuple(_parse_value(p, elem) for p in parts)
    return raw


def resolve_params(subcommand: str, preset: str | None, file_params: dict,
                   overrides: list[str]) -> tuple[dict, dict]:
    """Layer preset, config-file values, and --set overrides onto the
    subcommand defaults; unknown keys are rejected."""
    params = dict(DEFAULTS[subcommand])
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
        params[key] = tuple(value) if isinstance(params[key], tuple) else value
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
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(content)
    os.replace(tmp, path)
    return hashlib.sha256(content).hexdigest()


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _run_subcommand(subcommand: str, params: dict, seed: int, workers: int
                    ) -> tuple[dict[str, tuple[list[dict], list[str]]], list[str]]:
    """Returns {filename: (records, fieldnames)} plus check failures."""
    p = params
    failures: list[str] = []
    out: dict[str, tuple[list[dict], list[str]]] = {}
    if subcommand == "heatmap":
        grid = ex.SweepGrid(
            lambda_max_values=tuple(p["lambda_max_values"]),
            cond_values=tuple(p["cond_values"]),
            seeds=p["seeds"], steps=p["steps"], d=p["d"], n=p["n"],
            roster=ex.HEATMAP_ROSTER)
        records = ex.sweep_heatmap(grid, seed, workers=workers)
        out["heatmap.csv"] = (records, ["optimizer", "lambda_max", "cond", "seed", "log10_loss"])
    elif subcommand == "angle":
        records = ex.sweep_angle(
            seed, angles=tuple(p["angles"]), cond=p["cond"], lambda_min=p["lambda_min"],
            seeds=p["seeds"], steps=p["steps"], n=p["n"], workers=workers)
        out["angle.csv"] = (records, ["optimizer", "angle_deg", "seed", "regret_in_loss"])
    elif subcommand == "minnorm":
        records = ex.minnorm_experiment(
            seed, n=p["n"], d=p["d"], lambda_max=p["lambda_max"], steps=p["steps"])
        out["minnorm.csv"] = (records, ["optimizer", "max_null_component",
                                        "final_null_component", "distance_to_min_norm"])
    elif subcommand == "ridge-path":
        rows, recursion = ex.ridge_path_experiment(
            seed, pool_n=p["pool_n"], train_n=p["train_n"], d=p["d"],
            lambda_min=p["lambda_min"], lambda_max=p["lambda_max"], seeds=p["seeds"],
            steps=p["steps"], snapshot_stride=p["snapshot_stride"],
            recursion_steps=p["recursion_steps"])
        out["ridge-path.csv"] = (rows, ["optimizer", "seed", "path_discrepancy"])
        out["ridge-path-recursion.csv"] = (recursion, ["optimizer", "max_recursion_residual"])
    elif subcommand == "regret":
        rows, failures = ex.check_regret_bound(
            seed, kinds=tuple(p["kinds"]), schedules=tuple(p["schedules"]),
            t_values=tuple(p["t_values"]), d=p["d"], box_halfwidth=p["box_halfwidth"],
            g_bound=p["g_bound"], eta=p["eta"], seeds=p["seeds"])
        out["regret.csv"] = (rows, ["kind", "schedule", "seed", "horizon", "regret",
                                    "bound", "ratio", "regret_per_round", "ok"])
    elif subcommand == "stability":
        detail: list[dict] = []
        summary: list[dict] = []
        for variant, (n, d, rank) in (
            ("invertible", (p["n"], p["d"], None)),
            ("degenerate", (p["degenerate_n"], p["degenerate_d"], p["degenerate_rank"])),
        ):
            for s in range(p["seeds"]):
                rng = ex.derive_rng(seed, 70 if variant == "invertible" else 71, s)
                report = ex.stability_swap(n, d, p["swaps"], rng,
                                           lambda_max=p["lambda_max"], cond=p["cond"],
                                           rank=rank)
                for j in range(d):
                    detail.append({
                        "variant": variant, "seed": s, "eig_index": j,
                        "eigenvalue": report.eigenvalues[j],
                        "mean_abs_change": report.mean_abs_change[j],
                        "mean_loss_change": report.mean_loss_change[j],
                    })
                summary.append({"variant": variant, "seed": s,
                                "spearman": ex.stability_spearman(report)})
        out["stability.csv"] = (detail, ["variant", "seed", "eig_index", "eigenvalue",
                                         "mean_abs_change", "mean_loss_change"])
        out["stability-summary.csv"] = (summary, ["variant", "seed", "spearman"])
    elif subcommand == "theorem-range":
        rows, failures = ex.check_theorem_convergence_range(
            seed, d=p["d"], cond=p["cond"], eta_multipliers=tuple(p["eta_multipliers"]),
            lambda_max=p["lambda_max"], steps=p["steps"], tol=p["tol"])
        out["theorem-range.csv"] = (rows, ["eta_multiplier", "eta", "converged",
                                           "final_regret", "eta_reductions", "eta_monotone",
                                           "eta_constant_after_entry", "edge_case", "ok"])
    elif subcommand == "distance-bound":
        rows, failures = ex.check_distance_bound(
            seed, d_values=tuple(p["d_values"]), cond_values=tuple(p["cond_values"]),
            eta_values=tuple(p["eta_values"]), lambda_max=p["lambda_max"],
            steps=p["steps"], bound_scale=p["bound_scale"])
        out["distance-bound.csv"] = (rows, ["d", "cond", "eta", "distance", "bound",
                                            "ratio", "ok"])
    elif subcommand == "align-mc":
        records = ex.alignment_monte_carlo(
            tuple(p["dims"]), p["samples_per_dim"], ex.derive_rng(seed, 80),
            threshold_deg=p["threshold_deg"])
        out["align-mc.csv"] = (records, ["d", "rows_sampled", "median_angle_deg",
                                         "frac_below_threshold",
                                         "exact_frac_below_threshold"])
    elif subcommand == "trajectory":
        spec = GenSpec(n=p["n"], d=p["d"], lambda_max=p["lambda_max"],
                       lambda_min=p["lambda_max"] / p["cond"])
        problem = generate_least_squares(spec, ex.derive_rng(seed, 90))
        config = OptimizerConfig(eta=p["eta"], beta1=p["beta1"])
        trace = ex.run_trajectory(problem, p["algo"], config, p["steps"],
                                  ex.derive_rng(seed, 91), stochastic=p["stochastic"])
        records = [
            {"t": int(trace.t[i]), "loss": trace.loss[i], "eta_t": trace.eta_t[i],
             "grad_norm": trace.grad_norm[i]}
            for i in range(len(trace.t))
        ]
        out["trajectory.csv"] = (records, ["t", "loss", "eta_t", "grad_norm"])
    else:
        raise UsageError(f"unknown subcommand {subcommand!r}")
    return out, failures


def dispatch(subcommand: str, params: dict, *, seed: int, workers: int, out_dir: str,
             preset: str | None, applied_overrides: dict) -> int:
    try:
        outputs, failures = _run_subcommand(subcommand, params, seed, workers)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(out_dir, exist_ok=True)
        checksums = {}
        for name, (records, fieldnames) in outputs.items():
            checksums[name] = emit_csv(records, fieldnames, os.path.join(out_dir, name))
        manifest = {
            "subcommand": subcommand,
            "preset": preset,
            "overrides": {k: _jsonable(v) for k, v in applied_overrides.items()},
            "config": {k: _jsonable(v) for k, v in params.items()},
            "master_seed": seed,
            "workers": workers,
            "code_version": __version__,
            "files": checksums,
        }
        tmp = os.path.join(out_dir, "manifest.json.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, os.path.join(out_dir, "manifest.json"))
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
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--preset", default=None)
        sp.add_argument("--seed", type=int, default=None,
                        help="master seed (required; non-negative)")
        sp.add_argument("--workers", type=int, default=None,
                        help="parallel workers (default: available cores)")
        sp.add_argument("--out", default=None, help="output directory (required)")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        dest="overrides")
        sp.add_argument("--config", default=None, help="JSON config file")
    return parser


def main(argv: list[str] | None = None) -> int:
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
            file_params = doc.get("params", {})
            file_seed = doc.get("master_seed")
            file_workers = doc.get("workers")
            file_out = doc.get("out_dir")
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
        if workers is None:
            workers = os.cpu_count() or 1
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
