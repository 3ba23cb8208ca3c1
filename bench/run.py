"""optbench benchmark: end-to-end timings of the CLI plus a traced per-layer run.

    python3 bench/run.py --workload {sweep,spectral,online} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; ``src/`` must hold the optbench package.
Load model: a closed loop with one client.  Each repetition is one call of
``optbench.cli.main`` with ``--workers 1`` in a fresh interpreter
(``bench/worker.py``), started after the previous one ends; BLAS threads are
capped at the number of usable cores.  Repetitions continue until ``--seconds``
have been spent (at least ``MIN_REPS``), and every timing is the median over
them.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced repetitions and reports
per-layer metrics from the spans plus the tracing overhead.

Every repetition's outputs pass the correctness gate (``gate.py``).  The
human-readable report goes to stdout; its last line is one JSON object with
``correct``, ``attempted``, ``failed`` (output rows) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import gate

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH_DIR, "worker.py")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
RUN_DIR = ".bench_run"
DEFAULT_SEED = 0
MIN_REPS = 3           # untraced repetitions per --trace 0 run
HARD_LIMIT_S = 150.0   # never start a repetition that could end past this


@dataclass(frozen=True)
class Workload:
    """One subcommand at a fixed size; ``units`` is the work one call does."""

    subcommand: str
    params: tuple[tuple[str, str], ...]
    units: int
    outputs: dict[str, int]           # file -> expected rows
    degenerate_zeros: int | None = None
    reference: str | None = None      # sub-directory of REFERENCE_DIR, default seed

    def argv(self, seed: int, out_dir: str) -> list[str]:
        argv = [self.subcommand, "--seed", str(seed), "--workers", "1", "--out", out_dir]
        for key, value in self.params:
            argv += ["--set", f"{key}={value}"]
        return argv


def sweep(seeds=1, steps=1500, d=30, n=300, grid=("1", "100", "10000", "1000000"),
          reference=None) -> Workload:
    """Heatmap: 4 optimizers x lambda_max grid x cond grid x seeds; the unit
    is a budgeted optimizer run-step."""
    cells = 4 * len(grid) ** 2 * seeds
    axis = ",".join(grid)
    return Workload(
        "heatmap",
        (("lambda_max_values", axis), ("cond_values", axis), ("seeds", str(seeds)),
         ("steps", str(steps)), ("d", str(d)), ("n", str(n))),
        units=cells * steps, outputs={"heatmap.csv": cells}, reference=reference)


def spectral(seeds=2, swaps=5, n=500, d=50, degenerate_n=30, degenerate_rank=25,
             reference=None) -> Workload:
    """Stability: invertible and rank-deficient data-swap studies; the unit
    is an exact least-squares solve (the base solve plus one per swap)."""
    return Workload(
        "stability",
        (("n", str(n)), ("d", str(d)), ("swaps", str(swaps)), ("seeds", str(seeds)),
         ("lambda_max", "100"), ("cond", "10000"), ("degenerate_n", str(degenerate_n)),
         ("degenerate_d", str(d)), ("degenerate_rank", str(degenerate_rank))),
        units=2 * seeds * (1 + swaps),
        outputs={"stability.csv": 2 * seeds * d, "stability-summary.csv": 2 * seeds},
        degenerate_zeros=d - degenerate_rank, reference=reference)


def online(seeds=1, horizons=("100", "1000", "10000"), d=4, reference=None) -> Workload:
    """Regret: 2 loss kinds x 2 schedules x seeds box-constrained AdaSGDMax
    runs; the unit is a run-step (one round)."""
    runs = 2 * 2 * seeds
    return Workload(
        "regret",
        (("kinds", "linear-adversarial,quadratic-tracking"),
         ("schedules", "theorem,corollary"), ("t_values", ",".join(horizons)),
         ("d", str(d)), ("box_halfwidth", "1.0"), ("g_bound", "1.0"), ("eta", "1.0"),
         ("seeds", str(seeds))),
        units=runs * max(int(h) for h in horizons),
        outputs={"regret.csv": runs * len(horizons)}, reference=reference)


WORKLOADS = {
    "sweep": sweep(reference="sweep"),
    "spectral": spectral(reference="spectral"),
    "online": online(reference="online"),
}

# name -> unit; the order is the report order.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "units_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {"calls": "count", "self_s": "s", "steps": "count", "diverged": "count",
               "bytes": "bytes"}
PER_LAYER_FIELDS = {
    "linalg.jacobi_eigh": ("calls", "self_s"),
    "linalg.householder_qr": ("calls", "self_s"),
    "linalg.project_box": ("calls", "self_s"),
    "problems.generate_least_squares": ("calls", "self_s"),
    "problems.stochastic_gradient": ("calls", "self_s"),
    "problems.full_loss": ("calls", "self_s"),
    "problems.regret": ("calls", "self_s"),
    "optim.step": ("calls", "self_s"),
    "experiments.run_trajectory": ("calls", "self_s", "steps", "diverged"),
    "experiments.swap_change": ("calls", "self_s"),
    "experiments.check_regret_bound": ("self_s",),
    "cli.emit_csv": ("calls", "self_s", "bytes"),
}
PER_LAYER = {f"{layer}.{field}": LAYER_UNITS[field]
             for layer, fields in PER_LAYER_FIELDS.items() for field in fields}
PER_LAYER["trace_overhead_frac"] = "fraction"


class BenchError(Exception):
    """The program could not be run at all; no result is printed."""


def git_commit(root: str) -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def call_worker(job: dict, root: str, env: dict, deadline: float) -> tuple[dict | None, float, float]:
    """Run one worker; returns (report or None, launch time, duration)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, WORKER, json.dumps(job)], cwd=root, env=env,
                              capture_output=True, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        return None, t0, time.perf_counter() - t0
    duration = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None, t0, duration
    return json.loads(lines[-1]), t0, duration


def layer_totals(spans_path: str) -> dict[str, dict[str, float]]:
    """Per layer: call count and self time (span time minus direct children)."""
    with np.load(spans_path) as data:
        names = [str(n) for n in data["names"]]
        name, parent = data["name"], data["parent"]
        dur = data["end"] - data["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    own = dur - child
    calls = np.bincount(name, minlength=len(names))
    self_s = np.bincount(name, weights=own, minlength=len(names))
    return {n: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, n in enumerate(names)}


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        spec: Workload | None = None, root: str = ".") -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and report lines."""
    spec = spec or WORKLOADS[workload]
    root = os.path.abspath(root)
    if not os.path.isfile(os.path.join(root, "src", "optbench", "cli.py")):
        raise BenchError(f"no optbench sources under {os.path.join(root, 'src')}")
    run_dir = os.path.join(root, RUN_DIR, workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env = child_env(root)
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    warm, _, _ = call_worker({"argv": None}, root, env, deadline)
    if warm is None:
        raise BenchError("the optbench CLI could not be imported")
    reference = (os.path.join(REFERENCE_DIR, spec.reference)
                 if spec.reference is not None and seed == DEFAULT_SEED else None)

    result = gate.GateResult()
    first_rows: dict[str, list] | None = None
    plain: list[dict] = []
    traced: list[dict] = []
    layers: list[dict] = []
    last = {False: 0.0, True: 0.0}  # duration of the latest repetition of each kind
    t_measure = time.perf_counter()
    while True:
        is_traced = trace and len(plain) > len(traced)
        rep = len(plain) + len(traced)
        out_dir = os.path.join(run_dir, f"rep{rep}")
        spans = os.path.join(run_dir, f"spans{rep}.npz")
        job = {"argv": spec.argv(seed, out_dir), "trace": is_traced, "spans": spans}
        report, launched, last[is_traced] = call_worker(job, root, env, deadline)
        rows = gate.check_run(out_dir, spec.outputs,
                              report["exit_code"] if report else -1, result=result,
                              reference_dir=reference, first=first_rows,
                              degenerate_zeros=spec.degenerate_zeros)
        if first_rows is None and rows:
            first_rows = rows
        if report is None:
            break  # the worker crashed; its rows already count as failed
        report["setup_s"] = report["ready"] - launched
        (traced if is_traced else plain).append(report)
        if is_traced:
            totals = layer_totals(spans)
            for key, value in report["counters"].items():
                layer, field = key.rsplit(".", 1)
                totals[layer][field] = value
            layers.append(totals)
        # Start another repetition only if it should end within --seconds,
        # once the minimum is met, and never past the hard deadline.
        next_s = last[trace and len(plain) > len(traced)]
        now = time.perf_counter()
        enough = bool(traced) if trace else len(plain) >= MIN_REPS
        if now + next_s > deadline or (enough and now - t_measure + next_s > seconds):
            break
    if not plain or (trace and not traced):
        raise BenchError("no repetition completed: " + "; ".join(result.messages[:3]))

    if trace:
        samples = {name: [t[layer][field] for t in layers]
                   for layer, fields in PER_LAYER_FIELDS.items() for field in fields
                   for name in [f"{layer}.{field}"]}
        samples["trace_overhead_frac"] = [
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in plain) - 1.0]
        units = PER_LAYER
    else:
        samples = {
            "setup_s": [r["setup_s"] for r in plain],
            "wall_s": [r["wall_s"] for r in plain],
            "units_per_s": [spec.units / r["wall_s"] for r in plain],
            "cpu_s": [r["cpu_s"] for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        units = END_TO_END
    metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
               for name, unit in units.items()}

    env_record = dict(warm["env"], workers=1, seed=seed, commit=git_commit(root))
    lines = [f"env {json.dumps(env_record, sort_keys=True)}",
             f"workload {workload}: optbench {' '.join(spec.argv(seed, '<out>'))}",
             f"work per call: {spec.units} units; repetitions: {len(plain)} untraced, "
             f"{len(traced)} traced"]
    for name, m in metrics.items():
        xs = samples[name]
        lines.append(f"{name:40s} {m['value']:.6g} {m['unit']} "
                     f"(median, n={len(xs)}, range {min(xs):.6g}..{max(xs):.6g})")
    lines.append(f"{'error_rate':40s} {result.error_rate:.6g} "
                 f"({result.failed} of {result.attempted} output rows failed)")
    lines.extend(f"gate: {msg}" for msg in result.messages)
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        outcome, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
