"""One measured call of the optbench CLI in a fresh interpreter.

    python3 bench/worker.py '<json job>'

The job is {"argv": [...] | null, "trace": bool, "spans": path | null}.  The
worker imports ``optbench.cli``, notes the monotonic clock (the parent
subtracts its own launch time to get set-up time), optionally wraps the
public layer functions with span recorders, runs ``cli.main(argv)`` and
prints one JSON line: ready time, wall and CPU seconds of the call, peak RSS,
the exit code and, when traced, layer counters.  Spans stay in memory during
the call and are written to ``spans`` (an .npz file) after it.  With
``argv`` null it only reports the environment, which warms the import caches.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
import platform
import resource
import sys
import time
from array import array

import numpy as np
import scipy

import optbench.cli as cli
import optbench.experiments as experiments
import optbench.linalg as linalg
import optbench.optim as optim
import optbench.problems as problems

# Set-up ends here: ``optbench.cli`` already pulls in numpy, scipy and every
# optbench module, so the imports after it cost nothing.
READY = time.perf_counter()

# Span name -> (owner, attribute).  Every binding of the same function object
# in an optbench module is replaced, so callers that imported it by name
# (``experiments.jacobi_eigh``, ``optim.project_box``, ...) are traced too.
# ``Optimizer.step`` is shared by all six optimizer classes.
LAYERS = {
    "linalg.jacobi_eigh": (linalg, "jacobi_eigh"),
    "linalg.householder_qr": (linalg, "householder_qr"),
    "linalg.project_box": (linalg, "project_box"),
    "problems.generate_least_squares": (problems, "generate_least_squares"),
    "problems.stochastic_gradient": (problems, "stochastic_gradient"),
    "problems.full_loss": (problems, "full_loss"),
    "problems.regret": (problems, "regret"),
    "optim.step": (optim.Optimizer, "step"),
    "experiments.run_trajectory": (experiments, "run_trajectory"),
    "experiments.swap_change": (experiments, "swap_change"),
    "experiments.check_regret_bound": (experiments, "check_regret_bound"),
    "cli.emit_csv": (cli, "emit_csv"),
}


class Tracer:
    """In-memory spans (name, start, end, parent) plus exact counters."""

    def __init__(self) -> None:
        self.names = list(LAYERS)
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.counters = {
            "experiments.run_trajectory.steps": 0,
            "experiments.run_trajectory.diverged": 0,
            "cli.emit_csv.bytes": 0,
        }

    def _wrap(self, name_id: int, fn, after=None):
        name, start, end, parent, stack = self.name, self.start, self.end, self.parent, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return functools.wraps(fn)(traced)

    def _count_trajectory(self, args, trace) -> None:
        self.counters["experiments.run_trajectory.steps"] += len(trace.t)
        self.counters["experiments.run_trajectory.diverged"] += int(bool(trace.diverged))

    def _count_csv(self, args, digest) -> None:
        self.counters["cli.emit_csv.bytes"] += os.path.getsize(args[2])

    def install(self) -> None:
        hooks = {
            "experiments.run_trajectory": self._count_trajectory,
            "cli.emit_csv": self._count_csv,
        }
        modules = [m for key, m in sys.modules.items()
                   if key == "optbench" or key.startswith("optbench.")]
        for name_id, (name, (owner, attr)) in enumerate(LAYERS.items()):
            original = getattr(owner, attr)
            wrapped = self._wrap(name_id, original, hooks.get(name))
            setattr(owner, attr, wrapped)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32))


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> None:
    job = json.loads(sys.argv[1])
    if job["argv"] is None:
        print(json.dumps({"ready": READY, "env": environment()}))
        return
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    code = cli.main(job["argv"])
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "ready": READY,
        "exit_code": code,
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.save(job["spans"])
        report["counters"] = tracer.counters
    print(json.dumps(report))


if __name__ == "__main__":
    main()
