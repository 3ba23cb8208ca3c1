"""Regenerate the stored reference outputs (default seed) from ``src/``.

    python3 bench/make_reference.py

Run from the repository root.  Only do this when a change to the program's
outputs is intended and explained; the gate compares against these files.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

import run

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import optbench.cli as cli  # noqa: E402


def main() -> int:
    for spec in run.WORKLOADS.values():
        target = os.path.join(run.REFERENCE_DIR, spec.reference)
        os.makedirs(target, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=".") as tmp:
            code = cli.main(spec.argv(run.DEFAULT_SEED, tmp))
            if code != 0:
                print(f"{spec.subcommand} exited {code}", file=sys.stderr)
                return 1
            for name in spec.outputs:
                shutil.copyfile(os.path.join(tmp, name), os.path.join(target, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
