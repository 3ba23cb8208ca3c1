"""Correctness gate for benchmark outputs.

A row fails when it breaks the CSV schema or an invariant, disagrees with the
stored reference (default seed only), or differs from the same row of the
first repetition (a run is a pure function of config and seed).  A run that
exits non-zero fails every row it should have written.

Invariants, checked on any seed:
  * the header and the number of rows match the subcommand's schema, and
    every numeric cell parses;
  * every ``ok`` column is ``true``;
  * heatmap ``log10_loss`` is finite or exactly 50 (the divergence marker);
  * per degenerate stability seed, exactly ``d - rank`` eigenvalues are 0 and
    those rows have ``mean_abs_change`` exactly 0.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

# Reference comparison: |got - want| <= ATOL + RTOL * |want| for numeric cells.
RTOL = 1e-6
ATOL = 1e-9
DIVERGED_LOG10 = 50.0

# File -> (columns, numeric columns).
SCHEMAS: dict[str, tuple[list[str], set[str]]] = {
    "heatmap.csv": (["optimizer", "lambda_max", "cond", "seed", "log10_loss"],
                    {"lambda_max", "cond", "seed", "log10_loss"}),
    "stability.csv": (["variant", "seed", "eig_index", "eigenvalue", "mean_abs_change",
                       "mean_loss_change"],
                      {"seed", "eig_index", "eigenvalue", "mean_abs_change",
                       "mean_loss_change"}),
    "stability-summary.csv": (["variant", "seed", "spearman"], {"seed", "spearman"}),
    "regret.csv": (["kind", "schedule", "seed", "horizon", "regret", "bound", "ratio",
                    "regret_per_round", "ok"],
                   {"seed", "horizon", "regret", "bound", "ratio", "regret_per_round"}),
}


@dataclass
class GateResult:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, message: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if message is not None and len(self.messages) < 20:
            self.messages.append(message)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def read_csv(path: str) -> tuple[list[str], list[list[str]]] | None:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return None
    if not lines:
        return None
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _row_ok(name: str, columns: list[str], numeric: set[str], cells: list[str]) -> bool:
    if len(cells) != len(columns):
        return False
    row = dict(zip(columns, cells))
    try:
        values = {c: float(row[c]) for c in numeric}
    except ValueError:
        return False
    if "ok" in row and row["ok"] != "true":
        return False
    if name == "heatmap.csv":
        v = values["log10_loss"]
        return math.isfinite(v) or v == DIVERGED_LOG10
    if name == "stability.csv":
        if row["variant"] == "degenerate" and values["eigenvalue"] == 0.0:
            return values["mean_abs_change"] == 0.0
    return True


def _close(got: str, want: str, is_numeric: bool) -> bool:
    if not is_numeric or got == want:
        return got == want
    a, b = float(got), float(want)
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= ATOL + RTOL * abs(b)


def _zero_count_failures(rows: list[list[str]], columns: list[str], zeros: int) -> set[int]:
    """Row indices of degenerate seeds whose count of exact-zero eigenvalues
    is not ``zeros`` (a non-structural zero would make the exactness check
    vacuous)."""
    i_var, i_seed, i_eig = (columns.index(c) for c in ("variant", "seed", "eigenvalue"))
    groups: dict[str, list[int]] = {}
    for i, cells in enumerate(rows):
        if len(cells) == len(columns) and cells[i_var] == "degenerate":
            groups.setdefault(cells[i_seed], []).append(i)
    bad: set[int] = set()
    for members in groups.values():
        count = 0
        for i in members:
            try:
                count += float(rows[i][i_eig]) == 0.0
            except ValueError:
                pass
        if count != zeros:
            bad.update(members)
    return bad


def check_file(name: str, path: str, expected_rows: int, *, result: GateResult,
               reference: str | None = None, first: list[list[str]] | None = None,
               degenerate_zeros: int | None = None) -> list[list[str]] | None:
    """Check one output CSV; returns its rows for the cross-repetition check."""
    columns, numeric = SCHEMAS[name]
    parsed = read_csv(path)
    if parsed is None or parsed[0] != columns:
        result.add(expected_rows, expected_rows, f"{name}: missing file or wrong header")
        return None
    rows = parsed[1]
    ref_rows = None
    if reference is not None:
        ref = read_csv(reference)
        ref_rows = ref[1] if ref is not None and ref[0] == columns else []
    bad_zero = (_zero_count_failures(rows, columns, degenerate_zeros)
                if name == "stability.csv" and degenerate_zeros is not None else set())
    attempted = max(expected_rows, len(rows))
    failed = 0
    for i in range(attempted):
        cells = rows[i] if i < len(rows) else None
        ok = (cells is not None and i < expected_rows and i not in bad_zero
              and _row_ok(name, columns, numeric, cells))
        if ok and ref_rows is not None:
            ok = i < len(ref_rows) and all(
                _close(g, w, c in numeric) for g, w, c in zip(cells, ref_rows[i], columns))
        if ok and first is not None:
            ok = i < len(first) and cells == first[i]
        if not ok:
            failed += 1
            shown = "missing" if cells is None else ",".join(cells)
            result.add(0, 0, f"{name} row {i + 1} of {expected_rows}: {shown}")
    result.add(attempted, failed)
    return rows


def check_run(out_dir: str, expected: dict[str, int], exit_code: int, *, result: GateResult,
              reference_dir: str | None = None, first: dict[str, list] | None = None,
              degenerate_zeros: int | None = None) -> dict[str, list]:
    """Check every output file of one CLI call; returns {file: rows}."""
    if exit_code != 0:
        total = sum(expected.values())
        result.add(total, total, f"exit code {exit_code} in {out_dir}")
        return {}
    rows = {}
    for name, n in expected.items():
        rows[name] = check_file(
            name, os.path.join(out_dir, name), n, result=result,
            reference=os.path.join(reference_dir, name) if reference_dir else None,
            first=(first or {}).get(name), degenerate_zeros=degenerate_zeros)
    return rows
