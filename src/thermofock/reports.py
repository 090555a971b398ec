"""Machine-readable run reports: per-check records, JSON, and CSV tables.

Reports are deterministic functions of (config, seed) -- identical runs
produce byte-identical JSON except for the wall-clock duration field.  A
report's JSON is its dataclass fields plus its verdict, with each complex
value written as {"re", "im"}.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import block_width, point_blocks

__all__ = ["CheckRecord", "ExperimentReport", "write_csv"]

SCHEMA_VERSION = "1"


def _json_form(value):
    """The JSON form of a complex value, Python or numpy: {"re", "im"}."""
    if isinstance(value, (np.complexfloating, complex)):
        return {"re": float(value.real), "im": float(value.imag)}
    raise TypeError(f"no JSON form for {type(value).__name__} {value!r}")


@dataclass(frozen=True)
class CheckRecord:
    """One verified quantity: what was measured, what it should be, and
    whether it landed inside tolerance.  `stderr` is set for stochastic
    estimates, None for deterministic ones; `verifies` says in words which
    relation the check exercises.  ExperimentReport.add derives `passed`;
    only a run that stopped early records a verdict of its own."""

    name: str
    verifies: str
    measured: object
    oracle: object
    tolerance: float
    passed: bool
    stderr: float = None


@dataclass
class ExperimentReport:
    command: str
    config: dict
    checks: list = field(default_factory=list)
    duration_seconds: float = 0.0
    schema_version: str = SCHEMA_VERSION

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, verifies: str, measured, oracle,
            tolerance: float, stderr: float = None) -> None:
        """Record a check that passes exactly when the tolerance is finite
        and |measured - oracle| <= tolerance, so a NaN fails it, and so does
        an infinite tolerance, which any measurement would meet; any verdict
        can be recomputed from the report."""
        passed = math.isfinite(tolerance) and bool(
            abs(measured - oracle) <= tolerance)
        self.checks.append(CheckRecord(
            name, verifies, measured, oracle, tolerance, passed, stderr))

    def to_json(self) -> str:
        # imported here, not at the top, as `csv` in write_csv: a run loads
        # them once its checks are done, so they are not at its peak memory
        import json

        return json.dumps({**asdict(self), "passed": self.passed},
                          sort_keys=True, indent=2, default=_json_form) + "\n"

    def write(self, path):
        """Encode, then write: a report with no JSON form raises TypeError
        before the file is opened."""
        text = self.to_json()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def write_csv(path, rows):
    """`rows`, a numpy record array, as UTF-8 CSV: a header row of its field
    names, then its records, floats at full round-trip precision.  The
    cells are made a column at a time, in blocks of rows sized so that
    their cells, about 8 floats each as Python objects, fill one block."""
    import csv

    names = rows.dtype.names
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for block in point_blocks(len(rows), block_width(8 * len(names))):
            writer.writerows(zip(*(rows[name][block].tolist()
                                   for name in names)))
