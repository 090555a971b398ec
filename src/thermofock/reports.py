"""Machine-readable run reports: per-check records, JSON, and CSV tables.

Reports are deterministic functions of (config, seed) -- identical runs
produce byte-identical JSON except for the wall-clock duration field.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["CheckRecord", "ExperimentReport", "write_csv"]

SCHEMA_VERSION = "1"


def _plain(value):
    """Coerce complex values, nested in lists, tuples and dicts, to
    JSON-friendly ones; a float64 is a float."""
    if isinstance(value, (np.complexfloating, complex)):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
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

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "verifies": self.verifies,
            "measured": _plain(self.measured),
            "oracle": _plain(self.oracle),
            "tolerance": _plain(self.tolerance),
            "passed": bool(self.passed),
            "stderr": _plain(self.stderr),
        }


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

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "command": self.command,
            "config": _plain(self.config),
            "checks": [c.to_dict() for c in self.checks],
            "passed": self.passed,
            "duration_seconds": float(self.duration_seconds),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def _cell(value) -> str:
    if isinstance(value, np.floating):
        value = float(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header, rows):
    """UTF-8 CSV with a header row; floats at full round-trip precision."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
