"""Identity verification records and their deterministic serialization.

A report captures one identity checked at one parameter point: both evaluated
sides, the absolute residual, the tolerance in force, and the verdict.  JSON
output is reproducible byte for byte: fields appear in fixed order, floats use
shortest round-trip formatting (at most 17 significant digits), and complex
numbers are emitted as [re, im] pairs.
"""

from __future__ import annotations

import json
from typing import NamedTuple


def _encode(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


class IdentityReport(NamedTuple):
    """Outcome of one identity instance; passed is residual <= tolerance."""

    identity_id: str
    instance: dict
    lhs: complex | None
    rhs: complex | None
    residual: float | None
    tolerance: float
    passed: bool
    error: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "identity_id": self.identity_id,
            "instance": {k: _encode(v) for k, v in self.instance.items()},
            "lhs": _encode(self.lhs),
            "rhs": _encode(self.rhs),
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "error": self.error,
        }

    def to_json_line(self) -> str:
        """to_json_dict as JSON, a value JSON cannot carry written as its repr."""
        return json.dumps(self.to_json_dict(), default=repr)


def make_report(identity_id: str, instance: dict, lhs: complex, rhs: complex,
                rel_tol: float) -> IdentityReport:
    """Assemble a report from two evaluated sides, Python complex numbers, and
    a float rel_tol.  The tolerance is rel_tol * max(|lhs|, |rhs|, 1):
    relative for large sides, absolute below magnitude one."""
    tolerance, residual = rel_tol * max(abs(lhs), abs(rhs), 1.0), abs(lhs - rhs)
    return IdentityReport(identity_id, instance, lhs, rhs, residual, tolerance,
                          residual <= tolerance)


def make_error_report(identity_id: str, instance: dict,
                      error: Exception) -> IdentityReport:
    """Record a per-instance failure without aborting the surrounding sweep."""
    return IdentityReport(identity_id, instance, None, None, None, 0.0, False,
                          f"{type(error).__name__}: {error}")


def suite_passed(reports: list[IdentityReport]) -> bool:
    """A sweep passes only if every instance passed; empty sweeps pass."""
    return all(r.passed for r in reports)
