"""Pass/fail reporting for verification suites.

Verification operations return a CheckReport rather than raising, so a
single run can list every identity that failed together with a witness
(the offending indices or values).
"""

from __future__ import annotations

from dataclasses import dataclass, field, is_dataclass
from fractions import Fraction

from . import cyclo
from .cyclo import CycloNum


@dataclass
class Check:
    name: str
    passed: bool
    witness: object = None
    value: object = None

    def to_json(self):
        out = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = jsonable(self.witness)
        if self.value is not None:
            out["value"] = jsonable(self.value)
        return out


@dataclass
class CheckReport:
    title: str
    checks: list = field(default_factory=list)

    def add(self, name, passed, witness=None, value=None):
        self.checks.append(Check(name, bool(passed), witness, value))
        return passed

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self):
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def jsonable(obj):
    """Best-effort conversion of library values to JSON-ready data."""
    if isinstance(obj, CycloNum):
        return cyclo.to_json(obj)
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, str, float)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (CheckReport, Check)):
        return obj.to_json()
    if is_dataclass(obj) and not isinstance(obj, type):
        return jsonable(
            {k: getattr(obj, k) for k in obj.__dataclass_fields__}
        )
    return repr(obj)
