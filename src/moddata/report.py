"""Pass/fail reporting for verification suites.

Verification operations return a CheckReport rather than raising, so a
single run can list every identity that failed together with a witness
(the offending indices or values).
"""

from __future__ import annotations

from fractions import Fraction

from . import cyclo
from .cyclo import CycloNum


class Record:
    """Base of the package's value types.

    A subclass names its compared fields, in order, in __match_args__ and
    assigns every attribute in its own __init__, the compared fields
    first.  Equality holds only within one class and compares the fields
    as a tuple; repr is Name(field=value, ...).  A Record is mutable and
    unhashable; see Frozen for the immutable kind.
    """

    __match_args__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    """A Record that hashes by its fields and refuses assignment.  Its
    __init__ fills the instance dict directly."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Check(Record):
    __match_args__ = ("name", "passed", "witness", "value")

    def __init__(self, name: str, passed: bool, witness=None, value=None):
        self.name = name
        self.passed = passed
        self.witness = witness
        self.value = value

    def to_json(self):
        out = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = jsonable(self.witness)
        if self.value is not None:
            out["value"] = jsonable(self.value)
        return out


class CheckReport(Record):
    __match_args__ = ("title", "checks")

    def __init__(self, title: str, checks: list | None = None):
        self.title = title
        self.checks = [] if checks is None else checks

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
    if isinstance(obj, Record):
        # every attribute, in the order __init__ assigned it
        return jsonable(vars(obj))
    return repr(obj)
