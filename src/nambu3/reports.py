"""Defect reports produced by the finite-window checkers.

A report passes exactly when its entry list is empty.  Entries are sorted by
(axiom, index assignment, probe) so reports are deterministic regardless of
evaluation order, including parallel runs.  ``json_line`` is the one
canonical JSON form of a machine-stream record.  Entries and reports are
plain slotted classes, compared field by field.
"""
from __future__ import annotations

import json
from typing import Any, Iterable, Tuple


# one encoder for every line: json.dumps would build one per call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def json_line(record: dict) -> str:
    """A record as one line of the machine stream: canonical JSON, with
    sorted keys and no spaces."""
    return _ENCODER.encode(record)


class DefectEntry:
    """A defect vector with its axiom, flattened index assignment, probe
    line (or ""), and the action's family and (name, value) parameters."""

    __slots__ = ("axiom", "indices", "defect", "probe", "family", "parameters")

    def __init__(self, axiom: str, indices: tuple, defect: Any,
                 probe="", family="", parameters: Tuple[tuple, ...] = ()):
        self.axiom, self.indices, self.defect = axiom, indices, defect
        self.probe, self.family, self.parameters = probe, family, parameters

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)

    @property
    def sort_key(self):
        return (self.axiom, self.indices, self.probe)

    def record(self) -> dict:
        return {
            "axiom": self.axiom,
            "family": self.family,
            "parameters": dict(self.parameters),
            "indices": [str(i) for i in self.indices],
            "probe": self.probe,
            "defect": str(self.defect),
        }

    def line(self) -> str:
        where = "(" + ",".join(str(i) for i in self.indices) + ")"
        probe = f" probe {self.probe}" if self.probe else ""
        return f"{self.axiom} at {where}{probe}: defect = {self.defect}"


class DefectReport:
    """A sweep's label, its case count and its entries, sorted."""

    __slots__ = ("label", "cases", "entries")

    def __init__(self, label: str, cases: int, entries: Iterable = ()):
        self.label, self.cases = label, cases
        self.entries = sorted(entries, key=lambda e: e.sort_key)

    __eq__ = DefectEntry.__eq__

    @property
    def passed(self) -> bool:
        return not self.entries

    def summary(self) -> str:
        verdict = "pass" if self.passed else "fail"
        return (f"{self.label}: {self.cases} cases, "
                f"{len(self.entries)} defects, {verdict}")

    def text_lines(self, limit: int = 20) -> list:
        lines = [self.summary()]
        for entry in self.entries[:limit]:
            lines.append("  " + entry.line())
        hidden = len(self.entries) - limit
        if hidden > 0:
            lines.append(f"  ... and {hidden} more defects")
        return lines

    def machine_lines(self) -> list:
        return [json_line(e.record()) for e in self.entries]

    def merged_with(self, other: "DefectReport", label: str) -> "DefectReport":
        return DefectReport(label, self.cases + other.cases,
                            self.entries + other.entries)


def sweep_report(label: str, cases: int, found: list, *, axiom: str,
                 family: str, parameters: tuple = ()) -> DefectReport:
    """A sweep's report from its ``(keys, probe, defect)`` triples, replacing
    each triple in ``found`` by its entry so no sweep holds both at once.
    Keys flatten into the indices; ``probe`` is a weight key or None."""
    for i, (keys, probe, defect) in enumerate(found):
        found[i] = DefectEntry(
            axiom=axiom, indices=tuple(part for key in keys for part in key),
            defect=defect, probe="" if probe is None else f"v[{probe}]",
            family=family, parameters=parameters)
    return DefectReport(label, cases, found)
