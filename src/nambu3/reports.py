"""Defect reports produced by the finite-window checkers.

A report passes exactly when its entry list is empty.  Entries are sorted by
(axiom, index assignment, probe) so reports are deterministic regardless of
evaluation order, including parallel runs.  ``json_line`` is the one
canonical JSON form of a machine-stream record.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Tuple


def json_line(record: dict) -> str:
    """A record as one line of the machine stream: canonical JSON, with
    sorted keys and no spaces."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class DefectEntry:
    axiom: str
    indices: tuple
    defect: Any
    probe: str = ""
    family: str = ""
    parameters: Tuple[Tuple[str, str], ...] = ()

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


@dataclass
class DefectReport:
    label: str
    cases: int
    entries: list = field(default_factory=list)

    def __post_init__(self):
        self.entries = sorted(self.entries, key=lambda e: e.sort_key)

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
