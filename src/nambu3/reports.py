"""Defect reports produced by the finite-window checkers.

A report passes exactly when its entry list is empty.  Entries are sorted by
(axiom, index assignment, probe) so reports are deterministic regardless of
evaluation order, including parallel runs.  ``json_line`` is the one
canonical JSON form of a machine-stream record.  Entries and reports are
plain slotted classes, compared field by field.

Entries share values (a module-axiom sweep reports one defect vector at
each signed ordering of a case), so ``sweep_report`` flattens each index
assignment once and ``machine_lines`` encodes each distinct field once,
joining the pieces in the key order of ``json_line(e.record())``.
"""
from __future__ import annotations

import json
from itertools import chain
from operator import attrgetter
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


_ENTRY_ORDER = attrgetter("axiom", "indices", "probe")


class DefectReport:
    """A sweep's label, its case count and its entries, sorted."""

    __slots__ = ("label", "cases", "entries")

    def __init__(self, label: str, cases: int, entries: Iterable = ()):
        self.label, self.cases = label, cases
        self.entries = sorted(entries, key=_ENTRY_ORDER)

    __eq__ = DefectEntry.__eq__

    @property
    def passed(self) -> bool:
        return not self.entries

    def summary(self) -> str:
        verdict = "pass" if self.passed else "fail"
        return (f"{self.label}: {self.cases} cases, "
                f"{len(self.entries)} defects, {verdict}")

    def text_lines(self) -> list:
        shown = self.entries[:20]
        lines = [self.summary()] + ["  " + entry.line() for entry in shown]
        hidden = len(self.entries) - len(shown)
        if hidden > 0:
            lines.append(f"  ... and {hidden} more defects")
        return lines

    def machine_lines(self) -> list:
        """``json_line(e.record())`` of each entry; objects are keyed by
        ``id``, since the entries keep them alive."""
        encode = _ENCODER.encode
        defects, indices, contexts, lines = {}, {}, {}, []
        for e in self.entries:
            defect = defects.get(id(e.defect))
            if defect is None:
                defect = defects[id(e.defect)] = encode(str(e.defect))
            where = indices.get(id(e.indices))
            if where is None:
                where = indices[id(e.indices)] = encode(
                    [str(i) for i in e.indices])
            context = (e.axiom, e.family, id(e.parameters), e.probe)
            pieces = contexts.get(context)
            if pieces is None:
                pieces = contexts[context] = (
                    f'{{"axiom":{encode(e.axiom)},"defect":',
                    f',"family":{encode(e.family)},"indices":',
                    f',"parameters":{json_line(dict(e.parameters))}'
                    f',"probe":{encode(e.probe)}}}')
            head, middle, tail = pieces
            lines.append(f"{head}{defect}{middle}{where}{tail}")
        return lines

    def merged_with(self, other: "DefectReport", label: str) -> "DefectReport":
        return DefectReport(label, self.cases + other.cases,
                            self.entries + other.entries)


def sweep_report(label: str, cases: int, found: list, *, axiom: str,
                 family: str, parameters: tuple = ()) -> DefectReport:
    """A sweep's report from its ``(keys, probe, defect)`` triples, replacing
    each triple in ``found`` by its entry so no sweep holds both at once.
    Keys flatten into the indices; ``probe`` is a weight key or None."""
    flat, shown = {}, {}
    for i, (keys, probe, defect) in enumerate(found):
        indices = flat.get(keys)
        if indices is None:
            indices = flat[keys] = tuple(chain.from_iterable(keys))
        text = shown.get(probe)
        if text is None:
            text = shown[probe] = "" if probe is None else f"v[{probe}]"
        found[i] = DefectEntry(axiom, indices, defect, text, family,
                               parameters)
    return DefectReport(label, cases, found)
