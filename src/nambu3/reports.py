"""Defect reports produced by the finite-window checkers.

A report holds one ``DefectClass`` per defect class: a case, its probe line,
the one vector its sweep computed, and the signed orderings of the case it
stands for (``signed_orderings`` of an antisymmetric axiom, or the identity).
It passes exactly when it holds no class; counting, the gate and
``merged_with`` read the classes without expanding them.  Only output
expands them, applying each ordering's sign, sorted by (axiom, index
assignment, probe) and then in class order, so reports are deterministic
regardless of evaluation order, including parallel runs.  ``entries``
(built on first use) is the reference route, ``text_lines`` expands only
the entries it shows, and ``machine_lines`` is a stream sized by the
defect count that joins each line as it is read, from pieces encoded once,
in the key order of ``json_line(e.record())``, the one canonical JSON form
of a machine-stream record.
"""
from __future__ import annotations

import json
from itertools import (accumulate, chain, combinations, groupby, islice,
                       permutations, product)
from operator import itemgetter
from typing import Any, Iterable, NamedTuple, Tuple


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


def signed_orderings(*sizes: int) -> tuple:
    """(permutation, parity) of each ordering of a case that permutes each
    block of consecutive positions of ``sizes`` within itself: the product
    of their symmetric groups, identity first."""
    blocks = [permutations(range(end - size, end))
              for size, end in zip(sizes, accumulate(sizes))]
    perms = [tuple(chain.from_iterable(ps)) for ps in product(*blocks)]
    return tuple((p, (-1) ** sum(a > b for a, b in combinations(p, 2)))
                 for p in perms)


class DefectClass(NamedTuple):
    """A case (keys that flatten into the indices), its probe line (or ""),
    its defect vector at the identity ordering, and its signed orderings."""

    axiom: str
    family: str
    parameters: tuple
    case: tuple
    probe: str
    defect: Any
    orderings: tuple


def _entry(indices: tuple, c: DefectClass, sign: int) -> DefectEntry:
    return DefectEntry(c.axiom, indices, c.defect if sign > 0 else -c.defect,
                       c.probe, c.family, c.parameters)


class DefectReport:
    """A sweep's label, its case count and its defect classes."""

    __slots__ = ("label", "cases", "classes", "_entries")

    def __init__(self, label: str, cases: int, entries: Iterable = (), *,
                 classes: Iterable = ()):
        self.label, self.cases, self._entries = label, cases, None
        identity = signed_orderings(1)
        self.classes = [*classes, *(
            DefectClass(e.axiom, e.family, e.parameters, (e.indices,),
                        e.probe, e.defect, identity) for e in entries)]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.label, self.cases, self.entries)
                == (other.label, other.cases, other.entries))

    @property
    def passed(self) -> bool:
        return not self.classes

    @property
    def defect_count(self) -> int:
        return sum(len(c.orderings) for c in self.classes)

    def _sorted(self):
        """Yield (indices, class, sign) of each entry, sorted by (axiom,
        indices, probe), then in class and ordering order.  The classes of
        one case, one per probe, share its index tuple at each ordering, so
        only those tuples are sorted, and each one's entries after it."""
        cases = {}
        for n, c in enumerate(self.classes):
            cases.setdefault((c.axiom, id(c.case), id(c.orderings)),
                             []).append((n, c))
        units = []
        for members in cases.values():
            first = members[0][1]
            for k, (perm, sign) in enumerate(first.orderings):
                indices = tuple(chain.from_iterable(
                    map(first.case.__getitem__, perm)))
                units.append((first.axiom, indices, k, sign, members))
        units.sort(key=itemgetter(0, 1))
        for (_, indices), tied in groupby(units, itemgetter(0, 1)):
            rows = sorted((c.probe, n, k, c, sign)
                          for _, _, k, sign, members in tied
                          for n, c in members)
            for _, _, _, c, sign in rows:
                yield indices, c, sign

    @property
    def entries(self) -> list:
        """The classes expanded, sorted; built on first use."""
        if self._entries is None:
            self._entries = [_entry(*row) for row in self._sorted()]
        return self._entries

    def summary(self) -> str:
        verdict = "pass" if self.passed else "fail"
        return (f"{self.label}: {self.cases} cases, "
                f"{self.defect_count} defects, {verdict}")

    def text_lines(self) -> list:
        shown = [_entry(*row) for row in islice(self._sorted(), 20)]
        lines = [self.summary()] + ["  " + entry.line() for entry in shown]
        hidden = self.defect_count - len(shown)
        if hidden > 0:
            lines.append(f"  ... and {hidden} more defects")
        return lines

    def machine_lines(self) -> "_MachineLines":
        """``json_line(e.record())`` of each entry, in sorted order, as a
        stream sized by ``defect_count`` whose lines are joined as read."""
        return _MachineLines(self)

    def merged_with(self, other: "DefectReport", label: str) -> "DefectReport":
        return DefectReport(label, self.cases + other.cases,
                            classes=self.classes + other.classes)


class _MachineLines:
    """A report's machine stream, re-read on each iteration, so its memory
    grows with the classes, not the lines.  Class vectors are keyed by
    ``id``, since the classes keep them alive, a negated vector by its +1
    text, and an index tuple by the last one, since the sort yields all
    rows of one tuple together."""

    __slots__ = ("report",)

    def __init__(self, report: DefectReport):
        self.report = report

    def __len__(self) -> int:
        return self.report.defect_count

    def __iter__(self):
        encode = _ENCODER.encode
        vectors, negated, contexts = {}, {}, {}
        last = where = None
        for indices, c, sign in self.report._sorted():
            vec = c.defect
            defect = vectors.get(id(vec))
            if defect is None:
                defect = vectors[id(vec)] = encode(str(vec))
            if sign < 0:
                text = negated.get(defect)
                if text is None:
                    text = negated[defect] = encode(str(-vec))
                defect = text
            if indices is not last:
                last, where = indices, encode([str(i) for i in indices])
            context = (c.axiom, c.family, id(c.parameters), c.probe)
            pieces = contexts.get(context)
            if pieces is None:
                pieces = contexts[context] = (
                    f'{{"axiom":{encode(c.axiom)},"defect":',
                    f',"family":{encode(c.family)},"indices":',
                    f',"parameters":{json_line(dict(c.parameters))}'
                    f',"probe":{encode(c.probe)}}}')
            head, middle, tail = pieces
            yield f"{head}{defect}{middle}{where}{tail}"


def sweep_report(label: str, cases: int, found: list, *, axiom: str,
                 family: str, parameters: tuple = (),
                 orderings: tuple) -> DefectReport:
    """A sweep's report from its ``(keys, probe, vector)`` triples, replacing
    each triple in ``found`` by its class so no sweep holds both at once;
    ``probe`` is a weight key or None.  ``vector`` is the defect at
    ``keys``, which stands for its case at each of ``orderings`` (the
    identity ``signed_orderings(1, ..., 1)`` where every case is swept)."""
    shown = {}
    for i, (keys, probe, vector) in enumerate(found):
        text = shown.get(probe)
        if text is None:
            text = shown[probe] = "" if probe is None else f"v[{probe}]"
        found[i] = DefectClass(axiom, family, parameters, keys, text, vector,
                               orderings)
    return DefectReport(label, cases, classes=found)
