"""JSON encodings for every value the command line reads or writes.

Encoding is deterministic (sorted keys, fixed field order) so identical
inputs always produce byte-identical output.  Decoders raise CodecError for
JSON of the wrong shape: a missing key, a non-integer, a wrong container, a
declared k or colors that disagrees, or a count past GENERATOR_COUNT_MAX.
The values they build refuse bad contents with their own errors.  All are
ValueErrors, which cli.main prints as one "error:" line with exit 3.
"""

from __future__ import annotations

import json
from typing import Any

from .dense_types import DenseType
from .patterns import CombGenerator
from .reductions import ReductionData
from .spaces import (
    ClassTest,
    Cone,
    CoSingleton,
    DisjointFamily,
    INFINITY,
    LimitPoint,
    NodePoint,
    NodeTest,
    OpenSetDescriptor,
    PartitionTable,
    Singleton,
    StabilizationReport,
    SymbolicPoint,
    TestPoint,
)
from .words import Branch, Word


class CodecError(ValueError):
    """Malformed or mis-shaped JSON input."""


def _require(doc: Any, key: str) -> Any:
    if not isinstance(doc, dict) or key not in doc:
        raise CodecError(f"expected an object with key {key!r}")
    return doc[key]


def _int(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise CodecError(f"{what} must be an integer")
    return value


def _int_list(value: Any, what: str) -> list[int]:
    if not isinstance(value, list) or not all(isinstance(a, int) for a in value):
        raise CodecError(f"{what} must be a list of integers")
    return value


# -- words and branches --------------------------------------------------------


def word_from_json(doc: Any, m: int) -> Word:
    return Word(m, tuple(_int_list(_require(doc, "word"), "word")))


def branch_to_json(b: Branch) -> dict:
    return {"stem": list(b.stem), "period": list(b.period)}

def branch_from_json(doc: Any, m: int) -> Branch:
    stem = _int_list(_require(doc, "stem"), "stem")
    period = _int_list(_require(doc, "period"), "period")
    return Branch(m, tuple(stem), tuple(period))


# -- comb generators ------------------------------------------------------------

# over() builds each counted depth; teeth continue past them anyway.
GENERATOR_COUNT_MAX = 1 << 16


def generator_from_json(doc: Any, m: int) -> CombGenerator:
    branch = branch_from_json(_require(doc, "branch"), m)
    i, j = _require(doc, "i"), _require(doc, "j")
    if "depths" in doc:
        depths = tuple(_int_list(doc["depths"], "depths"))
        return CombGenerator(branch, i, j, depths)
    count = _int(_require(doc, "count"), "count")
    if count > GENERATOR_COUNT_MAX:
        raise CodecError(f"count must be at most {GENERATOR_COUNT_MAX}; list depths")
    return CombGenerator.over(branch, i, j, count)


# -- spaces ---------------------------------------------------------------------


def table_to_json(t: PartitionTable) -> dict:
    doc: dict = {"m": t.m, "values": [list(row) for row in t.values]}
    if t.colors == tuple(range(t.n)):
        doc["n"] = t.n
    else:
        doc["colors"] = list(t.colors)
    return doc

def table_from_json(doc: Any) -> PartitionTable:
    m = _int(_require(doc, "m"), "m")
    values = _require(doc, "values")
    if not isinstance(values, list):
        raise CodecError("values must be a list of rows")
    rows = tuple(tuple(_int_list(row, "table row")) for row in values)
    if "n" in doc:
        table = PartitionTable.dense(m, _int(doc["n"], "n"), rows)
    else:
        table = PartitionTable(m, rows)
    colors = list(table.colors)
    if "colors" in doc and _int_list(doc["colors"], "colors") != colors:
        raise CodecError(f"colors must equal the table's colours {colors}")
    return table


def family_to_json(f: DisjointFamily) -> dict:
    return {"m": f.m, "classes": [sorted(c) for c in f.classes]}

def family_from_json(doc: Any) -> DisjointFamily:
    m = _int(_require(doc, "m"), "m")
    classes = _require(doc, "classes")
    if not isinstance(classes, list):
        raise CodecError("classes must be a list")
    return DisjointFamily(m, tuple(frozenset(_int_list(c, "class")) for c in classes))


def point_to_json(p: SymbolicPoint) -> dict:
    if isinstance(p, NodePoint):
        return {"kind": "node", "word": list(p.word.letters)}
    if isinstance(p, LimitPoint):
        return {"kind": "limit", "branch": branch_to_json(p.branch), "class": p.cls}
    return {"kind": "infinity"}

def point_from_json(doc: Any, m: int) -> SymbolicPoint:
    kind = _require(doc, "kind")
    if kind == "node":
        return NodePoint(word_from_json(doc, m))
    if kind == "limit":
        return LimitPoint(
            branch_from_json(_require(doc, "branch"), m), _require(doc, "class")
        )
    if kind == "infinity":
        return INFINITY
    raise CodecError(f"unknown point kind {kind!r}")


def test_to_json(t: TestPoint) -> dict:
    if isinstance(t, NodeTest):
        return {"kind": "node", "word": list(t.word.letters)}
    return {"kind": "class", "branch": branch_to_json(t.branch), "class": t.cls}

def test_from_json(doc: Any, m: int) -> TestPoint:
    kind = _require(doc, "kind")
    if kind == "node":
        return NodeTest(word_from_json(doc, m))
    if kind == "class":
        branch = branch_from_json(_require(doc, "branch"), m)
        return ClassTest(branch, _int(_require(doc, "class"), "class"))
    raise CodecError(f"unknown test kind {kind!r}")


def descriptor_to_json(d: OpenSetDescriptor) -> dict:
    if isinstance(d, Cone):
        return {"kind": "Vt", "t": list(d.word.letters)}
    if isinstance(d, Singleton):
        return {"kind": "Wt", "t": list(d.word.letters)}
    if isinstance(d, CoSingleton):
        return {"kind": "NotWt", "t": list(d.word.letters)}
    return {"kind": "whole"}


def report_to_json(rep: StabilizationReport) -> dict:
    doc = {
        "test": test_to_json(rep.test),
        "limit_value": rep.limit_value,
        "horizon": rep.horizon,
    }
    if rep.stable:
        doc["k0"] = rep.k0
    else:
        doc["unstable_at"] = rep.horizon
    return doc


# -- dense types and reductions --------------------------------------------------


def dense_type_to_json(t: DenseType) -> dict:
    return {
        "n": t.n,
        "A": list(t.A),
        "B": list(t.B),
        "C": list(t.C),
        "D": list(t.D),
        "E": list(t.E),
        "psi": [list(trip) for trip in t.psi],
        "blocks": [list(b) for b in t.blocks],
        "gamma": [list(g) for g in t.gamma],
    }


def reduction_to_json(r: ReductionData) -> dict:
    return {
        "k": r.k,
        "x": list(r.x.letters),
        "e": [list(w.letters) for w in r.e],
    }

def reduction_from_json(doc: Any, m1: int) -> ReductionData:
    k = _int(_require(doc, "k"), "k")
    x = Word(m1, tuple(_int_list(_require(doc, "x"), "x")))
    e_raw = _require(doc, "e")
    if not isinstance(e_raw, list):
        raise CodecError("e must be a list of words")
    e = tuple(Word(m1, tuple(_int_list(w, "letter word"))) for w in e_raw)
    r = ReductionData(e, x)
    if r.k != k:
        raise CodecError(f"declared k={k} but letter words have length {r.k}")
    return r


def dumps(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
