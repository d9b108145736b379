"""The hot entry points leave no reference cycles behind.

Garbage that only the cyclic collector can free makes its passes run
inside later, unrelated calls.  Each case runs once to warm caches, then
again with the collector off; a following gc.collect() must find nothing.
"""

import contextlib
import gc
import io
import json

import pytest

from madic import cli, codec
from madic.dense_types import enumerate_types, partition_from_type
from madic.patterns import (
    Comb,
    CombGenerator,
    FirstMoveMap,
    canonical_pattern,
    check_first_move_map,
    find_pattern,
)
from madic.reductions import (
    apply_reduction,
    check_reduces,
    restrict_colors,
    search_reduction,
)
from madic.spaces import (
    LimitPoint,
    NodePoint,
    NodeTest,
    PartitionSpace,
    PartitionTable,
    separate_points,
    verify_convergence,
)
from madic.words import Branch, Word, concat

G = partition_from_type(enumerate_types(4)[0])[1]
RESTRICTED = restrict_colors(G, 2)
SOLO = PartitionTable(2, ((0, 1), (1, 0)))
LOPSIDED = PartitionTable(2, ((0, 0), (1, 1)))
SPACE = PartitionSpace(G)
GEN = CombGenerator.over(Branch(3, (1,), (0, 2)), 0, 1, 4)
TESTS = [NodeTest(Word(3, (1, 0))), NodeTest(Word(3, (2,)))]
POINTS = [
    NodePoint(Word(3, (0, 1))),
    LimitPoint(Branch(3, (), (2,)), 0),
    LimitPoint(Branch(3, (1,), (0,)), 2),
    NodePoint(Word(3, (2,))),
    LimitPoint(Branch(3, (), (0, 1)), 3),
]

TEETH = canonical_pattern(Comb(0, 1), 3, 2)
NOISE = tuple(Word(2, ls) for ls in [(0,), (1, 1), (0, 1), (1, 0, 1)])
PACKED = (Word(2, (1,)), Word(2, (0, 1)), Word(2, (0, 0, 1)))
SHIFTED = FirstMoveMap(tuple((t, concat(Word(2, (1,)), t)) for t in TEETH))
SWAPPED = FirstMoveMap(tuple(zip(TEETH, TEETH[::-1])))


def garbage_after(call) -> int:
    """Objects the cyclic collector frees after one warm call."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def cli_reduce(code, *argv):
    """A call of `madic reduce` with stdout captured and its exit code
    checked."""

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["reduce", *argv]) == code

    return run


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


CASES = {
    "search_hit": lambda: search_reduction(RESTRICTED.table, G, 3),
    "search_miss": lambda: search_reduction(SOLO, LOPSIDED, 3),
    "apply_reduction": lambda: apply_reduction(RESTRICTED.reduction),
    "check_reduces": lambda: check_reduces(RESTRICTED.table, G, RESTRICTED.reduction),
    "restrict_colors": lambda: restrict_colors(G, 2),
    "enumerate_types": lambda: enumerate_types(4),
    "partition_from_type": lambda: partition_from_type(enumerate_types(4)[5]),
    "verify_convergence": lambda: verify_convergence(GEN, SPACE, TESTS),
    "separate_points": lambda: separate_points(POINTS, SPACE),
    "pattern_hit": lambda: find_pattern(NOISE + TEETH, Comb(0, 1), 3, 2),
    "pattern_miss": lambda: find_pattern(NOISE + PACKED, Comb(0, 1), 3, 2),
    "first_move_valid": lambda: check_first_move_map(SHIFTED),
    "first_move_invalid": lambda: check_first_move_map(SWAPPED),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_library_call_leaves_no_cycles(name):
    assert garbage_after(CASES[name]) == 0


def test_search_cases_take_both_outcomes():
    assert search_reduction(RESTRICTED.table, G, 3) is not None
    assert search_reduction(SOLO, LOPSIDED, 3) is None
    assert find_pattern(NOISE + TEETH, Comb(0, 1), 3, 2) is not None
    assert find_pattern(NOISE + PACKED, Comb(0, 1), 3, 2) is None
    assert check_first_move_map(SHIFTED).valid
    assert not check_first_move_map(SWAPPED).valid


@pytest.mark.parametrize("mode", ["search_hit", "search_miss", "check", "construct"])
def test_cli_reduce_leaves_no_cycles(tmp_path, mode):
    f, g = (SOLO, LOPSIDED) if mode == "search_miss" else (RESTRICTED.table, G)
    argv = ["--g", write(tmp_path, "g.json", codec.table_to_json(g))]
    if mode == "construct":
        argv += ["--construct", "2"]
    else:
        argv += ["--f", write(tmp_path, "f.json", codec.table_to_json(f))]
    if mode == "check":
        doc = codec.reduction_to_json(RESTRICTED.reduction)
        argv += ["--reduction", write(tmp_path, "r.json", doc)]
    elif mode != "construct":
        argv += ["--max-k", "3"]
    code = 4 if mode == "search_miss" else 0
    assert garbage_after(cli_reduce(code, *argv)) == 0
