"""JSON encodings: frozen formats, round trips, and input validation."""

import random

import pytest

from madic import codec
from madic.codec import CodecError
from madic.dense_types import DenseType, enumerate_types
from madic.patterns import CombGenerator
from madic.reductions import ReductionData, ReductionError
from madic.spaces import (
    INFINITY,
    ClassTest,
    Cone,
    CoSingleton,
    DisjointFamily,
    LimitPoint,
    NodePoint,
    NodeTest,
    PartitionTable,
    Singleton,
    SpaceError,
    StabilizationReport,
    WholeSpace,
)
from madic.words import Branch, Word

from conftest import random_branch, random_table, random_word


class TestWordsAndBranches:
    def test_word_round_trip(self):
        rng = random.Random(1)
        for _ in range(30):
            m = rng.randrange(2, 5)
            w = random_word(rng, m)
            assert codec.word_from_json({"word": list(w.letters)}, m) == w

    def test_branch_format(self):
        b = Branch(2, (0,), (1,))
        assert codec.branch_to_json(b) == {"stem": [0], "period": [1]}

    def test_branch_round_trip_canonicalizes(self):
        doc = {"stem": [0, 1], "period": [1, 1]}
        b = codec.branch_from_json(doc, 2)
        assert b == Branch(2, (0,), (1,))

    def test_word_rejects_non_integers(self):
        with pytest.raises(CodecError):
            codec.word_from_json({"word": "01"}, 2)
        with pytest.raises(CodecError):
            codec.word_from_json({"letters": [0]}, 2)

    def test_branch_requires_both_parts(self):
        with pytest.raises(CodecError):
            codec.branch_from_json({"stem": [0]}, 2)


class TestPatternDocs:
    def test_generator_round_trip(self):
        gen = CombGenerator(Branch(2, (), (0,)), 0, 1, (0, 2, 4))
        branch = {"stem": [], "period": [0]}
        doc = {"branch": branch, "i": 0, "j": 1, "depths": [0, 2, 4]}
        assert codec.generator_from_json(doc, 2) == gen

    def test_generator_count_form(self):
        doc = {"branch": {"stem": [], "period": [0]}, "i": 0, "j": 1, "count": 3}
        gen = codec.generator_from_json(doc, 2)
        assert gen.depths == (0, 1, 2)

    def test_generator_count_must_be_integer(self):
        doc = {"branch": {"stem": [], "period": [0]}, "i": 0, "j": 1, "count": "3"}
        with pytest.raises(CodecError):
            codec.generator_from_json(doc, 2)


class TestSpaceDocs:
    def test_dense_table_uses_n(self):
        t = PartitionTable.dense(2, 2, ((0, 1), (0, 0)))
        doc = codec.table_to_json(t)
        assert doc == {"m": 2, "values": [[0, 1], [0, 0]], "n": 2}
        assert codec.table_from_json(doc) == t

    def test_sparse_table_lists_colors(self):
        t = PartitionTable(2, ((5, 9), (5, 5)))
        doc = codec.table_to_json(t)
        assert doc == {"m": 2, "values": [[5, 9], [5, 5]], "colors": [5, 9]}
        assert codec.table_from_json(doc) == t

    def test_table_with_missing_color_rejected(self):
        doc = {"m": 2, "values": [[0, 0], [0, 0]], "n": 2}
        with pytest.raises(SpaceError, match=r"not surjective onto 0\.\.1"):
            codec.table_from_json(doc)

    @pytest.mark.parametrize("colors", [[5, 6], [1], [0, 1, 2], [1, 0], "01", [0, "1"]])
    def test_table_colors_must_match_values(self, colors):
        doc = {"m": 2, "values": [[0, 1], [1, 1]], "colors": colors}
        with pytest.raises(CodecError, match="colors must"):
            codec.table_from_json(doc)
        doc["colors"] = [0, 1]
        assert codec.table_from_json(doc) == PartitionTable(2, ((0, 1), (1, 1)))

    @pytest.mark.parametrize("field", ["m", "n"])
    def test_table_bool_size_rejected(self, field):
        doc = {"m": 2, "n": 2, "values": [[0, 1], [0, 0]], field: True}
        with pytest.raises(CodecError, match=f"{field} must be an integer"):
            codec.table_from_json(doc)

    def test_table_round_trip_random(self):
        rng = random.Random(2)
        for _ in range(30):
            m = rng.randrange(2, 5)
            t = random_table(rng, m, rng.randrange(1, m * m + 1))
            assert codec.table_from_json(codec.table_to_json(t)) == t

    def test_family_round_trip(self):
        f = DisjointFamily(3, (frozenset({2}), frozenset({0, 1})))
        doc = codec.family_to_json(f)
        assert doc == {"m": 3, "classes": [[2], [0, 1]]}
        assert codec.family_from_json(doc) == f

    def test_family_overlap_rejected(self):
        with pytest.raises(SpaceError, match="letter 0 appears in two classes"):
            codec.family_from_json({"m": 2, "classes": [[0], [0]]})

    def test_point_formats(self):
        assert codec.point_to_json(NodePoint(Word(2, (0,)))) == {
            "kind": "node",
            "word": [0],
        }
        assert codec.point_to_json(LimitPoint(Branch(2, (), (1,)), 0)) == {
            "kind": "limit",
            "branch": {"stem": [], "period": [1]},
            "class": 0,
        }
        assert codec.point_to_json(INFINITY) == {"kind": "infinity"}

    def test_point_round_trip(self):
        pts = [
            NodePoint(Word(2, ())),
            LimitPoint(Branch(2, (0,), (1, 0)), 1),
            INFINITY,
        ]
        for p in pts:
            assert codec.point_from_json(codec.point_to_json(p), 2) == p

    def test_point_unknown_kind(self):
        with pytest.raises(CodecError):
            codec.point_from_json({"kind": "corner"}, 2)

    def test_test_point_round_trip(self):
        for t in (NodeTest(Word(2, (1,))), ClassTest(Branch(2, (), (0,)), 1)):
            assert codec.test_from_json(codec.test_to_json(t), 2) == t

    def test_test_point_kinds(self):
        assert codec.test_to_json(NodeTest(Word(2, ())))["kind"] == "node"
        assert codec.test_to_json(ClassTest(Branch(2, (), (0,)), 0))["kind"] == "class"
        with pytest.raises(CodecError):
            codec.test_from_json({"kind": "edge"}, 2)

    def test_descriptor_docs(self):
        assert codec.descriptor_to_json(Cone(Word(2, (0,)))) == {
            "kind": "Vt",
            "t": [0],
        }
        assert codec.descriptor_to_json(Singleton(Word(2, ()))) == {
            "kind": "Wt",
            "t": [],
        }
        assert codec.descriptor_to_json(CoSingleton(Word(2, (1,)))) == {
            "kind": "NotWt",
            "t": [1],
        }
        assert codec.descriptor_to_json(WholeSpace()) == {"kind": "whole"}

    def test_report_docs(self):
        stable = StabilizationReport(NodeTest(Word(2, ())), 1, 0, 6)
        doc = codec.report_to_json(stable)
        assert doc["k0"] == 0 and "unstable_at" not in doc
        shaky = StabilizationReport(NodeTest(Word(2, ())), 1, None, 6)
        doc = codec.report_to_json(shaky)
        assert doc["unstable_at"] == 6 and "k0" not in doc


class TestTypeAndReductionDocs:
    def test_dense_type_document_shape(self):
        t = DenseType(
            4,
            frozenset({0}),
            frozenset(),
            frozenset({1, 2, 3}),
            frozenset(),
            frozenset(),
            (),
            ((1,), (2, 3)),
            (),
        )
        doc = codec.dense_type_to_json(t)
        assert doc == {
            "n": 4,
            "A": [0],
            "B": [],
            "C": [1, 2, 3],
            "D": [],
            "E": [],
            "psi": [],
            "blocks": [[1], [2, 3]],
            "gamma": [],
        }

    def test_enumerated_types_round_trip(self):
        for n in (2, 3):
            for t in enumerate_types(n):
                assert DenseType(**codec.dense_type_to_json(t)) == t

    def test_reduction_document_shape(self):
        r = ReductionData((Word(2, (0, 0)), Word(2, (0, 1))), Word(2, (0,)))
        doc = codec.reduction_to_json(r)
        assert doc == {"k": 2, "x": [0], "e": [[0, 0], [0, 1]]}
        assert codec.reduction_from_json(doc, 2) == r

    def test_reduction_k_mismatch(self):
        doc = {"k": 3, "x": [0], "e": [[0, 0], [0, 1]]}
        with pytest.raises(CodecError):
            codec.reduction_from_json(doc, 2)

    @pytest.mark.parametrize("k", ["2", 2.0, True])
    def test_reduction_k_must_be_an_integer(self, k):
        # True would equal the length of one-letter words, 2.0 of two-letter ones.
        e = [[0], [1]] if k is True else [[0, 0], [0, 1]]
        doc = {"k": k, "x": [], "e": e}
        with pytest.raises(CodecError, match="k must be an integer"):
            codec.reduction_from_json(doc, 2)

    def test_reduction_invalid_data(self):
        doc = {"k": 1, "x": [], "e": [[0], [0]]}
        with pytest.raises(ReductionError, match="letter words must be pairwise distinct"):
            codec.reduction_from_json(doc, 2)


class TestDumps:
    def test_sorted_compact_with_newline(self):
        assert codec.dumps({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}\n'

    def test_deterministic(self):
        doc = {"z": [3, 2], "m": {"y": 0, "x": 1}}
        assert codec.dumps(doc) == codec.dumps(dict(reversed(doc.items())))
