"""Command line behaviour: exit codes, output formats, determinism."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from madic import cli, codec
from madic.cli import _default_tests, build_parser, console_main, main
from madic.dense_types import enumerate_types, partition_from_type
from madic.patterns import CombGenerator, GeneratorExhaustedError
from madic.reductions import check_reduces
from madic.spaces import ClassTest, NodeTest, PartitionSpace, PartitionTable, ScatteredSpace
from madic.words import Branch

from conftest import convergence_oracle, random_branch, random_family, random_table, random_word

P20_DOC = {"m": 2, "n": 2, "values": [[0, 1], [0, 0]]}
P21_DOC = {"m": 2, "n": 2, "values": [[0, 1], [1, 1]]}
FAM_DOC = {"m": 2, "classes": [[0]]}
GEN_DOC = {"branch": {"stem": [], "period": [0]}, "i": 0, "j": 1, "count": 3}
# Letter 1 of 111(0)* lies only in the stem: its comb has three teeth.
FINITE = Branch(2, (1, 1, 1), (0,))
FINITE_DOC = {"branch": {"stem": [1, 1, 1], "period": [0]}, "i": 1, "j": 0}
GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def write(tmp_path):
    def _write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestEnumerate:
    def test_two_colour_table_has_two_rows(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--format", "table")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "dense types on 2 colours: 2"
        assert lines[1].split()[:2] == ["idx", "m"]
        assert len(lines) == 4

    def test_four_colour_json_has_eight_types(self, capsys):
        doc = run_json(capsys, "enumerate", "--n", "4")
        assert doc["count"] == 8
        assert len(doc["types"]) == 8

    def test_degenerate_count_is_usage_error(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "1")
        assert code == 2
        assert err == "error: --n must be in 2..6\n"

    @pytest.mark.parametrize("n", ["7", "9"])
    def test_count_above_six_is_usage_error(self, capsys, n):
        code, out, err = run(capsys, "enumerate", "--n", n)
        assert code == 2
        assert out == ""
        assert err == "error: --n must be in 2..6\n"

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (("enumerate", "--n", "5"), "enumerate_n5.json"),
            (("enumerate", "--n", "5", "--format", "table"), "enumerate_n5.txt"),
            (("tables",), "tables.txt"),
        ],
    )
    def test_stdout_matches_golden(self, capsys, argv, golden):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (("enumerate", "--n", "5", "--format", "table"), "enumerate_n5.txt"),
            (("enumerate", "--n", "6", "--format", "table"), "enumerate_n6.txt"),
            (("tables",), "tables.txt"),
        ],
    )
    def test_type_tables_build_no_colouring(self, capsys, monkeypatch, argv, golden):
        # A type table reads each letter count off the alphabet alone.
        def refuse(t):
            raise AssertionError("type tables must not build a colouring")

        monkeypatch.setattr(cli, "partition_from_type", refuse)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    def test_json_tables_parse_back(self, capsys):
        doc = run_json(capsys, "enumerate", "--n", "3")
        tables = [codec.table_from_json(e["table"]) for e in doc["types"]]
        expected = [partition_from_type(t)[1] for t in enumerate_types(3)]
        assert tables == expected

    def test_output_is_deterministic(self, capsys):
        first = run(capsys, "enumerate", "--n", "3")
        second = run(capsys, "enumerate", "--n", "3")
        assert first == second

    def test_tables_command_renders_all_three(self, capsys):
        code, out, _ = run(capsys, "tables")
        assert code == 0
        assert out.count("dense types on") == 3
        assert "dense types on 4 colours: 8" in out


class TestClassify:
    def test_ascending_split_table(self, capsys, write):
        doc = run_json(capsys, "classify", write("g.json", P20_DOC))
        assert doc == {
            "classes": 2,
            "contains_cantor": False,
            "contains_split": True,
            "open_degree": 2,
        }

    def test_one_piece_table(self, capsys, write):
        path = write("g.json", {"m": 2, "n": 1, "values": [[0, 0], [0, 0]]})
        doc = run_json(capsys, "classify", path)
        assert doc["contains_cantor"] is True
        assert doc["contains_split"] is False
        assert doc["open_degree"] == 1

    def test_missing_color_is_validation_error(self, capsys, write):
        path = write("g.json", {"m": 2, "n": 3, "values": [[0, 1], [0, 0]]})
        code, _, err = run(capsys, "classify", path)
        assert code == 3
        assert "error:" in err

    def test_colors_must_match_values(self, capsys, write):
        doc = {"m": 2, "values": [[0, 1], [1, 1]], "colors": [5, 6]}
        code, out, err = run(capsys, "classify", write("g.json", doc))
        assert (code, out) == (3, "")
        assert "error: colors must equal the table's colours [0, 1]" in err
        doc["colors"] = [0, 1]
        assert run_json(capsys, "classify", write("g.json", doc))["classes"] == 2

    def test_empty_alphabet_is_validation_error(self, capsys, write):
        code, out, err = run(capsys, "classify", write("g.json", {"m": 0, "values": []}))
        expected = "error: alphabet size must be positive, got 0\n"
        assert (code, out, err) == (3, "", expected)

    @pytest.mark.parametrize("field", ["m", "n"])
    def test_string_size_is_validation_error(self, capsys, write, field):
        path = write("g.json", dict(P20_DOC, **{field: "2"}))
        code, _, err = run(capsys, "classify", path)
        assert code == 3
        assert f"error: {field} must be an integer" in err


class TestConverge:
    def test_scattered_comb_reaches_infinity(self, capsys, write):
        doc = run_json(
            capsys,
            "converge",
            "--space",
            "scattered",
            "--family",
            write("f.json", FAM_DOC),
            "--generator",
            write("g.json", GEN_DOC),
        )
        assert doc["limit"] == {"kind": "infinity"}
        assert doc["all_stable"] is True
        assert all("k0" in r for r in doc["reports"])

    def test_partition_comb_with_explicit_tests(self, capsys, write):
        tests = [
            {"kind": "node", "word": [0, 0]},
            {"kind": "class", "branch": {"stem": [], "period": [0]}, "class": 1},
        ]
        doc = run_json(
            capsys,
            "converge",
            "--space",
            "partition",
            "--table",
            write("t.json", P20_DOC),
            "--generator",
            write("g.json", GEN_DOC),
            "--tests",
            write("tests.json", tests),
        )
        assert doc["limit"]["kind"] == "limit"
        assert doc["reports"][0]["k0"] == 2
        assert doc["reports"][1]["k0"] == 0

    @pytest.mark.parametrize("cls", ["x", True, 1.0])
    def test_non_integer_test_class_is_validation_error(self, capsys, write, cls):
        tests = [{"kind": "class", "branch": {"stem": [], "period": [0]}, "class": cls}]
        code, out, err = run(
            capsys,
            "converge",
            "--space",
            "partition",
            "--table",
            write("t.json", P20_DOC),
            "--generator",
            write("g.json", GEN_DOC),
            "--tests",
            write("tests.json", tests),
        )
        assert (code, out) == (3, "")
        assert err == "error: class must be an integer\n"

    def test_invalid_generator_is_validation_error(self, capsys, write):
        bad = dict(GEN_DOC, i=1)  # the all-zero branch never reads 1
        code, _, err = run(
            capsys,
            "converge",
            "--space",
            "partition",
            "--table",
            write("t.json", P20_DOC),
            "--generator",
            write("g.json", bad),
        )
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize(
        "form",
        [
            lambda: CombGenerator(FINITE, 1, 0, (0, 2)),
            lambda: CombGenerator.over(FINITE, 1, 0, 1),
            lambda: CombGenerator.over(FINITE, 1, 0, 5),
            lambda: codec.generator_from_json(dict(FINITE_DOC, count=3), 2),
            lambda: codec.generator_from_json(dict(FINITE_DOC, depths=[0, 2]), 2),
            (),
            ("--horizon", "1"),
            ("--horizon", "2"),
        ],
        ids=["depths", "over_1", "over_5", "json_count", "json_depths",
             "cli", "cli_horizon_1", "cli_horizon_2"],
    )
    def test_finite_comb_is_refused_where_built(self, capsys, write, form):
        # A comb whose teeth run out converges to nothing, whatever the horizon.
        message = "letter 1 recurs only finitely often on Branch[2](111(0)*)"
        if callable(form):
            with pytest.raises(GeneratorExhaustedError) as info:
                form()
            assert str(info.value) == message
        else:
            argv = ["converge", "--space", "partition", "--table", write("t.json", P20_DOC),
                    "--generator", write("g.json", dict(FINITE_DOC, count=3)), *form]
            assert run(capsys, *argv) == (3, "", f"error: {message}\n")

    def test_string_family_size_is_validation_error(self, capsys, write):
        code, _, err = run(
            capsys,
            "converge",
            "--space",
            "scattered",
            "--family",
            write("f.json", dict(FAM_DOC, m="2")),
            "--generator",
            write("g.json", GEN_DOC),
        )
        assert code == 3
        assert "error: m must be an integer" in err

    @pytest.mark.parametrize("m", [257, 2**70])
    def test_default_tests_refused_past_256_letters(self, capsys, write, m):
        code, out, err = run(
            capsys,
            "converge",
            "--space",
            "scattered",
            "--family",
            write("f.json", {"m": m, "classes": [[0]]}),
            "--generator",
            write("g.json", GEN_DOC),
        )
        assert (code, out) == (3, "")
        assert "pass --tests" in err

    def test_explicit_tests_past_256_letters(self, capsys, write):
        doc = run_json(
            capsys,
            "converge",
            "--space",
            "scattered",
            "--family",
            write("f.json", {"m": 257, "classes": [[0]]}),
            "--generator",
            write("g.json", GEN_DOC),
            "--tests",
            write("t.json", [{"kind": "node", "word": [256]}]),
        )
        assert doc["all_stable"] is True

    def test_count_cap_certifies_as_a_small_count(self, capsys, write):
        # Teeth continue past the counted depths, so the cap loses nothing.
        assert codec.GENERATOR_COUNT_MAX == 65536
        table = write("t.json", P20_DOC)
        outputs = [
            run(capsys, "converge", "--space", "partition", "--table", table,
                "--generator", write("gen.json", dict(GEN_DOC, count=count)))
            for count in (3, 65536)
        ]
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1]

    def test_space_flag_must_match_data_flag(self, capsys, write):
        code, _, _ = run(
            capsys,
            "converge",
            "--space",
            "partition",
            "--generator",
            write("g.json", GEN_DOC),
        )
        assert code == 3

    def test_huge_horizon_keeps_default_k0(self, capsys, write):
        argv = [
            "converge",
            "--space",
            "partition",
            "--table",
            write("t.json", P20_DOC),
            "--generator",
            write("g.json", dict(GEN_DOC, branch={"stem": [1], "period": [0, 0, 1]})),
        ]
        default = run_json(capsys, *argv)
        k0 = [r["k0"] for r in default["reports"]]
        assert any(k0)
        # Past sys.maxsize the horizon no longer fits a slice bound.
        for horizon in (1000000000, 100000000000000000000):
            huge = run_json(capsys, *argv, "--horizon", str(horizon))
            assert huge["all_stable"] is True
            assert {r["horizon"] for r in huge["reports"]} == {horizon}
            assert [r["k0"] for r in huge["reports"]] == k0


class TestConvergeGoldens:
    """Byte-for-byte stdout for a period-12 comb on three letters and class
    tests over a period-13 branch that follows it for 16 letters, as the
    tooth-by-tooth scan printed it."""

    X = {"stem": [2], "period": [0, 1, 0, 2, 1, 1, 0, 2, 2, 1, 0, 1]}
    Y = {
        "stem": [2, 0, 1, 0, 2, 1, 1, 0, 2, 2, 1, 0, 1, 0, 1, 0],
        "period": [1, 2, 0, 0, 1, 2, 2, 0, 1, 1, 0, 2, 1],
    }
    TESTS = [
        {"kind": "node", "word": []},
        {"kind": "node", "word": [2, 0, 1]},
        {"kind": "node", "word": [2, 0, 1, 0, 2, 1, 1, 0, 2, 1]},
        {"kind": "node", "word": X["stem"] + X["period"] + [0, 1, 0, 2, 1, 1, 0]},
        {"kind": "class", "branch": Y, "class": 0},
        {"kind": "class", "branch": Y, "class": 1},
        {"kind": "class", "branch": X, "class": 0},
    ]
    SPACES = {
        "partition": ("--table", {"m": 3, "n": 2, "values": [[0, 1, 1], [0, 0, 0], [1, 0, 0]]}),
        "scattered": ("--family", {"m": 3, "classes": [[0], [1]]}),
    }

    @pytest.mark.parametrize("horizon", ["h6", "default"])
    @pytest.mark.parametrize("space", ["partition", "scattered"])
    def test_stdout_matches_golden(self, capsys, write, space, horizon):
        flag, doc = self.SPACES[space]
        j = 1 if space == "partition" else 0
        gen = {"branch": self.X, "i": 0, "j": j, "count": 2}
        argv = ["converge", "--space", space, flag, write("s.json", doc)]
        argv += ["--generator", write("g.json", gen), "--tests", write("x.json", self.TESTS)]
        if horizon == "h6":
            argv += ["--horizon", "6"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / f"converge_{space}_{horizon}.json").read_text()


class TestConvergeFuzz:
    """Seeded converge requests print the brute-force tooth scan's
    certificates byte for byte, or exit 3 where it finds too few teeth."""

    def test_stdout_matches_tooth_scan(self, capsys, write):
        rng = random.Random(500)
        seen = set()
        for _ in range(600):
            m = rng.randint(2, 3)
            if rng.random() < 0.5:
                space = PartitionSpace(random_table(rng, m, rng.randint(1, 3)))
                argv = ["converge", "--space", "partition", "--table"]
                argv.append(write("s.json", codec.table_to_json(space.table)))
            else:
                space = ScatteredSpace(random_family(rng, m))
                argv = ["converge", "--space", "scattered", "--family"]
                argv.append(write("s.json", codec.family_to_json(space.family)))
            x = random_branch(rng, m)
            i = x.letter(rng.randrange(len(x.stem) + len(x.period)))
            j = i if rng.random() < 0.5 else rng.randrange(m)
            gen_doc = {"branch": codec.branch_to_json(x), "i": i, "j": j}
            gen_doc["count"] = rng.randint(1, 3)
            argv += ["--generator", write("g.json", gen_doc)]
            tests = None
            if rng.random() < 0.6:
                ys = [x, random_branch(rng, m), Branch(m, x.head(rng.randint(0, 6)), (0, 1))]
                tests = [NodeTest(random_word(rng, m)), NodeTest(x.prefix(rng.randint(0, 6)))]
                tests += [ClassTest(y, rng.randrange(space.n)) for y in ys]
                rng.shuffle(tests)
                argv += ["--tests", write("t.json", [codec.test_to_json(t) for t in tests])]
            horizon = None if rng.random() < 0.5 else rng.randint(1, 12)
            if horizon is not None:
                argv += ["--horizon", str(horizon)]
            try:
                gen = codec.generator_from_json(gen_doc, m)
                reports = convergence_oracle(
                    gen, space, tests or _default_tests(space, gen), horizon
                )
            except GeneratorExhaustedError:
                expected = (3, "")
            else:
                expected = (0, codec.dumps({
                    "limit": codec.point_to_json(space.comb_limit(gen)),
                    "reports": [codec.report_to_json(r) for r in reports],
                    "all_stable": all(r.stable for r in reports),
                }))
            assert run(capsys, *argv)[:2] == expected, argv
            seen.add((argv[2], tests is None, horizon is None, expected[0]))
        assert len(seen) == 16


class TestSeparate:
    POINTS = [
        {"kind": "node", "word": [0]},
        {"kind": "limit", "branch": {"stem": [], "period": [0]}, "class": 0},
        {"kind": "limit", "branch": {"stem": [], "period": [1]}, "class": 0},
    ]

    def test_certified_descriptors(self, capsys, write):
        doc = run_json(
            capsys,
            "separate",
            "--space",
            "partition",
            "--table",
            write("t.json", P20_DOC),
            "--points",
            write("p.json", self.POINTS),
        )
        assert doc["descriptors"] == [
            {"kind": "Wt", "t": [0]},
            {"kind": "NotWt", "t": [0]},
            {"kind": "NotWt", "t": [0]},
        ]
        assert doc["membership"] == [1, 1, 1]
        assert doc["empty_intersection"] is True

    def test_too_few_points_is_validation_error(self, capsys, write):
        code, _, err = run(
            capsys,
            "separate",
            "--space",
            "partition",
            "--table",
            write("t.json", P20_DOC),
            "--points",
            write("p.json", self.POINTS[:2]),
        )
        assert code == 3
        assert "3 points" in err

    def test_infinity_in_partition_is_validation_error(self, capsys, write):
        points = self.POINTS[1:] + [{"kind": "infinity"}]
        code, _, err = run(
            capsys,
            "separate",
            "--space",
            "partition",
            "--table",
            write("t.json", P20_DOC),
            "--points",
            write("p.json", points),
        )
        assert code == 3
        assert "no infinity point" in err

    def test_scattered_separation_with_infinity(self, capsys, write):
        points = [
            {"kind": "infinity"},
            {"kind": "limit", "branch": {"stem": [], "period": [0]}, "class": 0},
            {"kind": "node", "word": [1]},
        ]
        doc = run_json(
            capsys,
            "separate",
            "--space",
            "scattered",
            "--family",
            write("f.json", FAM_DOC),
            "--points",
            write("p.json", points),
        )
        assert doc["empty_intersection"] is True
        assert doc["membership"] == [1, 1, 1]


class TestReduce:
    def test_search_finds_identity(self, capsys, write):
        path = write("g.json", P20_DOC)
        doc = json.loads(run(capsys, "reduce", "--f", path, "--g", path)[1])
        assert doc["found"] is True
        r = codec.reduction_from_json(doc["reduction"], 2)
        table = codec.table_from_json(P20_DOC)
        assert check_reduces(table, table, r)

    def test_search_miss_exits_not_found(self, capsys, write):
        f = write("f.json", {"m": 2, "n": 1, "values": [[0, 0], [0, 0]]})
        g = write("g.json", {"m": 2, "n": 3, "values": [[0, 1], [2, 0]]})
        code, out, _ = run(capsys, "reduce", "--f", f, "--g", g, "--max-k", "3")
        assert code == 4
        assert json.loads(out) == {"found": False, "max_k": 3}

    def test_search_stops_at_block_length_m0_plus_one(self, capsys, write):
        # g has no symmetric off-diagonal pair, so no block length helps.
        f = write("f.json", {"m": 2, "n": 2, "values": [[0, 1], [1, 0]]})
        g = write("g.json", {"m": 2, "n": 2, "values": [[0, 0], [1, 1]]})
        start = time.perf_counter()
        code, out, _ = run(capsys, "reduce", "--f", f, "--g", g, "--max-k", "1000000")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (4, '{"found":false,"max_k":1000000}\n')

    @pytest.mark.parametrize("k", ["1", 1.0, True])
    def test_check_mode_k_must_be_an_integer(self, capsys, write, k):
        path = write("g.json", P20_DOC)
        rpath = write("r.json", {"k": k, "x": [], "e": [[0], [1]]})
        argv = ["reduce", "--f", path, "--g", path, "--reduction", rpath]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "error: k must be an integer" in err

    def test_check_mode(self, capsys, write):
        path = write("g.json", P20_DOC)
        rpath = write("r.json", {"k": 1, "x": [], "e": [[0], [1]]})
        doc = run_json(capsys, "reduce", "--f", path, "--g", path, "--reduction", rpath)
        assert doc == {"reduces": True}
        other = write("f.json", P21_DOC)
        doc = run_json(capsys, "reduce", "--f", other, "--g", path, "--reduction", rpath)
        assert doc == {"reduces": False}

    def test_construct_mode_verifies(self, capsys, write):
        fa32 = write("g.json", {"m": 2, "n": 3, "values": [[0, 2], [2, 1]]})
        doc = run_json(capsys, "reduce", "--construct", "2", "--g", fa32)
        assert doc["verified"] is True
        assert len(doc["colors"]) == 2
        f = codec.table_from_json(doc["table"])
        g = PartitionTable.dense(2, 3, ((0, 2), (2, 1)))
        r = codec.reduction_from_json(doc["reduction"], 2)
        assert check_reduces(f, g, r)

    def test_construct_matches_golden(self, capsys, write):
        """Each golden line holds N0, the colouring g and the stdout of
        `reduce --construct N0 --g g`: every n <= 5 catalogue colouring with
        each N0, then seeded random tables over up to four letters."""
        cases = {"few off-diagonal colours": 0, "chain": 0}
        for line in (GOLDEN / "construct.txt").read_text().splitlines():
            n0, g, expected = line.split("\t")
            doc = json.loads(g)
            m, values = doc["m"], doc["values"]
            off = {values[i][j] for i in range(m) for j in range(m) if i != j}
            few = len(off) <= int(n0)
            cases["few off-diagonal colours" if few else "chain"] += 1
            argv = ["reduce", "--construct", n0, "--g", write("g.json", doc)]
            assert run(capsys, *argv)[:2] == (0, expected + "\n")
        assert all(cases.values()), cases

    def test_search_matches_golden(self, capsys, write):
        """Each golden line holds K, the colourings f and g, and the exit
        code and stdout of `reduce --f f --g g --max-k K`: 1,000 seeded
        random requests with m0 <= 3, m1 <= 4 and K <= 3, where f mostly
        takes its colours from g's.  This pins the first witness."""
        shapes, codes = set(), set()
        for line in (GOLDEN / "reduce_search.txt").read_text().splitlines():
            k, f, g, code, expected = line.split("\t")
            shapes.add((json.loads(f)["m"], json.loads(g)["m"], int(k)))
            codes.add(int(code))
            argv = ["reduce", "--f", write("f.json", json.loads(f))]
            argv += ["--g", write("g.json", json.loads(g)), "--max-k", k]
            assert run(capsys, *argv)[:2] == (int(code), expected + "\n"), line
        assert len(shapes) == 3 * 4 * 3 and codes == {0, 4}

    def test_construct_check_survives_python_o(self, write):
        # python -O strips assert statements; the reduction check must stay.
        g = write("g.json", {"m": 2, "n": 3, "values": [[0, 2], [2, 1]]})
        code = (
            "import sys, madic.reductions as r; r.check_reduces = lambda *a: False; "
            "from madic.cli import main; "
            "sys.exit(main(['reduce', '--construct', '2', '--g', sys.argv[1]]))"
        )
        status, out, err = run_python("-O", "-c", code, g)
        assert (status, out) == (3, "")
        assert "internal invariant failed" in err

    def test_construct_target_out_of_range(self, capsys, write):
        code, _, err = run(
            capsys, "reduce", "--construct", "2", "--g", write("g.json", P20_DOC)
        )
        assert code == 3
        assert "error:" in err

    def test_construct_from_one_colour_table(self, capsys, write):
        g = write("g.json", {"m": 2, "values": [[0, 0], [0, 0]]})
        code, out, err = run(capsys, "reduce", "--g", g, "--construct", "1")
        assert (code, out) == (3, "")
        assert err == "error: a one-colour table has no smaller colour count\n"

    def test_missing_f_without_construct(self, capsys, write):
        code, _, _ = run(capsys, "reduce", "--g", write("g.json", P20_DOC))
        assert code == 3

    def test_malformed_json_is_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "reduce", "--g", str(bad))
        assert code == 3
        assert "not valid JSON" in err

    def test_missing_file_is_validation_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "reduce", "--g", str(tmp_path / "absent.json"))
        assert code == 3


class TestUsage:
    def test_missing_required_flag(self, capsys):
        code, _, _ = run(capsys, "reduce")
        assert code == 2

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "transmogrify")
        assert code == 2

    def test_help_exits_clean(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0


class TestDeepJson:
    """A file nested deeper than json.loads can recurse is invalid input."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "{deep}"),
            ("reduce", "--g", "{deep}"),
            ("reduce", "--f", "{deep}", "--g", "{g}"),
            ("reduce", "--f", "{g}", "--g", "{g}", "--reduction", "{deep}"),
            ("converge", "--space", "partition", "--table", "{deep}", "--generator", "{gen}"),
            ("converge", "--space", "scattered", "--family", "{deep}", "--generator", "{gen}"),
            ("converge", "--space", "partition", "--table", "{g}", "--generator", "{deep}"),
            (
                "converge", "--space", "partition", "--table", "{g}",
                "--generator", "{gen}", "--tests", "{deep}",
            ),
            ("separate", "--space", "partition", "--table", "{g}", "--points", "{deep}"),
        ],
    )
    def test_exits_validation_error(self, capsys, write, tmp_path, argv):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 5000 + "]" * 5000)
        paths = {
            "deep": str(deep),
            "g": write("g.json", P20_DOC),
            "gen": write("gen.json", GEN_DOC),
        }
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert (code, out) == (3, "")
        assert err == f"error: {deep} is not valid JSON: nested too deeply\n"


class TestValidationExits:
    """Each documented invalid-data path exits 3 with its own message."""

    FILES = {
        "t": P20_DOC,
        "gen": GEN_DOC,
        "rows": {"m": 2, "n": 2, "values": "01"},
        "fam": {"m": 2, "classes": 0},
        "red": {"k": 1, "x": [], "e": "01"},
        "tests": {"kind": "node", "word": []},
        "points": {"kind": "node", "word": [0]},
        "i5": dict(GEN_DOC, i=5),
        "j7": {"branch": GEN_DOC["branch"], "i": 0, "j": 7, "depths": [0, 1]},
        "empty": {"branch": GEN_DOC["branch"], "i": 0, "j": 1, "depths": []},
        "negative": {"branch": GEN_DOC["branch"], "i": 0, "j": 1, "depths": [-2]},
        "repeated": {"branch": GEN_DOC["branch"], "i": 0, "j": 1, "depths": [1, 1]},
        "zero": dict(GEN_DOC, count=0),
        "zero_i5": dict(GEN_DOC, count=0, i=5),
        "past_cap": dict(GEN_DOC, count=65537),
        "huge_count": dict(GEN_DOC, count=10**30),
        # Right shapes whose contents the table, family or reduction refuses.
        "ragged": {"m": 2, "values": [[0, 1], [0]]},
        "not_onto": {"m": 2, "n": 2, "values": [[0, 0], [0, 0]]},
        "no_letters": {"m": 0, "values": []},
        "minus": {"m": 2, "values": [[0, -1], [0, 0]]},
        "one_letter": {"m": 1, "values": [[0]]},
        "overlap": {"m": 2, "classes": [[0], [0]]},
        "outside": {"m": 2, "classes": [[0, 5]]},
        "empty_class": {"m": 2, "classes": [[]]},
        "same_words": {"k": 1, "x": [], "e": [[0], [0]]},
        "long_anchor": {"k": 1, "x": [0], "e": [[0], [1]]},
        "two_lengths": {"k": 1, "x": [], "e": [[0], [0, 1]]},
        "no_words": {"k": 1, "x": [], "e": []},
    }
    CONVERGE = ("converge", "--space", "partition", "--table", "{t}", "--generator")
    SCATTERED = ("converge", "--space", "scattered", "--generator", "{gen}", "--family")
    CHECK = ("reduce", "--f", "{t}", "--g", "{t}", "--reduction")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("classify", "{rows}"), "values must be a list of rows"),
            (
                ("separate", "--space", "scattered", "--family", "{fam}", "--points", "{t}"),
                "classes must be a list",
            ),
            (
                ("reduce", "--f", "{t}", "--g", "{t}", "--reduction", "{red}"),
                "e must be a list of words",
            ),
            (
                ("converge", "--space", "scattered", "--generator", "{gen}"),
                "--space scattered needs --family",
            ),
            (
                CONVERGE + ("{gen}", "--tests", "{tests}"),
                "tests file must hold a list of test points",
            ),
            (
                ("separate", "--space", "partition", "--table", "{t}", "--points", "{points}"),
                "points file must hold a list of symbolic points",
            ),
            # over checks the count first, then the constructor the letters.
            (CONVERGE + ("{i5}",), "letter 5 outside alphabet of size 2"),
            (CONVERGE + ("{j7}",), "letter 7 outside alphabet of size 2"),
            (CONVERGE + ("{empty}",), "generator needs at least one depth"),
            (CONVERGE + ("{zero}",), "tooth count must be positive"),
            (CONVERGE + ("{zero_i5}",), "tooth count must be positive"),
            (CONVERGE + ("{gen}", "--horizon", "0"), "horizon must be at least 1"),
            (CONVERGE + ("{negative}",), "depths must be nonnegative"),
            (CONVERGE + ("{repeated}",), "depths must be strictly increasing"),
            (CONVERGE + ("{past_cap}",), "count must be at most 65536; list depths"),
            (CONVERGE + ("{huge_count}",), "count must be at most 65536; list depths"),
            (("classify", "{ragged}"), "values must be 2 rows of 2 colours"),
            (("classify", "{not_onto}"), "table is not surjective onto 0..1: colours (0,)"),
            (("classify", "{no_letters}"), "alphabet size must be positive, got 0"),
            (("classify", "{minus}"), "colour -1 must be a nonnegative integer"),
            (
                ("reduce", "--g", "{one_letter}", "--construct", "1"),
                "a one-colour table has no smaller colour count",
            ),
            (SCATTERED + ("{overlap}",), "letter 0 appears in two classes"),
            (SCATTERED + ("{outside}",), "letter 5 outside alphabet of size 2"),
            (SCATTERED + ("{empty_class}",), "family classes must be nonempty"),
            (CHECK + ("{same_words}",), "letter words must be pairwise distinct"),
            (CHECK + ("{long_anchor}",), "anchor must be shorter than the letter words"),
            (CHECK + ("{two_lengths}",), "letter words must share one length"),
            (CHECK + ("{no_words}",), "need at least one letter word"),
        ],
    )
    def test_exits_3_with_message(self, capsys, write, argv, message):
        paths = {name: write(f"{name}.json", doc) for name, doc in self.FILES.items()}
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert (code, out) == (3, "")
        assert err == f"error: {message}\n"


class TestHugeColourCount:
    """A declared colour count far past any table is compared as a count,
    before a range of that size is built."""

    N = 2**70

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "{big}"),
            ("reduce", "--g", "{big}"),
            ("converge", "--space", "partition", "--table", "{big}", "--generator", "{gen}"),
            ("separate", "--space", "partition", "--table", "{big}", "--points", "{points}"),
        ],
    )
    def test_exits_3(self, capsys, write, argv):
        paths = {
            "big": write("big.json", dict(P20_DOC, n=self.N)),
            "gen": write("gen.json", GEN_DOC),
            "points": write("points.json", TestSeparate.POINTS),
        }
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert (code, out) == (3, "")
        assert err == f"error: table is not surjective onto 0..{self.N - 1}: colours (0, 1)\n"


def run_python(*args):
    """Exit code, stdout and stderr of `python *args` in a new process that
    imports madic from this checkout."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestParserReuse:
    def test_import_builds_no_parser(self):
        code = "import madic.cli as c; print(c.build_parser.cache_info().misses)"
        assert run_python("-c", code) == (0, "0\n", "")

    def test_calls_in_one_process_match_fresh_processes(self, capsys, write, monkeypatch):
        # argparse wraps help to the terminal width; pin it for both sides.
        monkeypatch.setenv("COLUMNS", "80")
        g = write("g.json", P20_DOC)
        g3 = write("g3.json", {"m": 2, "n": 3, "values": [[0, 1], [2, 0]]})
        f1 = write("f1.json", {"m": 2, "n": 1, "values": [[0, 0], [0, 0]]})
        gen = write("gen.json", GEN_DOC)
        points = write("p.json", TestSeparate.POINTS)
        bad = write("bad.json", {"m": 2, "n": 2, "values": [[0, 1]]})
        sequence = [
            ("enumerate", "--n", "3", "--format", "table"),
            ("enumerate", "--n", "3"),
            ("reduce", "--g"),
            ("tables",),
            ("classify", g),
            ("--help",),
            ("converge", "--space", "partition", "--table", g, "--generator", gen),
            ("reduce", "--help"),
            ("separate", "--space", "partition", "--table", g, "--points", points),
            ("reduce", "--f", g, "--g", g),
            ("reduce", "--construct", "2", "--g", g3),
            ("classify", bad),
            ("reduce", "--f", f1, "--g", g3, "--max-k", "3"),
            ("enumerate", "--n", "1"),
            ("transmogrify",),
            ("enumerate", "--n", "3", "--format", "table"),
        ]
        codes = set()
        for argv in sequence:
            got = run(capsys, *argv)
            assert got == run_python("-m", "madic.cli", *argv), argv
            codes.add(got[0])
        assert codes == {0, 2, 3, 4}
        assert build_parser.cache_info().misses <= 1


class TestConsoleEntry:
    def test_module_run_matches_golden(self):
        assert run_python("-m", "madic.cli", "tables") == (
            0,
            (GOLDEN / "tables.txt").read_text(),
            "",
        )

    def test_console_main_exits_with_the_code(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["madic", "enumerate", "--n", "1"])
        with pytest.raises(SystemExit) as exit_info:
            console_main()
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == "error: --n must be in 2..6\n"
