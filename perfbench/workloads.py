"""The benchmark's three workloads: seeded inputs, timed calls and checks.

Each workload turns (seed, round) into a list of operations.  The structure
of a round -- which sizes and kinds occur, and how often -- is fixed, so a
run's mix does not depend on the seed; the seed draws the concrete letters,
tables, branches and catalogue entries.  An operation's `run` is the only
code timed; its `check` runs afterwards and returns None or a failure
reason.  The program sees only the generated inputs.

Every call into madic goes through a module attribute looked up at call
time (`M.spaces.verify_convergence`), so the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import oracles

import madic.cli
import madic.codec
import madic.dense_types
import madic.patterns
import madic.reductions
import madic.spaces
import madic.words

M = SimpleNamespace(
    words=madic.words,
    patterns=madic.patterns,
    spaces=madic.spaces,
    reductions=madic.reductions,
    dense_types=madic.dense_types,
    codec=madic.codec,
    cli=madic.cli,
)


@dataclass
class Op:
    kind: str
    tags: dict
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]


def _rng(seed: int, round_no: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}:{round_no}")


# -- certify ---------------------------------------------------------------------

# One round: (period length P, space, comb shape, period offsets of the
# extra test branches).  A "diag" comb (i = j) has teeth on its branch and
# costs about half a "split" one (i != j), so the shape is fixed here and the
# seed only draws letters.  The heaviest size repeats so the tail percentile
# sits inside one size class, and P = 16 repeats so the median does.
CERTIFY_ROUND = (
    (6, "partition3", "split", (1,)),
    (8, "scattered", "diag", (1,)),
    (10, "partition2", "split", (1,)),
    (12, "partition3", "diag", (-1,)),
    (14, "scattered", "split", (1,)),
    (16, "partition2", "split", (1,)),
    (16, "partition2", "split", (1,)),
    (16, "partition2", "split", (1,)),
    (18, "partition3", "diag", (1, 2)),
    (20, "scattered", "split", (1,)),
    (22, "partition2", "diag", (1,)),
    (24, "partition3", "split", (1,)),
    (24, "partition3", "split", (1,)),
    (24, "partition3", "split", (1,)),
)
M_LETTERS = 3


def _balanced_branch(rng: random.Random, length: int, stem_len: int):
    """A branch of period exactly `length` using each letter about equally."""
    while True:
        period = [a % M_LETTERS for a in range(length)]
        rng.shuffle(period)
        stem = tuple(rng.randrange(M_LETTERS) for _ in range(stem_len))
        b = M.words.Branch(M_LETTERS, stem, tuple(period))
        if len(b.period) == length:
            return b


def _surjective_table(rng: random.Random, m: int, n: int):
    while True:
        values = tuple(tuple(rng.randrange(n) for _ in range(m)) for _ in range(m))
        if {c for row in values for c in row} == set(range(n)):
            return M.spaces.PartitionTable(m, values)


def _certify_space(rng: random.Random, kind: str):
    if kind == "scattered":
        letters = list(range(M_LETTERS))
        rng.shuffle(letters)
        cut = rng.choice((1, 2))
        classes = (frozenset(letters[:1]), frozenset(letters[1 : 1 + cut]))
        return M.spaces.ScatteredSpace(M.spaces.DisjointFamily(M_LETTERS, classes))
    n = 3 if kind == "partition3" else 2
    return M.spaces.PartitionSpace(_surjective_table(rng, M_LETTERS, n))


def certify_op(rng: random.Random, period: int, kind: str, comb: str, offsets) -> Op:
    space = _certify_space(rng, kind)
    x = _balanced_branch(rng, period, rng.choice((1, 2)))
    i = rng.randrange(M_LETTERS)
    j = i if comb == "diag" else (i + rng.randrange(1, M_LETTERS)) % M_LETTERS
    gen = M.patterns.CombGenerator.over(x, i, j, 2)
    others = [_balanced_branch(rng, period + d, 1) for d in offsets]
    n = space.table.n if kind != "scattered" else space.family.n
    tests = M.cli._default_tests(space, gen)
    tests += [M.spaces.ClassTest(y, c) for y in others for c in range(n)]
    candidates = [(b, c) for b in [x] + others for c in range(n)]
    arity = space.separation_arity
    if kind == "scattered":
        # The top point of a scattered space joins the tuple.
        pts = rng.sample(candidates, arity - 1) + ["infinity"]
    else:
        pts = rng.sample(candidates, arity)
    rng.shuffle(pts)
    points = [
        M.spaces.INFINITY if p == "infinity" else M.spaces.LimitPoint(*p) for p in pts
    ]

    def run():
        reports = M.spaces.verify_convergence(gen, space, tests)
        descs = M.spaces.separate_points(points, space)
        return reports, descs

    def check(result):
        reports, descs = result
        if not all(r.stable for r in reports):
            return "a default-horizon certificate is unstable"
        return oracles.check_certificate(space, gen, tests, reports) or (
            oracles.check_separation(pts, descs)
        )

    lcm = max(math.lcm(len(x.period), len(y.period)) for y in others)
    tags = {"P": len(x.period), "lcm": lcm, "space": kind, "comb": comb}
    return Op("certify", tags, run, check)


class Certify:
    name = "certify"

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, round_no: int) -> list[Op]:
        rng = _rng(self.seed, round_no, self.name)
        ops = [certify_op(rng, *spec) for spec in CERTIFY_ROUND]
        rng.shuffle(ops)
        return ops

    def warm_up(self) -> list[Op]:
        return [certify_op(random.Random(0), 6, "partition3", "split", (1,))]

    def close(self) -> None:
        pass


# -- catalogue -------------------------------------------------------------------

# One round: enumerations by n, then reduction searches as (shape of f,
# letters of f, letters of g, count).  The tail percentile has ten samples
# beyond it, and each round has one n = 5 enumeration (about 2.5 s), so a
# round is long -- 8-10 s, mostly searches -- to keep the n = 5 count per
# run near four and the tail inside the ten n = 4 enumerations of each
# round.  Exhausted searches against two-letter targets take 1-5 ms;
# three- and four-letter targets (20-500 ms) would crowd the n = 4 class,
# so random f only meets two-letter targets.  The searches hold the median.
CATALOGUE_ENUMERATIONS = {5: 1, 4: 10, 3: 4}
CATALOGUE_SEARCHES = (
    ("restriction", None, None, 300),
    ("random", 2, 2, 2000),
    ("random", 3, 2, 2000),
)
MAX_K = 3


def golden_catalogue(n: int) -> bytes | None:
    """The recorded catalogue for n <= 4, in the oracle's order-free form."""
    path = Path("tests") / "golden" / f"types_n{n}.json"
    if not path.is_file():
        return None
    return oracles.catalogue_bytes(json.loads(path.read_text())["rows"])


class Catalogue:
    name = "catalogue"

    def __init__(self, seed: int):
        self.seed = seed
        self.golden = {n: golden_catalogue(n) for n in (2, 3, 4)}
        missing = [n for n, g in self.golden.items() if g is None]
        if missing:
            raise FileNotFoundError(f"recorded catalogues missing for n={missing}")
        # Targets g for the searches: every catalogue colouring with n <= 4.
        self.targets = []
        for n in (2, 3, 4):
            for t in M.dense_types.enumerate_types(n):
                self.targets.append(M.dense_types.partition_from_type(t)[1])

    def enumerate_op(self, n: int) -> Op:
        def run():
            types = M.dense_types.enumerate_types(n)
            out = []
            for t in types:
                alph, table = M.dense_types.partition_from_type(t)
                restricted = [
                    (n0, M.reductions.restrict_colors(table, n0)) for n0 in range(1, n)
                ]
                out.append((t, alph, table, restricted))
            return types, out

        def check(result):
            types, out = result
            problem = oracles.check_catalogue(n, types, self.golden.get(n))
            for t, alph, table, restricted in out:
                problem = problem or oracles.check_colouring(t, alph, table)
                for n0, res in restricted:
                    problem = problem or oracles.check_restriction(table.values, n0, res)
            return problem

        return Op("enumerate", {"n": n}, run, check)

    def search_op(self, rng: random.Random, shape: str, m0, m1) -> Op:
        if shape == "restriction":
            g = rng.choice([t for t in self.targets if t.n >= 2])
            n0 = rng.randrange(1, g.n)
            f = M.reductions.restrict_colors(g, n0).table
        else:
            g = rng.choice([t for t in self.targets if t.m == m1])
            values = tuple(
                tuple(rng.choice(g.colors) for _ in range(m0)) for _ in range(m0)
            )
            f = M.spaces.PartitionTable(m0, values)

        def run():
            return M.reductions.search_reduction(f, g, MAX_K)

        def check(found):
            if found is None:
                if shape == "restriction" and f.m == 1:
                    return "a one-letter restriction always reduces"
                return None
            if found.k > MAX_K:
                return f"witness has block length {found.k} > {MAX_K}"
            return oracles.check_witness(f.values, g.values, found)

        tags = {"n": g.n, "m": g.m, "f_m": f.m, "max_k": MAX_K, "f": shape}
        return Op("search", tags, run, check)

    def round(self, round_no: int) -> list[Op]:
        rng = _rng(self.seed, round_no, self.name)
        ops = [self.enumerate_op(n) for n, c in CATALOGUE_ENUMERATIONS.items() for _ in range(c)]
        for shape, m0, m1, count in CATALOGUE_SEARCHES:
            ops += [self.search_op(rng, shape, m0, m1) for _ in range(count)]
        rng.shuffle(ops)
        return ops

    def warm_up(self) -> list[Op]:
        rng = random.Random(0)
        return [self.enumerate_op(2), self.search_op(rng, "random", 2, 2)]

    def close(self) -> None:
        pass


# -- cli_requests ------------------------------------------------------------------

VALIDATION = 3
NOT_FOUND = 4


def invoke(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = M.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class CliRequests:
    """Small requests through madic.cli.main, in process, one at a time."""

    name = "cli_requests"
    # Requests per round by shape ("shape:n" fixes the enumerate size); the
    # malformed share is fixed at 16 of 80.  `tables` always enumerates
    # n = 2..4, so it is the slowest request and runs once a round.
    ROUND = (
        ("enumerate:2", 4), ("enumerate:3", 1), ("enumerate_table:2", 2), ("tables", 1),
        ("classify", 8), ("converge_partition", 8), ("converge_scattered", 6),
        ("separate_partition", 8), ("separate_scattered", 6),
        ("reduce_construct", 6), ("reduce_search", 8), ("reduce_check", 6),
        ("malformed", 16),
    )
    MALFORMED = (
        "ragged_table", "not_json", "missing_branch", "letter_outside",
        "class_out_of_range", "point_count", "construct_too_many",
        "space_without_table", "zero_count", "declared_k",
    )
    # Inputs the documentation answers with exit 3 but that madic mishandles:
    # a string letter and a string class raise TypeError out of main, and a
    # JSON true passes as colour 1.  They run only with known_faults, so that
    # a default run has no failing operation; with it they count as failed.
    KNOWN_FAULTS = ("string_letter", "string_class", "bool_colour")

    def __init__(self, seed: int, workdir: Path, known_faults: bool = False):
        self.seed = seed
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.known_faults = known_faults

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def round(self, round_no: int) -> list[Op]:
        rng = _rng(self.seed, round_no, self.name)
        shapes = [s for s, count in self.ROUND for _ in range(count)]
        malformed = list(self.MALFORMED) * 2
        rng.shuffle(malformed)
        ops = []
        for idx, shape in enumerate(shapes):
            if shape == "malformed":
                shape = malformed.pop()
            ops.append(self.request(rng, shape, idx))
        if self.known_faults:
            ops += [
                self.request(rng, s, len(ops) + k) for k, s in enumerate(self.KNOWN_FAULTS)
            ]
        rng.shuffle(ops)
        return ops

    def warm_up(self) -> list[Op]:
        rng = random.Random(0)
        shapes = ("enumerate:2", "classify", "converge_partition", "reduce_search", "ragged_table")
        return [self.request(rng, s, 100 + k) for k, s in enumerate(shapes)]

    # -- inputs --

    def _file(self, idx: int, tag: str, doc: Any) -> str:
        """Write one input file (JSON, or raw text when given a string)."""
        path = self.dir / f"r{idx}-{tag}.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return str(path)

    @staticmethod
    def _short_branch(rng: random.Random, m: int):
        period = [rng.randrange(m) for _ in range(rng.randint(1, 3))]
        period[0] = 0
        stem = [rng.randrange(m) for _ in range(rng.randint(0, 2))]
        return M.words.Branch(m, tuple(stem), tuple(period))

    def request(self, rng: random.Random, shape: str, idx: int) -> Op:
        name, _, size = shape.partition(":")
        build = getattr(self, "_req_" + name, None)
        if build is None:
            argv, expected = self._malformed(rng, shape, idx)
        elif size:
            argv, expected = build(rng, idx, int(size))
        else:
            argv, expected = build(rng, idx)

        def check(result):
            code, out, _err = result
            want_code, want_out = expected()
            if code != want_code:
                return f"{argv[0]} exit {code}, expected {want_code}"
            if out != want_out:
                return f"{argv[0]} stdout differs from the library answer"
            return None

        tags = {"subcommand": argv[0], "shape": shape}
        return Op("request", tags, lambda: invoke(argv), check)

    # Each _req_ method returns argv and a thunk giving (exit code, stdout) from
    # the library called directly; the thunk runs only at check time.

    def _req_enumerate(self, rng, idx, n):

        def expected():
            entries = []
            for t in M.dense_types.enumerate_types(n):
                alph, table = M.dense_types.partition_from_type(t)
                entries.append({
                    "type": M.codec.dense_type_to_json(t),
                    "m": alph.m,
                    "table": M.codec.table_to_json(table),
                })
            return 0, M.codec.dumps({"n": n, "count": len(entries), "types": entries})

        return ["enumerate", "--n", str(n)], expected

    def _req_enumerate_table(self, rng, idx, n):

        def expected():
            return 0, M.cli.render_type_table(n, M.dense_types.enumerate_types(n))

        return ["enumerate", "--n", str(n), "--format", "table"], expected

    def _req_tables(self, rng, idx):
        def expected():
            out = ""
            for n in (2, 3, 4):
                out += M.cli.render_type_table(n, M.dense_types.enumerate_types(n)) + "\n"
            return 0, out

        return ["tables"], expected

    def _req_classify(self, rng, idx):
        m = rng.choice((2, 3))
        table = _surjective_table(rng, m, rng.randint(2, min(3, m * m)))
        path = self._file(idx, "t", M.codec.table_to_json(table))

        def expected():
            rep = M.spaces.classify_subspaces(table)
            return 0, M.codec.dumps({
                "contains_cantor": rep.contains_cantor,
                "contains_split": rep.contains_split,
                "classes": table.n,
                "open_degree": table.n,
            })

        return ["classify", path], expected

    def _space_args(self, rng, idx, kind, m):
        if kind == "partition":
            table = _surjective_table(rng, m, rng.randint(2, 3))
            space = M.spaces.PartitionSpace(table)
            path = self._file(idx, "t", M.codec.table_to_json(table))
            return space, ["--space", "partition", "--table", path]
        letters = list(range(m))
        rng.shuffle(letters)
        family = M.spaces.DisjointFamily(m, (frozenset(letters[:1]), frozenset(letters[1:2])))
        path = self._file(idx, "f", M.codec.family_to_json(family))
        return M.spaces.ScatteredSpace(family), ["--space", "scattered", "--family", path]

    def _converge(self, rng, idx, kind):
        m = 3
        space, args = self._space_args(rng, idx, kind, m)
        branch = self._short_branch(rng, m)
        gen = M.patterns.CombGenerator.over(branch, 0, rng.randrange(m), 2)
        gdoc = {"branch": M.codec.branch_to_json(branch), "i": gen.i, "j": gen.j, "count": 2}
        argv = ["converge", *args, "--generator", self._file(idx, "g", gdoc)]
        tests = None
        if rng.random() < 0.5:
            other = self._short_branch(rng, m)
            tests = [M.spaces.NodeTest(M.words.Word(m, (0,))), M.spaces.ClassTest(other, 0)]
            argv += ["--tests", self._file(idx, "x", [M.codec.test_to_json(t) for t in tests])]

        def expected():
            ts = tests if tests is not None else M.cli._default_tests(space, gen)
            reports = M.spaces.verify_convergence(gen, space, ts)
            return 0, M.codec.dumps({
                "limit": M.codec.point_to_json(space.comb_limit(gen)),
                "reports": [M.codec.report_to_json(r) for r in reports],
                "all_stable": all(r.stable for r in reports),
            })

        return argv, expected

    def _req_converge_partition(self, rng, idx):
        return self._converge(rng, idx, "partition")

    def _req_converge_scattered(self, rng, idx):
        return self._converge(rng, idx, "scattered")

    def _separate(self, rng, idx, kind):
        m = 3
        space, args = self._space_args(rng, idx, kind, m)
        n = space.separation_arity - (1 if kind == "partition" else 2)
        branches = [self._short_branch(rng, m) for _ in range(2)]
        cands = [M.spaces.LimitPoint(b, c) for b in branches for c in range(n)]
        cands = list(dict.fromkeys(cands))
        cands.append(M.spaces.NodePoint(M.words.Word(m, (rng.randrange(m),))))
        if kind == "scattered":
            cands.append(M.spaces.INFINITY)
        points = rng.sample(cands, space.separation_arity)
        path = self._file(idx, "p", [M.codec.point_to_json(p) for p in points])

        def expected():
            try:
                descs = M.spaces.separate_points(points, space)
            except ValueError:
                return VALIDATION, ""
            return 0, M.codec.dumps({
                "descriptors": [M.codec.descriptor_to_json(d) for d in descs],
                "membership": [
                    1 if M.spaces.descriptor_contains(d, p, space) else 0
                    for d, p in zip(descs, points)
                ],
                "empty_intersection": M.spaces.family_intersection_empty(descs),
            })

        return ["separate", *args, "--points", path], expected

    def _req_separate_partition(self, rng, idx):
        return self._separate(rng, idx, "partition")

    def _req_separate_scattered(self, rng, idx):
        return self._separate(rng, idx, "scattered")

    def _req_reduce_construct(self, rng, idx):
        g = _surjective_table(rng, 3, 3)
        n0 = rng.randint(1, 2)
        path = self._file(idx, "g", M.codec.table_to_json(g))

        def expected():
            res = M.reductions.restrict_colors(g, n0)
            return 0, M.codec.dumps({
                "table": M.codec.table_to_json(res.table),
                "reduction": M.codec.reduction_to_json(res.reduction),
                "colors": list(res.colors),
                "verified": True,
            })

        return ["reduce", "--g", path, "--construct", str(n0)], expected

    def _req_reduce_search(self, rng, idx):
        g = _surjective_table(rng, 2, 2)
        f = _surjective_table(rng, 2, 2)
        max_k = rng.randint(1, 2)
        gp = self._file(idx, "g", M.codec.table_to_json(g))
        fp = self._file(idx, "f", M.codec.table_to_json(f))

        def expected():
            found = M.reductions.search_reduction(f, g, max_k)
            if found is None:
                return NOT_FOUND, M.codec.dumps({"found": False, "max_k": max_k})
            return 0, M.codec.dumps({"found": True, "reduction": M.codec.reduction_to_json(found)})

        return ["reduce", "--f", fp, "--g", gp, "--max-k", str(max_k)], expected

    def _req_reduce_check(self, rng, idx):
        g = _surjective_table(rng, 3, 3)
        res = M.reductions.restrict_colors(g, 2)
        gp = self._file(idx, "g", M.codec.table_to_json(g))
        fp = self._file(idx, "f", M.codec.table_to_json(res.table))
        rp = self._file(idx, "r", M.codec.reduction_to_json(res.reduction))

        def expected():
            return 0, M.codec.dumps({"reduces": M.reductions.check_reduces(res.table, g, res.reduction)})

        return ["reduce", "--f", fp, "--g", gp, "--reduction", rp], expected

    def _malformed(self, rng, shape, idx):
        """Bad data whose documented answer is exit 3 with nothing on stdout."""
        branch = {"stem": [1], "period": [0, 2]}
        table = {"m": 3, "values": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
        nodes = [{"kind": "node", "word": [a]} for a in range(3)]
        tpath = self._file(idx, "t", table)
        if shape == "ragged_table":
            argv = ["classify", self._file(idx, "t", {"m": 2, "values": [[0, 1], [1]]})]
        elif shape == "not_json":
            argv = ["classify", self._file(idx, "t", '{"m": 2, "values": [[0, 1],')]
        elif shape == "missing_branch":
            gen = self._file(idx, "g", {"i": 0, "j": 1, "count": 2})
            argv = ["converge", "--space", "partition", "--table", tpath, "--generator", gen]
        elif shape == "letter_outside":
            gen = self._file(idx, "g", {"branch": {"stem": [], "period": [0, 5]}, "i": 0, "j": 1, "count": 2})
            argv = ["converge", "--space", "partition", "--table", tpath, "--generator", gen]
        elif shape == "class_out_of_range":
            pts = [{"kind": "limit", "branch": branch, "class": 7}] + nodes
            argv = ["separate", "--space", "partition", "--table", tpath, "--points", self._file(idx, "p", pts)]
        elif shape == "point_count":
            pts = [{"kind": "node", "word": [0]}]
            argv = ["separate", "--space", "partition", "--table", tpath, "--points", self._file(idx, "p", pts)]
        elif shape == "construct_too_many":
            argv = ["reduce", "--g", tpath, "--construct", "5"]
        elif shape == "space_without_table":
            gen = self._file(idx, "g", {"branch": branch, "i": 0, "j": 1, "count": 2})
            argv = ["converge", "--space", "partition", "--generator", gen]
        elif shape == "zero_count":
            gen = self._file(idx, "g", {"branch": branch, "i": 0, "j": 1, "count": 0})
            argv = ["converge", "--space", "partition", "--table", tpath, "--generator", gen]
        elif shape == "declared_k":
            rp = self._file(idx, "r", {"k": 3, "x": [0], "e": [[0, 1], [1, 0]]})
            argv = ["reduce", "--f", tpath, "--g", tpath, "--reduction", rp]
        elif shape == "string_letter":
            gen = self._file(idx, "g", {"branch": branch, "i": "0", "j": 1, "count": 2})
            argv = ["converge", "--space", "partition", "--table", tpath, "--generator", gen]
        elif shape == "string_class":
            pts = [{"kind": "limit", "branch": branch, "class": "x"}] + nodes
            argv = ["separate", "--space", "partition", "--table", tpath, "--points", self._file(idx, "p", pts)]
        elif shape == "bool_colour":
            argv = ["classify", self._file(idx, "t", {"m": 2, "values": [[0, True], [1, 0]]})]
        else:
            raise ValueError(f"unknown request shape {shape!r}")
        return argv, lambda: (VALIDATION, "")
