"""End-to-end gate: eight headline guarantees, one printed verdict each.

Run with `pytest tests/test_acceptance.py -s` to watch the verdict lines;
without -s they still appear in captured output and in failure reports.
"""

import itertools
import json
import random
import time
from pathlib import Path

import pytest

from madic.dense_types import (
    DenseType,
    canonical_form,
    enumerate_types,
    partition_from_type,
    permute_type,
)
from madic.patterns import (
    CombGenerator,
    FirstMoveMap,
    check_first_move_map,
    comb_nodes,
)
from madic.reductions import (
    ReductionData,
    apply_reduction,
    check_reduces,
    induced_branch_map,
    induced_word_map,
    restrict_colors,
)
from madic.spaces import (
    INFINITY,
    ClassTest,
    CoSingleton,
    LimitPoint,
    NodePoint,
    NodeTest,
    PartitionSpace,
    PartitionTable,
    ScatteredSpace,
    Singleton,
    classify_subspaces,
    descriptor_contains,
    family_intersection_empty,
    separate_points,
    split_embedding,
    verify_convergence,
)
from madic.words import (
    Branch,
    Word,
    concat,
    incidence,
    is_prefix,
    meet,
    meet_closure,
    well_order_cmp,
)

from conftest import random_branch, random_family, random_table, random_word

GOLDEN = Path(__file__).parent / "golden"


def _gate(number: int, claim: str, body) -> None:
    """Run one criterion, print its verdict line, fail the test on FAIL."""
    try:
        detail = body() or ""
        verdict = "PASS"
    except Exception as exc:  # noqa: BLE001 - every breakage is a verdict
        detail = f"{type(exc).__name__}: {exc}"
        verdict = "FAIL"
    line = f"{verdict} criterion {number}: {claim}"
    if detail:
        line += f" -- {detail}"
    print(line)
    if verdict == "FAIL":
        pytest.fail(line, pytrace=False)


def _golden(n: int) -> dict:
    return json.loads((GOLDEN / f"types_n{n}.json").read_text())


# -- 1: enumeration against the recorded tables --------------------------------


def test_criterion_1_enumeration_goldens():
    def body():
        start = time.perf_counter()
        by_n = {n: enumerate_types(n) for n in (2, 3, 4)}
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"enumeration took {elapsed:.2f}s, budget 10s"
        for n in (2, 3, 4):
            golden = _golden(n)
            types = by_n[n]
            assert len(types) == golden["count"], (
                f"n={n}: enumerated {len(types)}, recorded {golden['count']}"
            )
            rows = [DenseType(**doc) for doc in golden["rows"]]
            assert {canonical_form(t) for t in rows} == set(types), (
                f"n={n}: recorded rows do not relabel onto the enumerated types"
            )
        tables = {partition_from_type(t)[1].values for t in by_n[2]}
        expected = {tuple(tuple(r) for r in tab) for tab in _golden(2)["tables"]}
        assert tables == expected, "n=2 colourings differ from the recorded pair"
        detail = f"2/3/8 canonical types for n=2/3/4 in {elapsed:.2f}s"
        reported = _golden(4).get("reported_minimal_spaces")
        spaces = len(by_n[4]) + 1  # the scattered space joins the colourings
        if reported is not None and reported != spaces:
            detail += (
                f"; note: {len(by_n[4])} colourings plus the scattered family "
                f"give {spaces} minimal spaces at degree 4, not the recorded "
                f"headline of {reported} -- flagged, catalogue wins"
            )
        return detail

    _gate(1, "dense-type enumeration matches the recorded tables", body)


# -- 2: independent re-evaluation of the colouring formula ----------------------


def _oracle_table(t) -> tuple[tuple[int, ...], ...]:
    """Second implementation of the induced colouring, case by case.

    Elements carry their role explicitly; sigma and tau are recomputed from
    the raw type data, and the four defining cases are tried in order with
    no shared helper code with the library version.
    """
    elements: list[dict] = []
    if t.A:
        for k in sorted(t.A):
            elements.append({"role": "star", "sigma": k, "tau": None})
    else:
        elements.append({"role": "star", "sigma": 0, "tau": None})
    for block in sorted(t.blocks, key=lambda b: min(b)):
        elements.append({"role": "pair", "sigma": min(block), "tau": max(block)})
    gamma = dict(t.gamma)
    for d in sorted(t.D):
        elements.append({"role": "pair", "sigma": d, "tau": gamma[d]})
    psi = {(i, j): v for i, j, v in t.psi}

    def colour(p: int, q: int) -> int:
        ep, eq = elements[p], elements[q]
        if p == q:
            return ep["sigma"]
        if ep["role"] == "star" and eq["role"] == "star":
            return psi[(ep["sigma"], eq["sigma"])]
        if ep["role"] != "star":
            if eq["role"] == "star" or ep["sigma"] < eq["sigma"]:
                return ep["sigma"]
        if eq["role"] != "star":
            if ep["role"] == "star" or ep["sigma"] > eq["sigma"]:
                return eq["tau"]
        raise AssertionError(f"no colouring case applies at ({p}, {q})")

    m = len(elements)
    return tuple(tuple(colour(p, q) for q in range(m)) for p in range(m))


def test_criterion_2_colouring_formula_oracle():
    def body():
        rng = random.Random(202)
        types = cells = 0
        for n in (2, 3, 4, 5, 6):
            for t in enumerate_types(n):
                # The catalogue member, and for n <= 5 five relabellings,
                # which leave the roles off consecutive colour ranges.
                perms = [rng.sample(range(n), n) for _ in range(5 if n <= 5 else 0)]
                for u in [t] + [permute_type(t, pi) for pi in perms]:
                    _, table = partition_from_type(u)
                    expected = _oracle_table(u)
                    assert table.values == expected, f"disagreement for {u}"
                    used = {c for row in table.values for c in row}
                    assert used == set(range(n)), f"not surjective: {u}"
                    types += 1
                    cells += table.m * table.m
        return f"{types} types, {cells} cells re-derived independently, all equal"

    _gate(2, "induced colourings agree with an independent case evaluation", body)


# -- 3: colour restriction round trip --------------------------------------------


def test_criterion_3_restriction_round_trip():
    def body():
        instances = 0
        for n in (2, 3, 4):
            for t in enumerate_types(n):
                _, g = partition_from_type(t)
                for n0 in range(1, g.n):
                    res = restrict_colors(g, n0)
                    assert res.table.n == n0, f"wanted {n0} colours, got {res.table.n}"
                    assert set(res.colors) <= set(g.colors)
                    assert check_reduces(res.table, g, res.reduction)
                    instances += 1
        rng = random.Random(303)
        for _ in range(200):
            m = rng.randrange(2, 5)
            n = rng.randrange(2, min(m * m, 5) + 1)
            g = random_table(rng, m, n)
            n0 = rng.randrange(1, n)
            res = restrict_colors(g, n0)
            assert res.table.n == n0
            assert check_reduces(res.table, g, res.reduction)
            instances += 1
        return f"{instances} restrictions built and re-verified"

    _gate(3, "every colour restriction verifies and hits its target count", body)


# -- 4: comb limits are the stabilization values ----------------------------------


def test_criterion_4_comb_limit_consistency():
    def body():
        rng = random.Random(404)
        reports = 0
        for _ in range(500):
            m = rng.randrange(2, 5)
            if rng.random() < 0.5:
                space = PartitionSpace(random_table(rng, m, rng.randrange(1, 5)))
                classes = space.table.n
            else:
                space = ScatteredSpace(random_family(rng, m))
                classes = space.family.n
            branch = random_branch(rng, m)
            i = branch.period[rng.randrange(len(branch.period))]
            j = rng.randrange(m)
            gen = CombGenerator.over(branch, i, j, 3)
            tests = [NodeTest(random_word(rng, m, max_len=6)) for _ in range(4)]
            tests += [ClassTest(random_branch(rng, m), c) for c in range(classes)]
            limit = space.comb_limit(gen)
            for rep in verify_convergence(gen, space, tests):
                assert rep.stable, f"unstable report {rep} for {gen}"
                assert rep.limit_value == space.value(limit, rep.test)
                reports += 1
        return f"500 generators, {reports} reports, zero unstable"

    _gate(4, "tooth values stabilize on the comb limit at every test", body)


# -- 5: separation soundness --------------------------------------------------------


def _sample_distinct(space, rng: random.Random, force_infinity: bool):
    arity = space.separation_arity
    if isinstance(space, PartitionSpace):
        m, classes = space.table.m, space.table.n
    else:
        m, classes = space.family.m, space.family.n
    for _ in range(200):
        pts = []
        if force_infinity:
            pts.append(INFINITY)
        while len(pts) < arity:
            if rng.random() < 0.45:
                pts.append(NodePoint(random_word(rng, m, max_len=4)))
            else:
                pts.append(LimitPoint(random_branch(rng, m), rng.randrange(classes)))
        rng.shuffle(pts)
        if len(set(pts)) == arity:
            return pts
    raise AssertionError("could not sample a distinct tuple")


def test_criterion_5_separation_soundness():
    def body():
        rng = random.Random(505)
        node_rule = 0
        for kind in ("partition", "scattered"):
            for _ in range(200):
                m = rng.randrange(2, 5)
                if kind == "partition":
                    space = PartitionSpace(random_table(rng, m, rng.randrange(1, 5)))
                    pts = _sample_distinct(space, rng, force_infinity=False)
                else:
                    space = ScatteredSpace(random_family(rng, m))
                    pts = _sample_distinct(space, rng, force_infinity=True)
                descs = separate_points(pts, space)
                for p, d in zip(pts, descs):
                    assert descriptor_contains(d, p, space), (p, d)
                assert family_intersection_empty(descs), descs
                nodes = [p for p in pts if isinstance(p, NodePoint)]
                if nodes:
                    kinds = {type(d) for d in descs}
                    assert kinds == {Singleton, CoSingleton}, descs
                    words = {d.word for d in descs}
                    assert len(words) == 1, descs
                    node_rule += 1
        return f"400 tuples separated, node rule exercised {node_rule} times"

    _gate(5, "separation certificates hold for random point tuples", body)


# -- 6: pattern maps and comb transport ----------------------------------------------


def _random_reduction(rng: random.Random) -> ReductionData:
    m1 = rng.randrange(2, 4)
    k = rng.randrange(1, 3)
    pool = [Word(m1, ls) for ls in itertools.product(range(m1), repeat=k)]
    m0 = rng.randrange(1, min(4, len(pool) + 1))
    words = rng.sample(pool, m0)
    x = Word(m1, tuple(rng.randrange(m1) for _ in range(rng.randrange(k))))
    return ReductionData(tuple(words), x)


def test_criterion_6_pattern_and_transport_laws():
    def body():
        rng = random.Random(606)
        for _ in range(100):
            m = rng.randrange(2, 4)
            words = list({random_word(rng, m, max_len=4) for _ in range(5)})
            identity = FirstMoveMap(tuple((w, w) for w in words))
            assert check_first_move_map(identity).valid
            shift = random_word(rng, m, max_len=3)
            shifted = FirstMoveMap(tuple((w, concat(shift, w)) for w in words))
            assert check_first_move_map(shifted).valid, (shift, words)
        transported = 0
        for _ in range(100):
            r = _random_reduction(rng)
            m0 = r.m0
            branch = random_branch(rng, m0)
            i = branch.period[rng.randrange(len(branch.period))]
            j = rng.randrange(m0)
            gen = CombGenerator.over(branch, i, j, 4)
            eps = apply_reduction(r)[i][j]
            image = induced_branch_map(r, branch)
            depths = []
            for tooth in comb_nodes(gen):
                mapped = induced_word_map(r, tooth)
                assert incidence(image, mapped) == eps, (r, tooth)
                depths.append(len(meet(image, mapped)))
                transported += 1
            assert depths == sorted(set(depths)), "meets must strictly grow"
        return f"200 first-move maps valid, {transported} teeth re-verified"

    _gate(6, "identity/shift maps check out and combs transport to eps-sequences", body)


# -- 7: classical subspace predicates and the doubled-line embedding ------------------


def _lex_cmp(a: Branch, b: Branch, horizon: int) -> int:
    for d in range(horizon):
        if a.letter(d) != b.letter(d):
            return 1 if a.letter(d) > b.letter(d) else -1
    return 0


def _image_cmp(pa, pb) -> int:
    (sa, ba), (sb, bb) = pa, pb
    h = len(sa.stem) + len(sb.stem) + 2 * (len(sa.period) + len(sb.period)) + 4
    c = _lex_cmp(sa, sb, h)
    if c:
        return c
    return (ba > bb) - (ba < bb)


def test_criterion_7_classical_predicates():
    def body():
        for n in (2, 3, 4):
            for t in enumerate_types(n):
                _, table = partition_from_type(t)
                rep = classify_subspaces(table)
                asym = any(
                    table.color(i, j) != table.color(j, i)
                    for i in range(table.m)
                    for j in range(table.m)
                    if i != j
                )
                assert rep.contains_split == asym, t
        ascending = PartitionTable.dense(2, 2, ((0, 1), (0, 0)))
        diagonal = PartitionTable.dense(2, 2, ((0, 1), (1, 1)))
        rep = classify_subspaces(ascending)
        assert (rep.contains_cantor, rep.contains_split) == (False, True)
        rep = classify_subspaces(diagonal)
        assert (rep.contains_cantor, rep.contains_split) == (True, False)

        rng = random.Random(707)
        tables = [
            ascending,
            PartitionTable.dense(2, 2, ((0, 0), (1, 0))),
            PartitionTable.dense(2, 2, ((0, 0), (1, 1))),
        ]
        pairs_checked = 0
        for table in tables:
            points = [NodePoint(Word(2, ()))]
            points += [NodePoint(random_word(rng, 2, max_len=4)) for _ in range(12)]
            points += [
                LimitPoint(random_branch(rng, 2), c) for c in (0, 1) for _ in range(6)
            ]
            points = list(dict.fromkeys(points))
            images = {p: split_embedding(table, p) for p in points}
            assert len(set(images.values())) == len(points), table
            for a, b in itertools.combinations(points, 2):
                if pairs_checked >= 150:
                    break
                c = _image_cmp(images[a], images[b])
                assert c != 0, (a, b)
                if (
                    isinstance(a, LimitPoint)
                    and isinstance(b, LimitPoint)
                    and a.branch != b.branch
                ):
                    h = 32
                    want = _lex_cmp(images[a][0], images[b][0], h)
                    assert c == want, (a, b)
                pairs_checked += 1
            # order verification at the limits: teeth enter from the side bit
            for i, j in ((0, 1), (1, 0), (0, 0), (1, 1)):
                gen = CombGenerator.over(Branch(2, (), (i,)), i, j, 4)
                limit = PartitionSpace(table).comb_limit(gen)
                lim_seq, lim_side = split_embedding(table, limit)
                for tooth in comb_nodes(gen)[1:]:
                    seq, _ = split_embedding(table, NodePoint(tooth))
                    c = _lex_cmp(seq, lim_seq, len(seq.stem) + len(lim_seq.stem) + 8)
                    assert c != 0 and (c > 0) == (lim_side == 1), (table, i, j)
        return f"13 colourings classified, {pairs_checked * 3} ordered image pairs"

    _gate(7, "subspace predicates and the doubled-line embedding hold", body)


# -- 8: the tree algebra under randomized laws -----------------------------------------


def _random_element(rng: random.Random, m: int):
    if rng.random() < 0.5:
        return random_word(rng, m)
    return random_branch(rng, m)


def test_criterion_8_tree_algebra_suite():
    def body():
        rng = random.Random(808)
        checks = 0
        for _ in range(1000):
            m = rng.randrange(2, 5)
            a, b, c = (_random_element(rng, m) for _ in range(3))
            ab = meet(a, b)
            assert ab == meet(b, a)
            assert meet(meet(a, b), c) == meet(a, meet(b, c))
            assert meet(a, a) == (a if isinstance(a, Word) else a)
            w1, w2 = random_word(rng, m), random_word(rng, m)
            assert is_prefix(w1, w2) == (meet(w1, w2) == w1)
            if a != b and not (isinstance(a, Branch) and isinstance(b, Branch) and a == b):
                try:
                    i, j = incidence(a, b)
                except ValueError:
                    i = j = None
                if i is not None and i != j:
                    assert incidence(b, a) == (j, i)
            cmp = well_order_cmp(w1, w2)
            assert cmp in (-1, 0, 1)
            assert (cmp == 0) == (w1 == w2)
            if len(w1) < len(w2):
                assert well_order_cmp(w1, w2) == -1
            words = frozenset(random_word(rng, m, max_len=4) for _ in range(4))
            closure = meet_closure(words)
            assert words <= closure
            assert meet_closure(closure) == closure
            if words:
                assert len(closure) <= 2 * len(words) - 1
            checks += 8
        return f"{checks} law instances over 1000 rounds"

    _gate(8, "meet, order, incidence and closure laws hold under fuzzing", body)
