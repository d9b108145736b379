"""Symbolic points, evaluation, comb limits, separation and embeddings."""

import collections
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from madic.patterns import CombGenerator, GeneratorExhaustedError
from madic.spaces import (
    INFINITY,
    ClassTest,
    Cone,
    CoSingleton,
    DisjointFamily,
    LimitPoint,
    NodePoint,
    NodeTest,
    PartitionSpace,
    PartitionTable,
    ScatteredSpace,
    Singleton,
    Space,
    SpaceError,
    WholeSpace,
    classify_subspaces,
    descriptor_contains,
    family_intersection_empty,
    interleave_branch,
    separate_points,
    split_embedding,
    verify_convergence,
)
from madic.words import AlphabetError, Branch, Word, concat, is_prefix

from conftest import (
    comb_limit_oracle,
    convergence_oracle,
    default_horizon,
    isolation_oracle,
    partition_value_oracle,
    random_branch,
    random_family,
    random_table,
    random_word,
    recolor,
    scattered_value_oracle,
)

ZEROS = Branch(2, (), (0,))
ONES = Branch(2, (), (1,))

# The two-colour tables on two letters used throughout: one splits off the
# ascending pair, the other splits off the repeated first letter.
P20 = PartitionTable.dense(2, 2, ((0, 1), (0, 0)))
P21 = PartitionTable.dense(2, 2, ((0, 1), (1, 1)))


def w(*letters: int, m: int = 2) -> Word:
    return Word(m, letters)


def sample_points(space, rng: random.Random, count: int):
    """Assorted valid points of the space, never INFINITY for partitions."""
    m, n, scattered = space.m, space.n, isinstance(space, ScatteredSpace)
    pts = []
    for _ in range(count):
        kind = rng.randrange(3 if scattered and n else 2)
        if kind == 0:
            pts.append(NodePoint(random_word(rng, m)))
        elif kind == 1 and n:
            pts.append(LimitPoint(random_branch(rng, m), rng.randrange(n)))
        else:
            pts.append(INFINITY if scattered else NodePoint(random_word(rng, m)))
    return pts


# -- table and family validation ----------------------------------------------


class TestTableValidation:
    def test_dense_requires_every_color(self):
        with pytest.raises(SpaceError):
            PartitionTable.dense(2, 3, ((0, 1), (0, 0)))

    def test_shape_must_be_square(self):
        with pytest.raises(SpaceError):
            PartitionTable(2, ((0, 1, 0), (0, 0, 0)))

    def test_colors_must_be_nonnegative_ints(self):
        with pytest.raises(SpaceError):
            PartitionTable(2, ((0, -1), (0, 0)))

    def test_sparse_colors_reindex(self):
        # Restriction products keep original colours; the pair rule reads a
        # pair's class as the position of its colour in ascending order.
        t = PartitionTable(2, ((5, 9), (5, 5)))
        assert t.n == 2
        assert t.colors == (5, 9)
        space = PartitionSpace(t)
        cells = itertools.product(range(2), repeat=2)
        assert [_pair_classes(space, i, j) for i, j in cells] == [[0], [1], [0], [0]]

    def test_pieces_partition_the_square(self):
        # The pair rule puts every cell in exactly the class of its colour,
        # and every class is hit, whether the colours are 0..n-1 or sparse.
        rng = random.Random(7)
        for case in range(50):
            t = random_table(rng, rng.randrange(2, 5), rng.randrange(1, 5))
            if case % 2:
                t = recolor(rng, t)
            space = PartitionSpace(t)
            cells = list(itertools.product(range(t.m), repeat=2))
            hit = set()
            for i, j in cells:
                (cls,) = _pair_classes(space, i, j)
                assert t.colors[cls] == t.color(i, j)
                hit.add(cls)
            assert hit == set(range(t.n))

    def test_table_and_family_need_a_positive_alphabet(self):
        with pytest.raises(AlphabetError, match="^alphabet size must be positive, got 0$"):
            PartitionTable(0, ())
        with pytest.raises(AlphabetError, match="^alphabet size must be positive, got 0$"):
            DisjointFamily(0, ())

    def test_family_rejects_overlap(self):
        with pytest.raises(SpaceError):
            DisjointFamily(3, (frozenset({0, 1}), frozenset({1})))

    def test_family_rejects_empty_class(self):
        with pytest.raises(SpaceError):
            DisjointFamily(3, (frozenset(),))

    def test_family_rejects_foreign_letter(self):
        with pytest.raises(AlphabetError, match="^letter 2 outside alphabet of size 2$"):
            DisjointFamily(2, (frozenset({2}),))

    def test_family_may_be_empty_or_partial(self):
        assert DisjointFamily(3, ()).n == 0
        DisjointFamily(3, (frozenset({2}),))  # letters 0 and 1 lie in no class


# -- evaluation ----------------------------------------------------------------


def _pair_classes(space, a: int, b: int) -> list[int]:
    """The classes whose pair rule accepts the letter pair (a, b)."""
    return [cls for cls in range(space.n) if space._pair_value(a, b, cls)]


class TestPartitionEvaluation:
    def test_node_at_prefix_node_test(self):
        space = PartitionSpace(P20)
        assert space.value(NodePoint(w(0, 1)), NodeTest(w(0))) == 1
        assert space.value(NodePoint(w(0, 1)), NodeTest(w(1))) == 0
        assert space.value(NodePoint(w(0, 1)), NodeTest(w(0, 1, 0))) == 0

    def test_limit_other_class_same_branch(self):
        space = PartitionSpace(P20)
        assert space.value(LimitPoint(ZEROS, 0), ClassTest(ZEROS, 1)) == 0
        assert space.value(LimitPoint(ZEROS, 1), ClassTest(ZEROS, 1)) == 1

    def test_node_against_class_test_reads_incidence(self):
        # inc(0^w, (1)) = (0, 1), which is the second piece of the table.
        space = PartitionSpace(P20)
        assert space.value(NodePoint(w(1)), ClassTest(ZEROS, 1)) == 1
        assert space.value(NodePoint(w(1)), ClassTest(ZEROS, 0)) == 0

    def test_limit_against_node_test_follows_branch(self):
        space = PartitionSpace(P20)
        assert space.value(LimitPoint(ZEROS, 1), NodeTest(w(0, 0))) == 1
        assert space.value(LimitPoint(ZEROS, 1), NodeTest(w(0, 1))) == 0

    def test_limit_against_other_branch_class_test(self):
        space = PartitionSpace(P20)
        # inc(0^w, 1^w) = (0, 1): the limit over 1^w answers piece membership.
        assert space.value(LimitPoint(ONES, 0), ClassTest(ZEROS, 1)) == 1
        assert space.value(LimitPoint(ONES, 0), ClassTest(ZEROS, 0)) == 0

    def test_infinity_rejected(self):
        space = PartitionSpace(P20)
        with pytest.raises(SpaceError):
            space.value(INFINITY, NodeTest(w()))

    def test_class_index_out_of_range(self):
        space = PartitionSpace(P20)
        with pytest.raises(SpaceError):
            space.value(NodePoint(w(0)), ClassTest(ZEROS, 2))
        with pytest.raises(SpaceError):
            space.value(LimitPoint(ZEROS, 5), NodeTest(w()))


class TestScatteredEvaluation:
    FAM = DisjointFamily(2, (frozenset({0}),))

    def test_node_indicator(self):
        space = ScatteredSpace(self.FAM)
        s = w(0, 1)
        assert space.value(NodePoint(s), NodeTest(s)) == 1
        assert space.value(NodePoint(s), NodeTest(w(0))) == 0

    def test_infinity_vanishes_everywhere(self):
        space = ScatteredSpace(self.FAM)
        rng = random.Random(3)
        for _ in range(20):
            t = NodeTest(random_word(rng, 2))
            assert space.value(INFINITY, t) == 0
            assert space.value(INFINITY, ClassTest(random_branch(rng, 2), 0)) == 0

    def test_node_fires_class_test_on_diagonal(self):
        space = ScatteredSpace(self.FAM)
        assert space.value(NodePoint(w(0)), ClassTest(ZEROS, 0)) == 1
        # The node must sit on the branch and continue along it.
        assert space.value(NodePoint(w(1)), ClassTest(ZEROS, 0)) == 0
        assert space.value(NodePoint(w(0, 1)), ClassTest(ZEROS, 0)) == 0

    def test_limit_is_own_test_indicator(self):
        space = ScatteredSpace(self.FAM)
        p = LimitPoint(ZEROS, 0)
        assert space.value(p, ClassTest(ZEROS, 0)) == 1
        assert space.value(p, ClassTest(ONES, 0)) == 0
        assert space.value(p, NodeTest(w(0, 0))) == 0


def _family_of_size(rng: random.Random, m: int, n: int) -> DisjointFamily:
    """n pairwise disjoint nonempty sets of letters, not always covering."""
    letters = list(range(m))
    rng.shuffle(letters)
    cuts = sorted(rng.sample(range(1, rng.randint(n, m) + 1), n)) if n else []
    bounds = [0] + cuts
    return DisjointFamily(m, tuple(frozenset(letters[a:b]) for a, b in zip(bounds, cuts)))


def _value_draw(rng: random.Random):
    """A space, one of its points, a test point over its alphabet and how
    the two relate: the test word equals or is a prefix of the point, the
    test branch is the limit's own or passes through the node, or neither."""
    m = rng.randint(1, 4)
    if rng.random() < 0.5:
        table = random_table(rng, m, rng.randint(1, min(m * m, 5)))
        space, oracle, data = PartitionSpace(table), partition_value_oracle, table
        point_kinds = ["node", "limit"]
    else:
        family = _family_of_size(rng, m, rng.randint(0, m))
        space, oracle, data = ScatteredSpace(family), scattered_value_oracle, family
        point_kinds = ["node", "limit", "infinity"] if family.n else ["node", "infinity"]
    n = space.n
    point_kind = rng.choice(point_kinds)
    if point_kind == "node":
        point = NodePoint(random_word(rng, m))
        element = point.word
    elif point_kind == "limit":
        point = LimitPoint(random_branch(rng, m), rng.randrange(n))
        element = point.branch
    else:
        point, element = INFINITY, None
    if not n or rng.random() < 0.5:
        if element is not None and rng.random() < 0.5:
            word = element.prefix(rng.randint(0, 6))
        else:
            word = random_word(rng, m)
        test = NodeTest(word)
        if element is None:
            relation = "none"
        elif point_kind == "node" and word == element:
            relation = "equal"
        else:
            relation = "prefix" if is_prefix(word, element) else "off"
    else:
        pick = rng.random()
        if point_kind == "limit" and pick < 0.3:
            # The same branch, described with one period unrolled.
            y = Branch(m, element.stem + element.period, element.period)
        elif point_kind == "node" and pick < 0.5:
            y = concat(element, random_branch(rng, m))
        else:
            y = random_branch(rng, m)
        test = ClassTest(y, rng.randrange(n))
        if element is None:
            relation = "none"
        elif point_kind == "limit":
            relation = "same" if y == element else "off"
        else:
            relation = "prefix" if is_prefix(element, y) else "off"
    case = (type(space).__name__, point_kind, type(test).__name__, relation)
    return space, oracle, data, point, test, case


class TestOneValueRule:
    """value reads the letter rules; the rules stated apart in conftest are
    the reference."""

    def test_matches_the_rules_stated_apart(self):
        rng = random.Random(24)
        cases, sizes = collections.Counter(), set()
        for _ in range(24000):
            space, oracle, data, point, test, case = _value_draw(rng)
            assert space.value(point, test) == oracle(point, test, data), case
            cases[case] += 1
            sizes.add((type(space).__name__, space.m, space.n))
        node_tests = {"equal", "prefix", "off"}
        expected = set()
        for kind in ("PartitionSpace", "ScatteredSpace"):
            expected |= {(kind, "node", "NodeTest", r) for r in node_tests}
            expected |= {(kind, "node", "ClassTest", r) for r in ("prefix", "off")}
            expected |= {(kind, "limit", "NodeTest", r) for r in ("prefix", "off")}
            expected |= {(kind, "limit", "ClassTest", r) for r in ("same", "off")}
        expected |= {("ScatteredSpace", "infinity", t, "none") for t in ("NodeTest", "ClassTest")}
        assert set(cases) == expected
        assert min(cases.values()) >= 50
        families = {(m, n) for kind, m, n in sizes if kind == "ScatteredSpace"}
        assert families == {(m, n) for m in range(1, 5) for n in range(m + 1)}
        assert {m for kind, m, n in sizes if kind == "PartitionSpace"} == {1, 2, 3, 4}

    def test_sparse_colours_match_the_rules_stated_apart(self):
        # Restricted tables keep their colours, as [3, 7, 12]: a pair's class
        # is the position of its colour, not the colour itself.
        rng = random.Random(25)
        sparse = 0
        for _ in range(6000):
            space, oracle, data, point, test, case = _value_draw(rng)
            if isinstance(space, PartitionSpace):
                data = recolor(rng, data)
                space = PartitionSpace(data)
                sparse += data.colors != tuple(range(data.n))
            assert space.value(point, test) == oracle(point, test, data), case
        assert sparse >= 2000

    @pytest.mark.parametrize(
        "space, point, test, error",
        [
            # A point over three letters on a two-letter table.
            (
                PartitionSpace(P20),
                NodePoint(Word(3, (2,))),
                ClassTest(Branch(3, (), (0,)), 0),
                AlphabetError,
            ),
            (PartitionSpace(P20), NodePoint(Word(3, (0,))), NodeTest(Word(3, ())), AlphabetError),
            # The infinity point reads 0 only at tests of the space.
            (
                ScatteredSpace(DisjointFamily(2, (frozenset({0}),))),
                INFINITY,
                ClassTest(ZEROS, 7),
                SpaceError,
            ),
            (
                ScatteredSpace(DisjointFamily(2, (frozenset({0}),))),
                LimitPoint(ZEROS, 0),
                NodeTest(Word(5, ())),
                AlphabetError,
            ),
        ],
    )
    def test_refuses_what_the_space_refuses(self, space, point, test, error):
        with pytest.raises(error):
            space.value(point, test)


# -- comb limits and convergence ------------------------------------------------


class TestCombLimits:
    def test_partition_limit_class_of_first_moves(self):
        space = PartitionSpace(P20)
        gen = CombGenerator.over(ZEROS, 0, 1, 3)
        assert space.comb_limit(gen) == LimitPoint(ZEROS, 1)

    def test_single_piece_always_class_zero(self):
        table = PartitionTable.dense(2, 1, ((0, 0), (0, 0)))
        space = PartitionSpace(table)
        gen = CombGenerator.over(ONES, 1, 0, 3)
        assert space.comb_limit(gen) == LimitPoint(ONES, 0)

    def test_partition_diagonal_comb(self):
        space = PartitionSpace(P21)
        gen = CombGenerator.over(ZEROS, 0, 0, 3)
        assert space.comb_limit(gen) == LimitPoint(ZEROS, 0)

    def test_scattered_off_diagonal_goes_to_infinity(self):
        rng = random.Random(11)
        for _ in range(20):
            fam = random_family(rng, 3)
            gen = CombGenerator.over(Branch(3, (), (0,)), 0, 1, 3)
            assert ScatteredSpace(fam).comb_limit(gen) is INFINITY

    def test_scattered_diagonal_in_class(self):
        fam = DisjointFamily(2, (frozenset({0}),))
        gen = CombGenerator.over(ZEROS, 0, 0, 3)
        assert ScatteredSpace(fam).comb_limit(gen) == LimitPoint(ZEROS, 0)

    def test_scattered_diagonal_outside_family(self):
        fam = DisjointFamily(2, (frozenset({0}),))
        gen = CombGenerator.over(ONES, 1, 1, 3)
        assert ScatteredSpace(fam).comb_limit(gen) is INFINITY

    def test_pair_rule_matches_the_rule_of_each_kind(self):
        # One comb_limit, on Space, read from the pair rule; the oracle
        # keeps the two rules it replaced.
        assert "comb_limit" in vars(Space)
        assert "comb_limit" not in vars(PartitionSpace)
        assert "comb_limit" not in vars(ScatteredSpace)
        rng = random.Random(1717)
        kinds = {PartitionSpace: 0, ScatteredSpace: 0}
        for _ in range(3000):
            m = rng.randrange(1, 6)
            if rng.random() < 0.5:
                n = rng.randrange(1, m * m + 1)
                space = PartitionSpace(random_table(rng, m, n))
            else:
                space = ScatteredSpace(random_family(rng, m))
            branch = random_branch(rng, m, max_len=4)
            i = rng.choice(branch.period)
            j = i if rng.random() < 0.4 else rng.randrange(m)
            gen = CombGenerator.over(branch, i, j, rng.randrange(1, 4))
            assert space.comb_limit(gen) == comb_limit_oracle(space, gen)
            kinds[type(space)] += 1
        assert min(kinds.values()) > 1000


class TestAlphabetOwnership:
    """Points, descriptors and generators over another alphabet are refused
    with AlphabetError, not answered or failed on deep inside."""

    BINARY_FAMILY = ScatteredSpace(DisjointFamily(2, (frozenset({0}),)))

    def test_separate_refuses_foreign_node_point(self):
        points = [
            NodePoint(Word(3, (2,))),
            INFINITY,
            LimitPoint(Branch(3, (), (2,)), 0),
        ]
        with pytest.raises(AlphabetError, match="alphabet mismatch: 3 vs 2"):
            separate_points(points, self.BINARY_FAMILY)

    def test_separate_refuses_foreign_limit_points(self):
        points = [LimitPoint(Branch(3, (), (a,)), a % 2) for a in range(3)]
        with pytest.raises(AlphabetError, match="alphabet mismatch: 3 vs 2"):
            separate_points(points, PartitionSpace(P20))

    def test_descriptor_word_checked_before_infinity(self):
        with pytest.raises(AlphabetError, match="alphabet mismatch: 3 vs 2"):
            descriptor_contains(Cone(Word(3, (2,))), INFINITY, self.BINARY_FAMILY)

    def test_convergence_refuses_foreign_generator(self):
        gen = CombGenerator.over(Branch(3, (), (0,)), 0, 1, 2)
        with pytest.raises(AlphabetError, match="alphabet mismatch: 3 vs 2"):
            verify_convergence(gen, PartitionSpace(P20), [NodeTest(Word(3, (0,)))])

    @pytest.mark.parametrize("space", [PartitionSpace(P20), BINARY_FAMILY])
    def test_class_range_checked_before_alphabet(self, space):
        # One check, one order, for limit points and class tests of both kinds.
        foreign = Branch(3, (), (2,))
        bad_limit, bad_test = LimitPoint(foreign, 7), ClassTest(foreign, 7)
        gen = CombGenerator.over(ZEROS, 0, 1, 2)
        calls = [
            lambda: space.check_point(bad_limit),
            lambda: space.value(bad_limit, NodeTest(w())),
            lambda: space.value(NodePoint(w()), bad_test),
            lambda: verify_convergence(gen, space, [bad_test]),
            lambda: descriptor_contains(WholeSpace(), bad_limit, space),
            lambda: separate_points([bad_limit, NodePoint(w(0)), NodePoint(w(1))], space),
        ]
        for call in calls:
            with pytest.raises(SpaceError, match="^class index 7 out of range 0..[01]$"):
                call()

    def test_comb_limit_refuses_foreign_generator(self):
        gen = CombGenerator.over(Branch(3, (), (2,)), 2, 0, 2)
        for space in (PartitionSpace(P20), self.BINARY_FAMILY):
            with pytest.raises(AlphabetError, match="alphabet mismatch: 3 vs 2"):
                space.comb_limit(gen)


class TestConvergence:
    def test_prefix_test_stabilizes_at_two(self):
        # Teeth 0^k.1: the node (0,0) becomes a prefix exactly from k = 2.
        space = PartitionSpace(P20)
        gen = CombGenerator.over(ZEROS, 0, 1, 3)
        (rep,) = verify_convergence(gen, space, [NodeTest(w(0, 0))])
        assert rep.stable and rep.k0 == 2
        assert rep.limit_value == 1

    def test_root_test_stabilizes_immediately(self):
        space = PartitionSpace(P20)
        gen = CombGenerator.over(ZEROS, 0, 1, 3)
        (rep,) = verify_convergence(gen, space, [NodeTest(w())])
        assert rep.k0 == 0 and rep.limit_value == 1

    def test_scattered_tooth_test_settles_after_hit(self):
        # g_s(t) = 1 only at t = s, so the test at tooth 5 flips back at 6.
        fam = DisjointFamily(2, (frozenset({0}),))
        space = ScatteredSpace(fam)
        gen = CombGenerator.over(ZEROS, 0, 1, 3)
        s5 = w(0, 0, 0, 0, 0, 1)
        (rep,) = verify_convergence(gen, space, [NodeTest(s5)])
        assert rep.limit_value == 0
        assert rep.k0 == 6

    def test_short_explicit_horizon_reports_instability(self):
        fam = DisjointFamily(2, (frozenset({0}),))
        space = ScatteredSpace(fam)
        gen = CombGenerator.over(ZEROS, 0, 1, 3)
        s5 = w(0, 0, 0, 0, 0, 1)
        (rep,) = verify_convergence(gen, space, [NodeTest(s5)], horizon=5)
        assert not rep.stable
        assert rep.k0 is None and rep.horizon == 5

    def test_finite_comb_is_refused_at_construction(self):
        # The branch 10^w reads letter 1 only once: no second tooth exists.
        with pytest.raises(GeneratorExhaustedError, match="recurs only finitely"):
            CombGenerator(Branch(2, (1,), (0,)), 1, 0, (0,))

    @pytest.mark.parametrize("seed", range(8))
    def test_default_horizon_never_unstable(self, seed):
        rng = random.Random(seed)
        for _ in range(12):
            m = rng.randrange(2, 4)
            if rng.random() < 0.5:
                space = PartitionSpace(random_table(rng, m, rng.randrange(1, 4)))
            else:
                space = ScatteredSpace(random_family(rng, m))
            branch = Branch(m, (), tuple(rng.randrange(m) for _ in range(2)))
            i = branch.letter(rng.randrange(4))
            gen = CombGenerator.over(branch, i, rng.randrange(m), 3)
            tests = [NodeTest(random_word(rng, m)) for _ in range(3)]
            tests.append(ClassTest(random_branch(rng, m), 0))
            n = space.table.n if isinstance(space, PartitionSpace) else space.family.n
            if n == 0:
                tests.pop()
            for rep in verify_convergence(gen, space, tests):
                assert rep.stable, rep

    def test_limit_value_matches_comb_limit(self):
        space = PartitionSpace(P21)
        gen = CombGenerator.over(ZEROS, 0, 0, 3)
        tests = [NodeTest(w(0, 0, 0)), ClassTest(ZEROS, 0), ClassTest(ZEROS, 1)]
        limit = space.comb_limit(gen)
        for rep in verify_convergence(gen, space, tests):
            assert rep.limit_value == space.value(limit, rep.test)


def _random_space(rng: random.Random, m: int):
    if rng.random() < 0.5:
        return PartitionSpace(random_table(rng, m, rng.randint(1, 3)))
    return ScatteredSpace(random_family(rng, m))


def _near_branch(rng: random.Random, x: Branch, max_period: int) -> Branch:
    """A branch that follows x for a while and then goes its own way."""
    k = rng.randint(0, len(x.stem) + 2 * len(x.period))
    tail = random_branch(rng, x.m, 2, max_period)
    return Branch(x.m, x.head(k) + tail.stem, tail.period)


def _random_case(rng: random.Random, period: int | None = None):
    """Comb (branch, i, j, depths), space and tests.  The comb's branch has
    the given period (at most 3 letters by default).  Class tests use that
    period or one of at most 3 letters, which keeps the lcm, and with it the
    default horizon, small enough for the brute-force oracle."""
    m = rng.randint(2, 3)
    x = random_branch(rng, m)
    if period is not None:
        x = Branch(m, x.stem, tuple(rng.randrange(m) for _ in range(period)))
    i = x.letter(rng.randrange(len(x.stem) + len(x.period)))
    j = i if rng.random() < 0.5 else rng.randrange(m)
    # Four depths reading i, or one when i is read fewer times: it then lies
    # only in the stem, and the comb is refused when built.  A refused case
    # still makes all its draws, so the cases after it stay the same.
    reads = [d for d in range(len(x.stem) + 4 * len(x.period)) if x.letter(d) == i]
    depths = reads[: 4 if len(reads) >= 4 else 1]
    picked = tuple(d for d in depths if rng.random() < 0.6) or depths[:1]
    space = _random_space(rng, m)
    k = rng.randint(0, len(x.stem) + 4 * len(x.period) + 8)
    tests = [
        NodeTest(random_word(rng, m)),
        NodeTest(x.prefix(k)),
        NodeTest(x.prefix(k).child(rng.randrange(m))),
    ]
    # A one-letter change to the period: as long a period, a long meet.
    twin = Branch(m, x.stem, x.period[:-1] + ((x.period[-1] + 1) % m,))
    others = (x, twin, _near_branch(rng, x, 3), random_branch(rng, m))
    tests += [ClassTest(y, rng.randrange(space.n)) for y in others]
    rng.shuffle(tests)
    horizon = None if rng.random() < 0.4 else rng.randint(1, 30)
    return (x, i, j, picked), space, tests, horizon


def _compare_with_oracle(comb, space, tests, horizon) -> str:
    x, i = comb[:2]
    if i not in x.period:
        with pytest.raises(GeneratorExhaustedError, match="recurs only finitely"):
            CombGenerator(*comb)
        return "refused"
    gen = CombGenerator(*comb)
    expected = convergence_oracle(gen, space, tests, horizon)
    got = verify_convergence(gen, space, tests, horizon)
    assert got == expected, (gen, space, tests, horizon)
    if not all(r.stable for r in got):
        return "unstable"
    return "late" if any(r.k0 for r in got) else "immediate"


class TestClosedFormConvergence:
    """verify_convergence against the brute-force tooth scan of conftest."""

    def test_short_periods_match_tooth_scan(self):
        rng = random.Random(0)
        seen = [_compare_with_oracle(*_random_case(rng)) for _ in range(900)]
        for outcome in ("refused", "unstable", "late", "immediate"):
            assert seen.count(outcome) >= 30, outcome

    def test_sparse_colours_match_tooth_scan(self):
        # Restricted tables keep their colours; limits, teeth and tests read
        # a pair's class from them.
        rng = random.Random(27)
        seen = []
        for _ in range(600):
            comb, space, tests, horizon = _random_case(rng)
            if isinstance(space, PartitionSpace):
                space = PartitionSpace(recolor(rng, space.table))
                seen.append(_compare_with_oracle(comb, space, tests, horizon))
        for outcome in ("refused", "unstable", "late", "immediate"):
            assert seen.count(outcome) >= 10, outcome

    @pytest.mark.parametrize("seed", range(3))
    def test_long_periods_match_tooth_scan(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(10):
            comb, space, tests, horizon = _random_case(rng, rng.randint(50, 70))
            assert len(comb[0].period) >= 50
            _compare_with_oracle(comb, space, tests, horizon)

    def test_period_200_against_period_201_finishes(self):
        # The tooth scan would build some 40,000 teeth of average length
        # 60,000 here; the closed form builds none deeper than the meet.
        rng = random.Random(200)
        x = Branch(3, (), tuple(rng.randrange(3) for _ in range(200)))
        y = Branch(3, x.head(150), tuple(rng.randrange(3) for _ in range(201)))
        assert (len(x.period), len(y.period)) == (200, 201)
        space = PartitionSpace(random_table(rng, 3, 3))
        i = x.letter(0)
        gen = CombGenerator.over(x, i, (i + 1) % 3, 2)
        tests = [ClassTest(y, c) for c in range(space.n)]
        tests.append(NodeTest(x.prefix(120)))
        reports = verify_convergence(gen, space, tests)
        horizon = len(y.stem) + math.lcm(200, 201) + 2
        assert default_horizon(gen, tests) == horizon
        assert all(r.stable and r.horizon == horizon for r in reports)
        short = verify_convergence(gen, space, tests, horizon=120)
        assert short == convergence_oracle(gen, space, tests, 120)
        assert [r.k0 for r in short] == [r.k0 for r in reports]
        assert max(r.k0 for r in reports) > 0

    def test_deep_meets_match_tooth_scan(self):
        # Class tests share 500-1,500 letters with the comb's branch, so the
        # teeth that decide k0 lie deep; explicit horizons stop short of
        # them, reach just to them, or pass them, and keep the scan cheap.
        rng = random.Random(1500)
        seen = set()
        for case in range(16):
            m = rng.randint(2, 3)
            x = random_branch(rng, m, 3, 6)
            i = rng.choice(x.period)
            gen = CombGenerator.over(x, i, rng.randrange(m), rng.randint(1, 3))
            if case % 2:
                space = PartitionSpace(random_table(rng, m, rng.randint(1, 3)))
            else:
                space = ScatteredSpace(random_family(rng, m))
            meets = [rng.randint(500, 1500) for _ in range(4)]
            tests = [NodeTest(x.prefix(meets[0]))]
            for k in meets[1:]:
                turn = (x.letter(k) + rng.randrange(1, m)) % m
                period = tuple(rng.randrange(m) for _ in range(rng.randint(1, 4)))
                y = Branch(m, x.head(k) + (turn,), period)
                tests.append(ClassTest(y, rng.randrange(space.n)))
            # The number of teeth no deeper than the deepest decision depth.
            reach = sum(1 for d in range(max(meets) + 1) if x.letter(d) == i)
            horizon = rng.choice([rng.randint(1, 30), reach - rng.randint(0, 40), reach])
            got = verify_convergence(gen, space, tests, horizon)
            assert got == convergence_oracle(gen, space, tests, horizon)
            for r in got:
                seen.add("unstable" if r.k0 is None else "deep" if r.k0 > 100 else "shallow")
        assert seen == {"unstable", "deep", "shallow"}

    @pytest.mark.parametrize("scattered", [False, True])
    def test_period_8000_reads_at_most_three_teeth_per_test(self, monkeypatch, scattered):
        # Class tests meet a period-8,000 comb at depth 7,990; the
        # tooth-by-tooth scan built about 2,600 teeth per test here, and
        # reading three teeth per test still asked for 9 x 7,990 letters.
        rng = random.Random(8000)
        x = Branch(3, (), tuple(rng.randrange(3) for _ in range(8000)))
        turn = (x.letter(7990) + 1) % 3
        y = Branch(3, x.head(7990) + (turn,), (0, 1, 2, 2))
        i = x.letter(0)
        if scattered:
            family = (frozenset({i}), frozenset({(i + 1) % 3}))
            space = ScatteredSpace(DisjointFamily(3, family))
            gen = CombGenerator.over(x, i, i, 2)
        else:
            space = PartitionSpace(PartitionTable.dense(3, 3, ((0, 1, 2), (1, 2, 0), (2, 0, 1))))
            gen = CombGenerator.over(x, i, (i + 1) % 3, 2)
        tests = [ClassTest(y, c) for c in range(space.n)]
        # Count the letters read through Branch.head, which every tooth and
        # prefix goes through: x is read once, to just past the meet.
        reads = []
        head = Branch.head
        monkeypatch.setattr(Branch, "head", lambda b, n: reads.append(n) or head(b, n))
        reports = verify_convergence(gen, space, tests)
        assert sum(reads) <= 7990 + 2
        assert all(r.stable for r in reports)
        assert max(r.k0 for r in reports) > 2000

    def test_teeth_read_only_to_the_deepest_decision(self, monkeypatch):
        # However many depths the generator lists, the certificate takes
        # its teeth from CombGenerator.teeth only up to the deepest
        # decision depth; the supply check reads the period, not the teeth.
        x = Branch(2, (1,), (0, 1))
        gen = CombGenerator.over(x, 0, 1, 5000)
        space = PartitionSpace(P20)
        tests = [NodeTest(x.prefix(4)), ClassTest(x, 1), ClassTest(ONES, 0)]
        taken = []
        teeth = CombGenerator.teeth

        def counted(g):
            for d in teeth(g):
                taken.append(d)
                yield d

        monkeypatch.setattr(CombGenerator, "teeth", counted)
        reports = verify_convergence(gen, space, tests)
        assert reports == convergence_oracle(gen, space, tests)
        assert taken == [1, 3, 5]

    def test_class_index_checked_without_teeth(self):
        # On its own branch the comb needs no tooth, and the scattered
        # infinity limit reads 0 anywhere, yet the class must still exist.
        space = ScatteredSpace(DisjointFamily(2, (frozenset({0}),)))
        gen = CombGenerator.over(ZEROS, 0, 1, 1)
        with pytest.raises(SpaceError):
            verify_convergence(gen, space, [ClassTest(ZEROS, 1)])


def _edge_case(rng: random.Random):
    """Generator, space, tests and horizon (None or 1-3) with decision
    depths on the edges of the bisect window: 0, 1, and the first tooth's
    depth and its neighbours.  Class tests leave x there, sometimes by j."""
    m = rng.randint(2, 3)
    x = random_branch(rng, m)
    i = rng.choice(x.period)
    j = i if rng.random() < 0.5 else rng.randrange(m)
    gen = CombGenerator.over(x, i, j, rng.randint(1, 3))
    space = _random_space(rng, m)
    first = gen.depths[0]
    tests = [ClassTest(x, rng.randrange(space.n))]
    for d in sorted({0, 1, first - 1, first, first + 1} - {-1}):
        tests.append(NodeTest(x.prefix(d)))
        tests.append(NodeTest(x.prefix(d).child(rng.randrange(m))))
        if d:
            tests.append(NodeTest(x.prefix(d - 1).child(j)))
        turns = [a for a in range(m) if a != x.letter(d)]
        turn = j if j in turns and rng.random() < 0.5 else rng.choice(turns)
        tail = random_branch(rng, m, 2)
        y = Branch(m, x.head(d) + (turn,) + tail.stem, tail.period)
        tests.append(ClassTest(y, rng.randrange(space.n)))
    rng.shuffle(tests)
    return gen, space, tests, rng.choice([None, 1, 2, 3])


class TestLetterCertificates:
    """verify_convergence reads letters, not teeth; the tooth scan of
    conftest is the reference, errors included."""

    def test_bisect_window_edges_match_tooth_scan(self):
        rng = random.Random(14)
        kinds, outcomes = set(), set()
        for _ in range(500):
            gen, space, tests, horizon = _edge_case(rng)
            got = verify_convergence(gen, space, tests, horizon)
            assert got == convergence_oracle(gen, space, tests, horizon), (gen, space, tests)
            kinds.add((type(space).__name__, gen.i == gen.j, horizon))
            outcomes.update("unstable" if r.k0 is None else min(r.k0, 2) for r in got)
        assert len(kinds) == 2 * 2 * 4
        assert outcomes == {0, 1, 2, "unstable"}

    def test_errors_match_tooth_scan(self):
        rng = random.Random(41)
        seen = set()
        for _ in range(300):
            gen, space, tests, horizon = _edge_case(rng)
            x, m = gen.branch, gen.branch.m
            bad = [
                NodeTest(Word(m + 1, (m,) * rng.randint(0, 3))),
                ClassTest(Branch(m + 1, x.stem, (m,)), rng.randrange(space.n)),
                ClassTest(Branch(m + 1, (), (m,)), space.n),
                ClassTest(x, space.n),  # over x no tooth is read
                ClassTest(random_branch(rng, m), -1),
            ]
            for t in rng.sample(bad, 2):
                tests.insert(rng.randrange(len(tests) + 1), t)
            with pytest.raises((AlphabetError, SpaceError)) as expected:
                convergence_oracle(gen, space, tests, horizon)
            with pytest.raises(type(expected.value)):
                verify_convergence(gen, space, tests, horizon)
            seen.add((type(space).__name__, type(expected.value).__name__))
        assert len(seen) == 4


# -- descriptors and separation --------------------------------------------------


SPACES = [PartitionSpace(P20), ScatteredSpace(DisjointFamily(2, (frozenset({0}),)))]


class TestDescriptors:
    def test_cone_membership(self):
        space = PartitionSpace(P20)
        cone = Cone(w(0))
        assert descriptor_contains(cone, NodePoint(w(0, 1)), space)
        assert not descriptor_contains(cone, NodePoint(w(1)), space)
        assert descriptor_contains(cone, LimitPoint(ZEROS, 0), space)
        assert not descriptor_contains(cone, LimitPoint(ONES, 0), space)

    def test_cone_excludes_infinity(self):
        space = ScatteredSpace(DisjointFamily(2, (frozenset({0}),)))
        assert not descriptor_contains(Cone(w()), INFINITY, space)
        assert descriptor_contains(WholeSpace(), INFINITY, space)

    def test_singleton_membership_is_isolation(self):
        space = PartitionSpace(P20)
        s = w(0)
        assert descriptor_contains(Singleton(s), NodePoint(s), space)
        assert not descriptor_contains(Singleton(s), NodePoint(w(0, 0)), space)
        assert not descriptor_contains(Singleton(s), LimitPoint(ZEROS, 0), space)
        assert descriptor_contains(CoSingleton(s), LimitPoint(ZEROS, 0), space)

    def test_isolation_certificate(self):
        # The singleton at a node holds the node point and no other point,
        # across both space kinds.
        rng = random.Random(23)
        for _ in range(30):
            m = rng.randrange(2, 4)
            if rng.random() < 0.5:
                space = PartitionSpace(random_table(rng, m, rng.randrange(1, 4)))
            else:
                space = ScatteredSpace(random_family(rng, m))
            s = random_word(rng, m, max_len=4)
            assert descriptor_contains(Singleton(s), NodePoint(s), space)
            others = sample_points(space, rng, 8) + [NodePoint(s.child(0))]
            if s.letters:
                others.append(NodePoint(s.prefix(len(s) - 1)))
            for other in others:
                if other != NodePoint(s):
                    assert not descriptor_contains(Singleton(s), other, space), (s, other)

    def test_prefix_and_identity_match_the_value_oracle(self):
        # Cones by is_prefix, singletons and their complements by the value
        # certificate, in both spaces, at points on and around s.
        rng = random.Random(29)
        seen = set()
        for _ in range(300):
            m = rng.randrange(2, 4)
            if rng.random() < 0.5:
                space = PartitionSpace(random_table(rng, m, rng.randrange(1, 4)))
            else:
                space = ScatteredSpace(random_family(rng, m))
            s = random_word(rng, m, max_len=4)
            pts = sample_points(space, rng, 6) + [NodePoint(s)]
            pts += [NodePoint(s.child(a)) for a in range(m)]
            if s.letters:
                pts.append(NodePoint(s.prefix(len(s) - 1)))
            through = Branch(m, s.letters, (rng.randrange(m),))
            pts.append(LimitPoint(through, rng.randrange(space.n)))
            if isinstance(space, ScatteredSpace):
                pts.append(INFINITY)
            for p in pts:
                member = isolation_oracle(space, s, p)
                cone = p != INFINITY and is_prefix(
                    s, p.word if isinstance(p, NodePoint) else p.branch
                )
                assert descriptor_contains(Singleton(s), p, space) == member
                assert descriptor_contains(CoSingleton(s), p, space) != member
                assert descriptor_contains(Cone(s), p, space) == cone
                assert descriptor_contains(WholeSpace(), p, space)
                seen.add((type(space).__name__, type(p).__name__, member, cone))
        assert len(seen) == 11

    @pytest.mark.parametrize("desc", [Cone(w()), WholeSpace()], ids=["cone", "whole"])
    def test_infinity_outside_a_partition_space(self, desc):
        with pytest.raises(SpaceError, match="no infinity point"):
            descriptor_contains(desc, INFINITY, PartitionSpace(P20))

    @pytest.mark.parametrize("kind", [Cone, Singleton, CoSingleton, WholeSpace])
    @pytest.mark.parametrize("space", SPACES, ids=["partition", "scattered"])
    def test_class_out_of_range(self, kind, space):
        desc = WholeSpace() if kind is WholeSpace else kind(w(0))
        with pytest.raises(SpaceError, match="out of range"):
            descriptor_contains(desc, LimitPoint(ZEROS, space.n), space)

    @pytest.mark.parametrize("kind", [Cone, Singleton, CoSingleton])
    @pytest.mark.parametrize("space", SPACES, ids=["partition", "scattered"])
    def test_word_over_another_alphabet(self, kind, space):
        for point in (NodePoint(w(0)), LimitPoint(ZEROS, 0)):
            with pytest.raises(AlphabetError):
                descriptor_contains(kind(w(0, m=3)), point, space)

    def test_emptiness_certificates(self):
        assert family_intersection_empty([Singleton(w(0)), CoSingleton(w(0))])
        assert family_intersection_empty([Cone(w(0)), Cone(w(1)), WholeSpace()])
        assert not family_intersection_empty([Cone(w(0)), Cone(w(0, 1))])
        assert not family_intersection_empty([WholeSpace(), WholeSpace()])
        assert not family_intersection_empty([Singleton(w(0)), CoSingleton(w(1))])


class TestSeparatePoints:
    def test_node_first_rule(self):
        space = PartitionSpace(P20)
        pts = [NodePoint(w(0)), LimitPoint(ZEROS, 0), LimitPoint(ONES, 0)]
        assert separate_points(pts, space) == (
            Singleton(w(0)),
            CoSingleton(w(0)),
            CoSingleton(w(0)),
        )

    def test_limit_split_rule(self):
        space = PartitionSpace(P20)
        pts = [LimitPoint(ZEROS, 0), LimitPoint(ONES, 0), LimitPoint(ZEROS, 1)]
        assert separate_points(pts, space) == (
            Cone(w(0)),
            Cone(w(1)),
            WholeSpace(),
        )

    def test_scattered_node_case(self):
        space = ScatteredSpace(DisjointFamily(2, (frozenset({0}),)))
        pts = [INFINITY, LimitPoint(ZEROS, 0), NodePoint(w(1))]
        assert separate_points(pts, space) == (
            CoSingleton(w(1)),
            CoSingleton(w(1)),
            Singleton(w(1)),
        )

    def test_scattered_limit_case(self):
        space = ScatteredSpace(DisjointFamily(2, (frozenset({0}),)))
        pts = [INFINITY, LimitPoint(ZEROS, 0), LimitPoint(ONES, 0)]
        assert separate_points(pts, space) == (
            WholeSpace(),
            Cone(w(0)),
            Cone(w(1)),
        )

    def test_duplicate_point_rejected(self):
        space = PartitionSpace(P20)
        pts = [NodePoint(w(0)), NodePoint(w(0)), LimitPoint(ZEROS, 0)]
        with pytest.raises(SpaceError):
            separate_points(pts, space)

    def test_wrong_count_rejected(self):
        space = PartitionSpace(P20)
        with pytest.raises(SpaceError):
            separate_points([NodePoint(w(0)), NodePoint(w(1))], space)

    def test_infinity_rejected_in_partition(self):
        space = PartitionSpace(P20)
        with pytest.raises(SpaceError):
            separate_points([INFINITY, NodePoint(w(0)), NodePoint(w(1))], space)
        # Without a node point no evaluation would meet the infinity point.
        with pytest.raises(SpaceError, match="no infinity point"):
            separate_points([LimitPoint(ZEROS, 0), LimitPoint(ONES, 0), INFINITY], space)

    def test_arities(self):
        assert PartitionSpace(P20).separation_arity == 3
        fam = DisjointFamily(3, (frozenset({0}), frozenset({1})))
        assert ScatteredSpace(fam).separation_arity == 4
        assert (PartitionSpace(P20).m, ScatteredSpace(fam).m) == (2, 3)
        # One point more than the degree: n for a partition space, n + 1 for
        # a scattered one, whose infinity point adds one; families may be empty.
        rng = random.Random(26)
        for _ in range(40):
            m = rng.randint(1, 4)
            table = random_table(rng, m, rng.randint(1, min(m * m, 5)))
            assert PartitionSpace(table).separation_arity == table.n + 1
            family = _family_of_size(rng, m, rng.randint(0, m))
            assert ScatteredSpace(family).separation_arity == family.n + 2

    @pytest.mark.parametrize("seed", range(10))
    def test_membership_and_emptiness_randomized(self, seed):
        # Each point must land in its own set and the sets must visibly
        # share no common point.
        rng = random.Random(seed)
        for _ in range(15):
            m = rng.randrange(2, 4)
            if rng.random() < 0.5:
                space = PartitionSpace(random_table(rng, m, rng.randrange(1, 4)))
            else:
                space = ScatteredSpace(random_family(rng, m))
            pts = _distinct_points(space, rng)
            if pts is None:
                continue
            descs = separate_points(pts, space)
            assert len(descs) == len(pts)
            for p, d in zip(pts, descs):
                assert descriptor_contains(d, p, space)
            assert family_intersection_empty(descs)


def _distinct_points(space, rng: random.Random):
    arity = space.separation_arity
    for _ in range(60):
        pts = sample_points(space, rng, arity)
        if isinstance(space, ScatteredSpace) and rng.random() < 0.7:
            pts[rng.randrange(arity)] = INFINITY
        if len(set(pts)) == arity:
            return pts
    return None


# -- classical subspaces -------------------------------------------------------


class TestClassifySubspaces:
    def test_ascending_pair_alone_gives_split(self):
        rep = classify_subspaces(P20)
        assert (rep.contains_cantor, rep.contains_split) == (False, True)

    def test_single_piece_gives_cantor(self):
        table = PartitionTable.dense(2, 1, ((0, 0), (0, 0)))
        rep = classify_subspaces(table)
        assert (rep.contains_cantor, rep.contains_split) == (True, False)

    def test_symmetric_off_diagonal_gives_cantor(self):
        rep = classify_subspaces(P21)
        assert (rep.contains_cantor, rep.contains_split) == (True, False)

    @given(st.integers(0, 2**16 - 1))
    @settings(max_examples=60)
    def test_matches_direct_pair_scan(self, bits):
        values = tuple(
            tuple((bits >> (2 * (2 * i + j))) & 3 for j in range(2))
            for i in range(2)
        )
        table = PartitionTable(2, values)
        rep = classify_subspaces(table)
        assert rep.contains_cantor == (table.color(0, 1) == table.color(1, 0))
        assert rep.contains_split == (table.color(0, 1) != table.color(1, 0))


# -- split interval embedding -----------------------------------------------------


class TestSplitEmbedding:
    TABLES = {
        # keyed by how the diagonal colours align with the off-diagonal ones
        "all_equal": PartitionTable.dense(2, 2, ((0, 0), (1, 0))),
        "diag_with_10": PartitionTable.dense(2, 2, ((0, 1), (0, 0))),
        "rows_apart": PartitionTable.dense(2, 2, ((0, 0), (1, 1))),
    }
    EXCLUDED = PartitionTable.dense(2, 2, ((0, 1), (0, 1)))

    def test_limit_points_interleave(self):
        x = Branch(2, (1,), (0, 1))
        for table in self.TABLES.values():
            seq, side = split_embedding(table, LimitPoint(x, 0))
            assert seq == interleave_branch(x)
            seq1, side1 = split_embedding(table, LimitPoint(x, 1))
            assert seq1 == seq
            assert {side, side1} == {0, 1}

    def test_side_tracks_ascending_pair_class(self):
        # The class of the pair (0,1) takes side 1 whatever the labelling,
        # sparse colours in either order included.
        for dense in self.TABLES.values():
            for f in (lambda c: c, lambda c: 3 * c + 4, lambda c: 9 - 4 * c):
                table = PartitionTable(2, tuple(tuple(map(f, row)) for row in dense.values))
                upper = table.colors.index(table.color(0, 1))
                _, side = split_embedding(table, LimitPoint(ZEROS, upper))
                assert side == 1
                _, side = split_embedding(table, LimitPoint(ZEROS, 1 - upper))
                assert side == 0

    def test_node_all_equal_tail_ones(self):
        table = self.TABLES["all_equal"]
        seq, side = split_embedding(table, NodePoint(w(0)))
        assert seq == Branch(2, (0,), (1,))
        assert side == 1

    def test_node_tails_by_table(self):
        cases = {
            "all_equal": (1,),
            "diag_with_10": (0,),
            "rows_apart": (0, 1),
        }
        for key, tail in cases.items():
            seq, _ = split_embedding(self.TABLES[key], NodePoint(w(1, 0)))
            assert seq == Branch(2, (1, 0, 1, 0), tail), key

    def test_interleaving_keeps_markers_between_letters(self):
        table = self.TABLES["rows_apart"]
        seq, _ = split_embedding(table, NodePoint(w(1, 1, 0)))
        assert seq.stem[:7] == (1, 0, 1, 1, 0, 1, 0)

    def test_excluded_table_rejected(self):
        with pytest.raises(SpaceError):
            split_embedding(self.EXCLUDED, NodePoint(w(0)))

    def test_symmetric_table_rejected(self):
        symmetric = PartitionTable.dense(2, 2, ((0, 1), (1, 0)))
        with pytest.raises(SpaceError):
            split_embedding(symmetric, NodePoint(w(0)))

    def test_wrong_size_rejected(self):
        single = PartitionTable.dense(2, 1, ((0, 0), (0, 0)))
        with pytest.raises(SpaceError):
            split_embedding(single, NodePoint(w(0)))

    def test_infinity_rejected(self):
        with pytest.raises(SpaceError):
            split_embedding(self.TABLES["rows_apart"], INFINITY)

    @pytest.mark.parametrize(
        "point, m",
        [
            (NodePoint(Word(5, (1, 0))), 5),
            (LimitPoint(Branch(7, (), (0, 1)), 0), 7),
            (LimitPoint(Branch(3, (), (2,)), 0), 3),
        ],
    )
    def test_other_alphabet_rejected(self, point, m):
        with pytest.raises(AlphabetError, match=f"alphabet mismatch: {m} vs 2$"):
            split_embedding(self.TABLES["rows_apart"], point)

    def test_injective_on_sampled_points(self):
        rng = random.Random(5)
        for table in self.TABLES.values():
            points = [NodePoint(w())]
            points += [NodePoint(random_word(rng, 2, max_len=4)) for _ in range(25)]
            points += [
                LimitPoint(random_branch(rng, 2), c)
                for c in (0, 1)
                for _ in range(10)
            ]
            points = list(dict.fromkeys(points))
            images = [split_embedding(table, p) for p in points]
            assert len(set(images)) == len(points), table

    def test_comb_teeth_approach_limit_from_its_side(self):
        # Tooth images must converge to the limit image in the order
        # topology: from above exactly when the limit sits on side 1.
        for table in self.TABLES.values():
            for i, j in ((0, 1), (1, 0), (0, 0), (1, 1)):
                branch = Branch(2, (), (i,))
                gen = CombGenerator.over(branch, i, j, 4)
                space = PartitionSpace(table)
                limit = space.comb_limit(gen)
                lim_seq, lim_side = split_embedding(table, limit)
                from madic.patterns import comb_nodes

                for tooth in comb_nodes(gen)[1:]:
                    seq, _ = split_embedding(table, NodePoint(tooth))
                    horizon = len(seq.stem) + len(lim_seq.stem) + 8
                    cmp = _lex_cmp(seq, lim_seq, horizon)
                    assert cmp != 0
                    assert (cmp > 0) == (lim_side == 1), (table, i, j, tooth)


def _lex_cmp(a: Branch, b: Branch, horizon: int) -> int:
    for d in range(horizon):
        if a.letter(d) != b.letter(d):
            return 1 if a.letter(d) > b.letter(d) else -1
    return 0
