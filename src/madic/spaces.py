"""Two families of 0/1-valued compacta presented symbolically.

A partition space is built from a surjective colouring of m x m letter
pairs: its points are prefix-indicator functions of nodes together with, for
each branch and colour class, the limit such indicators approach along combs
of that class.  A scattered space is built from a family of pairwise
disjoint letter sets: its points are single-node indicators, one limit per
branch and member set, and a single top point below everything.

Points and test nodes are symbolic; evaluation, comb limits, convergence
certificates, point separation and the classical subspace tests are all
exact and finite.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .patterns import CombGenerator
from .words import (
    Branch,
    PrefixRelation,
    Word,
    _check_letters,
    _common,
    _same_alphabet,
    branch_meet_horizon,
    incidence,
    is_prefix,
    meet,
    prefix_cmp,
)


class SpaceError(ValueError):
    """Inconsistent space data or an evaluation outside the space."""


@dataclass(frozen=True, slots=True)
class PartitionTable:
    """A colouring of the m x m letter pairs, surjective onto its colours.

    Colours need not form an initial segment: tables produced by restriction
    keep the colours of the table they came from.  Classes are indexed by
    the position of their colour in ascending colour order, so the pair
    (i, j) lies in class c exactly when values[i][j] == colors[c].
    """

    m: int
    values: tuple[tuple[int, ...], ...]
    colors: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        _check_letters((), self.m)
        vals = tuple(tuple(row) for row in self.values)
        if len(vals) != self.m or any(len(row) != self.m for row in vals):
            raise SpaceError(f"values must be {self.m} rows of {self.m} colours")
        for row in vals:
            for c in row:
                if not isinstance(c, int) or c < 0:
                    raise SpaceError(f"colour {c!r} must be a nonnegative integer")
        colors = tuple(sorted({c for row in vals for c in row}))
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "colors", colors)

    @classmethod
    def dense(
        cls, m: int, n: int, values: Sequence[Sequence[int]]
    ) -> "PartitionTable":
        """Table whose colours are required to be exactly 0..n-1."""
        table = cls(m, tuple(tuple(row) for row in values))
        # Compare counts first: range(n) of a huge n would not fit in memory.
        if table.n != n or table.colors != tuple(range(n)):
            raise SpaceError(
                f"table is not surjective onto 0..{n - 1}: colours {table.colors}"
            )
        return table

    @property
    def n(self) -> int:
        return len(self.colors)

    def color(self, i: int, j: int) -> int:
        return self.values[i][j]


@dataclass(frozen=True, slots=True)
class DisjointFamily:
    """Pairwise disjoint nonempty sets of letters from {0, ..., m-1}."""

    m: int
    classes: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        classes = tuple(frozenset(c) for c in self.classes)
        _check_letters(tuple(itertools.chain(*classes)), self.m)
        seen: set[int] = set()
        for c in classes:
            if not c:
                raise SpaceError("family classes must be nonempty")
            for a in c:
                if a in seen:
                    raise SpaceError(f"letter {a} appears in two classes")
                seen.add(a)
        object.__setattr__(self, "classes", classes)

    @property
    def n(self) -> int:
        return len(self.classes)


# -- symbolic points and test points -----------------------------------------


@dataclass(frozen=True, slots=True)
class NodePoint:
    word: Word


@dataclass(frozen=True, slots=True)
class LimitPoint:
    branch: Branch
    cls: int


@dataclass(frozen=True, slots=True)
class InfinityPoint:
    """The single point below every limit of a scattered space."""


INFINITY = InfinityPoint()

SymbolicPoint = Union[NodePoint, LimitPoint, InfinityPoint]


@dataclass(frozen=True, slots=True)
class NodeTest:
    word: Word


@dataclass(frozen=True, slots=True)
class ClassTest:
    branch: Branch
    cls: int


TestPoint = Union[NodeTest, ClassTest]


def _check_element(
    item: Union[NodePoint, LimitPoint, TestPoint], space: "Space"
) -> None:
    """The one check of node and limit points and of tests: raise SpaceError
    for a class index outside the space, then AlphabetError for a word or
    branch over another alphabet."""
    if isinstance(item, (NodePoint, NodeTest)):
        _same_alphabet(item.word, space)
    else:
        if not 0 <= item.cls < space.n:
            raise SpaceError(f"class index {item.cls} out of range 0..{space.n - 1}")
        _same_alphabet(item.branch, space)


def _value(space: "Space", point: SymbolicPoint, test: TestPoint) -> int:
    """Value of a point at a test point by the space's letter rules.

    At a node test at w: whether w is a prefix of the point, and whether it
    is the node point itself.  At a class test over y: the incidence pair
    of y with the point, (a, a) exactly when y passes through a node point
    and goes on by a; a limit point over y itself reads its own class."""
    space.check_point(point)
    _check_element(test, space)
    if isinstance(point, InfinityPoint):
        return 0
    node = isinstance(point, NodePoint)
    other = point.word if node else point.branch
    if isinstance(test, NodeTest):
        equal = node and point.word == test.word
        return space._node_value(is_prefix(test.word, other), equal)
    if other == test.branch:
        return 1 if point.cls == test.cls else 0
    return space._pair_value(*incidence(test.branch, other), test.cls)


def partition_value(
    point: SymbolicPoint, test: TestPoint, table: PartitionTable
) -> int:
    """Value of a partition-space point at a test point.  It and
    scattered_value stay only as names the benchmark traces: both must
    resolve (tests/test_bench_names.py) and have a library caller, the value
    methods (tests/test_surface.py).  They go once the library counts its
    own work."""
    return _value(PartitionSpace(table), point, test)


def scattered_value(
    point: SymbolicPoint, test: TestPoint, family: DisjointFamily
) -> int:
    """Value of a scattered-space point at a test point (see partition_value)."""
    return _value(ScatteredSpace(family), point, test)


class Space:
    """A symbolic compactum over the m-letter tree.

    Both kinds answer the same rules -- m, n, separation_arity, value,
    comb_limit and check_point, and privately _node_value and _pair_value,
    the letter rules that value, comb_limit and verify_convergence read --
    so callers never ask which kind of space they hold.  check_point,
    separation_arity and comb_limit are stated once, here; the kinds differ
    only in their data, whether they hold the infinity point, and the two
    letter rules.
    """

    __slots__ = ()
    _has_infinity = False

    @property
    def separation_arity(self) -> int:
        """One point more than the open degree, which is n, plus one for the
        infinity point of a scattered space."""
        return self.n + 2 if self._has_infinity else self.n + 1

    def check_point(self, point: SymbolicPoint) -> None:
        """Raise SpaceError unless the point belongs to the space, and
        AlphabetError if it lies over another alphabet."""
        if not isinstance(point, InfinityPoint):
            _check_element(point, self)
        elif not self._has_infinity:
            raise SpaceError("partition spaces have no infinity point")

    def comb_limit(self, gen: CombGenerator) -> SymbolicPoint:
        """Limit of the tooth indicators: the limit point of the comb's
        branch in the class whose pair rule accepts the first moves (i, j),
        or the infinity point when no class does.

        Every generator has infinitely many teeth, as i recurs on its
        branch.  Every tooth meets the branch with the pair (i, j), as
        verify_convergence shows for a class test over it, and so does the
        limit.  In a partition space exactly one class accepts each pair.
        In a scattered space at most one member holds i, and no member
        accepts i != j.
        """
        _same_alphabet(gen.branch, self)
        for cls in range(self.n):
            if self._pair_value(gen.i, gen.j, cls):
                return LimitPoint(gen.branch, cls)
        return INFINITY


@dataclass(frozen=True, slots=True)
class PartitionSpace(Space):
    """First-countable compactum attached to a partition table."""

    table: PartitionTable

    def value(self, point: SymbolicPoint, test: TestPoint) -> int:
        return partition_value(point, test, self.table)

    @property
    def m(self) -> int:
        return self.table.m

    @property
    def n(self) -> int:
        return self.table.n

    # Values read off letters (verify_convergence states the rules): at a
    # node test that is a prefix of the point, or equal to it; at a class
    # test whose branch meets the point with incidence pair (a, b).
    def _node_value(self, prefix: bool, equal: bool) -> int:
        return 1 if prefix else 0

    def _pair_value(self, a: int, b: int, cls: int) -> int:
        table = self.table
        return 1 if table.values[a][b] == table.colors[cls] else 0


@dataclass(frozen=True, slots=True)
class ScatteredSpace(Space):
    """Scattered compactum of height three attached to a disjoint family."""

    family: DisjointFamily
    _has_infinity = True

    def value(self, point: SymbolicPoint, test: TestPoint) -> int:
        return scattered_value(point, test, self.family)

    @property
    def m(self) -> int:
        return self.family.m

    @property
    def n(self) -> int:
        return self.family.n

    # PartitionSpace's letter rules, for single-node indicators.
    def _node_value(self, prefix: bool, equal: bool) -> int:
        return 1 if equal else 0

    def _pair_value(self, a: int, b: int, cls: int) -> int:
        return 1 if a == b and a in self.family.classes[cls] else 0


# -- convergence certificates -------------------------------------------------


@dataclass(frozen=True, slots=True)
class StabilizationReport:
    """Where a comb's tooth values settle onto the limit value at one test.

    k0 is the least index from which every tooth up to the horizon agrees
    with the limit.  When even the last examined tooth disagrees, k0 is None.
    """

    test: TestPoint
    limit_value: int
    k0: Optional[int]
    horizon: int

    @property
    def stable(self) -> bool:
        return self.k0 is not None


def verify_convergence(
    gen: CombGenerator,
    space: Space,
    tests: Sequence[TestPoint],
    horizon: Optional[int] = None,
) -> list[StabilizationReport]:
    """Certify, test by test, that tooth values stabilise on the limit.

    Teeth 0..horizon count; the tooth at depth d follows the comb's branch x
    to d and then moves j (for i == j it stops at d).  Each test has a
    decision depth D: len(w) for a node test at w, the length of the meet of
    x and y for a class test over y != x, and -1 for a class test over x.

    Every value is read off letters.  At a node test at w a partition point
    reads whether w is its prefix, a scattered point whether it is w.  At a
    class test over y, of class c, a point that y meets with incidence pair
    (a, b) reads, in a partition space, whether (a, b) lies in class c; in a
    scattered space, whether a == b (y passes through the point) and a lies
    in set c.  Write x_D, y_D and y_E for x[D], y[D] and y[D + 1].

    * Node test at w.  The limit reads w <= x ("on": w is x[:D]) in a
      partition space and 0 in a scattered one.  A tooth deeper than D
      starts with x[:D] and is longer than w, so it reads as the limit.  w
      is a prefix of the tooth at D iff on, and equals it iff on and
      i == j (for i != j the tooth is one letter longer).  The tooth at
      D - 1 has at most D letters, so w is its prefix iff w equals it:
      iff i != j and w is x[:D - 1] followed by j.  Teeth at d < D - 1
      have at most d + 1 < D letters and read 0.
    * Class test over x.  Every tooth meets x with pair (i, j), and so does
      the limit: LimitPoint(x, class of (i, j)) in a partition space; in a
      scattered space LimitPoint(x, set of i) when i == j and i lies in a
      set, else the infinity point, which reads 0 as the pair (i, j) does.
      So every tooth agrees with the limit, and k0 = 0.
    * Class test over y != x.  The limit meets y with pair (y_D, x_D), and
      so does every tooth deeper than D, which contains x[:D + 1].  At
      d < D, y reads x's letter i, so the tooth meets y with pair (i, j):
      for i == j it is a proper prefix of y, for i != j it leaves y by j.
      The tooth at D exists only where x_D = i, so y_D != i.  For i == j it
      is x[:D], with pair (y_D, y_D).  For i != j it is x[:D] followed by
      j: if j == y_D it is a prefix of y, with pair (y_E, y_E), and
      otherwise it leaves y with pair (y_D, j).

    So all teeth shallower than D - 1 share one value, and that value with
    the teeth at D - 1 and D decides k0, the index after the last tooth
    that disagrees with the limit.  They are located by bisection in one
    list of tooth depths, and no tooth is built.  The cost is linear in the
    decision depths, and k0 is exact whatever the horizon.  With horizon
    omitted a sufficient one is derived in the same pass over the tests,
    so a valid generator never reports instability; an explicit horizon is
    honoured as given and may be too short to see stabilisation.
    """
    x, i, j = gen.branch, gen.i, gen.j
    _same_alphabet(x, space)
    if horizon is not None and horizon < 1:
        raise SpaceError("horizon must be at least 1")
    # The derived horizon exceeds the number of teeth no deeper than any
    # decision depth: it is at least deepest + 2, and branch_meet_horizon
    # + 2 for each class test over y != x (its meet is shorter than that).
    bound, deepest = 2 * (len(x.stem) + len(x.period)) + 2, -1
    meets = {x: -1}  # decision depths of class tests, by branch
    decided = []
    for test in tests:
        _check_element(test, space)  # even if no tooth is read
        if isinstance(test, NodeTest):
            decision = len(test.word.letters)
        else:
            decision = meets.get(test.branch)
            if decision is None:
                decision = meets[test.branch] = _common(x, test.branch)
                if horizon is None:
                    bound = max(bound, branch_meet_horizon(x, test.branch) + 2)
        deepest = max(deepest, decision)
        decided.append((test, decision))
    if horizon is None:
        horizon = max(bound, deepest + 2)
    xs = x.head(deepest + 1)
    # The first horizon + 1 tooth depths no deeper than any decision depth.
    depths = list(itertools.takewhile(lambda d: d <= deepest, gen.teeth()))
    depths = depths[: horizon + 1]
    node_value, pair_value = space._node_value, space._pair_value
    reports = []
    for test, D in decided:
        if isinstance(test, NodeTest):
            w = test.word.letters
            on = w == xs[:D]
            hit = i != j and D > 0 and w[-1] == j and w[:-1] == xs[: D - 1]
            lim_val = node_value(on, False)
            at_prev, at_d = node_value(hit, hit), node_value(on, on and i == j)
            below = 0
        elif D < 0:
            lim_val = below = at_prev = at_d = pair_value(i, j, test.cls)
        else:
            c, y_d = test.cls, test.branch.letter(D)
            lim_val = pair_value(y_d, xs[D], c)
            below = at_prev = pair_value(i, j, c)
            if i == j:
                at_d = pair_value(y_d, y_d, c)
            elif j == y_d:
                y_e = test.branch.letter(D + 1)
                at_d = pair_value(y_e, y_e, c)
            else:
                at_d = pair_value(y_d, j, c)
        k = bisect.bisect_left(depths, D - 1)
        k0 = k if k and below != lim_val else 0
        if k < len(depths) and depths[k] == D - 1:
            k += 1
            if at_prev != lim_val:
                k0 = k
        if k < len(depths) and depths[k] == D and at_d != lim_val:
            k0 = k + 1
        reports.append(
            StabilizationReport(test, lim_val, k0 if k0 <= horizon else None, horizon)
        )
    return reports


# -- point separation ---------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Cone:
    """Points whose value at the node is 1: everything passing through it."""

    word: Word


@dataclass(frozen=True, slots=True)
class Singleton:
    """The isolated node point at the word, cut out by finitely many tests."""

    word: Word


@dataclass(frozen=True, slots=True)
class CoSingleton:
    """Complement of the singleton at the word."""

    word: Word


@dataclass(frozen=True, slots=True)
class WholeSpace:
    pass


OpenSetDescriptor = Union[Cone, Singleton, CoSingleton, WholeSpace]


def descriptor_contains(
    desc: OpenSetDescriptor, point: SymbolicPoint, space: Space
) -> bool:
    """Membership of a symbolic point in a described open set.

    Decided by prefix and identity, with no evaluation: the singleton at w
    holds the node point w alone.  In a partition space value 1 at w and 0
    at every child of w leaves only the node point w; in a scattered space
    node points are single-node indicators.
    """
    space.check_point(point)
    if isinstance(desc, WholeSpace):
        return True
    _same_alphabet(desc.word, space)
    if isinstance(point, InfinityPoint):
        return isinstance(desc, CoSingleton)
    node = isinstance(point, NodePoint)
    inside = is_prefix(desc.word, point.word if node else point.branch)
    if isinstance(desc, Cone):
        return inside
    member = inside and node and point.word == desc.word
    return member if isinstance(desc, Singleton) else not member


def family_intersection_empty(descs: Sequence[OpenSetDescriptor]) -> bool:
    """Syntactic certificate that the described sets have empty intersection:
    a singleton and its complement, or cones over incomparable nodes."""
    for a, b in itertools.combinations(descs, 2):
        kinds = {type(a), type(b)}
        if kinds == {Singleton, CoSingleton} and a.word == b.word:
            return True
        if kinds == {Cone}:
            if prefix_cmp(a.word, b.word) is PrefixRelation.INCOMPARABLE:
                return True
    return False


def separate_points(
    points: Sequence[SymbolicPoint], space: Space
) -> tuple[OpenSetDescriptor, ...]:
    """One open set per point, together covering no common point.

    Expects exactly one point more than the space's degree: n+1 points for a
    partition space on n classes, n+2 (the top point allowed) for a
    scattered family of n sets.  If some point is a node point, the first
    one gets its singleton and every other point the complement.  Otherwise
    two of the limit points live on distinct branches; the first such pair
    gets cones over the incomparable nodes one letter past the branches'
    meet, and the rest of the points get the whole space.
    """
    pts = list(points)
    for p in pts:
        space.check_point(p)
    arity = space.separation_arity
    if len(pts) != arity:
        raise SpaceError(f"need exactly {arity} points, got {len(pts)}")
    if len(set(pts)) != len(pts):
        raise SpaceError("points must be pairwise distinct")

    descs: list[OpenSetDescriptor]
    node = next((p for p in pts if isinstance(p, NodePoint)), None)
    if node is not None:
        t = node.word
        descs = [Singleton(t) if p == node else CoSingleton(t) for p in pts]
    else:
        limits = [(k, p.branch) for k, p in enumerate(pts) if isinstance(p, LimitPoint)]
        split = next(
            ((a, b) for a, b in itertools.combinations(limits, 2) if a[1] != b[1]),
            None,
        )
        if split is None:
            # More points than classes forces two distinct branches.
            raise SpaceError("internal invariant failed: no branch pair to split")
        (i, x), (j, y) = split
        cut = len(meet(x, y)) + 1
        descs = [WholeSpace() for _ in pts]
        descs[i] = Cone(x.prefix(cut))
        descs[j] = Cone(y.prefix(cut))

    for p, d in zip(pts, descs):
        if not descriptor_contains(d, p, space):
            raise SpaceError("internal invariant failed: point left its open set")
    if not family_intersection_empty(descs):
        raise SpaceError("internal invariant failed: sets are not disjoint enough")
    return tuple(descs)


# -- classical subspaces ------------------------------------------------------


@dataclass(frozen=True)
class SubspaceReport:
    contains_cantor: bool
    contains_split: bool


def classify_subspaces(table: PartitionTable) -> SubspaceReport:
    """Which classical compacta the partition space contains.

    A symmetric off-diagonal pair (both orders coloured alike) yields a copy
    of the Cantor set's function space; an asymmetric pair yields a copy of
    the split interval.
    """
    cantor = False
    split = False
    for i in range(table.m):
        for j in range(table.m):
            if i == j:
                continue
            if table.color(i, j) == table.color(j, i):
                cantor = True
            else:
                split = True
    return SubspaceReport(cantor, split)


# -- split interval embedding -------------------------------------------------

_EXCLUDED = "the two-colour table splitting {(0,0),(1,0)} from {(1,1),(0,1)}"


def _split_tail(table: PartitionTable) -> tuple[int, ...]:
    c00, c01 = table.color(0, 0), table.color(0, 1)
    c10, c11 = table.color(1, 0), table.color(1, 1)
    if c01 == c10:
        raise SpaceError("split embedding needs the two orders coloured apart")
    if c00 == c11 == c01:
        return (1,)
    if c00 == c11 == c10:
        return (0,)
    if c00 == c01 and c11 == c10:
        return (0, 1)
    raise SpaceError(f"split embedding undefined for {_EXCLUDED}")


def _interleave(letters: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(itertools.chain.from_iterable((a, 0, 1) for a in letters))


def interleave_branch(x: Branch) -> Branch:
    """x0 0 1 x1 0 1 ... : the branch's letters spaced by marker pairs."""
    return Branch(2, _interleave(x.stem), _interleave(x.period))


def split_embedding(
    table: PartitionTable, point: SymbolicPoint
) -> tuple[Branch, int]:
    """Image of a point in the doubled Cantor line (sequence, side bit).

    Limit points map to their interleaved branch; the side bit is 1 exactly
    for the class containing the ascending pair (0,1).  That convention is
    forced: teeth of a comb approach the interleaved branch lexicographically
    from above precisely when the comb's colour sits in that class, and side-1
    twins are the ones approached from above.

    Node points map to the interleaved word with the final marker pair
    replaced by a tail determined by the table's colour equalities; their
    side is the tail's first letter.  The root takes the bare tail sequence
    on the opposite side, which keeps the map injective when the tail is
    constant (node sides are otherwise unconstrained: no image sequence
    accumulates at a node image).  Images are ordered lexicographically,
    sequence first, side bit breaking ties.
    """
    if table.m != 2 or table.n != 2:
        raise SpaceError("split embedding needs a two-letter, two-colour table")
    tail = _split_tail(table)
    PartitionSpace(table).check_point(point)
    if isinstance(point, LimitPoint):
        upper = table.colors[point.cls] == table.color(0, 1)
        return (interleave_branch(point.branch), 1 if upper else 0)
    letters = point.word.letters
    if not letters:
        return (Branch(2, (), tail), 1 - tail[0])
    return (Branch(2, _interleave(letters)[:-2], tail), tail[0])
