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

from .patterns import CombGenerator, GeneratorExhaustedError
from .words import (
    Branch,
    PrefixRelation,
    Word,
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
    the position of their colour in ascending colour order.
    """

    m: int
    values: tuple[tuple[int, ...], ...]
    _colors: tuple[int, ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    # The class index of each letter pair, built once.
    _index: tuple[tuple[int, ...], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if self.m < 1:
            raise SpaceError("alphabet size must be positive")
        vals = tuple(tuple(row) for row in self.values)
        if len(vals) != self.m or any(len(row) != self.m for row in vals):
            raise SpaceError(f"values must form an {self.m}x{self.m} table")
        for row in vals:
            for c in row:
                if not isinstance(c, int) or c < 0:
                    raise SpaceError(f"colour {c!r} must be a nonnegative integer")
        colors = tuple(sorted({c for row in vals for c in row}))
        index = vals  # colours 0..n-1 are their own class indices
        if colors != tuple(range(len(colors))):
            index = tuple(tuple(colors.index(c) for c in row) for row in vals)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_colors", colors)
        object.__setattr__(self, "_index", index)

    @classmethod
    def dense(
        cls, m: int, n: int, values: Sequence[Sequence[int]]
    ) -> "PartitionTable":
        """Table whose colours are required to be exactly 0..n-1."""
        table = cls(m, tuple(tuple(row) for row in values))
        if table.colors != tuple(range(n)):
            raise SpaceError(
                f"table is not surjective onto 0..{n - 1}: colours {table.colors}"
            )
        return table

    @property
    def colors(self) -> tuple[int, ...]:
        return self._colors

    @property
    def n(self) -> int:
        return len(self._colors)

    def color(self, i: int, j: int) -> int:
        return self.values[i][j]

    def class_index(self, i: int, j: int) -> int:
        return self._index[i][j]


@dataclass(frozen=True, slots=True)
class DisjointFamily:
    """Pairwise disjoint nonempty sets of letters from {0, ..., m-1}."""

    m: int
    classes: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise SpaceError("alphabet size must be positive")
        classes = tuple(frozenset(c) for c in self.classes)
        seen: set[int] = set()
        for c in classes:
            if not c:
                raise SpaceError("family classes must be nonempty")
            for a in c:
                if not 0 <= a < self.m:
                    raise SpaceError(f"letter {a} outside alphabet of size {self.m}")
                if a in seen:
                    raise SpaceError(f"letter {a} appears in two classes")
                seen.add(a)
        object.__setattr__(self, "classes", classes)

    @property
    def n(self) -> int:
        return len(self.classes)

    def class_of_letter(self, a: int) -> Optional[int]:
        for idx, c in enumerate(self.classes):
            if a in c:
                return idx
        return None


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


def _check_class(cls: int, n: int) -> None:
    if not 0 <= cls < n:
        raise SpaceError(f"class index {cls} out of range 0..{n - 1}")


def _check_partition_point(point: SymbolicPoint, n: int) -> None:
    if isinstance(point, InfinityPoint):
        raise SpaceError("partition spaces have no infinity point")
    if isinstance(point, LimitPoint):
        _check_class(point.cls, n)


def partition_value(
    point: SymbolicPoint, test: TestPoint, table: PartitionTable
) -> int:
    """Value of a partition-space point at a test point.

    Node points are prefix indicators.  A limit point agrees with its branch
    on node tests; on a class test over another branch it reads whether the
    incidence of that branch with its own lies in the named piece, and over
    its own branch it is the indicator of its own class.
    """
    _check_partition_point(point, table.n)
    other = point.word if isinstance(point, NodePoint) else point.branch
    if isinstance(test, NodeTest):
        return 1 if is_prefix(test.word, other) else 0
    _check_class(test.cls, table.n)
    if other == test.branch:
        return 1 if point.cls == test.cls else 0
    return 1 if table.class_index(*incidence(test.branch, other)) == test.cls else 0


def scattered_value(
    point: SymbolicPoint, test: TestPoint, family: DisjointFamily
) -> int:
    """Value of a scattered-space point at a test point.

    Node points are single-node indicators whose class tests fire exactly
    when the tested branch extends the node by a letter of the tested set.
    A limit point is the indicator of its own (branch, class) test, and the
    infinity point vanishes everywhere.
    """
    if isinstance(point, InfinityPoint):
        return 0
    if isinstance(point, NodePoint):
        if isinstance(test, NodeTest):
            return 1 if test.word == point.word else 0
        _check_class(test.cls, family.n)
        if not is_prefix(point.word, test.branch):
            return 0
        i = test.branch.letter(len(point.word))
        return 1 if i in family.classes[test.cls] else 0
    _check_class(point.cls, family.n)
    if isinstance(test, NodeTest):
        return 0
    _check_class(test.cls, family.n)
    return 1 if (point.branch == test.branch and point.cls == test.cls) else 0


@dataclass(frozen=True, slots=True)
class PartitionSpace:
    """First-countable compactum attached to a partition table."""

    table: PartitionTable

    def value(self, point: SymbolicPoint, test: TestPoint) -> int:
        return partition_value(point, test, self.table)

    def comb_limit(self, gen: CombGenerator) -> SymbolicPoint:
        """Limit of the tooth indicators: the limit point of the comb's
        branch in the class of the comb's first moves."""
        return LimitPoint(gen.branch, self.table.class_index(gen.i, gen.j))

    @property
    def m(self) -> int:
        return self.table.m

    @property
    def n(self) -> int:
        return self.table.n

    @property
    def separation_arity(self) -> int:
        return self.table.n + 1

    def check_point(self, point: SymbolicPoint) -> None:
        """Raise SpaceError unless the point belongs to the space."""
        _check_partition_point(point, self.n)

    def is_node_point_at(self, word: Word, point: SymbolicPoint) -> bool:
        """The finite certificate of isolation: value 1 at the node and 0 at
        all of its children identifies the node point among all points."""
        if self.value(point, NodeTest(word)) != 1:
            return False
        return all(
            self.value(point, NodeTest(word.child(a))) == 0 for a in range(word.m)
        )


@dataclass(frozen=True, slots=True)
class ScatteredSpace:
    """Scattered compactum of height three attached to a disjoint family."""

    family: DisjointFamily

    def value(self, point: SymbolicPoint, test: TestPoint) -> int:
        return scattered_value(point, test, self.family)

    def comb_limit(self, gen: CombGenerator) -> SymbolicPoint:
        """Tooth indicators converge to the limit point of the branch when
        the comb stays on it with a letter of some family member, and fall
        all the way to the infinity point otherwise."""
        if gen.i == gen.j:
            cls = self.family.class_of_letter(gen.i)
            if cls is not None:
                return LimitPoint(gen.branch, cls)
        return INFINITY

    @property
    def m(self) -> int:
        return self.family.m

    @property
    def n(self) -> int:
        return self.family.n

    @property
    def separation_arity(self) -> int:
        return self.family.n + 2

    def check_point(self, point: SymbolicPoint) -> None:
        """Raise SpaceError unless the point belongs to the space."""
        if isinstance(point, LimitPoint):
            _check_class(point.cls, self.n)

    def is_node_point_at(self, word: Word, point: SymbolicPoint) -> bool:
        """Node points are single-node indicators, so the test at the node
        alone certifies isolation; the infinity point reads 0 there."""
        return self.value(point, NodeTest(word)) == 1


# Both spaces answer the same rules -- m, n, separation_arity, value,
# comb_limit, check_point and is_node_point_at -- so callers never ask which
# kind of space they hold.
Space = Union[PartitionSpace, ScatteredSpace]


# -- convergence certificates -------------------------------------------------


@dataclass(frozen=True)
class StabilizationReport:
    """Where a comb's tooth values settle onto the limit value at one test.

    k0 is the least index from which every tooth up to the horizon agrees
    with the limit; it is None (and violating_k is set) when even the last
    examined tooth disagrees.
    """

    test: TestPoint
    limit_value: int
    k0: Optional[int]
    horizon: int
    violating_k: Optional[int] = None

    @property
    def stable(self) -> bool:
        return self.k0 is not None


def _default_horizon(gen: CombGenerator, tests: Sequence[TestPoint]) -> int:
    """Horizon reported when none is given.  No scan runs up to it; it
    exceeds the count of teeth no deeper than any test's decision depth."""
    x = gen.branch
    depth_bound = 2 * (len(x.stem) + len(x.period)) + 2
    for t in tests:
        if isinstance(t, NodeTest):
            depth_bound = max(depth_bound, len(t.word) + 2)
        else:
            depth_bound = max(depth_bound, branch_meet_horizon(x, t.branch) + 2)
    return depth_bound


def _tooth_depths(gen: CombGenerator, count: int, deepest: int) -> list[int]:
    """Depths up to deepest among the first count teeth: the generator's own
    depths, then the later places where its branch reads i.  At most
    deepest + 1 depths qualify, which bounds the count for any horizon."""
    x = gen.branch
    later = (d for d in range(gen.depths[-1] + 1, deepest + 1) if x.letter(d) == gen.i)
    teeth = itertools.islice(itertools.chain(gen.depths, later), min(count, deepest + 1))
    return [d for d in teeth if d <= deepest]


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
    Teeth deeper than D take the limit's value at the test.  Teeth at depths
    d < D - 1 have at most d + 1 < D letters, and they share one value:

    * node test at w: the tooth is shorter than w, so w is not its prefix
      (partition) and not equal to it (scattered); the value is 0;
    * class test over y: x and y agree below D, so y reads i at d.  With
      i == j the tooth is a proper prefix of y whose next letter is i: the
      incidence is (i, i) (partition), and the value is whether i lies in
      the tested set (scattered).  With i != j the tooth leaves y at d by j:
      the incidence is (i, j) (partition), and the tooth is no prefix of y,
      so the value is 0 (scattered).

    So the deepest of those teeth, with the teeth at D - 1 and D, decides
    k0, the index after the last tooth that disagrees with the limit.  Each
    test reads at most these three teeth, found by bisection in one list of
    depths; a tooth is built at most once per certificate.  The cost is
    linear in the decision depths, and k0 is exact whatever the horizon.
    With horizon omitted a sufficient one is derived from the branch and
    the tests, so a valid generator never reports instability; an explicit
    horizon is honoured as given and may be too short to see stabilisation.
    """
    if horizon is None:
        horizon = _default_horizon(gen, tests)
    if horizon < 1:
        raise SpaceError("horizon must be at least 1")
    x, i = gen.branch, gen.i
    # Past the stem a letter absent from the period never recurs.
    later = x.stem[gen.depths[-1] + 1 :].count(i)
    if i not in x.period and gen.size() + later <= horizon:
        raise GeneratorExhaustedError(f"letter {i} recurs only finitely often on {x!r}")
    limit = space.comb_limit(gen)
    decided = []
    for test in tests:
        lim_val = space.value(limit, test)
        if isinstance(test, NodeTest):
            decision = len(test.word)
        else:
            _check_class(test.cls, space.n)  # even if no tooth is evaluated
            decision = -1 if test.branch == x else len(meet(x, test.branch))
        decided.append((test, lim_val, decision))
    depths = _tooth_depths(gen, horizon + 1, max((d for *_, d in decided), default=-1))
    teeth: dict[int, NodePoint] = {}
    reports = []
    for test, lim_val, decision in decided:
        k0 = 0
        below = bisect.bisect_left(depths, decision - 1)
        for k in range(max(below - 1, 0), bisect.bisect_right(depths, decision)):
            d = depths[k]
            if d not in teeth:
                teeth[d] = NodePoint(gen.tooth(d))
            if space.value(teeth[d], test) != lim_val:
                k0 = k + 1
        if k0 > horizon:
            reports.append(StabilizationReport(test, lim_val, None, horizon, horizon))
        else:
            reports.append(StabilizationReport(test, lim_val, k0, horizon))
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
    """Membership of a symbolic point in a described open set."""
    if isinstance(desc, WholeSpace):
        return True
    if isinstance(desc, Cone):
        if isinstance(point, InfinityPoint):
            return False
        other = point.word if isinstance(point, NodePoint) else point.branch
        return is_prefix(desc.word, other)
    member = space.is_node_point_at(desc.word, point)
    if isinstance(desc, Singleton):
        return member
    return not member


def family_intersection_empty(descs: Sequence[OpenSetDescriptor]) -> bool:
    """Syntactic certificate that the described sets have empty intersection."""
    for a, b in itertools.combinations(descs, 2):
        pair = {type(a), type(b)}
        if pair == {Singleton, CoSingleton}:
            s = a.word if isinstance(a, Singleton) else b.word
            c = a.word if isinstance(a, CoSingleton) else b.word
            if s == c:
                return True
        if isinstance(a, Cone) and isinstance(b, Cone):
            if prefix_cmp(a.word, b.word) is PrefixRelation.INCOMPARABLE:
                return True
    return False


def _point_branches(points: Sequence[SymbolicPoint]) -> list[Optional[Branch]]:
    return [p.branch if isinstance(p, LimitPoint) else None for p in points]


def separate_points(
    points: Sequence[SymbolicPoint], space: Space
) -> tuple[OpenSetDescriptor, ...]:
    """One open set per point, together covering no common point.

    Expects exactly one point more than the space's degree: n+1 points for a
    partition space on n classes, n+2 (the top point allowed) for a
    scattered family of n sets.  If some point is a node point, its isolating
    singleton and the complement for everyone else already separate.
    Otherwise two of the limit points live on distinct branches; cones over
    incomparable nodes below those branches separate them, and the rest of
    the points get the whole space.
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
    node_idx = next(
        (idx for idx, p in enumerate(pts) if isinstance(p, NodePoint)), None
    )
    if node_idx is not None:
        t = pts[node_idx].word
        descs = [
            Singleton(t) if idx == node_idx else CoSingleton(t)
            for idx in range(len(pts))
        ]
    else:
        branches = _point_branches(pts)
        split = None
        for i, j in itertools.combinations(range(len(pts)), 2):
            bi, bj = branches[i], branches[j]
            if bi is not None and bj is not None and bi != bj:
                split = (i, j)
                break
        if split is None:
            # More points than classes forces two distinct branches.
            raise SpaceError("internal invariant failed: no branch pair to split")
        i, j = split
        r = meet(branches[i], branches[j])
        d = len(r)
        s = r.child(branches[i].letter(d))
        t = r.child(branches[j].letter(d))
        descs = [WholeSpace() for _ in pts]
        descs[i] = Cone(s)
        descs[j] = Cone(t)

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
    _check_partition_point(point, 2)
    if isinstance(point, LimitPoint):
        upper = table.class_index(0, 1)
        return (interleave_branch(point.branch), 1 if point.cls == upper else 0)
    letters = point.word.letters
    if not letters:
        return (Branch(2, (), tail), 1 - tail[0])
    return (Branch(2, _interleave(letters)[:-2], tail), tail[0])
