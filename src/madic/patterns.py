"""Comb patterns and first-move equivalence.

A finite node set is matched against prototype shapes (combs, double combs,
split double combs) by first-move equivalence: a bijection that extends over
meet closures while preserving meets, the length-then-lex well order, and
incidence pairs.  The module also houses comb generators, which produce the
node sequences converging inside the compacta built elsewhere.
"""

from __future__ import annotations

import itertools
from dataclasses import astuple, dataclass
from typing import Iterable, Iterator, Optional, Union

from .words import (
    Branch,
    Word,
    _check_letters,
    _same_alphabet,
    incidence,
    is_prefix,
    meet,
    well_order_key,
)


class GeneratorError(ValueError):
    """A comb generator's data is inconsistent with its branch."""


class GeneratorExhaustedError(GeneratorError):
    """The comb's letter i does not recur on its branch, so its teeth run out."""


@dataclass(frozen=True, slots=True)
class Comb:
    """Teeth leave a single branch with first moves (i, j)."""

    i: int
    j: int


@dataclass(frozen=True, slots=True)
class DoubleComb:
    """Two interleaved combs on one branch, moves (i, j) and (k, l)."""

    i: int
    j: int
    k: int
    l: int


@dataclass(frozen=True, slots=True)
class SplitDoubleComb:
    """Two combs on branches that split at the root with moves u, v."""

    u: int
    v: int
    i: int
    j: int
    k: int
    l: int

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError("split double comb requires distinct root moves")


PatternKind = Union[Comb, DoubleComb, SplitDoubleComb]


def canonical_pattern(kind: PatternKind, size: int, m: int) -> tuple[Word, ...]:
    """Prototype node set for the given shape, sorted by the well order.

    size counts teeth per comb, so double shapes return 2*size nodes.
    """
    if size < 1:
        raise ValueError("pattern size must be positive")
    _check_letters(astuple(kind), m)
    out: list[Word] = []
    if isinstance(kind, Comb):
        for q in range(size):
            out.append(Word(m, (kind.i,) * (2 * q) + (kind.j,)))
    elif isinstance(kind, DoubleComb):
        block = (kind.i, kind.i, kind.k, kind.k)
        for q in range(size):
            out.append(Word(m, block * q + (kind.j,)))
            out.append(Word(m, block * q + (kind.i, kind.i, kind.l)))
    else:
        for q in range(size):
            out.append(Word(m, (kind.u,) + (kind.i,) * (2 * q) + (kind.j,)))
            out.append(Word(m, (kind.v,) + (kind.k,) * (2 * q) + (kind.l,)))
    out.sort(key=well_order_key)
    return tuple(out)


@dataclass(frozen=True, slots=True)
class FirstMoveMap:
    """A finite bijection between node sets, given as ordered pairs."""

    pairs: tuple[tuple[Word, Word], ...]

    def __post_init__(self) -> None:
        sources = [s for s, _ in self.pairs]
        targets = [t for _, t in self.pairs]
        if len(set(sources)) != len(sources) or len(set(targets)) != len(targets):
            raise ValueError("first-move map pairs must form a bijection")
        for w in sources + targets:
            _same_alphabet(w, sources[0])

    @property
    def mapping(self) -> dict[Word, Word]:
        return dict(self.pairs)


@dataclass(frozen=True)
class FirstMoveCheck:
    """Outcome of checking a map for first-move equivalence.

    When invalid, condition names the first broken requirement (1 meets,
    2 well order, 3 incidences; checked in the order 1, 3, 2) and witness
    gives an offending source pair.  When valid, extension is the forced
    bijection between the meet closures.
    """

    valid: bool
    condition: Optional[int] = None
    witness: Optional[tuple[Word, Word]] = None
    extension: Optional[dict[Word, Word]] = None


def check_first_move_map(fmm: FirstMoveMap) -> FirstMoveCheck:
    """Decide whether the map extends to a first-move equivalence.

    The extension over the meet closure is forced by meet preservation; any
    conflict while forcing it, or a failure of the extension to stay
    bijective, is reported as condition 1.
    """
    base = fmm.mapping
    ext: dict[Word, Word] = dict(base)
    # meet(s, s) = s already maps to base[s], so only distinct pairs force.
    for s, t in itertools.combinations(base, 2):
        img = meet(base[s], base[t])
        if ext.setdefault(meet(s, t), img) != img:  # type: ignore[arg-type]
            return FirstMoveCheck(False, 1, (s, t))
    # In a tree every meet of meets is a meet of two nodes, so the keys of
    # ext are the domain's meet closure and, once forcing found no conflict,
    # its values are the targets' meet closure.  Only injectivity is left:
    # with it, condition 1 holds on the whole closure.  Of the three meets
    # of any three nodes, two are equal and the third is no shorter.  ext
    # keeps the equal pair equal (forcing) and the odd one distinct
    # (injectivity), so it keeps which of meet(a, x) and meet(a, y) is
    # shorter.  The meet of two closure nodes meet(a, b) and meet(c, d) is
    # the shortest meet(a, x) with x in {b, c, d}, so it maps to the meet
    # of the two images.  So when a is not a prefix of b, neither is ext[a]
    # of ext[b], which would make meet(ext[a], ext[b]) = ext[meet(a, b)]
    # equal ext[a] and, by injectivity, meet(a, b) equal a.
    if len(set(ext.values())) != len(ext):
        return FirstMoveCheck(False, 1, None)
    # Condition 3: incidence pairs are preserved.  Each pair s < t of the
    # domain is checked once, longer node first: a node has no incidence
    # with its extension, and incomparable nodes swap theirs.  Pairs with
    # a closure node follow, as ext keeps meets and prefixes.  Take closure
    # nodes c <= a and d <= b, with a and b in the domain.  If c and d are
    # incomparable, they split where a and b do, by the same letters.  If
    # d is a proper prefix of c, d is a domain node or splits two, so some
    # domain node z (d, or one of the two) has meet(a, z) = d, and c leaves
    # d by the first letter of incidence(a, z).  So do the images.
    domain = sorted(base, key=well_order_key)
    for s, t in itertools.combinations(domain, 2):
        a, b = (t, s) if is_prefix(s, t) else (s, t)
        if incidence(a, b) != incidence(ext[a], ext[b]):
            return FirstMoveCheck(False, 3, (a, b))
    # Condition 2: the well order is preserved, on the domain first, whose
    # witnesses are the most readable, then on the whole closure.
    for nodes in (domain, sorted(ext, key=well_order_key)):
        for s, t in itertools.combinations(nodes, 2):
            if well_order_key(ext[t]) < well_order_key(ext[s]):
                return FirstMoveCheck(False, 2, (s, t))
    return FirstMoveCheck(True, extension=ext)


@dataclass(frozen=True)
class PatternMatch:
    nodes: tuple[Word, ...]
    map: FirstMoveMap


def find_pattern(
    nodes: Iterable[Word], kind: PatternKind, size: int, m: int
) -> Optional[PatternMatch]:
    """First subset of nodes first-move-equivalent to the prototype.

    Candidate tooth tuples are tried in lexicographic order along the well
    order, so the result is deterministic.  Returns None when no subset
    matches.
    """
    pattern = canonical_pattern(kind, size, m)
    pool = sorted(set(nodes), key=well_order_key)
    for w in pool:
        _same_alphabet(w, pattern[0])
    return _extend(pattern, pool, 0, ())


def _extend(
    pattern: tuple[Word, ...], pool: list[Word], start: int, chosen: tuple[Word, ...]
) -> Optional[PatternMatch]:
    """The first match extending chosen by pool nodes from start on.  A
    first-move equivalence restricts to one on each part of its domain (the
    part's closure and forced map lie in the whole one's), so tuples grow in
    itertools.combinations order only while they match the prototype's
    first teeth.  The state comes as arguments: a nested function that
    calls itself is a reference cycle."""
    fmm = FirstMoveMap(tuple(zip(pattern, chosen)))
    if not check_first_move_map(fmm).valid:
        return None
    if len(chosen) == len(pattern):
        return PatternMatch(chosen, fmm)
    for k in range(start, len(pool) - len(pattern) + len(chosen) + 1):
        hit = _extend(pattern, pool, k + 1, chosen + (pool[k],))
        if hit is not None:
            return hit
    return None


@dataclass(frozen=True, slots=True)
class CombGenerator:
    """Teeth of an (i, j)-comb along a branch.

    depths lists positions where the branch reads letter i; the q-th tooth
    follows the branch to that depth and then moves j (for i == j the tooth
    is the plain prefix, whose first move off itself along the branch is i).
    Past the listed depths the teeth continue at every later depth where the
    branch reads i (see teeth).  They never run out: a generator whose i is
    not in the branch's period is refused.
    """

    branch: Branch
    i: int
    j: int
    depths: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_letters((self.i, self.j), self.branch.m)
        if self.i not in self.branch.period:
            raise GeneratorExhaustedError(
                f"letter {self.i} recurs only finitely often on {self.branch!r}"
            )
        if not self.depths:
            raise GeneratorError("generator needs at least one depth")
        if self.depths[0] < 0:
            raise GeneratorError("depths must be nonnegative")
        prev = -1
        for d in self.depths:
            if d <= prev:
                raise GeneratorError("depths must be strictly increasing")
            prev = d
            if self.branch.letter(d) != self.i:
                raise GeneratorError(
                    f"branch reads {self.branch.letter(d)} at depth {d}, need {self.i}"
                )

    @classmethod
    def over(cls, branch: Branch, i: int, j: int, count: int) -> "CombGenerator":
        """Generator using the first count depths where the branch reads i."""
        if count < 1:
            raise GeneratorError("tooth count must be positive")
        # zip with a range, unlike islice, takes counts past sys.maxsize.
        found = tuple(d for _, d in zip(range(count), _reads(branch, i, 0)))
        return cls(branch, i, j, found)

    def teeth(self) -> Iterator[int]:
        """Every tooth depth: the listed ones, then each later one reading i."""
        yield from self.depths
        yield from _reads(self.branch, self.i, self.depths[-1] + 1)

    def tooth(self, d: int) -> Word:
        """The tooth that follows the branch to depth d and then moves j."""
        node = self.branch.prefix(d)
        return node if self.i == self.j else node.child(self.j)


def _reads(branch: Branch, letter: int, start: int) -> Iterator[int]:
    # The depths from start on where the branch reads letter.  Past the stem
    # the period repeats, so a letter outside it runs out in the stem.  Only
    # CombGenerator.over meets that case, before the constructor refuses it.
    stem, period = branch.stem, branch.period
    yield from (d for d in range(start, len(stem)) if stem[d] == letter)
    if letter in period:
        s, p = len(stem), len(period)
        for d in itertools.count(max(start, s)):
            if period[(d - s) % p] == letter:
                yield d


def comb_nodes(gen: CombGenerator) -> tuple[Word, ...]:
    """The teeth themselves, ordered with their meets along the branch."""
    return tuple(gen.tooth(d) for d in gen.depths)
