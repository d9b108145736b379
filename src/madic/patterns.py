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
from typing import Iterable, Optional, Union

from .words import (
    AlphabetError,
    Branch,
    PrefixRelation,
    Word,
    incidence,
    meet,
    prefix_cmp,
    well_order_key,
)


class GeneratorError(ValueError):
    """A comb generator's data is inconsistent with its branch."""


class GeneratorExhaustedError(GeneratorError):
    """The branch cannot supply as many teeth as requested."""


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
    for f in astuple(kind):
        if not 0 <= f < m:
            raise AlphabetError(f"letter {f} outside alphabet of size {m}")
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
    domain = list(base)
    ext: dict[Word, Word] = dict(base)
    for s, t in itertools.combinations_with_replacement(domain, 2):
        r = meet(s, t)
        img = meet(base[s], base[t])
        if r in ext and ext[r] != img:
            return FirstMoveCheck(False, 1, (s, t))
        ext[r] = img  # type: ignore[assignment]
    # In a tree every meet of meets is a meet of two nodes, so the keys of
    # ext are the domain's meet closure and, once forcing found no conflict,
    # its values are the targets' meet closure.  Only injectivity is left:
    # with it, condition 1 holds on the whole closure.  Of the three meets
    # of any three nodes, two are equal and the third is no shorter.  ext
    # keeps the equal pair equal (forcing) and the odd one distinct
    # (injectivity), so it keeps which of meet(a, x) and meet(a, y) is
    # shorter.  The meet of two closure nodes meet(a, b) and meet(c, d) is
    # the shortest meet(a, x) with x in {b, c, d}, so it maps to the meet
    # of the two images.
    if len(set(ext.values())) != len(ext):
        return FirstMoveCheck(False, 1, None)
    closure = sorted(ext, key=well_order_key)

    # Witnesses on the caller's own nodes are the most readable, so pairs of
    # the original domain are examined before closure-internal pairs.
    dom_set = set(domain)
    pair_seq = list(itertools.combinations(sorted(domain, key=well_order_key), 2))
    rest = itertools.combinations(closure, 2)
    pair_seq += [(s, t) for s, t in rest if not (s in dom_set and t in dom_set)]
    # Condition 3: incidence pairs are preserved wherever defined.
    for s, t in pair_seq:
        for a, b in ((s, t), (t, s)):
            rel = prefix_cmp(a, b)
            if rel is PrefixRelation.A_LEQ_B:
                continue
            rel_img = prefix_cmp(ext[a], ext[b])
            if rel_img is PrefixRelation.A_LEQ_B or rel_img is PrefixRelation.EQUAL:
                return FirstMoveCheck(False, 3, (a, b))
            if incidence(a, b) != incidence(ext[a], ext[b]):
                return FirstMoveCheck(False, 3, (a, b))
    # Condition 2: the well order is preserved.
    for s, t in pair_seq:
        if (well_order_key(s) < well_order_key(t)) != (
            well_order_key(ext[s]) < well_order_key(ext[t])
        ):
            return FirstMoveCheck(False, 2, (s, t))
    return FirstMoveCheck(True, extension=ext)


@dataclass(frozen=True)
class PatternMatch:
    nodes: tuple[Word, ...]
    map: FirstMoveMap


def _pairwise_compatible(pattern: tuple[Word, ...], cand: tuple[Word, ...]) -> bool:
    # Cheap necessary screen before the closure check: teeth must agree on
    # prefix relations and incidences pair by pair.
    for (p, q), (a, b) in zip(
        itertools.combinations(pattern, 2), itertools.combinations(cand, 2)
    ):
        rp = prefix_cmp(p, q)
        if rp != prefix_cmp(a, b):
            return False
        if rp is PrefixRelation.INCOMPARABLE and incidence(p, q) != incidence(a, b):
            return False
    return True


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
    if len(pool) < len(pattern):
        return None
    for cand in itertools.combinations(pool, len(pattern)):
        if not _pairwise_compatible(pattern, cand):
            continue
        fmm = FirstMoveMap(tuple(zip(pattern, cand)))
        if check_first_move_map(fmm).valid:
            return PatternMatch(cand, fmm)
    return None


@dataclass(frozen=True, slots=True)
class CombGenerator:
    """Teeth of an (i, j)-comb along a branch.

    depths lists positions where the branch reads letter i; the q-th tooth
    follows the branch to that depth and then moves j (for i == j the tooth
    is the plain prefix, whose first move off itself along the branch is i).
    """

    branch: Branch
    i: int
    j: int
    depths: tuple[int, ...]

    def __post_init__(self) -> None:
        m = self.branch.m
        for f in (self.i, self.j):
            if not 0 <= f < m:
                raise AlphabetError(f"letter {f} outside alphabet of size {m}")
        if not self.depths:
            raise GeneratorError("generator needs at least one depth")
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
        return cls(branch, i, j, _letter_positions(branch, i, count))

    def size(self) -> int:
        return len(self.depths)

    def tooth(self, d: int) -> Word:
        """The tooth that follows the branch to depth d and then moves j."""
        node = self.branch.prefix(d)
        return node if self.i == self.j else node.child(self.j)


def _letter_positions(branch: Branch, letter: int, count: int) -> tuple[int, ...]:
    if count < 1:
        raise GeneratorError("tooth count must be positive")
    if not 0 <= letter < branch.m:
        raise AlphabetError(f"letter {letter} outside alphabet of size {branch.m}")
    if letter not in branch.period:
        # Only finitely many occurrences are possible: all inside the stem.
        found = tuple(d for d, a in enumerate(branch.stem) if a == letter)
        if len(found) < count:
            raise GeneratorExhaustedError(
                f"letter {letter} occurs only {len(found)} times on {branch!r}"
            )
        return found[:count]
    out = []
    d = 0
    while len(out) < count:
        if branch.letter(d) == letter:
            out.append(d)
        d += 1
    return tuple(out)


def comb_nodes(gen: CombGenerator) -> tuple[Word, ...]:
    """The teeth themselves, ordered with their meets along the branch."""
    return tuple(gen.tooth(d) for d in gen.depths)
