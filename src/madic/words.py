"""Exact algebra of the m-adic tree.

Elements are finite words over the alphabet {0, ..., m-1} (tree nodes) and
eventually periodic infinite words (tree branches).  The module provides the
prefix order, meets (longest common prefixes), incidence pairs (the first
moves two elements take after splitting), the length-then-lexicographic well
order, and meet closures of finite node sets.

All values are immutable and hashable; all operations are pure.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Union


class AlphabetError(ValueError):
    """A letter is outside its alphabet, or operands mix alphabets."""


class IncidenceUndefinedError(ValueError):
    """The incidence of an element with itself is undefined."""


class OrientationError(ValueError):
    """incidence(a, b) with a strictly below b: the extending element must
    come first.  Callers holding a comparable pair must flip the arguments
    rather than rely on a silent swap."""


def _check_letters(letters: tuple[int, ...], m: int) -> None:
    for a in letters:
        if not 0 <= a < m:
            raise AlphabetError(f"letter {a} outside alphabet of size {m}")


@dataclass(frozen=True, slots=True)
class Word:
    """A node of the m-adic tree: a finite word over {0, ..., m-1}."""

    m: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.m < 1:
            raise AlphabetError(f"alphabet size must be positive, got {self.m}")
        if not isinstance(self.letters, tuple):
            object.__setattr__(self, "letters", tuple(self.letters))
        _check_letters(self.letters, self.m)

    def __len__(self) -> int:
        return len(self.letters)

    def letter(self, i: int) -> int:
        return self.letters[i]

    def head(self, n: int) -> tuple[int, ...]:
        return self.letters[:n]

    def prefix(self, n: int) -> "Word":
        return Word(self.m, self.letters[:n])

    def child(self, letter: int) -> "Word":
        return Word(self.m, self.letters + (letter,))

    def __repr__(self) -> str:
        body = "".join(str(a) for a in self.letters) if self.letters else "()"
        return f"Word[{self.m}]({body})"


def _primitive_period(period: tuple[int, ...]) -> tuple[int, ...]:
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[:d] * (n // d):
            return period[:d]


@dataclass(frozen=True, slots=True)
class Branch:
    """An eventually periodic branch of the m-adic tree: stem + period,
    normalised so the period is primitive and the stem is shortest.

    Equality and hashing act on the normal form, so two descriptions of the
    same infinite word compare equal regardless of how far the period was
    unrolled into the stem.
    """

    m: int
    stem: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 1:
            raise AlphabetError(f"alphabet size must be positive, got {self.m}")
        stem = tuple(self.stem)
        period = tuple(self.period)
        if not period:
            raise AlphabetError("branch period must be nonempty")
        _check_letters(stem, self.m)
        _check_letters(period, self.m)
        period = _primitive_period(period)
        # Roll trailing stem letters into the period: s.(p)^w with s ending
        # in p's last letter equals s minus that letter, then p rotated right
        # by one.  Count the letters that roll in one backward pass, then cut
        # the stem and rotate the period once.
        n, p = len(stem), len(period)
        r = 0
        while r < n and stem[n - 1 - r] == period[p - 1 - r % p]:
            r += 1
        stem = stem[: n - r]
        period = period[p - r % p :] + period[: p - r % p]
        object.__setattr__(self, "stem", stem)
        object.__setattr__(self, "period", period)

    def letter(self, i: int) -> int:
        if i < len(self.stem):
            return self.stem[i]
        return self.period[(i - len(self.stem)) % len(self.period)]

    def head(self, n: int) -> tuple[int, ...]:
        if n <= len(self.stem):
            return self.stem[:n]
        reps = itertools.islice(itertools.cycle(self.period), n - len(self.stem))
        return self.stem + tuple(reps)

    def prefix(self, n: int) -> Word:
        return Word(self.m, self.head(n))

    def __repr__(self) -> str:
        s = "".join(str(a) for a in self.stem)
        p = "".join(str(a) for a in self.period)
        return f"Branch[{self.m}]({s}({p})*)"


Element = Union[Word, Branch]


class PrefixRelation(enum.Enum):
    EQUAL = "equal"
    A_LEQ_B = "a_leq_b"
    B_LEQ_A = "b_leq_a"
    INCOMPARABLE = "incomparable"


def _same_alphabet(a: Element, b: Element) -> int:
    if a.m != b.m:
        raise AlphabetError(f"alphabet mismatch: {a.m} vs {b.m}")
    return a.m


def concat(s: Word, t: Element) -> Element:
    """s followed by t.  The right operand may be a word or a branch."""
    m = _same_alphabet(s, t)
    if isinstance(t, Word):
        return Word(m, s.letters + t.letters)
    return Branch(m, s.letters + t.stem, t.period)


def branch_meet_horizon(a: Branch, b: Branch) -> int:
    """Stems plus the lcm of the periods, a depth past the meet of distinct
    branches.  Default convergence horizons use it; meets scan less."""
    return len(a.stem) + len(b.stem) + math.lcm(len(a.period), len(b.period))


def _common(a: Element, b: Element) -> int | None:
    """Length of the longest common prefix of a and b, or None when they are
    the same branch."""
    _same_alphabet(a, b)
    if isinstance(a, Word) and isinstance(b, Word):
        n = min(len(a.letters), len(b.letters))
    elif isinstance(a, Word):
        n = len(a.letters)
    elif isinstance(b, Word):
        n = len(b.letters)
    else:
        # By Fine and Wilf (1965), branches of periods p and q that agree on
        # max(stems) + p + q - gcd(p, q) letters agree forever.  So distinct
        # branches differ within that bound; scan only to the first difference.
        p, q = len(a.period), len(b.period)
        n = max(len(a.stem), len(b.stem)) + p + q - math.gcd(p, q)
        k = 0
        while k < n and a.letter(k) == b.letter(k):
            k += 1
        return None if k == n else k
    return _first_difference(a.head(n), b.head(n))


def _first_difference(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Where finite letter tuples a and b first differ, or the length of
    the shorter one when it is a prefix of the other."""
    for k, i in enumerate(a):
        if k == len(b) or i != b[k]:
            return k
    return len(a)


def _first_moves(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, int]:
    """incidence(a, b) on letter tuples that b does not extend: (a[k], b[k])
    at the first difference k, or (a[k], a[k]) when b is a prefix of a."""
    k = _first_difference(a, b)
    return (a[k], a[k]) if k == len(b) else (a[k], b[k])


def _ends(a: Element, k: int) -> bool:
    """Whether a common prefix of length k uses up all of a; a branch, being
    infinite, never is."""
    return isinstance(a, Word) and len(a.letters) == k


def prefix_cmp(a: Element, b: Element) -> PrefixRelation:
    """Compare a and b in the prefix (initial segment) order."""
    k = _common(a, b)
    if k is None or (_ends(a, k) and _ends(b, k)):
        return PrefixRelation.EQUAL
    if _ends(a, k):
        return PrefixRelation.A_LEQ_B
    if _ends(b, k):
        return PrefixRelation.B_LEQ_A
    return PrefixRelation.INCOMPARABLE


def is_prefix(t: Word, a: Element) -> bool:
    k = _common(t, a)
    return k is None or _ends(t, k)


def meet(a: Element, b: Element) -> Element:
    """Longest common prefix.  A word except when both operands are the same
    branch, in which case the branch itself is returned."""
    k = _common(a, b)
    return a if k is None else a.prefix(k)


def incidence(a: Element, b: Element) -> tuple[int, int]:
    """First moves of a and b after their meet.

    If the meet is strictly below both, the result is the pair of next
    letters (i, j) taken by a and b.  If b is strictly below a, the result is
    (i, i) where i is a's next letter after b.  Calling with a strictly below
    b is an orientation error, and incidence(a, a) is undefined.
    """
    k = _common(a, b)
    if k is not None and not _ends(a, k):
        i = a.letter(k)
        return (i, i) if _ends(b, k) else (i, b.letter(k))
    if k is None or _ends(b, k):
        raise IncidenceUndefinedError("incidence of an element with itself")
    raise OrientationError(
        "incidence(a, b) with a strictly below b: pass the extending element first"
    )


def well_order_key(w: Word) -> tuple[int, tuple[int, ...]]:
    """Sort key for the well order: by length, then as base-m numerals."""
    return (len(w.letters), w.letters)


def well_order_cmp(s: Word, t: Word) -> int:
    """-1, 0 or 1 as s precedes, equals or follows t in the well order."""
    _same_alphabet(s, t)
    ks, kt = well_order_key(s), well_order_key(t)
    if ks < kt:
        return -1
    if ks > kt:
        return 1
    return 0


def meet_closure(words: Iterable[Word]) -> frozenset[Word]:
    """Least meet-closed superset of the given nodes.

    Sorted by their letters, words a < b < c have lcp(a, c) =
    min(lcp(a, b), lcp(b, c)) (Manber and Myers, Suffix arrays, 1993), so
    the meets of lexicographic neighbours are every pairwise meet.  The
    chain links every word, so two alphabets raise AlphabetError.
    """
    ws = sorted(set(words), key=lambda w: w.letters)
    return frozenset(ws).union(map(meet, ws, ws[1:]))
