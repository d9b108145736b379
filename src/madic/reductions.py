"""Reduction maps between pair colourings.

A reduction from an m0-letter colouring f to an m1-letter colouring g is a
block embedding: an injective assignment of length-k words e(0), ..., and a
shorter anchor word x, inducing eps(u, v) = incidence(e(u), e(v)) off the
diagonal and eps(u, u) = incidence(e(u), x).  f reduces to g when
f = g o eps; reductions compose, transport combs, and witness that every
surjective colouring restricts, for each smaller colour count, to one using
exactly that many of its colours.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .spaces import PartitionTable
from .words import Branch, Word, incidence


class ReductionError(ValueError):
    """Reduction data that violates the shape constraints."""


@dataclass(frozen=True)
class ReductionData:
    """Letter words e and anchor x of a block embedding."""

    e: tuple[Word, ...]
    x: Word

    def __post_init__(self) -> None:
        object.__setattr__(self, "e", tuple(self.e))
        if not self.e:
            raise ReductionError("need at least one letter word")
        k = len(self.e[0])
        if k < 1:
            raise ReductionError("letter words must be nonempty")
        m1 = self.e[0].m
        for w in self.e:
            if w.m != m1:
                raise ReductionError("letter words must share one alphabet")
            if len(w) != k:
                raise ReductionError("letter words must share one length")
        if len(set(self.e)) != len(self.e):
            raise ReductionError("letter words must be pairwise distinct")
        if self.x.m != m1:
            raise ReductionError("anchor must live in the letter alphabet")
        if len(self.x) >= k:
            raise ReductionError("anchor must be shorter than the letter words")

    @property
    def k(self) -> int:
        return len(self.e[0])

    @property
    def m0(self) -> int:
        return len(self.e)

    @property
    def m1(self) -> int:
        return self.e[0].m


def apply_reduction(r: ReductionData) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The incidence table eps of the embedding, as an m0 x m0 array of
    letter pairs.  Diagonal entries come from the anchor and may be
    off-diagonal pairs themselves."""
    out = []
    for u in range(r.m0):
        row = []
        for v in range(r.m0):
            if u == v:
                row.append(incidence(r.e[u], r.x))
            else:
                row.append(incidence(r.e[u], r.e[v]))
        out.append(tuple(row))
    return tuple(out)


def check_reduces(f: PartitionTable, g: PartitionTable, r: ReductionData) -> bool:
    """Whether f equals g composed with the embedding's incidence table."""
    if f.m != r.m0:
        raise ReductionError(f"f is over {f.m} letters but the embedding has {r.m0}")
    if g.m != r.m1:
        raise ReductionError(f"g is over {g.m} letters but the embedding uses {r.m1}")
    eps = apply_reduction(r)
    for u in range(f.m):
        for v in range(f.m):
            i, j = eps[u][v]
            if f.color(u, v) != g.color(i, j):
                return False
    return True


def search_reduction(
    f: PartitionTable, g: PartitionTable, max_k: int
) -> Optional[ReductionData]:
    """Exhaustive search for an embedding witnessing f = g o eps, trying
    block lengths 1..max_k.

    The search backtracks over letter words with every placed constraint
    checked immediately, so it is complete for the decision up to max_k; a
    None answer certifies only absence within that bound.
    """
    if max_k < 1:
        raise ReductionError("max_k must be at least 1")
    if not set(f.colors) <= set(g.colors):
        return None
    m0, m1 = f.m, g.m
    fc = [[f.color(u, v) for v in range(m0)] for u in range(m0)]
    for k in range(1, max_k + 1):
        words = [Word(m1, ls) for ls in itertools.product(range(m1), repeat=k)]
        anchors = [
            Word(m1, ls)
            for length in range(k)
            for ls in itertools.product(range(m1), repeat=length)
        ]
        # g's colour of each ordered word pair, shared by every anchor; the
        # cap (every pair at k = 4 over four letters) bounds memory.
        pair_colour: dict[tuple[int, int], int] = {}

        def colour(a: int, b: int) -> int:
            c = pair_colour.get((a, b))
            if c is None:
                c = g.color(*incidence(words[a], words[b]))
                if len(pair_colour) < 1 << 16:
                    pair_colour[a, b] = c
            return c

        for x in anchors:
            diag = [g.color(*incidence(w, x)) for w in words]
            chosen: list[int] = []

            def place(u: int) -> Optional[ReductionData]:
                if u == m0:
                    return ReductionData(tuple(words[i] for i in chosen), x)
                for w in range(len(words)):
                    if diag[w] != fc[u][u] or w in chosen:
                        continue
                    if all(
                        colour(wv, w) == fc[v][u] and colour(w, wv) == fc[u][v]
                        for v, wv in enumerate(chosen)
                    ):
                        chosen.append(w)
                        hit = place(u + 1)
                        if hit is not None:
                            return hit
                        chosen.pop()
                return None

            found = place(0)
            if found is not None:
                return found
    return None


# -- restriction to fewer colours ---------------------------------------------


@dataclass(frozen=True)
class RestrictionResult:
    """A colouring f on a subset of g's colours together with the embedding
    carrying f into g and the colour subset actually used."""

    table: PartitionTable
    reduction: ReductionData
    colors: tuple[int, ...]


def _off_diagonal_colors(g: PartitionTable) -> list[int]:
    return sorted(
        {g.color(i, j) for i in range(g.m) for j in range(g.m) if i != j}
    )


def restrict_colors(g: PartitionTable, n0: int) -> RestrictionResult:
    """Build f with exactly n0 of g's colours and a reduction f -> g.

    Mirrors the two-case construction: when at most n0 colours appear off
    the diagonal, one splitting pair per such colour plus diagonal letters
    for the rest; otherwise a chain of splitting pairs collecting colours
    greedily until the target count is reached.
    """
    if g.m < 2:
        raise ReductionError("need at least two letters to restrict colours")
    if not 1 <= n0 < g.n:
        raise ReductionError(f"colour target must be in 1..{g.n - 1}, got {n0}")
    off = _off_diagonal_colors(g)
    if len(off) <= n0:
        result = _restrict_few_off_diagonal(g, n0, off)
    else:
        result = _restrict_chain(g, n0)
    table, reduction = result
    colors = table.colors
    assert len(colors) == n0
    assert check_reduces(table, g, reduction)
    return RestrictionResult(table, reduction, colors)


def _restrict_few_off_diagonal(
    g: PartitionTable, n0: int, off: list[int]
) -> tuple[PartitionTable, ReductionData]:
    # Colours appearing off the diagonal, then enough diagonal-only colours
    # to reach n0.  One splitting pair (u_c, v_c) realises each colour of
    # the first kind; a diagonal letter w_c realises each of the second.
    m1 = g.m
    diag_only = [c for c in g.colors if c not in off]
    extra = diag_only[: n0 - len(off)]
    if len(extra) < n0 - len(off):
        raise ReductionError("internal invariant failed: not enough colours")
    splits: list[tuple[int, int]] = []
    for c in off:
        pair = min(
            (u, v)
            for u in range(m1)
            for v in range(m1)
            if u != v and g.color(u, v) == c
        )
        splits.append(pair)
    diags: list[int] = []
    for c in extra:
        diags.append(min(w for w in range(m1) if g.color(w, w) == c))
    xi = len(off)
    k = xi + 1
    x = Word(m1, tuple(v for _, v in splits))
    e: list[Word] = []
    for idx, (u, v) in enumerate(splits):
        letters = tuple(vv for _, vv in splits[:idx]) + (u,)
        letters += (0,) * (k - len(letters))
        e.append(Word(m1, letters))
    for w in diags:
        e.append(Word(m1, x.letters + (w,)))
    r = ReductionData(tuple(e), x)
    eps = apply_reduction(r)
    values = tuple(
        tuple(g.color(*eps[u][v]) for v in range(len(e))) for u in range(len(e))
    )
    return PartitionTable(len(e), values), r


def _restrict_chain(g: PartitionTable, n0: int) -> tuple[PartitionTable, ReductionData]:
    # More off-diagonal colours than wanted: chain splitting pairs, each new
    # letter word splitting off the previous anchor, so pair r contributes
    # colours g(i_r, j_r) and (except the last) g(j_r, i_r).
    m1 = g.m
    pairs: list[tuple[int, int]] = []
    values: set[int] = set()
    for u, v in itertools.product(range(m1), repeat=2):
        if u == v:
            continue
        if len(values) >= n0 - 1:
            break
        new = {g.color(u, v), g.color(v, u)} - values
        if not new:
            continue
        pairs.append((u, v))
        values |= new
    if len(values) == n0:
        final = pairs[0]
    else:
        assert len(values) == n0 - 1
        final = min(
            (u, v)
            for u in range(m1)
            for v in range(m1)
            if u != v and g.color(u, v) not in values
        )
    pairs.append(final)
    m0 = len(pairs)
    k = m0 + 1
    x = Word(m1, tuple(j for _, j in pairs))
    e = []
    for r, (i, j) in enumerate(pairs):
        letters = tuple(jj for _, jj in pairs[:r]) + (i,)
        letters += (0,) * (k - len(letters))
        e.append(Word(m1, letters))
    rd = ReductionData(tuple(e), x)
    eps = apply_reduction(rd)
    vals = tuple(
        tuple(g.color(*eps[u][v]) for v in range(m0)) for u in range(m0)
    )
    return PartitionTable(m0, vals), rd


# -- induced tree maps ---------------------------------------------------------


def induced_word_map(r: ReductionData, w: Word) -> Word:
    """Block image of a node: e-blocks of its letters, anchor appended."""
    if w.m != r.m0:
        raise ReductionError(f"word is over {w.m} letters, embedding has {r.m0}")
    letters: tuple[int, ...] = ()
    for a in w.letters:
        letters += r.e[a].letters
    return Word(r.m1, letters + r.x.letters)


def induced_branch_map(r: ReductionData, x: Branch) -> Branch:
    """Block image of a branch: e-blocks of stem and period, no anchor."""
    if x.m != r.m0:
        raise ReductionError(f"branch is over {x.m} letters, embedding has {r.m0}")
    stem: tuple[int, ...] = ()
    for a in x.stem:
        stem += r.e[a].letters
    period: tuple[int, ...] = ()
    for a in x.period:
        period += r.e[a].letters
    return Branch(r.m1, stem, period)
