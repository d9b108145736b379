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
    block lengths 1..min(max_k, m0 + 1).

    The search backtracks over letter words with every placed constraint
    checked immediately, so it is complete for the decision up to that
    bound.  Block lengths past m0 + 1 are never needed: cut a witness of
    length k down to its decision positions, the depths of the pairwise
    meets of e(0), ..., e(m0 - 1), x, plus |x| when it is not among them.
    Sorted lexicographically, these m0 + 1 nodes have each pairwise meet
    among the m0 meets of neighbours, so at most m0 + 1 positions remain.
    Every pair of letter words keeps its first mismatch and letter pair
    there, and each letter word keeps its first move away from x, or its
    letter at |x| when x is its prefix; so the cut words still witness
    f = g o eps.  The first witness therefore has k <= m0 + 1, and None
    with max_k >= m0 + 1 proves that f does not reduce to g at all.
    """
    if max_k < 1:
        raise ReductionError("max_k must be at least 1")
    if not set(f.colors) <= set(g.colors):
        return None
    m0, m1 = f.m, g.m
    fc = [[f.color(u, v) for v in range(m0)] for u in range(m0)]
    for k in range(1, min(max_k, m0 + 1) + 1):
        words = [Word(m1, ls) for ls in itertools.product(range(m1), repeat=k)]
        anchors = [
            Word(m1, ls)
            for length in range(k)
            for ls in itertools.product(range(m1), repeat=length)
        ]
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
                        g.color(*incidence(words[wv], words[w])) == fc[v][u]
                        and g.color(*incidence(words[w], words[wv])) == fc[u][v]
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


def restrict_colors(g: PartitionTable, n0: int) -> RestrictionResult:
    """Build f with exactly n0 of g's colours and a reduction f -> g.

    One chain of splitting pairs (u_r, v_r) serves both cases: the anchor
    is x = v_0 v_1 ..., and letter word r is x[:r] u_r padded with 0, so it
    shows g(u_r, v_r) on the diagonal and toward later words, which show
    g(v_r, u_r) toward it.  When at most n0 colours appear off the
    diagonal, the pairs are the least one of each such colour, and words
    x w on diagonal letters w add the rest; otherwise pairs collect colours
    greedily until the target count is reached.
    """
    if g.m < 2:
        raise ReductionError("need at least two letters to restrict colours")
    if not 1 <= n0 < g.n:
        raise ReductionError(f"colour target must be in 1..{g.n - 1}, got {n0}")
    pairs = list(itertools.permutations(range(g.m), 2))
    off = sorted({g.color(*p) for p in pairs})
    diags: list[int] = []
    if len(off) <= n0:
        extra = [c for c in g.colors if c not in off][: n0 - len(off)]
        if len(extra) < n0 - len(off):
            raise ReductionError("internal invariant failed: not enough colours")
        splits = [next(p for p in pairs if g.color(*p) == c) for c in off]
        diags = [min(w for w in range(g.m) if g.color(w, w) == c) for c in extra]
    else:
        splits, seen = [], set[int]()
        for u, v in pairs:
            if len(seen) >= n0 - 1:
                break
            new = {g.color(u, v), g.color(v, u)} - seen
            if new:
                splits.append((u, v))
                seen |= new
        # The last pair adds one missing colour, or repeats the first pair
        # when the greedy pairs already reach n0.
        if len(seen) < n0:
            splits.append(next(p for p in pairs if g.color(*p) not in seen))
        else:
            splits.append(splits[0])
    x = tuple(v for _, v in splits)
    e = [x[:r] + (u,) + (0,) * (len(x) - r) for r, (u, _) in enumerate(splits)]
    e += [x + (w,) for w in diags]
    reduction = ReductionData(tuple(Word(g.m, w) for w in e), Word(g.m, x))
    values = tuple(
        tuple(g.color(*pair) for pair in row) for row in apply_reduction(reduction)
    )
    table = PartitionTable(len(e), values)
    if len(table.colors) != n0 or not check_reduces(table, g, reduction):
        raise ReductionError("internal invariant failed: restriction is not verified")
    return RestrictionResult(table, reduction, table.colors)


# -- induced tree maps ---------------------------------------------------------


def _blocks(r: ReductionData, letters: tuple[int, ...]) -> tuple[int, ...]:
    """The e-blocks of the letters, chained in one pass."""
    return tuple(itertools.chain.from_iterable(r.e[a].letters for a in letters))


def induced_word_map(r: ReductionData, w: Word) -> Word:
    """Block image of a node: e-blocks of its letters, anchor appended."""
    if w.m != r.m0:
        raise ReductionError(f"word is over {w.m} letters, embedding has {r.m0}")
    return Word(r.m1, _blocks(r, w.letters) + r.x.letters)


def induced_branch_map(r: ReductionData, x: Branch) -> Branch:
    """Block image of a branch: e-blocks of stem and period, no anchor."""
    if x.m != r.m0:
        raise ReductionError(f"branch is over {x.m} letters, embedding has {r.m0}")
    return Branch(r.m1, _blocks(r, x.stem), _blocks(r, x.period))
