"""Reduction maps between pair colourings.

A reduction from an m0-letter colouring f to an m1-letter colouring g is a
block embedding: an injective assignment of length-k words e(0), ..., and a
shorter anchor word x, inducing eps(u, v) = incidence(e(u), e(v)) off the
diagonal and eps(u, u) = incidence(e(u), x).  f reduces to g when
f = g o eps.  The module checks a reduction, searches for one up to a
block length, restricts a surjective colouring to each smaller colour
count by a reduction onto exactly that many of its colours, and gives the
maps that a reduction induces on words and branches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .spaces import PartitionTable
from .words import Branch, Word, _first_moves, _same_alphabet


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
        for w in self.e:
            _same_alphabet(w, self.e[0])
            if len(w) != k:
                raise ReductionError("letter words must share one length")
        if len(set(self.e)) != len(self.e):
            raise ReductionError("letter words must be pairwise distinct")
        _same_alphabet(self.x, self.e[0])
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
    off-diagonal pairs themselves.

    Each entry is incidence(e(u), e(v)), or incidence(e(u), x) on the
    diagonal, read from letters.  ReductionData makes it defined: the
    letter words are distinct and of one length, and x is shorter.
    """
    e = [w.letters for w in r.e]
    x = r.x.letters
    return tuple(
        tuple(_first_moves(a, x if u == v else b) for v, b in enumerate(e))
        for u, a in enumerate(e)
    )


def check_reduces(f: PartitionTable, g: PartitionTable, r: ReductionData) -> bool:
    """Whether f equals g composed with the embedding's incidence table."""
    if f.m != r.m0:
        raise ReductionError(f"f is over {f.m} letters but the embedding has {r.m0}")
    if g.m != r.m1:
        raise ReductionError(f"g is over {g.m} letters but the embedding uses {r.m1}")
    eps, fv, gv = apply_reduction(r), f.values, g.values
    return all(
        fv[u][v] == gv[i][j]
        for u, row in enumerate(eps)
        for v, (i, j) in enumerate(row)
    )


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
    By words.meet_closure's lemma, the pairwise meets of these m0 + 1
    nodes are the m0 meets of lexicographic neighbours, so at most m0 + 1
    positions remain.  Every pair of letter words keeps its first mismatch
    and letter pair there, and each letter word keeps its first move away
    from x, or its letter at |x| when x is its prefix; so the cut words
    still witness f = g o eps.  The first witness therefore has k <= m0 + 1, and None
    with max_k >= m0 + 1 proves that f does not reduce to g at all.
    """
    if max_k < 1:
        raise ReductionError("max_k must be at least 1")
    if not set(f.colors) <= set(g.colors):
        return None
    m1, gv = g.m, g.values
    for k in range(1, min(max_k, f.m + 1) + 1):
        words = list(itertools.product(range(m1), repeat=k))
        anchors = [x for n in range(k) for x in itertools.product(range(m1), repeat=n)]
        for x in anchors:
            diag = [gv[i][j] for i, j in (_first_moves(w, x) for w in words)]
            found = _place(0, [], words, diag, f.values, gv)
            if found is not None:
                e = tuple(Word(m1, words[w]) for w in found)
                return ReductionData(e, Word(m1, x))
    return None


def _place(
    u: int,
    chosen: list[int],
    words: list[tuple[int, ...]],
    diag: list[int],
    fv: tuple[tuple[int, ...], ...],
    gv: tuple[tuple[int, ...], ...],
) -> Optional[list[int]]:
    """Place letter words u, u + 1, ... after the indices in chosen, in
    candidate order, and return their indices.  Distinct words of one
    length swap their first moves with the order, so one pair gives both
    colours.  It takes its state as arguments because a nested function
    that calls itself is a reference cycle, which only the cyclic garbage
    collector frees."""
    if u == len(fv):
        return chosen
    for w in range(len(words)):
        if diag[w] != fv[u][u] or w in chosen:
            continue
        pairs = (_first_moves(words[w], words[wv]) for wv in chosen)
        if all(
            gv[i][j] == fv[u][v] and gv[j][i] == fv[v][u]
            for v, (i, j) in enumerate(pairs)
        ):
            chosen.append(w)
            hit = _place(u + 1, chosen, words, diag, fv, gv)
            if hit is not None:
                return hit
            chosen.pop()
    return None


# -- restriction to fewer colours ---------------------------------------------


@dataclass(frozen=True)
class RestrictionResult:
    """A colouring f on a subset of g's colours together with the embedding
    carrying f into g; colors is the colour subset f uses."""

    table: PartitionTable
    reduction: ReductionData

    @property
    def colors(self) -> tuple[int, ...]:
        return self.table.colors


def restrict_colors(g: PartitionTable, n0: int) -> RestrictionResult:
    """Build f with exactly n0 of g's colours and a reduction f -> g.

    One chain of splitting pairs (u_r, v_r) serves both cases: the anchor
    is x = v_0 v_1 ..., and letter word r is x[:r] u_r padded with 0, so it
    shows g(u_r, v_r) on the diagonal and toward later words, which show
    g(v_r, u_r) toward it.  When at most n0 colours appear off the
    diagonal, the pairs are the first one of each such colour in g's
    values, and words x w on diagonal letters w add the rest, with
    g(w, w') among them; otherwise pairs collect colours greedily up to
    the target count.  f is read off the chain's two colour lists and
    checked against g o eps by check_reduces.
    """
    if g.n < 2:
        raise ReductionError("a one-colour table has no smaller colour count")
    if not 1 <= n0 < g.n:
        raise ReductionError(f"colour target must be in 1..{g.n - 1}, got {n0}")
    gv, letters = g.values, range(g.m)
    # The first pair of each off-diagonal colour, in one pass: a later
    # pair of the same colour is overwritten by an earlier one.
    first = {
        gv[u][v]: (u, v) for u in reversed(letters) for v in reversed(letters) if u != v
    }
    diags: list[int] = []
    if len(first) <= n0:
        on = {gv[w][w]: w for w in reversed(letters)}
        extra = [c for c in g.colors if c not in first][: n0 - len(first)]
        if len(extra) < n0 - len(first):
            raise ReductionError("internal invariant failed: not enough colours")
        splits = [first[c] for c in sorted(first)]
        diags = [on[c] for c in extra]
    else:
        splits, seen = [], set[int]()
        for u, v in itertools.permutations(letters, 2):
            if len(seen) >= n0 - 1:
                break
            new = {gv[u][v], gv[v][u]} - seen
            if new:
                splits.append((u, v))
                seen |= new
        # The last pair adds one missing colour, or repeats the first pair
        # when the greedy pairs already reach n0.
        if len(seen) < n0:
            splits.append(min(p for c, p in first.items() if c not in seen))
        else:
            splits.append(splits[0])
    x = tuple(v for _, v in splits)
    e = [x[:r] + (u,) + (0,) * (len(x) - r) for r, (u, _) in enumerate(splits)]
    e += [x + (w,) for w in diags]
    reduction = ReductionData(tuple(Word(g.m, w) for w in e), Word(g.m, x))
    back = tuple(gv[v][u] for u, v in splits)
    values = [back[:a] + (gv[u][v],) * (len(e) - a) for a, (u, v) in enumerate(splits)]
    values += [back + tuple(gv[w][w2] for w2 in diags) for w in diags]
    table = PartitionTable(len(e), tuple(values))
    if len(table.colors) != n0 or not check_reduces(table, g, reduction):
        raise ReductionError("internal invariant failed: restriction is not verified")
    return RestrictionResult(table, reduction)


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
