"""Classification data for the minimal everywhere-dense colourings.

A dense type on n colours splits them into five roles: A-colours double as
alphabet letters whose mutual orientations are coloured freely by psi;
C-colours pair up into blocks, each block becoming one letter that colours
its two orientations by the block's endpoints; D-colours are letters whose
upward orientation is borrowed through gamma from a B- or E-colour; B- and
E-colours never name letters themselves.  Every type induces a concrete
alphabet and a surjective pair colouring whose partition space has exactly
n classes and minimal open degree among its kind.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .spaces import PartitionTable


class TypeError_(ValueError):
    """Dense-type data that violates the axioms."""


@dataclass(frozen=True, order=True)
class DenseType:
    """A partition of range(n) into roles A..E with psi, blocks and gamma.

    Each role is stored as a sorted tuple of colours; psi as sorted
    (i, j, value) triples over the ordered distinct pairs of A; blocks as
    sorted tuples partitioning C; gamma as sorted (d, value) pairs over D.
    Construction normalises the sort order, so equality and hashing are
    structural, and types compare by their fields in order: n, A..E, psi,
    blocks, gamma.  That order ranks the catalogue.
    """

    n: int
    A: tuple[int, ...]
    B: tuple[int, ...]
    C: tuple[int, ...]
    D: tuple[int, ...]
    E: tuple[int, ...]
    psi: tuple[tuple[int, int, int], ...]
    blocks: tuple[tuple[int, ...], ...]
    gamma: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for role in "ABCDE":
            object.__setattr__(self, role, tuple(sorted(set(getattr(self, role)))))
        object.__setattr__(
            self, "psi", tuple(sorted(tuple(t) for t in self.psi))
        )
        object.__setattr__(
            self,
            "blocks",
            tuple(sorted(tuple(sorted(b)) for b in self.blocks)),
        )
        object.__setattr__(
            self, "gamma", tuple(sorted(tuple(g) for g in self.gamma))
        )

    @property
    def psi_map(self) -> dict[tuple[int, int], int]:
        return {(i, j): v for i, j, v in self.psi}

    @property
    def gamma_map(self) -> dict[int, int]:
        return dict(self.gamma)


def validate_type(t: DenseType) -> list[str]:
    """All axiom violations of the given data; empty means valid."""
    out: list[str] = []
    roles = A, B, C, D, E = [set(r) for r in (t.A, t.B, t.C, t.D, t.E)]
    if set().union(*roles) != set(range(t.n)) or sum(map(len, roles)) != t.n:
        out.append("A..E must partition the colours 0..n-1")
        return out
    pairs = {(i, j) for i in A for j in A if i != j}
    psi = t.psi_map
    if set(psi) != pairs:
        out.append("psi must be defined on exactly the ordered pairs of A")
    if len(psi) != len(t.psi):
        out.append("each ordered pair of A needs exactly one psi value")
    if not set(psi.values()) <= B:
        out.append("psi values must lie in B")
    if set(psi.values()) != B:
        out.append("psi must be surjective onto B")
    covered: set[int] = set()
    for b in t.blocks:
        if len(b) not in (1, 2) or len(set(b)) != len(b):
            out.append(f"block {b} must have one or two distinct colours")
            continue
        if covered & set(b):
            out.append(f"block {b} overlaps another block")
        covered |= set(b)
    if covered != C:
        out.append("blocks must partition C")
    gamma = t.gamma_map
    if set(gamma) != D:
        out.append("gamma must be defined on exactly D")
    if len(gamma) != len(t.gamma):
        out.append("each colour of D needs exactly one gamma value")
    if not set(gamma.values()) <= B | E:
        out.append("gamma values must lie in B or E")
    for k in t.E:
        if sum(1 for v in gamma.values() if v == k) < 2:
            out.append(f"colour {k} in E needs at least two gamma preimages")
    if not A:
        if B or D or E:
            out.append("with A empty, B, D and E must be empty")
        if any(len(b) != 2 for b in t.blocks):
            out.append("with A empty, every block must have two colours")
    return out


def permute_type(t: DenseType, pi: Sequence[int]) -> DenseType:
    """Relabel every colour through the permutation pi."""
    return DenseType(
        t.n,
        *([pi[a] for a in role] for role in (t.A, t.B, t.C, t.D, t.E)),
        tuple((pi[i], pi[j], pi[v]) for i, j, v in t.psi),
        tuple(tuple(pi[a] for a in b) for b in t.blocks),
        tuple((pi[d], pi[v]) for d, v in t.gamma),
    )


def _role_ranges(sizes: Iterable[int]) -> list[tuple[int, ...]]:
    """Consecutive colour ranges for roles of the given sizes, A first."""
    bounds = list(itertools.accumulate(sizes, initial=0))
    return [tuple(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])]


def canonical_form(t: DenseType) -> DenseType:
    """Least relabelling of a valid type under all colour permutations.

    The type must satisfy validate_type; an invalid one raises TypeError_.
    Types compare by their fields, A first, then B and so on, so a least
    relabelling puts the roles on consecutive colour ranges, and only the
    permutations inside each range remain.  Psi and gamma then compare as
    their values read along the sorted pairs of the A range and along the D
    range.  Only the a! orders of A are searched; the other roles have
    closed forms:

    - B takes its colours in the order they first appear in psi, read along
      the sorted A pairs; psi is onto B, so each A order fixes the B order;
    - C puts its singleton blocks first, then consecutive pairs;
    - E goes by descending number of gamma preimages (ties give the same
      type);
    - D goes by ascending gamma value, once the A order is chosen.

    So the key of an A order is psi's values and gamma's sorted values.  A
    type that is already its least relabelling is returned as it is.
    """
    problems = validate_type(t)
    if problems:
        raise TypeError_("; ".join(problems))
    a, psi, gamma = len(t.A), t.psi_map, t.gamma_map
    preimages = Counter(gamma.values())
    e_order = sorted(t.E, key=lambda k: -preimages[k])
    label = dict(zip(e_order, range(t.n - len(t.E), t.n)))
    b_labels = range(a, a + len(t.B))
    pairs = list(itertools.permutations(range(a), 2))
    best = None
    for order in itertools.permutations(t.A):
        seen = [psi[order[i], order[j]] for i, j in pairs]
        b_order = tuple(dict.fromkeys(seen))
        label.update(zip(b_order, b_labels))
        key = [label[v] for v in seen], sorted(map(label.__getitem__, gamma.values()))
        if best is None or key < best[0]:
            best = key, order, b_order
    _, order, b_order = best
    label.update(zip(b_order, b_labels))
    singles = [blk[0] for blk in t.blocks if len(blk) == 1]
    doubles = [k for blk in t.blocks if len(blk) == 2 for k in blk]
    linked = sorted(t.D, key=lambda k: label[gamma[k]])
    ranked = [*order, *b_order, *singles, *doubles, *linked, *e_order]
    if ranked == list(range(t.n)):
        return t
    return permute_type(t, [ranked.index(c) for c in range(t.n)])


def enumerate_types(n: int) -> tuple[DenseType, ...]:
    """All dense types on n colours, one canonical member per relabelling
    class, in DenseType order.

    Every class has a member in canonical_form's closed forms for B, C, D
    and E, so only those candidates are built, for each composition
    (a, b, c, d, e) of n that admits a valid type, with roles on
    consecutive colour ranges: psi whose values first take the B colours
    in ascending order, one block layout per number of pairs, and gamma
    with ascending values and E colours by descending number of
    preimages.  _least_psis skips the psi that an order of A lowers, and
    canonical_form decides the rest: a candidate is kept exactly when it is
    its own least relabelling, so no two kept candidates are relabellings
    of each other, and each is valid.
    """
    if n < 2:
        raise TypeError_("need at least two colours")
    found: list[DenseType] = []
    for sizes in _compositions(n):
        A, B, C, D, E = _role_ranges(sizes)
        layouts = [
            [(k,) for k in C[:s]] + [(k, k + 1) for k in C[s::2]]
            for s in range(len(C) % 2, len(C) + 1 if A else 1, 2)
        ]
        gammas = []
        for values in itertools.combinations_with_replacement(B + E, len(D)):
            counts = [values.count(k) for k in E]
            if counts == sorted(counts, reverse=True) and min(counts, default=2) >= 2:
                gammas.append(values)
        for psi in _least_psis(A, B):
            for linked in gammas:
                gamma = tuple(zip(D, linked))
                for blocks in layouts:
                    t = DenseType(n, A, B, C, D, E, psi, blocks, gamma)
                    if canonical_form(t) == t:
                        found.append(t)
    return tuple(sorted(found))


def _compositions(n: int) -> Iterator[tuple[int, int, int, int, int]]:
    """Role sizes (a, b, c, d, e) of n that admit a valid type.

    Psi maps the a(a - 1) ordered pairs of A onto B, so B is nonempty
    exactly when A has two colours, and no larger than those pairs.  Each
    E colour takes two gamma values, so 2e <= d, and gamma needs B or E
    when D is nonempty.  With A empty, B, D and E are empty and C pairs up.
    """
    for a in range(n + 1):
        for b in range(1 if a >= 2 else 0, min(a * (a - 1), n - a) + 1):
            for d in range(n - a - b + 1 if a else 1):
                low = 1 if d and not b else 0
                for e in range(low, min(d // 2, n - a - b - d) + 1):
                    c = n - a - b - d - e
                    if a or c % 2 == 0:
                        yield a, b, c, d, e


def _least_psis(
    A: tuple[int, ...], B: tuple[int, ...]
) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """Maps psi from the ordered pairs of A = (0, ..., a - 1) onto B whose
    values, read along the sorted pairs, first take the B colours in
    ascending order, less those that some order of A lowers in
    canonical_form's key.  The check of an order stops at the first
    smaller key.  This screen is there for speed only: canonical_form
    rejects the same candidates, but deciding psi by canonical_form on
    the A and B head alone makes n = 6 about eight times slower.
    """
    pairs = list(itertools.permutations(A, 2))
    index = {p: k for k, p in enumerate(pairs)}
    readers = [
        itemgetter(*(index[o[i], o[j]] for i, j in pairs))
        for o in itertools.islice(itertools.permutations(A), 1, None)
    ]
    for values in itertools.product(B, repeat=len(pairs)):
        if tuple(dict.fromkeys(values)) != B:
            continue
        for read in readers:
            seen = read(values)
            order = tuple(dict.fromkeys(seen))
            label = dict(zip(order, B))
            key = seen if order == B else tuple(map(label.__getitem__, seen))
            if key < values:
                break
        else:
            yield tuple((i, j, v) for (i, j), v in zip(pairs, values))


# -- the induced alphabet and colouring ---------------------------------------


@dataclass(frozen=True)
class ConcreteAlphabet:
    """Letters induced by a dense type, with their colour pair.

    Each letter carries sigma (its diagonal colour, also the colour shown
    toward letters of smaller sigma) and tau (the colour shown toward
    letters of larger sigma; None for the free letters, which colour their
    mutual orientations by psi instead).
    """

    sigma: tuple[int, ...]
    tau: tuple[Optional[int], ...]

    @property
    def m(self) -> int:
        return len(self.sigma)


def concrete_alphabet(t: DenseType) -> ConcreteAlphabet:
    """Alphabet of a dense type: the free letters of A, or one anchor
    letter of colour 0 when A is empty; then the blocks by least colour,
    with sigma and tau their least and greatest colours; then the D
    letters ascending, with tau their gamma value."""
    free, gamma = t.A or (0,), t.gamma_map
    return ConcreteAlphabet(
        (*free, *(min(b) for b in t.blocks), *t.D),
        (*(None,) * len(free), *(max(b) for b in t.blocks), *map(gamma.get, t.D)),
    )


def partition_from_type(t: DenseType) -> tuple[ConcreteAlphabet, PartitionTable]:
    """The surjective pair colouring induced by the type.

    Free letters, and the lone anchor of an empty A, rank above every other
    letter; the other letters rank by sigma.  Two free letters take psi off
    the diagonal.  Otherwise (i, j) takes sigma[i] if i ranks below j, else
    tau[j]; on the diagonal the ranks tie, so it takes sigma.  A free
    letter ranks below free letters only, which take psi, so no free letter
    shows its tau.  Off the diagonal, ranks tie only between free letters,
    because sigma is injective away from them: block minima, gamma letters
    and free letters are pairwise disjoint colours.
    """
    problems = validate_type(t)
    if problems:
        raise TypeError_("; ".join(problems))
    alph = concrete_alphabet(t)
    sigma, tau, free = alph.sigma, alph.tau, len(t.A) or 1
    if len(set(sigma[free:])) != len(sigma) - free:
        raise TypeError_("internal invariant failed: sigma is not injective")
    rank = [t.n if k < free else s for k, s in enumerate(sigma)]
    psi = t.psi_map

    def colour(i: int, j: int) -> int:
        if i != j and i < free and j < free:
            return psi[sigma[i], sigma[j]]
        return sigma[i] if rank[i] <= rank[j] else tau[j]

    values = [[colour(i, j) for j in range(alph.m)] for i in range(alph.m)]
    return alph, PartitionTable.dense(alph.m, t.n, values)
