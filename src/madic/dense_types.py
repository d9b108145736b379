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
from typing import Iterable, Optional, Sequence

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

    So the key of an A order is psi's values and gamma's sorted values.
    """
    problems = validate_type(t)
    if problems:
        raise TypeError_("; ".join(problems))
    psi, gamma = t.psi_map, t.gamma_map
    preimages = Counter(gamma.values())
    e_order = sorted(t.E, key=lambda k: -preimages[k])
    e_label = {k: t.n - len(t.E) + r for r, k in enumerate(e_order)}
    pairs = list(itertools.permutations(range(len(t.A)), 2))
    best = None
    for order in itertools.permutations(t.A):
        seen = [psi[order[i], order[j]] for i, j in pairs]
        b_order = list(dict.fromkeys(seen))
        label = {k: len(t.A) + r for r, k in enumerate(b_order)} | e_label
        key = ([label[v] for v in seen], sorted(label[v] for v in gamma.values()))
        if best is None or key < best[0]:
            best = key, order, b_order, label
    _, order, b_order, label = best
    singles = [blk[0] for blk in t.blocks if len(blk) == 1]
    doubles = [k for blk in t.blocks if len(blk) == 2 for k in blk]
    linked = sorted(t.D, key=lambda k: label[gamma[k]])
    ranked = [*order, *b_order, *singles, *doubles, *linked, *e_order]
    return permute_type(t, [ranked.index(c) for c in range(t.n)])


def enumerate_types(n: int) -> tuple[DenseType, ...]:
    """All dense types on n colours, one canonical member per relabelling
    class, in DenseType order.

    Every class has a member in canonical_form's closed forms for B, C, D
    and E, so only those candidates are built, for each composition
    (a, b, c, d, e) of n with roles on consecutive colour ranges: psi
    whose values first take the B colours in ascending order, one block
    layout per number of pairs, and gamma with ascending values.  Only
    the order of A is left to canonical_form.  Every candidate is valid:
    with A empty, B, D and E are empty and every block is a pair, as
    validate_type asks.
    """
    if n < 2:
        raise TypeError_("need at least two colours")
    found: set[DenseType] = set()
    for sizes in itertools.product(range(n + 1), repeat=4):
        if sum(sizes) > n:
            continue
        A, B, C, D, E = _role_ranges(sizes + (n - sum(sizes),))
        if not A and (B or D or E):
            continue
        pairs = list(itertools.permutations(A, 2))
        psis = [
            values
            for values in itertools.product(B, repeat=len(pairs))
            if tuple(dict.fromkeys(values)) == B
        ]
        layouts = [
            [(k,) for k in C[:s]] + [(k, k + 1) for k in C[s::2]]
            for s in range(len(C) % 2, len(C) + 1 if A else 1, 2)
        ]
        gammas = [
            values
            for values in itertools.combinations_with_replacement(B + E, len(D))
            if all(values.count(k) >= 2 for k in E)
        ]
        for values, blocks, linked in itertools.product(psis, layouts, gammas):
            psi = tuple((i, j, v) for (i, j), v in zip(pairs, values))
            t = DenseType(n, A, B, C, D, E, psi, blocks, tuple(zip(D, linked)))
            found.add(canonical_form(t))
    return tuple(sorted(found))


# -- the induced alphabet and colouring ---------------------------------------


@dataclass(frozen=True)
class ConcreteAlphabet:
    """Letters induced by a dense type, with their colour pair.

    Each letter carries sigma (its diagonal colour, also the colour shown
    toward letters of smaller sigma) and tau (the colour shown toward
    letters of larger sigma; None for the free letters, which colour their
    mutual orientations by psi instead).
    """

    n: int
    elements: tuple[tuple[str, tuple[int, ...]], ...]
    sigma: tuple[int, ...]
    tau: tuple[Optional[int], ...]

    @property
    def m(self) -> int:
        return len(self.elements)


def concrete_alphabet(t: DenseType) -> ConcreteAlphabet:
    """Alphabet of a dense type: free letters, then blocks by least colour,
    then gamma letters, ascending."""
    elements: list[tuple[str, tuple[int, ...]]] = []
    sigma: list[int] = []
    tau: list[Optional[int]] = []
    free = t.A or (0,)
    tag = "free" if t.A else "anchor"
    for k in free:
        elements.append((tag, (k,)))
        sigma.append(k)
        tau.append(None)
    for blk in t.blocks:
        elements.append(("block", blk))
        sigma.append(min(blk))
        tau.append(max(blk))
    gamma = t.gamma_map
    for d in t.D:
        elements.append(("linked", (d,)))
        sigma.append(d)
        tau.append(gamma[d])
    return ConcreteAlphabet(t.n, tuple(elements), tuple(sigma), tuple(tau))


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

    values = tuple(tuple(colour(i, j) for j in range(alph.m)) for i in range(alph.m))
    table = PartitionTable(alph.m, values)
    if table.colors != tuple(range(t.n)):
        raise TypeError_("induced colouring failed to reach every colour")
    return alph, table
