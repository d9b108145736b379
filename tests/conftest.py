"""Shared helpers: independent little oracles and random object factories.

The oracles deliberately avoid the library's own traversal code; they
expand branches letter by letter and compare sequences directly, so that
agreement with the fast implementations is evidence, not circularity.
"""

from __future__ import annotations

import collections
import itertools
import math
import random

from madic import (
    INFINITY,
    Branch,
    DenseType,
    DisjointFamily,
    FirstMoveCheck,
    FirstMoveMap,
    LimitPoint,
    NodePoint,
    NodeTest,
    PartitionSpace,
    PartitionTable,
    PatternMatch,
    PrefixRelation,
    ReductionData,
    ReductionError,
    RestrictionResult,
    SpaceError,
    StabilizationReport,
    Word,
    canonical_pattern,
    check_reduces,
    incidence,
    is_prefix,
    meet,
    prefix_cmp,
    reductions,
    validate_type,
    well_order_key,
)


def expand(x: Branch, n: int) -> tuple[int, ...]:
    """First n letters of a branch, by literally cycling the period."""
    letters = list(x.stem)
    for a in itertools.cycle(x.period):
        if len(letters) >= n:
            break
        letters.append(a)
    return tuple(letters[:n])


def normal_form_oracle(stem, period) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Branch normal form by rolling: the shortest repeating block of the
    period, then trailing stem letters rolled into it one at a time, each
    roll rotating the period right by one.  A list and a deque keep each
    roll constant time."""
    n = len(period)
    d = next(
        d
        for d in range(1, n + 1)
        if n % d == 0 and all(period[k] == period[k % d] for k in range(n))
    )
    stem, period = list(stem), collections.deque(period[:d])
    while stem and stem[-1] == period[-1]:
        stem.pop()
        period.rotate(1)
    return tuple(stem), tuple(period)


def meet_oracle(a, b, horizon: int = 64) -> tuple[int, ...]:
    """Longest common prefix by letterwise scan over expanded sequences."""
    left = expand(a, horizon) if isinstance(a, Branch) else a.letters
    right = expand(b, horizon) if isinstance(b, Branch) else b.letters
    out = []
    for u, v in zip(left, right):
        if u != v:
            break
        out.append(u)
    return tuple(out)


def numeral(w: Word) -> int:
    value = 0
    for a in w.letters:
        value = value * w.m + a
    return value


def random_word(rng: random.Random, m: int, max_len: int = 5) -> Word:
    return Word(m, tuple(rng.randrange(m) for _ in range(rng.randint(0, max_len))))


def random_branch(
    rng: random.Random, m: int, max_len: int = 3, max_period: int | None = None
) -> Branch:
    """Stem of at most max_len letters, period of at most max_period
    (default max_len)."""
    if max_period is None:
        max_period = max_len
    stem = tuple(rng.randrange(m) for _ in range(rng.randint(0, max_len)))
    period = tuple(rng.randrange(m) for _ in range(rng.randint(1, max_period)))
    return Branch(m, stem, period)


def random_table(rng: random.Random, m: int, n: int) -> PartitionTable:
    """Random surjective colouring; colours are exactly 0..n-1."""
    cells = [(i, j) for i in range(m) for j in range(m)]
    assert len(cells) >= n
    rng.shuffle(cells)
    values = [[0] * m for _ in range(m)]
    for colour, (i, j) in enumerate(cells[:n]):
        values[i][j] = colour
    for i, j in cells[n:]:
        values[i][j] = rng.randrange(n)
    return PartitionTable(m, tuple(tuple(row) for row in values))


def recolor(rng: random.Random, table: PartitionTable) -> PartitionTable:
    """The same partition of pairs under n distinct colours drawn from
    0..3n+2 in random order: sparse, as restriction leaves colours, and not
    always in the order of the old ones."""
    new = dict(zip(table.colors, rng.sample(range(3 * table.n + 3), table.n)))
    return PartitionTable(table.m, tuple(tuple(new[c] for c in row) for row in table.values))


def random_family(rng: random.Random, m: int) -> DisjointFamily:
    letters = list(range(m))
    rng.shuffle(letters)
    classes = []
    while letters and (not classes or rng.random() < 0.7):
        take = rng.randint(1, min(2, len(letters)))
        classes.append(frozenset(letters[:take]))
        del letters[:take]
    if not classes:
        classes.append(frozenset({0}))
    return DisjointFamily(m, tuple(classes))


def default_horizon(gen, tests) -> int:
    """The horizon verify_convergence reports when given none."""
    x = gen.branch
    bound = 2 * (len(x.stem) + len(x.period)) + 2
    for t in tests:
        if isinstance(t, NodeTest):
            bound = max(bound, len(t.word) + 2)
        else:
            y = t.branch
            lcm = math.lcm(len(x.period), len(y.period))
            bound = max(bound, len(x.stem) + len(y.stem) + lcm + 2)
    return bound


def tooth_depths(gen, count: int) -> list[int]:
    """Depths of the first count teeth: the generator's own depths, then
    every later place where the branch, cycled letter by letter, reads i."""
    x = gen.branch
    depths = list(gen.depths[:count])
    letters = itertools.chain(x.stem, itertools.cycle(x.period))
    for d, a in enumerate(letters):
        if len(depths) >= count:
            break
        if d > gen.depths[-1] and a == gen.i:
            depths.append(d)
    return depths


def comb_limit_oracle(space, gen):
    """Comb limit by the rule of each kind: in a partition space the class
    of the first moves (i, j); in a scattered space the member set holding i
    when i == j, and the infinity point when i != j or no set holds i."""
    if isinstance(space, PartitionSpace):
        table = space.table
        return LimitPoint(gen.branch, table.colors.index(table.values[gen.i][gen.j]))
    if gen.i == gen.j:
        for cls, members in enumerate(space.family.classes):
            if gen.i in members:
                return LimitPoint(gen.branch, cls)
    return INFINITY


def convergence_oracle(gen, space, tests, horizon=None) -> list:
    """verify_convergence by brute force: build every tooth 0..horizon from
    expanded letters and compare its value at each test with the limit's."""
    if horizon is None:
        horizon = default_horizon(gen, tests)
    depths = tooth_depths(gen, horizon + 1)
    x = gen.branch
    letters = expand(x, depths[-1])
    move = () if gen.i == gen.j else (gen.j,)
    teeth = [NodePoint(Word(x.m, letters[:d] + move)) for d in depths]
    limit = comb_limit_oracle(space, gen)
    reports = []
    for test in tests:
        lim_val = space.value(limit, test)
        bad = [k for k, t in enumerate(teeth) if space.value(t, test) != lim_val]
        if bad and bad[-1] == horizon:
            reports.append(StabilizationReport(test, lim_val, None, horizon))
        else:
            k0 = bad[-1] + 1 if bad else 0
            reports.append(StabilizationReport(test, lim_val, k0, horizon))
    return reports


def partition_value_oracle(point, test, table) -> int:
    """A partition-space value stated apart from the letter rules: node
    points are prefix indicators; at a class test a limit point over the
    tested branch reads its own class, any other point the class of its
    incidence pair with the tested branch."""
    if point == INFINITY:
        raise SpaceError("partition spaces have no infinity point")
    if isinstance(point, LimitPoint):
        _check_class_oracle(point.cls, table.n)
    other = point.word if isinstance(point, NodePoint) else point.branch
    if isinstance(test, NodeTest):
        return 1 if is_prefix(test.word, other) else 0
    _check_class_oracle(test.cls, table.n)
    if other == test.branch:
        return 1 if point.cls == test.cls else 0
    a, b = incidence(test.branch, other)
    return 1 if table.colors.index(table.values[a][b]) == test.cls else 0


def scattered_value_oracle(point, test, family) -> int:
    """A scattered-space value stated apart from the letter rules: a node
    point is its own indicator at node tests and fires a class test when the
    tested branch extends it by a letter of the tested set; a limit point is
    the indicator of its own class test; the infinity point reads 0."""
    if point == INFINITY:
        return 0
    if isinstance(point, NodePoint):
        if isinstance(test, NodeTest):
            return 1 if prefix_cmp(test.word, point.word) is PrefixRelation.EQUAL else 0
        _check_class_oracle(test.cls, family.n)
        if not is_prefix(point.word, test.branch):
            return 0
        i = test.branch.letter(len(point.word))
        return 1 if i in family.classes[test.cls] else 0
    _check_class_oracle(point.cls, family.n)
    if isinstance(test, NodeTest):
        return 0
    _check_class_oracle(test.cls, family.n)
    return 1 if (point.branch == test.branch and point.cls == test.cls) else 0


def _check_class_oracle(cls: int, n: int) -> None:
    if not 0 <= cls < n:
        raise SpaceError(f"class index {cls} out of range 0..{n - 1}")


def isolation_oracle(space, s: Word, point) -> bool:
    """Whether point is the node point at s, read from values as the old
    certificate did: value 1 at s and, in a partition space, 0 at each
    child of s (scattered node points are single-node indicators)."""
    if space.value(point, NodeTest(s)) != 1:
        return False
    if not isinstance(space, PartitionSpace):
        return True
    return all(space.value(point, NodeTest(s.child(a))) == 0 for a in range(s.m))


def relabelled_encoding(t: DenseType, pi) -> tuple:
    """The fields of t in DenseType order, with every colour c renamed pi[c]:
    the key by which relabellings compare, built without DenseType."""
    roles = (tuple(sorted(pi[c] for c in r)) for r in (t.A, t.B, t.C, t.D, t.E))
    return (
        t.n,
        *roles,
        tuple(sorted((pi[i], pi[j], pi[v]) for i, j, v in t.psi)),
        tuple(sorted(tuple(sorted(pi[c] for c in b)) for b in t.blocks)),
        tuple(sorted((pi[d], pi[v]) for d, v in t.gamma)),
    )


def canonical_oracle(t: DenseType) -> DenseType:
    """Least relabelling of a type, by scanning all n! colour permutations."""
    pi = min(
        itertools.permutations(range(t.n)),
        key=lambda pi: relabelled_encoding(t, pi),
    )
    return DenseType(*relabelled_encoding(t, pi))


def compositions(n: int) -> list[tuple[int, ...]]:
    """Role sizes (a, b, c, d, e) that sum to n."""
    return [s for s in itertools.product(range(n + 1), repeat=5) if sum(s) == n]


def _block_layouts(items: tuple[int, ...]):
    """Every partition of items into blocks of one or two."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for tail in _block_layouts(rest):
        yield ((first,),) + tail
    for k, other in enumerate(rest):
        for tail in _block_layouts(rest[:k] + rest[k + 1 :]):
            yield ((first, other),) + tail


def range_types(sizes: tuple[int, ...]) -> list[DenseType]:
    """Every valid dense type whose roles have the given sizes on
    consecutive colour ranges, A first: all maps psi and gamma and all
    block layouts, kept when validate_type finds nothing wrong."""
    bounds = list(itertools.accumulate(sizes, initial=0))
    A, B, C, D, E = (tuple(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:]))
    pairs = [(i, j) for i in A for j in A if i != j]
    out = []
    for psi_values in itertools.product(B, repeat=len(pairs)):
        psi = tuple((i, j, v) for (i, j), v in zip(pairs, psi_values))
        for blocks in _block_layouts(C):
            for gamma_values in itertools.product(B + E, repeat=len(D)):
                gamma = tuple(zip(D, gamma_values))
                t = DenseType(sum(sizes), A, B, C, D, E, psi, blocks, gamma)
                if not validate_type(t):
                    out.append(t)
    return out


def _partitions(k: int, most: int | None = None):
    """Partitions of k into non-increasing parts of at most the given size."""
    if k == 0:
        yield ()
        return
    for part in range(min(k, most or k), 0, -1):
        for rest in _partitions(k - part, part):
            yield (part,) + rest


def _cycle_types(k: int) -> list[tuple[list[int], int]]:
    """One permutation of range(k) per cycle type, with the size of its
    conjugacy class in S_k."""
    out = []
    for parts in _partitions(k):
        perm, start = [], 0
        for p in parts:
            perm += list(range(start + 1, start + p)) + [start]
            start += p
        centraliser = 1
        for p in set(parts):
            centraliser *= p ** parts.count(p) * math.factorial(parts.count(p))
        out.append((perm, math.factorial(k) // centraliser))
    return out


def burnside_count(n: int) -> int:
    """Number of dense types on n colours up to relabelling, by Burnside's
    lemma and without any canonical form.

    Two types with roles on the same consecutive ranges are relabellings of
    each other exactly when a permutation inside the ranges maps one to the
    other.  So the count is a sum over the compositions (a, b, c, d, e) of
    n of the orbits of range_types under S_a x S_b x S_c x S_d x S_e: the
    number of types each group element fixes, averaged over the group, with
    one element per cycle type weighted by its class size.
    """
    total = 0
    for sizes in compositions(n):
        types = range_types(sizes)
        encodings = [relabelled_encoding(t, range(n)) for t in types]
        fixed = 0
        for choice in itertools.product(*map(_cycle_types, sizes)):
            pi, weight = [], 1
            for perm, size in choice:
                pi += [len(pi) + k for k in perm]
                weight *= size
            fixed += weight * sum(
                relabelled_encoding(t, pi) == enc for t, enc in zip(types, encodings)
            )
        order = math.prod(map(math.factorial, sizes))
        assert fixed % order == 0, (sizes, fixed, order)
        total += fixed // order
    return total


def apply_reduction_oracle(r: ReductionData) -> tuple:
    """The incidence table of an embedding, one incidence call per entry:
    incidence(e(u), e(v)) off the diagonal and incidence(e(u), x) on it."""
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


def search_oracle(f: PartitionTable, g: PartitionTable, max_k: int):
    """Reference search over Word objects: the letter words and anchors of
    search_reduction, tried in the same order up to max_k."""
    if not set(f.colors) <= set(g.colors):
        return None
    m0, m1 = f.m, g.m
    for k in range(1, max_k + 1):
        words = [Word(m1, ls) for ls in itertools.product(range(m1), repeat=k)]
        anchors = [
            Word(m1, ls)
            for length in range(k)
            for ls in itertools.product(range(m1), repeat=length)
        ]
        for x in anchors:
            chosen: list[Word] = []

            def place(u: int):
                if u == m0:
                    return ReductionData(tuple(chosen), x)
                for w in words:
                    if w in chosen:
                        continue
                    if g.color(*incidence(w, x)) != f.color(u, u):
                        continue
                    ok = True
                    for v, wv in enumerate(chosen):
                        if g.color(*incidence(wv, w)) != f.color(v, u):
                            ok = False
                            break
                        if g.color(*incidence(w, wv)) != f.color(u, v):
                            ok = False
                            break
                    if not ok:
                        continue
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


def place_oracle(u, chosen, words, diag, fv, gv):
    """reductions._place as it was before its check became a plain loop:
    all() over a generator of first-move pairs.  It reads _first_moves
    through the module, so a test can count the calls of both."""
    if u == len(fv):
        return chosen
    for w in range(len(words)):
        if diag[w] != fv[u][u] or w in chosen:
            continue
        pairs = (reductions._first_moves(words[w], words[wv]) for wv in chosen)
        if all(
            gv[i][j] == fv[u][v] and gv[j][i] == fv[v][u]
            for v, (i, j) in enumerate(pairs)
        ):
            chosen.append(w)
            hit = place_oracle(u + 1, chosen, words, diag, fv, gv)
            if hit is not None:
                return hit
            chosen.pop()
    return None


def first_move_oracle(fmm: FirstMoveMap) -> FirstMoveCheck:
    """check_first_move_map as it was before pattern search pruned with it:
    forcing over every pair with repetition, then condition 3 in both
    orientations and condition 2 on every pair of the meet closure, the
    domain's own pairs first."""
    base = fmm.mapping
    domain = list(base)
    ext = dict(base)
    for s, t in itertools.combinations_with_replacement(domain, 2):
        r = meet(s, t)
        img = meet(base[s], base[t])
        if r in ext and ext[r] != img:
            return FirstMoveCheck(False, 1, (s, t))
        ext[r] = img
    if len(set(ext.values())) != len(ext):
        return FirstMoveCheck(False, 1, None)
    closure = sorted(ext, key=well_order_key)
    dom_set = set(domain)
    pair_seq = list(itertools.combinations(sorted(domain, key=well_order_key), 2))
    rest = itertools.combinations(closure, 2)
    pair_seq += [(s, t) for s, t in rest if not (s in dom_set and t in dom_set)]
    for s, t in pair_seq:
        for a, b in ((s, t), (t, s)):
            if prefix_cmp(a, b) is PrefixRelation.A_LEQ_B:
                continue
            if incidence(a, b) != incidence(ext[a], ext[b]):
                return FirstMoveCheck(False, 3, (a, b))
    for s, t in pair_seq:
        if (well_order_key(s) < well_order_key(t)) != (
            well_order_key(ext[s]) < well_order_key(ext[t])
        ):
            return FirstMoveCheck(False, 2, (s, t))
    return FirstMoveCheck(True, extension=ext)


def find_pattern_oracle(nodes, kind, size: int, m: int):
    """find_pattern as every C(pool, k) tuple in combinations order, each
    screened pair by pair on prefix relations and incidences, then checked
    by first_move_oracle."""
    pattern = canonical_pattern(kind, size, m)
    pool = sorted(set(nodes), key=well_order_key)
    for cand in itertools.combinations(pool, len(pattern)):
        pairs = zip(itertools.combinations(pattern, 2), itertools.combinations(cand, 2))
        if any(
            prefix_cmp(p, q) != prefix_cmp(a, b)
            or (
                prefix_cmp(p, q) is PrefixRelation.INCOMPARABLE
                and incidence(p, q) != incidence(a, b)
            )
            for (p, q), (a, b) in pairs
        ):
            continue
        fmm = FirstMoveMap(tuple(zip(pattern, cand)))
        if first_move_oracle(fmm).valid:
            return PatternMatch(cand, fmm)
    return None


def restrict_colors_oracle(g: PartitionTable, n0: int) -> RestrictionResult:
    """restrict_colors as it was before it read its splitting pairs and its
    table from g.values in one pass: each colour's least pair found by a
    scan of all pairs, and every entry read through g.color."""
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
        tuple(
            g.color(*(splits[a] if a <= b else splits[b][::-1]))
            if min(a, b) < len(x)
            else g.color(diags[a - len(x)], diags[b - len(x)])
            for b in range(len(e))
        )
        for a in range(len(e))
    )
    table = PartitionTable(len(e), values)
    if len(table.colors) != n0 or not check_reduces(table, g, reduction):
        raise ReductionError("internal invariant failed: restriction is not verified")
    return RestrictionResult(table, reduction)
