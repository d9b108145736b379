"""Tree algebra: words, branches, meets, incidence, the well order."""

import itertools
import math
import random
import time

import pytest
from hypothesis import given, strategies as st

from madic import (
    AlphabetError,
    Branch,
    Comb,
    DisjointFamily,
    FirstMoveMap,
    IncidenceUndefinedError,
    OrientationError,
    PartitionTable,
    PrefixRelation,
    ReductionData,
    Word,
    branch_meet_horizon,
    concat,
    find_pattern,
    incidence,
    is_prefix,
    meet,
    meet_closure,
    prefix_cmp,
    well_order_cmp,
    well_order_key,
)
from madic import words as words_module
from conftest import (
    expand,
    meet_oracle,
    normal_form_oracle,
    numeral,
    random_branch,
    random_word,
)

W = lambda *letters: Word(3, letters)
W2 = lambda *letters: Word(2, letters)


# -- construction ----------------------------------------------------------------


def test_word_rejects_out_of_range_letters():
    with pytest.raises(AlphabetError):
        Word(2, (0, 2))
    with pytest.raises(AlphabetError):
        Word(0, ())


def test_branch_requires_positive_alphabet():
    with pytest.raises(AlphabetError, match="^alphabet size must be positive, got 0$"):
        Branch(0, (), (0,))


def test_branch_requires_nonempty_period():
    with pytest.raises(AlphabetError):
        Branch(2, (0,), ())


ZERO_LETTERS = "^alphabet size must be positive, got 0$"
MISMATCH = "^alphabet mismatch: 3 vs 2$"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Word(0), ZERO_LETTERS),
        (lambda: Branch(0, (), (0,)), ZERO_LETTERS),
        (lambda: PartitionTable(0, ()), ZERO_LETTERS),
        (lambda: DisjointFamily(0, ()), ZERO_LETTERS),
        (lambda: DisjointFamily(2, ({5},)), "^letter 5 outside alphabet of size 2$"),
        (lambda: FirstMoveMap(((W2(0), W2(1)), (Word(3, (1,)), W2(0)))), MISMATCH),
        (lambda: find_pattern([Word(3, (2,))], Comb(0, 1), 1, 2), MISMATCH),
        (lambda: ReductionData((W2(0), Word(3, (1,))), W2()), MISMATCH),
        (lambda: ReductionData((W2(0, 1),), Word(3, (0,))), MISMATCH),
    ],
    ids=[
        "word", "branch", "table", "family", "family-letter", "first-move-map",
        "find-pattern", "reduction-letter-word", "reduction-anchor",
    ],
)
def test_every_alphabet_refusal_is_words_alphabet_error(build, message):
    # Tables, families, first-move maps, pattern searches and reductions
    # state the alphabet rule through words, not in their own words.
    with pytest.raises(AlphabetError, match=message):
        build()


def test_head_matches_the_cycled_period():
    rng = random.Random(29)
    for _ in range(300):
        x = random_branch(rng, rng.randint(2, 4), max_len=5, max_period=7)
        for n in range(80):
            assert x.head(n) == expand(x, n)


def test_branch_canonical_form_is_stable():
    # unrolling the period or rotating it into the stem gives the same branch
    base = Branch(2, (), (0, 1))
    assert Branch(2, (0, 1), (0, 1)) == base
    assert Branch(2, (0,), (1, 0)) == base
    assert Branch(2, (0, 1, 0), (1, 0)) == base
    assert Branch(2, (), (0, 1, 0, 1)) == base


def test_branch_unrolling_preserves_letters():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(2, 4)
        stem = tuple(rng.randrange(m) for _ in range(rng.randint(0, 4)))
        period = tuple(rng.randrange(m) for _ in range(rng.randint(1, 4)))
        x = Branch(m, stem, period)
        unrolled = Branch(m, stem + period, period)
        assert x == unrolled
        assert expand(x, 24) == expand(unrolled, 24)
        assert [x.letter(i) for i in range(24)] == list(expand(x, 24))


def _rolled_stem(rng: random.Random, m: int, period: tuple[int, ...], reps: int):
    """A random head, then reps copies of a rotation of the period, then the
    partial copy that the period continues: all but the head rolls in."""
    t = rng.randrange(len(period))
    block = period[len(period) - t :] + period[: len(period) - t]
    head = tuple(rng.randrange(m) for _ in range(rng.randint(0, 3)))
    return head + block * reps + block[:t]


def test_branch_normal_form_matches_rolling_oracle():
    rng = random.Random(11)
    for _ in range(400):
        m = rng.randint(2, 3)
        base = tuple(rng.randrange(m) for _ in range(rng.randint(1, 4)))
        period = base * rng.randint(1, 3)
        stem = _rolled_stem(rng, m, period, rng.randint(0, 4))
        if rng.random() < 0.3:
            stem += tuple(rng.randrange(m) for _ in range(rng.randint(1, 3)))
        x = Branch(m, stem, period)
        assert (x.stem, x.period) == normal_form_oracle(stem, period), (stem, period)


def test_long_rolled_stem_matches_rolling_oracle():
    # The stem rolls into the period letter by letter for 200,000 letters;
    # normalising must not copy the stem once per letter.
    rng = random.Random(12)
    stem = _rolled_stem(rng, 3, (0, 1, 2, 1, 0), 40_000)
    assert len(stem) >= 200_000
    start = time.perf_counter()
    x = Branch(3, stem, (0, 1, 2, 1, 0))
    assert time.perf_counter() - start < 5.0  # about a minute when quadratic
    assert (x.stem, x.period) == normal_form_oracle(stem, (0, 1, 2, 1, 0))
    assert len(x.stem) <= 3


# -- meet ------------------------------------------------------------------------


def test_meet_worked_examples():
    assert meet(W(0, 1, 0), W(0, 1, 1)) == W(0, 1)
    s = W(2, 0, 1)
    assert meet(s, s) == s
    assert meet(Branch(2, (0,), (1,)), Branch(2, (), (0,))) == W2(0)


def test_meet_of_equal_branches_is_the_branch():
    x = Branch(2, (0,), (1, 0))
    assert meet(x, Branch(2, (0, 1), (0, 1))) == x


def test_meet_word_branch_both_orders():
    x = Branch(2, (), (0,))
    assert meet(x, W2(0, 0, 1)) == W2(0, 0)
    assert meet(W2(0, 0, 1), x) == W2(0, 0)


def test_root_meet_of_splitting_words():
    assert meet(W2(0, 1), W2(1, 0)) == W2()


words_st = st.integers(2, 4).flatmap(
    lambda m: st.tuples(
        st.just(m), st.lists(st.integers(0, m - 1), max_size=6).map(tuple)
    )
).map(lambda t: Word(t[0], t[1]))


def _pair(m):
    letters = st.lists(st.integers(0, m - 1), max_size=6).map(tuple)
    return st.tuples(letters, letters, letters).map(
        lambda t: tuple(Word(m, x) for x in t)
    )


triples_st = st.integers(2, 4).flatmap(_pair)


@given(triples_st)
def test_meet_laws(words):
    a, b, c = words
    assert meet(a, b) == meet(b, a)
    assert meet(a, a) == a
    assert meet(meet(a, b), c) == meet(a, meet(b, c))
    assert meet(a, b).letters == meet_oracle(a, b)


@given(triples_st)
def test_prefix_iff_meet(words):
    a, b, _ = words
    assert (prefix_cmp(a, b) in (PrefixRelation.A_LEQ_B, PrefixRelation.EQUAL)) == (
        meet(a, b) == a
    )
    assert is_prefix(a, b) == (a.letters == b.letters[: len(a)])


def test_branch_meet_respects_horizon():
    # two branches agreeing beyond any fixed prefix but differing in period
    x = Branch(2, (), (0, 1))
    y = Branch(2, (0, 1, 0, 1), (0, 0))
    got = meet(x, y)
    assert isinstance(got, Word)
    assert got.letters == meet_oracle(x, y, branch_meet_horizon(x, y) + 8)


def _two_letter_extremal(p: int, q: int) -> tuple[int, ...]:
    """For coprime p and q, the word of length p + q - 2 with periods p and q
    that is not constant: its positions, joined whenever they lie p or q
    apart, fall into exactly two classes."""
    n = p + q - 2
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    for a in range(n):
        for b in (a + p, a + q):
            if b < n:
                parent[find(b)] = find(a)
    roots = sorted({find(a) for a in range(n)})
    assert len(roots) == 2
    return tuple(roots.index(find(a)) for a in range(n))


@pytest.mark.parametrize("p,q", [(2, 3), (5, 8), (13, 21), (47, 53), (50, 51)])
def test_meet_can_reach_fine_wilf_bound(p, q):
    # (u[:p])^w and (u[:q])^w agree on all of u, one letter short of the
    # bound max(stems) + p + q - gcd(p, q), which is therefore sharp.
    u = _two_letter_extremal(p, q)
    x = Branch(3, (2, 0, 2), u[:p])
    y = Branch(3, (2, 0, 2), u[:q])
    assert (len(x.period), len(y.period)) == (p, q)
    r = meet(x, y)
    assert len(r) == 3 + p + q - 2
    horizon = len(x.stem) + len(y.stem) + math.lcm(p, q)
    assert r.letters == meet_oracle(x, y, horizon)


@pytest.mark.parametrize("seed", range(4))
def test_meet_long_coprime_periods_matches_scan(seed):
    rng = random.Random(seed)
    for _ in range(15):
        m = rng.randint(2, 3)
        p = rng.randint(30, 80)
        q = rng.choice([k for k in range(30, 81) if math.gcd(p, k) == 1])
        x = Branch(m, (), tuple(rng.randrange(m) for _ in range(p)))
        k = rng.randint(0, p)
        if rng.random() < 0.5:
            # y copies x's first q letters as its period: long agreement.
            y = Branch(m, x.head(k), x.head(k + q)[k:])
        else:
            y = Branch(m, x.head(k), tuple(rng.randrange(m) for _ in range(q)))
        if y == x:
            continue
        a, b = len(x.period), len(y.period)
        horizon = len(x.stem) + len(y.stem) + math.lcm(a, b)
        expected = meet_oracle(x, y, horizon)
        assert meet(x, y).letters == meet(y, x).letters == expected
        assert len(expected) < max(len(x.stem), len(y.stem)) + a + b - math.gcd(a, b)
        assert prefix_cmp(x, y) is PrefixRelation.INCOMPARABLE
        d = len(expected)
        assert incidence(x, y) == (x.letter(d), y.letter(d))


def test_meet_of_branches_differing_at_letter_10000():
    rng = random.Random(10_000)
    x = Branch(3, (), tuple(rng.randrange(3) for _ in range(97)))
    turn = (x.letter(10_000) + 1) % 3
    y = Branch(3, x.head(10_000) + (turn,), (1, 2))
    expected = meet_oracle(x, y, 10_010)
    assert len(expected) == 10_000
    assert meet(x, y).letters == meet(y, x).letters == expected
    assert incidence(x, y) == (x.letter(10_000), turn)


def test_branch_equality_detected_within_horizon():
    x = Branch(2, (0,), (1, 1))
    y = Branch(2, (0, 1, 1), (1,))
    assert meet(x, y) == x == y


# -- incidence -------------------------------------------------------------------


def test_incidence_worked_examples():
    assert incidence(W(0, 1), W(0, 2)) == (1, 2)
    assert incidence(W(0, 1), W(0)) == (1, 1)
    assert incidence(Branch(2, (), (0,)), W2(0, 0, 1)) == (0, 1)


def test_incidence_orientation_error():
    with pytest.raises(OrientationError):
        incidence(W(0), W(0, 1))
    with pytest.raises(IncidenceUndefinedError):
        incidence(W(0, 1), W(0, 1))


def test_incidence_branch_below_word():
    # branch first, word strictly below it: the (i,i) rule reads the branch letter
    assert incidence(Branch(2, (), (1,)), W2(1, 1)) == (1, 1)


@given(triples_st)
def test_incidence_antisymmetry(words):
    a, b, _ = words
    if prefix_cmp(a, b) != PrefixRelation.INCOMPARABLE:
        return
    i, j = incidence(a, b)
    assert (j, i) == incidence(b, a)
    assert i != j
    r = meet(a, b)
    assert a.letters[len(r)] == i and b.letters[len(r)] == j


def _oracle(name, a, b):
    """prefix_cmp, is_prefix, meet or incidence of a and b, read off their
    letters (branches expanded well past any meet of distinct branches)."""
    if a.m != b.m:
        raise AlphabetError
    horizon = 64
    xs = a.letters if isinstance(a, Word) else expand(a, horizon)
    ys = b.letters if isinstance(b, Word) else expand(b, horizon)
    k = len(meet_oracle(a, b, horizon))
    a_ends = isinstance(a, Word) and k == len(a)
    b_ends = isinstance(b, Word) and k == len(b)
    same = k == horizon or (a_ends and b_ends)
    if name == "prefix_cmp":
        if same:
            return PrefixRelation.EQUAL
        if a_ends or b_ends:
            return PrefixRelation.A_LEQ_B if a_ends else PrefixRelation.B_LEQ_A
        return PrefixRelation.INCOMPARABLE
    if name == "is_prefix":
        return same or a_ends
    if name == "meet":
        return a if k == horizon else Word(a.m, xs[:k])
    if same:
        raise IncidenceUndefinedError
    if a_ends:
        raise OrientationError
    return (xs[k], xs[k]) if b_ends else (xs[k], ys[k])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


def _mixed_pairs(rng):
    for _ in range(1500):
        m = rng.randint(2, 3)
        a = random_branch(rng, m) if rng.random() < 0.5 else random_word(rng, m)
        b = random_branch(rng, m) if rng.random() < 0.5 else random_word(rng, m)
        yield a, b
    for _ in range(100):
        m = rng.randint(2, 3)
        x = random_branch(rng, m)
        w = random_word(rng, m)
        yield x, Branch(m, x.head(len(x.stem) + len(x.period)), x.period)
        yield x, x.prefix(rng.randint(0, 6))
        yield w, w.prefix(rng.randint(0, len(w)))
        yield w, Word(m, w.letters)
        yield w, random_word(rng, 5 - m)


def test_mixed_operands_match_letter_oracle():
    ops = {
        "prefix_cmp": prefix_cmp,
        "is_prefix": is_prefix,
        "meet": meet,
        "incidence": incidence,
    }
    rng = random.Random(11)
    for a, b in _mixed_pairs(rng):
        for s, t in ((a, b), (b, a)):
            for name, fn in ops.items():
                want = _outcome(_oracle, name, s, t)
                assert _outcome(fn, s, t) == want, (name, s, t)


# -- the well order --------------------------------------------------------------


def test_well_order_worked_examples():
    assert well_order_cmp(W(1), W(0, 0)) < 0
    assert well_order_cmp(W2(0, 1), W2(1, 0)) < 0
    assert well_order_cmp(W(2), W(2)) == 0


@given(triples_st)
def test_well_order_total_and_length_dominant(words):
    a, b, c = words
    ka, kb, kc = well_order_key(a), well_order_key(b), well_order_key(c)
    assert (well_order_cmp(a, b) == 0) == (a == b)
    assert (ka < kb) == (well_order_cmp(a, b) < 0)
    if len(a) < len(b):
        assert well_order_cmp(a, b) < 0
    if len(a) == len(b):
        assert (well_order_cmp(a, b) < 0) == (numeral(a) < numeral(b))
    if well_order_cmp(a, b) < 0 and well_order_cmp(b, c) < 0:
        assert well_order_cmp(a, c) < 0


# -- meet closure ----------------------------------------------------------------


def test_meet_closure_worked_examples():
    got = meet_closure({W2(0, 0), W2(0, 1)})
    assert got == {W2(0, 0), W2(0, 1), W2(0)}
    assert meet_closure(got) == got
    triple = {W2(0, 0, 0), W2(0, 0, 1), W2(0, 1)}
    assert meet_closure(triple) == triple | {W2(0, 0), W2(0)}


@given(st.integers(2, 3).flatmap(
    lambda m: st.lists(
        st.lists(st.integers(0, m - 1), max_size=5).map(lambda t: Word(m, tuple(t))),
        min_size=1,
        max_size=6,
    )
))
def test_meet_closure_properties(words):
    closed = meet_closure(words)
    assert set(words) <= closed
    assert meet_closure(closed) == closed
    assert len(closed) <= 2 * len(set(words)) - 1
    for a in closed:
        for b in closed:
            assert meet(a, b) in closed


def test_meet_closure_monotone():
    small = {W2(0, 0, 0), W2(0, 1)}
    big = small | {W2(1, 1), W2(0, 0, 1)}
    assert meet_closure(small) <= meet_closure(big)


def pairwise_closure(words):
    """The definition: the nodes and the meets of all their pairs."""
    ws = list(words)
    return frozenset(ws) | {meet(s, t) for s, t in itertools.combinations(ws, 2)}


def test_meet_closure_equals_pairwise_meets():
    # Sets drawn from a small pool repeat words; sizes start at 0.
    rng = random.Random(26)
    for trial in range(20_000):
        m = trial % 4 + 1
        pool = [random_word(rng, m) for _ in range(rng.randint(1, 8))]
        ws = [rng.choice(pool) for _ in range(rng.randint(0, 8))]
        assert meet_closure(ws) == pairwise_closure(ws), ws


def test_meet_closure_meets_only_neighbours(monkeypatch):
    # N distinct words take at most N - 1 meets; the pairwise rule takes
    # N(N - 1)/2.  The reference closure calls this module's own meet.
    calls = []
    real = words_module.meet
    monkeypatch.setattr(
        words_module, "meet", lambda a, b: calls.append(1) or real(a, b)
    )
    rng = random.Random(5)
    for size in (0, 1, 2, 5, 25, 100):
        ws = {random_word(rng, 2, max_len=12) for _ in range(size)}
        calls.clear()
        assert meet_closure([*ws, *ws]) == pairwise_closure(ws)
        assert len(calls) <= max(len(ws) - 1, 0)


@pytest.mark.parametrize(
    "ws",
    [
        [W2(0), Word(3, (0,))],
        [W2(0, 1), Word(3, (2,)), W2(1)],
        [Word(3, (2, 2)), W2(), W2(1, 1)],
    ],
)
def test_meet_closure_rejects_two_alphabets(ws):
    with pytest.raises(AlphabetError):
        meet_closure(ws)


# -- misc ------------------------------------------------------------------------


def test_concat_and_prefix_helpers():
    assert concat(W2(0), W2(1, 0)) == W2(0, 1, 0)
    assert W2(0, 1, 0).prefix(2) == W2(0, 1)
    assert W2(0, 1).child(0) == W2(0, 1, 0)
    x = Branch(2, (1,), (0,))
    assert x.prefix(3) == W2(1, 0, 0)
    assert x.head(4) == (1, 0, 0, 0)


def test_mixed_alphabets_rejected():
    with pytest.raises(AlphabetError):
        meet(W(0), W2(0))
