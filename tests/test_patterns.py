"""Comb prototypes, first-move equivalence, pattern search, generators."""

import collections
import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from madic import (
    AlphabetError,
    Branch,
    Comb,
    CombGenerator,
    DoubleComb,
    FirstMoveCheck,
    FirstMoveMap,
    GeneratorError,
    GeneratorExhaustedError,
    SplitDoubleComb,
    Word,
    canonical_pattern,
    check_first_move_map,
    comb_nodes,
    concat,
    find_pattern,
    incidence,
    meet,
    meet_closure,
    well_order_key,
)
from madic import patterns
from conftest import find_pattern_oracle, first_move_oracle, random_branch, random_word

W2 = lambda *letters: Word(2, letters)


# -- canonical patterns ----------------------------------------------------------


def test_comb_prototype():
    got = canonical_pattern(Comb(0, 1), 3, 2)
    assert set(got) == {W2(1), W2(0, 0, 1), W2(0, 0, 0, 0, 1)}
    assert list(got) == sorted(got, key=well_order_key)


def test_diagonal_comb_prototype():
    assert set(canonical_pattern(Comb(1, 1), 2, 2)) == {W2(1), W2(1, 1, 1)}


def test_double_comb_prototype():
    got = set(canonical_pattern(DoubleComb(0, 1, 1, 0), 2, 2))
    assert got == {
        W2(1),
        W2(0, 0, 1, 1, 1),
        W2(0, 0, 0),
        W2(0, 0, 1, 1, 0, 0, 0),
    }


def test_split_double_comb_prototype():
    got = set(canonical_pattern(SplitDoubleComb(0, 1, 0, 1, 1, 0), 1, 2))
    assert got == {W2(0, 1), W2(1, 0)}
    with pytest.raises(ValueError):
        SplitDoubleComb(1, 1, 0, 1, 1, 0)


def test_pattern_size_must_be_positive():
    with pytest.raises(ValueError):
        canonical_pattern(Comb(0, 1), 0, 2)


@pytest.mark.parametrize(
    "kind", [Comb(0, 1), DoubleComb(0, 1, 1, 0), SplitDoubleComb(0, 1, 0, 1, 1, 0)]
)
def test_pattern_letters_checked_in_field_order(kind):
    letters = list(dataclasses.astuple(kind))
    for p in range(len(letters)):
        bad = type(kind)(*letters[:p], *range(2 + p, 2 + len(letters)))
        with pytest.raises(AlphabetError, match=f"^letter {2 + p} outside .* size 2$"):
            canonical_pattern(bad, 1, 2)


# -- first-move maps -------------------------------------------------------------


def test_identity_map_is_valid():
    rng = random.Random(3)
    for _ in range(25):
        nodes = {random_word(rng, 3) for _ in range(rng.randint(1, 6))}
        fmm = FirstMoveMap(tuple((w, w) for w in nodes))
        assert check_first_move_map(fmm).valid


def test_prefix_map_is_valid():
    rng = random.Random(4)
    shift = Word(2, (1,))
    for _ in range(25):
        nodes = {random_word(rng, 2) for _ in range(rng.randint(1, 6))}
        fmm = FirstMoveMap(tuple((w, concat(shift, w)) for w in nodes))
        assert check_first_move_map(fmm).valid


def test_swap_map_breaks_incidences():
    fmm = FirstMoveMap(((W2(0), W2(1)), (W2(1), W2(0))))
    got = check_first_move_map(fmm)
    assert not got.valid
    assert got.condition == 3
    assert got.witness == (W2(0), W2(1))
    assert incidence(W2(0), W2(1)) == (0, 1)
    assert incidence(W2(1), W2(0)) == (1, 0)


def test_length_inversion_breaks_well_order():
    # meets and incidences survive but lengths flip between the two teeth
    fmm = FirstMoveMap(((W2(0), W2(0, 0)), (W2(1, 1), W2(1))))
    got = check_first_move_map(fmm)
    assert not got.valid
    assert got.condition == 2


def test_meet_conflict_reports_condition_one():
    # (00) and (01) force image of (0); (00) and (011) force a different one
    fmm = FirstMoveMap(
        (
            (W2(0, 0), W2(0, 0)),
            (W2(0, 1), W2(0, 1)),
            (W2(1), W2(0, 1, 1)),
        )
    )
    got = check_first_move_map(fmm)
    assert not got.valid
    assert got.condition == 1


def test_non_injective_extension_reports_condition_one():
    # The forced image of the root, the meet of (0) and (1), is () again,
    # which (0) already maps to; no pair witnesses the merge.
    fmm = FirstMoveMap(((W2(0), W2()), (W2(1), W2(1))))
    assert check_first_move_map(fmm) == FirstMoveCheck(False, 1, None)


def test_non_bijective_map_rejected():
    with pytest.raises(ValueError):
        FirstMoveMap(((W2(0), W2(1)), (W2(1), W2(1))))


def test_map_across_alphabets_rejected():
    pairs = ((W2(0), Word(3, (0,))), (W2(1), Word(3, (1,))))
    with pytest.raises(AlphabetError, match="^alphabet mismatch: 3 vs 2$"):
        FirstMoveMap(pairs)


def test_valid_extension_covers_closures():
    pattern = canonical_pattern(Comb(0, 1), 3, 2)
    shifted = tuple(concat(W2(1), t) for t in pattern)
    got = check_first_move_map(FirstMoveMap(tuple(zip(pattern, shifted))))
    assert got.valid
    assert set(got.extension) == {meet(a, b) for a in pattern for b in pattern}


def test_composition_and_inverse_stay_valid():
    rng = random.Random(5)
    for _ in range(20):
        nodes = sorted(
            {random_word(rng, 2) for _ in range(rng.randint(2, 6))},
            key=well_order_key,
        )
        first = {w: concat(W2(1), w) for w in nodes}
        second = {v: concat(W2(0, 1), v) for v in first.values()}
        composed = FirstMoveMap(tuple((w, second[first[w]]) for w in nodes))
        assert check_first_move_map(composed).valid
        inverse = FirstMoveMap(tuple((v, w) for w, v in first.items()))
        assert check_first_move_map(inverse).valid


@st.composite
def first_move_maps(draw):
    """A map w -> u.w, with every letter doubled or not, which is valid, and
    whether two of its targets were then swapped, which may break it."""
    m = draw(st.integers(2, 3))
    word = st.lists(st.integers(0, m - 1), max_size=4).map(lambda ls: Word(m, ls))
    nodes = draw(st.lists(word, min_size=1, max_size=5, unique=True))
    u = draw(word)
    double = draw(st.booleans())
    targets = [
        concat(u, Word(m, sum(((a, a) for a in w.letters), ())) if double else w)
        for w in nodes
    ]
    swapped = len(nodes) > 1 and draw(st.booleans())
    if swapped:
        a, b = draw(st.permutations(range(len(nodes))))[:2]
        targets[a], targets[b] = targets[b], targets[a]
    return FirstMoveMap(tuple(zip(nodes, targets))), swapped


@given(first_move_maps())
def test_valid_extension_is_the_two_meet_closures(case):
    # check_first_move_map relies on both identities and recomputes neither.
    fmm, swapped = case
    got = check_first_move_map(fmm)
    assert got.valid or swapped
    if got.valid:
        assert set(got.extension) == meet_closure(fmm.mapping)
        assert set(got.extension.values()) == meet_closure(fmm.mapping.values())


def _forced_extension(fmm: FirstMoveMap):
    """The meet-forced extension over the domain's meet closure, or None
    when forcing meets a conflict or the extension is not injective."""
    base = fmm.mapping
    ext = {}
    for s in base:
        for t in base:
            img = meet(base[s], base[t])
            if ext.setdefault(meet(s, t), img) != img:
                return None
    return ext if len(set(ext.values())) == len(ext) else None


def _random_map(rng: random.Random) -> FirstMoveMap:
    """Targets drawn at random, or through a prefix-wise letter relabelling
    under a random stem (which keeps meets), maybe with two swapped."""
    m = rng.randrange(2, 4)
    nodes = list({random_word(rng, m, 4) for _ in range(rng.randrange(2, 7))})
    if rng.random() < 0.3:
        targets = list({random_word(rng, m, 4) for _ in range(3 * len(nodes))})
        rng.shuffle(targets)
    else:
        stem, perms = random_word(rng, m, 2).letters, {}
        targets = []
        for w in nodes:
            image = list(stem)
            for k, a in enumerate(w.letters):
                perm = perms.setdefault(w.letters[:k], rng.sample(range(m), m))
                image += [perm[a]] * rng.choice((1, 1, 2))
            targets.append(Word(m, tuple(image)))
        if rng.random() < 0.5:
            a, b = rng.sample(range(len(nodes)), 2)
            targets[a], targets[b] = targets[b], targets[a]
    return FirstMoveMap(tuple(zip(nodes, targets[: len(nodes)])))


def test_forcing_and_injectivity_give_meets_on_the_closure():
    # check_first_move_map checks condition 1 only on pairs of the domain;
    # its comment proves that the whole closure then follows.
    rng = random.Random(2017)
    passed = 0
    for _ in range(4000):
        try:
            fmm = _random_map(rng)
        except ValueError:  # two targets coincide: not a bijection
            continue
        ext = _forced_extension(fmm)
        got = check_first_move_map(fmm)
        assert (ext is None) == (got.condition == 1)
        if ext is None:
            continue
        passed += 1
        for s in ext:
            for t in ext:
                assert ext[meet(s, t)] == meet(ext[s], ext[t])
        if got.valid:
            assert got.extension == ext
    assert passed > 1000


# -- pattern search --------------------------------------------------------------


def test_find_pattern_identity_case():
    pattern = canonical_pattern(Comb(0, 1), 3, 2)
    got = find_pattern(pattern, Comb(0, 1), 3, 2)
    assert got is not None
    assert got.nodes == pattern
    assert dict(got.map.pairs) == {t: t for t in pattern}


def test_find_pattern_accepts_stretched_comb():
    # same meets ordering, longer teeth: still the (0,1)-comb shape
    nodes = {W2(1), W2(0, 0, 1), W2(0, 0, 0, 1)}
    got = find_pattern(nodes, Comb(0, 1), 3, 2)
    assert got is not None
    assert check_first_move_map(got.map).valid


def test_find_pattern_rejects_well_order_flip():
    # meets and incidences look comb-like, but the closure elements (0) and
    # (1) compare the other way round after mapping, so this is no comb
    nodes = {W2(1), W2(0, 1, 1), W2(0, 0, 0, 1)}
    assert find_pattern(nodes, Comb(0, 1), 3, 2) is None


def test_find_pattern_refuses_nodes_over_another_alphabet():
    with pytest.raises(AlphabetError, match="^alphabet mismatch: 3 vs 2$"):
        find_pattern([Word(3, (2,))], Comb(0, 1), 1, 2)


def test_find_pattern_rejects_chain():
    chain = {W2(0), W2(0, 0), W2(0, 0, 0)}
    assert find_pattern(chain, Comb(0, 1), 3, 2) is None


def test_find_pattern_inside_larger_set():
    noise = {W2(0), W2(1, 1), W2(0, 1)}
    pattern = set(canonical_pattern(Comb(0, 1), 2, 2))
    got = find_pattern(noise | pattern, Comb(0, 1), 2, 2)
    assert got is not None
    assert check_first_move_map(got.map).valid
    assert set(got.nodes) <= noise | pattern


def test_found_subsets_always_revalidate():
    rng = random.Random(6)
    kinds = [Comb(0, 1), Comb(1, 0), Comb(0, 0), DoubleComb(0, 1, 1, 0)]
    for _ in range(40):
        nodes = {random_word(rng, 2, 6) for _ in range(rng.randint(3, 9))}
        kind = rng.choice(kinds)
        got = find_pattern(nodes, kind, 2, 2)
        if got is not None:
            assert set(got.nodes) <= nodes
            assert check_first_move_map(got.map).valid


def _counted(calls, check):
    """check, appending each map it is given to calls."""

    def run(fmm):
        calls.append(fmm)
        return check(fmm)

    return run


def test_miss_among_short_words_prunes_growing_tuples(monkeypatch):
    # No (0,1,0,1)-double comb of size 2 lies among the 63 binary words of
    # length at most 5.  Tuples grow only while they match the prototype's
    # first teeth, so the search checks far fewer maps than the C(63, 4)
    # candidate tuples.
    pool = [W2(*ls) for n in range(6) for ls in itertools.product(range(2), repeat=n)]
    calls = []
    monkeypatch.setattr(
        patterns, "check_first_move_map", _counted(calls, check_first_move_map)
    )
    assert find_pattern(pool, DoubleComb(0, 1, 0, 1), 2, 2) is None
    assert len(calls) < math.comb(63, 4) // 20


# -- agreement with the unpruned rule ----------------------------------------------


def _perturbed(rng: random.Random, w: Word) -> Word:
    """w with one letter appended, dropped or changed."""
    letters = list(w.letters)
    op = rng.randrange(3)
    if op == 0 or not letters:
        letters.append(rng.randrange(w.m))
    elif op == 1:
        del letters[rng.randrange(len(letters))]
    else:
        letters[rng.randrange(len(letters))] = rng.randrange(w.m)
    return Word(w.m, tuple(letters))


def _oracle_map(rng: random.Random) -> FirstMoveMap:
    """2 to 6 nodes over 2 or 3 letters, mapped to a shifted copy with one
    target perturbed, or to random words.  Raises ValueError when two
    targets coincide."""
    m, count = rng.randint(2, 3), rng.randint(2, 6)
    nodes = set()
    while len(nodes) < count:
        nodes.add(random_word(rng, m, 4))
    if rng.random() < 0.6:
        shift = random_word(rng, m, 2)
        targets = [concat(shift, w) for w in nodes]
        k = rng.randrange(count)
        targets[k] = _perturbed(rng, targets[k])
    else:
        targets = [random_word(rng, m, 5) for _ in nodes]
    return FirstMoveMap(tuple(zip(nodes, targets)))


def test_check_matches_unpruned_oracle():
    # The oracle checks condition 3 on every pair of the meet closure, in
    # both orientations; the check must give the same condition, witness
    # and extension from the domain's pairs alone.
    rng = random.Random(21)
    outcomes = collections.Counter()
    while sum(outcomes.values()) < 10_000:
        try:
            fmm = _oracle_map(rng)
        except ValueError:
            continue
        got = check_first_move_map(fmm)
        assert got == first_move_oracle(fmm), fmm
        outcomes[got.condition] += 1
    assert set(outcomes) == {None, 1, 2, 3}


def _random_kind(rng: random.Random, m: int):
    kind = rng.choice((Comb, DoubleComb, SplitDoubleComb))
    if kind is SplitDoubleComb:
        u, v = rng.sample(range(m), 2)
        return kind(u, v, *(rng.randrange(m) for _ in range(4)))
    return kind(*(rng.randrange(m) for _ in range(2 if kind is Comb else 4)))


def test_find_pattern_matches_unpruned_oracle():
    # The oracle screens every C(pool, k) tuple pairwise, then checks it;
    # the pruned search must return the same first match.  A planted
    # shifted prototype always matches.
    rng = random.Random(5)
    seen = set()
    for _ in range(600):
        m = rng.randint(2, 3)
        kind, size = _random_kind(rng, m), rng.randint(1, 3)
        pool = {random_word(rng, m, 5) for _ in range(rng.randint(2, 8))}
        planted = rng.random() < 0.5
        if planted:
            shift = random_word(rng, m, 2)
            pool |= {concat(shift, t) for t in canonical_pattern(kind, size, m)}
        got = find_pattern(pool, kind, size, m)
        assert got == find_pattern_oracle(pool, kind, size, m), (pool, kind, size)
        seen.add((type(kind), planted, got is not None))
    outcomes = ((False, False), (False, True), (True, True))
    kinds = (Comb, DoubleComb, SplitDoubleComb)
    assert seen == {(k, planted, hit) for k in kinds for planted, hit in outcomes}


# -- subtree embeddings ----------------------------------------------------------


def test_subtree_embedding_examples():
    t = W2(0, 1)
    assert concat(W2(), t) == t
    assert concat(W2(1), t) == W2(1, 0, 1)
    nodes = (W2(0), W2(1), W2(0, 0))
    fmm = FirstMoveMap(tuple((w, concat(W2(1), w)) for w in nodes))
    assert check_first_move_map(fmm).valid


def test_subtree_embedding_on_branch():
    x = Branch(2, (), (0,))
    assert concat(W2(1), x) == Branch(2, (1,), (0,))


# -- comb generators -------------------------------------------------------------


def test_comb_nodes_splitting_example():
    gen = CombGenerator(Branch(2, (), (0,)), 0, 1, (0, 1, 2))
    assert comb_nodes(gen) == (W2(1), W2(0, 1), W2(0, 0, 1))


def test_comb_nodes_diagonal_example():
    gen = CombGenerator(Branch(2, (), (0,)), 0, 0, (1, 2))
    assert comb_nodes(gen) == (W2(0), W2(0, 0))


def test_generator_requires_matching_letters():
    with pytest.raises(GeneratorError):
        CombGenerator(Branch(2, (), (1,)), 0, 1, (0,))
    with pytest.raises(GeneratorError):
        CombGenerator(Branch(2, (), (0,)), 0, 1, (1, 1))


def test_generator_exhaustion():
    x = Branch(2, (0,), (1,))  # letter 0 appears once, in the stem
    for count in (1, 2):
        with pytest.raises(GeneratorExhaustedError, match="recurs only finitely"):
            CombGenerator.over(x, 0, 1, count)


def test_teeth_continue_past_the_listed_depths():
    x = Branch(2, (1, 0), (1, 0, 1))  # reads 0 at depth 1, then 3, 6, 9, ...
    gen = CombGenerator(x, 0, 1, (1,))
    assert list(itertools.islice(gen.teeth(), 5)) == [1, 3, 6, 9, 12]
    assert CombGenerator.over(x, 0, 1, 5).depths == (1, 3, 6, 9, 12)
    # A letter absent from the period would run out in the stem.
    with pytest.raises(GeneratorExhaustedError, match="recurs only finitely"):
        CombGenerator(Branch(2, (0, 1, 0), (1,)), 0, 1, (0,))


def test_teeth_match_the_letter_scan():
    rng = random.Random(18)
    for _ in range(300):
        x = random_branch(rng, rng.randint(1, 3), max_len=6, max_period=4)
        i, j = rng.randrange(x.m), rng.randrange(x.m)
        reads = [d for d in range(60) if x.letter(d) == i]
        if not reads:
            continue
        listed = tuple(sorted(rng.sample(reads, rng.randint(1, min(3, len(reads))))))
        if i not in x.period:  # the teeth would run out in the stem
            assert reads[-1] < len(x.stem)
            with pytest.raises(GeneratorExhaustedError):
                CombGenerator.over(x, i, j, len(reads))
            with pytest.raises(GeneratorExhaustedError):
                CombGenerator(x, i, j, listed)
            continue
        assert CombGenerator.over(x, i, j, len(reads)).depths == tuple(reads)
        want = list(listed) + [d for d in reads if d > listed[-1]]
        teeth = CombGenerator(x, i, j, listed).teeth()
        assert list(itertools.islice(teeth, len(want))) == want


def test_comb_nodes_meet_and_incidence_facts():
    rng = random.Random(8)
    for _ in range(60):
        m = rng.randint(2, 4)
        stem = tuple(rng.randrange(m) for _ in range(rng.randint(0, 3)))
        period = tuple(rng.randrange(m) for _ in range(rng.randint(1, 3)))
        x = Branch(m, stem, period)
        i = rng.choice(sorted(set(period)))
        j = rng.randrange(m)
        gen = CombGenerator.over(x, i, j, rng.randint(1, 4))
        teeth = comb_nodes(gen)
        for d, tooth in zip(gen.depths, teeth):
            assert incidence(x, tooth) == (i, j)
            assert len(meet(x, tooth)) == d
    # teeth at the prototype's own spacing form the pattern; consecutive
    # depths do not, because the closure interleaves differently under the
    # well order ((0) sorts before tooth (1), unlike the prototype's (0,0))
    spaced = CombGenerator(Branch(2, (), (0,)), 0, 1, (0, 2, 4))
    assert comb_nodes(spaced) == canonical_pattern(Comb(0, 1), 3, 2)
    assert find_pattern(comb_nodes(spaced), Comb(0, 1), 3, 2) is not None
    packed = CombGenerator(Branch(2, (), (0,)), 0, 1, (0, 1, 2))
    assert find_pattern(comb_nodes(packed), Comb(0, 1), 3, 2) is None
