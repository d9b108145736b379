"""Dense types, their induced colourings, and reduction maps."""

import itertools
import json
import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from madic import dense_types, reductions
from madic.cli import render_type_table
from madic.dense_types import (
    DenseType,
    TypeError_,
    canonical_form,
    concrete_alphabet,
    enumerate_types,
    partition_from_type,
    permute_type,
    validate_type,
)
from madic.patterns import CombGenerator, comb_nodes
from madic.reductions import (
    ReductionData,
    ReductionError,
    apply_reduction,
    check_reduces,
    induced_branch_map,
    induced_word_map,
    restrict_colors,
    search_reduction,
)
from madic.spaces import PartitionTable, classify_subspaces
from madic.words import AlphabetError, Branch, Word, incidence, is_prefix, meet

from conftest import (
    apply_reduction_oracle,
    burnside_count,
    canonical_oracle,
    compositions,
    expand,
    place_oracle,
    random_branch,
    random_table,
    random_word,
    range_types,
    relabelled_encoding,
    restrict_colors_oracle,
    search_oracle,
)

GOLDEN = Path(__file__).parent / "golden"


@st.composite
def valid_types(draw, max_n=6):
    """A valid dense type on at most max_n colours, in general not the least
    relabelling: roles on scattered colours, arbitrary block pairings, B
    colours first appearing in psi out of order, unsorted gamma values, and
    E colours hit more than twice.  Two E colours hit unequally often need
    eight colours; test_linked_colours_by_descending_preimages has them."""
    n = draw(st.integers(2, max_n))
    colours = draw(st.permutations(range(n)))
    # With A empty every colour lies in a paired block; psi on two or more
    # A colours needs a B colour to take.
    a = draw(st.integers(0 if n % 2 == 0 else 1, n - 1))
    b = draw(st.integers(1 if a >= 2 else 0, min(n - a, a * (a - 1))))
    rest = n - a - b
    e = draw(st.integers(0, rest // 3)) if a else 0
    d = draw(st.integers(2 * e, rest - e)) if b + e else 0
    bounds = list(itertools.accumulate((a, b, rest - d - e, d, e), initial=0))
    A, B, C, D, E = (colours[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
    pairs = draw(st.permutations(list(itertools.permutations(A, 2))))
    psi = [
        (i, j, B[k] if k < len(B) else draw(st.sampled_from(B)))
        for k, (i, j) in enumerate(pairs)
    ]
    blocks, items = [], list(C)
    while items:
        if len(items) >= 2 and (not A or draw(st.booleans())):
            blocks.append((items.pop(), items.pop(0)))
        else:
            blocks.append((items.pop(),))
    # Each E colour takes two preimages, then the rest fall anywhere.
    targets = list(B) + list(E)
    gamma = [
        (dd, E[k // 2] if k < 2 * len(E) else draw(st.sampled_from(targets)))
        for k, dd in enumerate(draw(st.permutations(D)))
    ]
    return DenseType(n, A, B, C, D, E, psi, blocks, gamma)


P20 = PartitionTable.dense(2, 2, ((0, 1), (0, 0)))
P21 = PartitionTable.dense(2, 2, ((0, 1), (1, 1)))

# The two-letter type with two free colours and one shared orientation
# colour: its table colours both orders of the pair alike.
T32 = DenseType(
    3,
    A=(0, 1),
    B=(2,),
    C=(),
    D=(),
    E=(),
    psi=((0, 1, 2), (1, 0, 2)),
    blocks=(),
    gamma=(),
)


def dt(n, a=(), b=(), c=(), d=(), e=(), psi=(), blocks=(), gamma=()):
    return DenseType(n, a, b, c, d, e, psi, blocks, gamma)


IDENTITY2 = ReductionData((Word(2, (0,)), Word(2, (1,))), Word(2, ()))
BLOCK2 = ReductionData((Word(2, (0, 0)), Word(2, (0, 1))), Word(2, (0,)))


def _tuples(m: int, k: int):
    import itertools

    return itertools.product(range(m), repeat=k)


# -- type validation -----------------------------------------------------------


class TestValidateType:
    def test_paired_block_type_is_valid(self):
        t = dt(2, c=(0, 1), blocks=((0, 1),))
        assert validate_type(t) == []

    def test_empty_a_needs_paired_blocks(self):
        t = dt(2, c=(0, 1), blocks=((0,), (1,)))
        problems = validate_type(t)
        assert any("cardinality 2" in p or "two colours" in p for p in problems)

    def test_linked_colour_needs_two_preimages(self):
        t = dt(4, a=(0,), c=(2,), d=(1,), e=(3,), blocks=((2,),), gamma=((1, 3),))
        problems = validate_type(t)
        assert problems == ["colour 3 in E needs at least two gamma preimages"]

    def test_roles_must_partition(self):
        t = dt(2, a=(0,), c=(0, 1), blocks=((0, 1),))
        assert validate_type(t)

    def test_psi_domain_must_match_pairs(self):
        t = dt(3, a=(0, 1), b=(2,), psi=((0, 1, 2),))
        problems = validate_type(t)
        assert any("ordered pairs" in p for p in problems)

    def test_psi_must_cover_b(self):
        t = dt(
            4,
            a=(0, 1),
            b=(2, 3),
            psi=((0, 1, 2), (1, 0, 2)),
        )
        problems = validate_type(t)
        assert any("surjective" in p for p in problems)

    def test_empty_a_forbids_linked_colours(self):
        t = dt(3, c=(0, 1), d=(2,), blocks=((0, 1),), gamma=((2, 0),))
        problems = validate_type(t)
        assert any("must be empty" in p for p in problems)

    @pytest.mark.parametrize(
        "t, problems",
        [
            (
                dt(3, a=(0,), c=(1, 2), blocks=((1, 1), (2,))),
                [
                    "block (1, 1) must have one or two distinct colours",
                    "blocks must partition C",
                ],
            ),
            (
                dt(4, a=(0,), c=(1, 2, 3), blocks=((1, 2), (2, 3))),
                ["block (2, 3) overlaps another block"],
            ),
            (dt(3, a=(0,), c=(1, 2), blocks=((1,),)), ["blocks must partition C"]),
            (dt(2, a=(0,), d=(1,)), ["gamma must be defined on exactly D"]),
        ],
    )
    def test_block_and_gamma_messages(self, t, problems):
        assert validate_type(t) == problems
        for build in (canonical_form, partition_from_type):
            with pytest.raises(TypeError_, match="^" + re.escape("; ".join(problems)) + "$"):
                build(t)

    @pytest.mark.parametrize(
        "t, problem",
        [
            (
                dt(4, a=(0, 1), b=(2, 3), psi=((0, 1, 2), (0, 1, 3), (1, 0, 2))),
                "each ordered pair of A needs exactly one psi value",
            ),
            (
                dt(4, a=(0,), d=(1, 2), e=(3,), gamma=((1, 3), (2, 3), (1, 3))),
                "each colour of D needs exactly one gamma value",
            ),
        ],
        ids=["psi-pair-twice", "gamma-colour-twice"],
    )
    def test_entries_listed_twice(self, t, problem):
        # The maps would keep one of the two values without notice.
        assert validate_type(t) == [problem]
        for build in (canonical_form, partition_from_type):
            with pytest.raises(TypeError_, match=problem):
                build(t)

    def test_partition_from_invalid_type_raises(self):
        with pytest.raises(TypeError_):
            partition_from_type(dt(2, c=(0, 1), blocks=((0,), (1,))))


# -- enumeration ----------------------------------------------------------------


class TestEnumerateTypes:
    @pytest.mark.parametrize("n, count", [(2, 2), (3, 3), (4, 8), (5, 23), (6, 184)])
    def test_counts_match_burnside(self, n, count):
        assert burnside_count(n) == count
        assert len(enumerate_types(n)) == count

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_compositions_are_those_with_types(self, n):
        walked = list(dense_types._compositions(n))
        assert len(walked) == len(set(walked))
        assert set(walked) == {s for s in compositions(n) if range_types(s)}

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_one_canonical_check_per_type(self, n, monkeypatch):
        # A work count that does not depend on machine speed: canonical_form
        # sees each candidate that passes the psi screen once, and keeps it
        # exactly when it returns the candidate itself.
        calls = []
        real = dense_types.canonical_form

        def counted(t):
            calls.append((t, real(t)))
            return calls[-1][1]

        monkeypatch.setattr(dense_types, "canonical_form", counted)
        types = enumerate_types(n)
        assert len(calls) == {4: 8, 5: 24, 6: 190}[n]
        assert sorted(t for t, least in calls if least == t) == list(types)
        assert {least for _, least in calls} == set(types)
        if n == 5:
            # Swapping A fixes psi but relabels B, which lowers gamma.
            tied = dt(5, a=(0, 1), b=(2, 3), d=(4,),
                      psi=((0, 1, 2), (1, 0, 3)), gamma=((4, 3),))
            assert [t for t, least in calls if least != t] == [tied]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_psi_screen_only_prunes(self, n, monkeypatch):
        # With every psi that takes B in first-appearance order, and no
        # screen by the orders of A, canonical_form alone gives the
        # recorded catalogue.
        if n == 5:
            doc = json.loads((GOLDEN / "enumerate_n5.json").read_text())
            rows = [entry["type"] for entry in doc["types"]]
        else:
            rows = json.loads((GOLDEN / f"types_n{n}.json").read_text())["rows"]
        recorded = sorted({canonical_form(DenseType(**row)) for row in rows})
        assert len(recorded) == len(rows)

        def every_psi(A, B):
            pairs = list(itertools.permutations(A, 2))
            for values in itertools.product(B, repeat=len(pairs)):
                if tuple(dict.fromkeys(values)) == B:
                    yield tuple((i, j, v) for (i, j), v in zip(pairs, values))

        if n == 5:
            # a = 3, b = 2 is the first split where the screen drops a psi.
            A, B = (0, 1, 2), (3, 4)
            assert len(list(dense_types._least_psis(A, B))) < len(
                list(every_psi(A, B))
            )
        monkeypatch.setattr(dense_types, "_least_psis", every_psi)
        assert enumerate_types(n) == tuple(recorded)

    def test_rejects_degenerate_counts(self):
        with pytest.raises(TypeError_):
            enumerate_types(1)
        with pytest.raises(TypeError_):
            enumerate_types(0)

    def test_members_are_valid_and_canonical(self):
        for n in (2, 3, 4):
            for t in enumerate_types(n):
                assert validate_type(t) == []
                assert canonical_form(t) == t

    def test_members_pairwise_inequivalent(self):
        for n in (2, 3, 4):
            types = enumerate_types(n)
            for s, t in itertools.combinations(types, 2):
                assert all(
                    permute_type(s, pi) != t
                    for pi in itertools.permutations(range(n))
                )

    def test_output_sorted_and_deterministic(self):
        types = enumerate_types(3)
        assert list(types) == sorted(types)
        assert enumerate_types(3) == types

    def test_order_is_the_relabelled_encoding(self):
        # Random relabellings of the catalogue are not canonical, so their
        # order is not the catalogue's own.
        rng = random.Random(5)
        types = [
            permute_type(t, rng.sample(range(n), n))
            for n in (2, 3, 4, 5)
            for t in enumerate_types(n)
            for _ in range(3)
        ]
        rng.shuffle(types)
        pairs = [(relabelled_encoding(t, range(t.n)), t) for t in types]
        assert sorted(types) == [t for _, t in sorted(pairs)]
        for (ks, s), (kt, t) in zip(pairs, pairs[1:]):
            assert (s < t) == (ks < kt) and (s == t) == (ks == kt)

    def test_roles_normalise_to_sorted_tuples(self):
        rows = [
            (frozenset({0, 1}), frozenset({2}), frozenset({3, 4})),
            ([1, 0], [2], [4, 3]),
            ((1, 0, 1), (2, 2), (3, 4, 3)),
        ]
        types = [
            DenseType(5, a, b, (), (), c, ((1, 0, 2), (0, 1, 2)), (), ())
            for a, b, c in rows
        ]
        assert types[0].A == (0, 1) and types[0].E == (3, 4)
        assert all(t == types[0] for t in types)
        assert len({hash(t) for t in types}) == 1

    def test_two_colour_tables_are_the_known_pair(self):
        tables = {partition_from_type(t)[1].values for t in enumerate_types(2)}
        assert tables == {P20.values, P21.values}


class TestCanonicalFormOracle:
    """canonical_form against the scan of all n! relabellings."""

    @staticmethod
    def check_relabellings(t, rng, count=4):
        want = canonical_oracle(t)
        assert canonical_form(t) == want
        for _ in range(count):
            pi = list(range(t.n))
            rng.shuffle(pi)
            assert canonical_form(permute_type(t, pi)) == want

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_relabelled_catalogue_types(self, n):
        rng = random.Random(n)
        for t in enumerate_types(n):
            assert canonical_oracle(t) == t
            self.check_relabellings(t, rng)

    def test_golden_rows(self):
        # The recorded n <= 4 rows are not least relabellings themselves.
        rng = random.Random(7)
        rows = []
        for n in (2, 3, 4):
            doc = json.loads((GOLDEN / f"types_n{n}.json").read_text())
            rows += doc["rows"]
        doc = json.loads((GOLDEN / "enumerate_n5.json").read_text())
        rows += [entry["type"] for entry in doc["types"]]
        for row in rows:
            self.check_relabellings(DenseType(**row), rng, 2)

    def test_six_colours(self):
        types = enumerate_types(6)
        assert len(types) == 184
        assert len(set(types)) == 184
        rng = random.Random(6)
        for t in types:
            assert canonical_oracle(t) == t
            for _ in range(4):
                pi = rng.sample(range(6), 6)
                assert canonical_form(permute_type(t, pi)) == t
        expected = (GOLDEN / "enumerate_n6.txt").read_text()
        assert render_type_table(6, types) == expected

    def test_every_range_type(self):
        # Each valid type with roles on consecutive ranges, n <= 5: the
        # candidates of every closed form, least or not.
        rng = random.Random(11)
        for n in (2, 3, 4, 5):
            for sizes in compositions(n):
                for t in range_types(sizes):
                    self.check_relabellings(t, rng, 2)

    def test_linked_colours_by_descending_preimages(self):
        # E colour 7 has three gamma preimages and 6 has two, so 7 becomes 6.
        t = dt(8, a=(0,), d=(1, 2, 3, 4, 5), e=(6, 7),
               gamma=((1, 7), (2, 7), (3, 6), (4, 6), (5, 7)))
        want = dt(8, a=(0,), d=(1, 2, 3, 4, 5), e=(6, 7),
                  gamma=((1, 6), (2, 6), (3, 6), (4, 7), (5, 7)))
        rng = random.Random(8)
        for _ in range(5):
            pi = list(range(8))
            rng.shuffle(pi)
            assert canonical_form(permute_type(t, pi)) == want

    @pytest.mark.parametrize(
        "t",
        [
            dt(3, a=(0, 1), b=(2,), psi=((0, 1, 2),)),
            dt(4, a=(0,), c=(2,), d=(1,), e=(3,), blocks=((2,),), gamma=((1, 3),)),
            dt(2, c=(0, 1), blocks=((0,), (1,))),
            dt(3, a=(0, 1), b=(2,), psi=((0, 1, 2), (1, 0, 0))),
        ],
        ids=["psi-missing-pair", "e-one-preimage", "single-blocks", "psi-outside-b"],
    )
    def test_invalid_type_raises(self, t):
        with pytest.raises(TypeError_):
            canonical_form(t)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_types_outside_the_catalogue(self, data):
        t = data.draw(valid_types())
        assert validate_type(t) == []
        pi = data.draw(st.permutations(range(t.n)))
        assert canonical_form(permute_type(t, pi)) == canonical_oracle(t)


# -- induced colourings -----------------------------------------------------------


class TestPartitionFromType:
    def test_block_pair_type_gives_ascending_split(self):
        t = dt(2, c=(0, 1), blocks=((0, 1),))
        alph, table = partition_from_type(t)
        assert table.values == ((0, 1), (0, 0))
        assert alph.sigma == (0, 0)
        assert alph.tau == (None, 1)

    def test_free_plus_singleton_block(self):
        t = dt(2, a=(0,), c=(1,), blocks=((1,),))
        _, table = partition_from_type(t)
        assert table.values == ((0, 1), (1, 1))

    def test_two_free_letters_share_orientation_colour(self):
        _, table = partition_from_type(T32)
        assert table.m == 2
        assert table.values == ((0, 2), (2, 1))

    def test_diagonal_is_sigma(self):
        for n in (2, 3, 4):
            for t in enumerate_types(n):
                alph, table = partition_from_type(t)
                for i in range(table.m):
                    assert table.color(i, i) == alph.sigma[i]

    def test_surjective_with_n_classes(self):
        for n in (2, 3, 4):
            for t in enumerate_types(n):
                _, table = partition_from_type(t)
                assert table.n == n
                assert table.colors == tuple(range(n))

    def test_paired_blocks_force_split_subspace(self):
        for n in (2, 3, 4):
            for t in enumerate_types(n):
                if any(len(b) == 2 for b in t.blocks):
                    _, table = partition_from_type(t)
                    assert classify_subspaces(table).contains_split

    def test_alphabet_order_free_blocks_linked(self):
        t = dt(
            5,
            a=(0, 1),
            b=(2,),
            c=(3,),
            d=(4,),
            psi=((0, 1, 2), (1, 0, 2)),
            blocks=((3,),),
            gamma=((4, 2),),
        )
        alph, _ = partition_from_type(t)
        assert alph.sigma == (0, 1, 3, 4)
        assert alph.tau == (None, None, 3, 2)


# -- reduction data and application ------------------------------------------------


class TestApplyReduction:
    def test_identity_blocks(self):
        eps = apply_reduction(IDENTITY2)
        assert eps == (((0, 0), (0, 1)), ((1, 0), (1, 1)))

    def test_length_two_blocks(self):
        eps = apply_reduction(BLOCK2)
        assert eps == (((0, 0), (0, 1)), ((1, 0), (1, 1)))

    def test_anchor_below_block_reads_diagonal(self):
        r = ReductionData((Word(3, (2, 1)),), Word(3, (2,)))
        assert apply_reduction(r) == (((1, 1),),)

    def test_matches_incidence_oracle(self):
        # The closed form against one incidence call per entry, on 2,400
        # random embeddings with m1 in 2..5 and k in 1..6; anchors take
        # every length below k, and every third is a prefix of a letter word.
        rng = random.Random(20)
        shapes, prefixes = set(), 0
        for trial in range(2400):
            m1, k = rng.randint(2, 5), rng.randint(1, 6)
            m0 = rng.randint(1, min(5, m1**k))
            e = tuple(Word(m1, _digits(c, m1, k)) for c in rng.sample(range(m1**k), m0))
            length = rng.randrange(k)
            if trial % 3 == 0:
                x = e[rng.randrange(m0)].prefix(length)
            else:
                x = Word(m1, tuple(rng.randrange(m1) for _ in range(length)))
            r = ReductionData(e, x)
            assert apply_reduction(r) == apply_reduction_oracle(r)
            shapes.add((k, length))
            prefixes += any(is_prefix(x, w) for w in e)
        assert shapes == {(k, n) for k in range(1, 7) for n in range(k)}
        assert prefixes >= 800

    def test_rejects_duplicate_words(self):
        with pytest.raises(ReductionError):
            ReductionData((Word(2, (0,)), Word(2, (0,))), Word(2, ()))

    def test_rejects_mixed_lengths(self):
        with pytest.raises(ReductionError):
            ReductionData((Word(2, (0,)), Word(2, (0, 1))), Word(2, ()))

    def test_rejects_long_anchor(self):
        with pytest.raises(ReductionError):
            ReductionData((Word(2, (0,)),), Word(2, (1,)))

    def test_rejects_alphabet_mismatch(self):
        with pytest.raises(AlphabetError, match="^alphabet mismatch: 3 vs 2$"):
            ReductionData((Word(2, (0,)), Word(3, (1,))), Word(2, ()))
        with pytest.raises(AlphabetError, match="^alphabet mismatch: 3 vs 2$"):
            ReductionData((Word(2, (0, 1)),), Word(3, (0,)))

    def test_rejects_empty_data(self):
        with pytest.raises(ReductionError):
            ReductionData((), Word(2, ()))
        with pytest.raises(ReductionError):
            ReductionData((Word(2, ()),), Word(2, ()))


class TestCheckReduces:
    def test_identity_reduces_table_to_itself(self):
        assert check_reduces(P20, P20, IDENTITY2)
        assert check_reduces(P21, P21, IDENTITY2)

    def test_different_tables_fail_under_identity(self):
        assert not check_reduces(P20, P21, IDENTITY2)

    def test_shape_mismatch_raises(self):
        one = PartitionTable.dense(1, 1, ((0,),))
        with pytest.raises(ReductionError):
            check_reduces(one, P20, IDENTITY2)
        with pytest.raises(ReductionError):
            check_reduces(P20, PartitionTable.dense(3, 1, ((0,) * 3,) * 3), IDENTITY2)

    def test_pulled_back_tables_verify_and_shrink(self):
        # Composing any table with any embedding yields a verifying pair
        # whose colour count never grows.
        rng = random.Random(31)
        from conftest import random_table

        for _ in range(40):
            m1 = rng.randrange(2, 4)
            g = random_table(rng, m1, rng.randrange(1, 4))
            k = rng.randrange(1, 3)
            pool = [Word(m1, ls) for ls in _tuples(m1, k)]
            words = rng.sample(pool, rng.randrange(1, min(4, len(pool) + 1)))
            x = Word(m1, tuple(rng.randrange(m1) for _ in range(rng.randrange(k))))
            r = ReductionData(tuple(words), x)
            eps = apply_reduction(r)
            values = tuple(
                tuple(g.color(*eps[u][v]) for v in range(r.m0))
                for u in range(r.m0)
            )
            f = PartitionTable(r.m0, values)
            assert check_reduces(f, g, r)
            assert f.n <= g.n

    def test_restriction_outputs_verify(self):
        for n0 in (1,):
            res = restrict_colors(P20, n0)
            assert check_reduces(res.table, P20, res.reduction)


class TestSearchReduction:
    def test_table_reduces_to_itself_at_one(self):
        found = search_reduction(P20, P20, 1)
        assert found is not None and found.k == 1
        assert check_reduces(P20, P20, found)

    def test_constant_never_reduces_to_asymmetric(self):
        # The constant colouring needs one colour on a mirror pair of cells,
        # which a table colouring every pair of orders apart cannot offer.
        f = PartitionTable.dense(2, 1, ((0, 0), (0, 0)))
        g = PartitionTable.dense(2, 3, ((0, 1), (2, 0)))
        assert search_reduction(f, g, 5) is None

    def test_missing_colours_fail_fast(self):
        f = PartitionTable(2, ((7, 7), (7, 7)))
        assert search_reduction(f, P20, 3) is None

    def test_restriction_witness_is_findable(self):
        _, table = partition_from_type(T32)
        res = restrict_colors(table, 2)
        found = search_reduction(res.table, table, 3)
        assert found is not None
        assert check_reduces(res.table, table, found)

    def test_found_results_always_verify(self):
        tables = [partition_from_type(t)[1] for t in enumerate_types(2)]
        tables += [partition_from_type(t)[1] for t in enumerate_types(3)]
        for f in tables:
            for g in tables:
                found = search_reduction(f, g, 2)
                if found is not None:
                    assert check_reduces(f, g, found)

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ReductionError):
            search_reduction(P20, P20, 0)

    def test_transitivity_witness_at_desk_scale(self):
        g = PartitionTable.dense(2, 3, ((0, 1), (2, 0)))
        step1 = restrict_colors(g, 2)
        step2 = restrict_colors(step1.table, 1)
        assert check_reduces(step2.table, g, _compose_search(step2.table, g))

    def test_matches_unmemoised_search(self):
        # Same witness (the first in search order) or None in both, on
        # 1,300 random pairs; some f use a colour g lacks.
        rng = random.Random(2024)
        for _ in range(1000):
            m1 = rng.randint(1, 4)
            n1 = rng.randint(1, min(4, m1 * m1))
            max_k = rng.randint(1, 3)
            m0 = rng.randint(1, 3)
            if (m1, max_k, m0) == (4, 3, 3) and rng.random() < 0.8:
                m0 = 2  # the oracle takes about 0.5 s on each of these
            f = random_table(rng, m0, rng.randint(1, min(n1 + 1, m0 * m0)))
            g = random_table(rng, m1, n1)
            assert search_reduction(f, g, max_k) == search_oracle(f, g, max_k)
        # m1 = 5, where the candidate order runs over the widest alphabet; the
        # oracle stays fast with m0 <= 2 and max_k <= 2.
        for _ in range(300):
            m0, max_k = rng.randint(1, 2), rng.randint(1, 2)
            g = random_table(rng, 5, rng.randint(1, 6))
            f = random_table(rng, m0, rng.randint(1, min(g.n + 1, m0 * m0)))
            assert search_reduction(f, g, max_k) == search_oracle(f, g, max_k)

    def test_place_matches_all_form(self, monkeypatch):
        # The plain loop and the all() form it replaced return the same
        # indices after the same first-move reads, anchor by anchor.
        rng = random.Random(3200)
        calls = [0]
        real = reductions._first_moves

        def counted(a, b):
            calls[0] += 1
            return real(a, b)

        def run(place, words, diag, f, g):
            calls[0] = 0
            return place(0, [], words, diag, f.values, g.values), calls[0]

        monkeypatch.setattr(reductions, "_first_moves", counted)
        hits = 0
        for _ in range(1000):
            m1, k, m0 = rng.randint(1, 5), rng.randint(1, 3), rng.randint(1, 3)
            g = random_table(rng, m1, rng.randint(1, min(4, m1 * m1)))
            f = random_table(rng, m0, rng.randint(1, min(g.n, m0 * m0)))
            words = list(itertools.product(range(m1), repeat=k))
            x = tuple(rng.randrange(m1) for _ in range(rng.randrange(k)))
            diag = [g.values[i][j] for i, j in (real(w, x) for w in words)]
            got = run(reductions._place, words, diag, f, g)
            assert got == run(place_oracle, words, diag, f, g)
            hits += got[0] is not None
        assert 0 < hits < 1000

    def test_embeddings_found_by_block_length_m0_plus_one(self):
        # f = g o eps for random embeddings of block length up to m0 + 3;
        # the search, which stops at m0 + 1, must still find a witness.
        rng = random.Random(8)
        for _ in range(1000):
            m0, m1 = rng.randint(1, 3), rng.randint(2, 3)
            k = rng.randint(1 if m1 >= m0 else 2, m0 + 3)
            picks = rng.sample(range(m1**k), m0)
            e = tuple(Word(m1, _digits(c, m1, k)) for c in picks)
            x = Word(m1, tuple(rng.randrange(m1) for _ in range(rng.randrange(k))))
            g = random_table(rng, m1, rng.randint(1, m1 * m1))
            eps = apply_reduction(ReductionData(e, x))
            values = tuple(tuple(g.color(*p) for p in row) for row in eps)
            f = PartitionTable(m0, values)
            found = search_reduction(f, g, m0 + 1)
            assert found is not None and check_reduces(f, g, found)


class TestCatalogueAntichain:
    """For n <= 3 no catalogue type reduces to another, under any colour
    relabelling; search_reduction to block length m + 1 decides this."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_no_type_reduces_to_another(self, n):
        tables = [partition_from_type(t)[1] for t in enumerate_types(n)]
        checks = 0
        for s, t in itertools.permutations(tables, 2):
            for pi in itertools.permutations(range(n)):
                relabelled = tuple(tuple(pi[c] for c in row) for row in s.values)
                f = PartitionTable(s.m, relabelled)
                assert search_reduction(f, t, s.m + 1) is None
                checks += 1
        assert checks == {2: 4, 3: 36}[n]

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_type_reduces_to_itself(self, n):
        for t in enumerate_types(n):
            table = partition_from_type(t)[1]
            found = search_reduction(table, table, table.m + 1)
            assert found is not None and check_reduces(table, table, found)


def _digits(c: int, m: int, k: int) -> tuple[int, ...]:
    """The k base-m digits of c, most significant first."""
    return tuple(c // m**i % m for i in reversed(range(k)))


def _compose_search(f: PartitionTable, g: PartitionTable) -> ReductionData:
    found = search_reduction(f, g, 4)
    assert found is not None
    return found


# -- colour restriction -------------------------------------------------------------


class TestRestrictColors:
    def test_two_colours_down_to_one(self):
        res = restrict_colors(P20, 1)
        assert res.table.n == 1
        assert len(set(c for row in res.table.values for c in row)) == 1
        assert check_reduces(res.table, P20, res.reduction)

    def test_few_off_diagonal_case(self):
        _, table = partition_from_type(T32)  # off-diagonal colours: {2}
        res = restrict_colors(table, 2)
        assert res.table.n == 2
        assert set(res.colors) <= set(table.colors)
        assert check_reduces(res.table, table, res.reduction)

    def test_chain_case(self):
        g = PartitionTable.dense(2, 3, ((0, 1), (2, 0)))  # off colours {1, 2}
        res = restrict_colors(g, 1)
        assert res.table.n == 1
        assert check_reduces(res.table, g, res.reduction)

    def test_every_table_every_target(self):
        for n in (2, 3):
            for t in enumerate_types(n):
                _, table = partition_from_type(t)
                for n0 in range(1, table.n):
                    res = restrict_colors(table, n0)
                    assert res.table.n == n0
                    assert set(res.colors) <= set(table.colors)
                    assert check_reduces(res.table, table, res.reduction)

    def test_target_bounds(self):
        with pytest.raises(ReductionError):
            restrict_colors(P20, 2)
        with pytest.raises(ReductionError):
            restrict_colors(P20, 0)

    def test_corrupt_incidence_table_is_caught(self, monkeypatch):
        # The table is read off the chain, so check_reduces compares two
        # separate computations: a transposed incidence table fails it.
        g = partition_from_type(enumerate_types(4)[0])[1]
        real = reductions.apply_reduction
        monkeypatch.setattr(reductions, "apply_reduction", lambda r: tuple(zip(*real(r))))
        with pytest.raises(ReductionError, match="restriction is not verified"):
            restrict_colors(g, 2)

    def test_single_letter_table_rejected(self):
        # A 1x1 table has one colour, so the one-colour refusal covers it.
        with pytest.raises(ReductionError, match="no smaller colour count"):
            restrict_colors(PartitionTable(1, ((0,),)), 1)

    def test_one_colour_table_rejected(self):
        g = PartitionTable(2, ((3, 3), (3, 3)))
        with pytest.raises(ReductionError, match="no smaller colour count"):
            restrict_colors(g, 1)

    @staticmethod
    def check_against_oracle(g):
        for n0 in range(1, g.n):
            res, want = restrict_colors(g, n0), restrict_colors_oracle(g, n0)
            assert (res.table, res.reduction) == (want.table, want.reduction)
        return g.n - 1

    def test_catalogue_matches_oracle(self):
        calls = 0
        for n in (2, 3, 4, 5):
            for t in enumerate_types(n):
                calls += self.check_against_oracle(partition_from_type(t)[1])
        assert calls == 1 * 2 + 2 * 3 + 3 * 8 + 4 * 23

    def test_random_tables_match_oracle(self):
        # Colours are drawn from 0..9 in random order, so the colour set of
        # a table need not start at 0 or be consecutive.
        rng = random.Random(2300)
        calls, shifted = 0, 0
        for _ in range(2000):
            m = rng.randint(2, 5)
            n = rng.randint(2, min(7, m * m))
            names = rng.sample(range(10), n)
            base = random_table(rng, m, n)
            values = tuple(tuple(names[c] for c in row) for row in base.values)
            g = PartitionTable(m, values)
            shifted += g.colors != tuple(range(n))
            calls += self.check_against_oracle(g)
        assert calls > 6000 and shifted > 1500


# -- induced tree maps ----------------------------------------------------------------


class TestInducedMaps:
    def test_identity_reduction_is_identity_map(self):
        rng = random.Random(17)
        for _ in range(20):
            word = random_word(rng, 2)
            assert induced_word_map(IDENTITY2, word) == word
            branch = random_branch(rng, 2)
            assert induced_branch_map(IDENTITY2, branch) == branch

    def test_block_image_appends_anchor(self):
        assert induced_word_map(BLOCK2, Word(2, (1,))) == Word(2, (0, 1, 0))
        assert induced_word_map(BLOCK2, Word(2, ())) == Word(2, (0,))

    def test_branch_image_expands_periodically(self):
        zeros = Branch(2, (), (0,))
        assert induced_branch_map(BLOCK2, zeros) == Branch(2, (), (0,))
        ones = Branch(2, (), (1,))
        assert induced_branch_map(BLOCK2, ones) == Branch(2, (), (0, 1))

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ReductionError):
            induced_word_map(BLOCK2, Word(3, (2,)))
        with pytest.raises(ReductionError):
            induced_branch_map(BLOCK2, Branch(3, (), (2,)))

    def test_injective_on_samples(self):
        rng = random.Random(19)
        words = list({random_word(rng, 2) for _ in range(60)})
        images = [induced_word_map(BLOCK2, w) for w in words]
        assert len(set(images)) == len(words)
        branches = list({random_branch(rng, 2) for _ in range(60)})
        bimages = [induced_branch_map(BLOCK2, x) for x in branches]
        assert len(set(bimages)) == len(branches)

    def test_word_images_keep_prefix_order(self):
        rng = random.Random(29)
        for _ in range(40):
            a = random_word(rng, 2)
            b = random_word(rng, 2)
            if is_prefix(a, b):
                assert is_prefix(
                    induced_word_map(BLOCK2, a).prefix(len(a) * BLOCK2.k),
                    induced_word_map(BLOCK2, b),
                )

    def test_images_match_blockwise_expansion(self):
        # Reference: each letter's block appended one letter at a time, and
        # a branch image read off the expanded letters of the branch.
        rng = random.Random(31)
        for _ in range(200):
            m0, m1, k = rng.randrange(1, 5), rng.randrange(2, 4), rng.randrange(1, 4)
            words = list(itertools.product(range(m1), repeat=k))
            e = rng.sample(words, min(m0, len(words)))
            x = tuple(rng.randrange(m1) for _ in range(rng.randrange(k)))
            r = ReductionData(tuple(Word(m1, b) for b in e), Word(m1, x))
            word = random_word(rng, r.m0, 8)
            letters = [c for a in word.letters for c in e[a]] + list(x)
            assert induced_word_map(r, word) == Word(m1, tuple(letters))
            branch = random_branch(rng, r.m0, 6)
            horizon = 2 * (len(branch.stem) + len(branch.period)) + 2
            blocks = [c for a in expand(branch, horizon) for c in e[a]]
            image = induced_branch_map(r, branch)
            assert expand(image, len(blocks)) == tuple(blocks)

    def test_long_stem_maps_in_linear_time(self):
        rng = random.Random(37)
        stem = tuple(rng.randrange(2) for _ in range(200_000))
        start = time.perf_counter()
        image = induced_branch_map(BLOCK2, Branch(2, stem, (1,)))
        word_image = induced_word_map(BLOCK2, Word(2, stem))
        assert time.perf_counter() - start < 5
        assert image.head(8) == word_image.letters[:8]
        assert len(word_image) == 2 * len(stem) + 1

    def test_comb_transport(self):
        # Images of comb teeth must again march along the image branch with
        # the transported first moves eps(0, 1).
        zeros = Branch(2, (), (0,))
        gen = CombGenerator.over(zeros, 0, 1, 4)
        eps = apply_reduction(BLOCK2)[0][1]
        image_branch = induced_branch_map(BLOCK2, zeros)
        teeth = [induced_word_map(BLOCK2, s) for s in comb_nodes(gen)]
        depths = []
        for tooth in teeth:
            assert incidence(image_branch, tooth) == eps
            depths.append(len(meet(image_branch, tooth)))
        assert depths == sorted(set(depths))
