"""
Words, branches, and the tree algebra
=====================================

The ground set is the rooted m-ary tree: finite words over {0, ..., m-1}
plus eventually periodic infinite words (branches).  This script walks
through construction, the meet (longest common prefix), the incidence
operation, and the length-then-lexicographic well order.
"""

from madic import (
    Branch,
    Word,
    incidence,
    meet,
    meet_closure,
    well_order_cmp,
    well_order_key,
)

# Finite words carry their arity; letters must lie below it.
u = Word(2, (0, 1, 1))
v = Word(2, (0, 1, 0, 1))
print("u =", u)
print("v =", v)

# The meet of two words is their longest common prefix.
print("meet(u, v) =", meet(u, v))

# Branches are eventually periodic: a finite stem followed by a repeating
# period.  Construction canonicalizes: the period is made primitive and
# the stem is shortened as far as the period allows.
b = Branch(2, (0, 1), (0, 1))     # stem (0,1) rolls back into the period
print("b =", b, "-> stem", b.stem, "period", b.period)
print("b reads:", [b.letter(k) for k in range(8)], "...")

# Meets mix words and branches freely.
c = Branch(2, (), (0, 1, 1))
print("meet(b, c) =", meet(b, c))

# incidence(a, b) reports how b sits against a.  When the two split, it
# returns the pair of next letters after the meet, in (a's, b's) order.
print("incidence(b, c) =", incidence(b, c))

# When b is a strict prefix of a it returns the diagonal pair (i, i),
# where i is the letter a reads just past b.
print("incidence(b, Word(2, (0,))) =", incidence(b, Word(2, (0,))))

# The well order compares by length first, then lexicographically.
ws = [Word(2, t) for t in ((1,), (0, 0), (), (0, 1), (1, 1), (0,))]
ws.sort(key=well_order_key)
print("sorted:", ws)
print("well_order_cmp(Word(2,(1,)), Word(2,(0,0))) =",
      well_order_cmp(Word(2, (1,)), Word(2, (0, 0))))

# meet_closure adds the meets of lexicographic neighbours, which are all
# pairwise meets, producing the smallest meet-closed superset; it never
# more than doubles the size.
nodes = frozenset({Word(2, (0, 0, 1)), Word(2, (0, 1)), Word(2, (1, 0))})
closed = meet_closure(nodes)
print("closure of", sorted(nodes, key=well_order_key), "is",
      sorted(closed, key=well_order_key))
