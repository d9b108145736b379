"""
Comb generators, symbolic limits, and convergence certificates
==============================================================

A comb along a branch picks depths where the branch reads a fixed letter
i and grafts the other letter j there, producing a sequence of "teeth"
that converges to the branch.  In a space built from a colouring or a
disjoint family, the teeth converge to a limit point whose class this
module computes exactly, and `verify_convergence` certifies the
stabilization point of every test value.
"""

from madic import (
    Branch,
    ClassTest,
    Comb,
    CombGenerator,
    DisjointFamily,
    NodeTest,
    PartitionSpace,
    PartitionTable,
    ScatteredSpace,
    Word,
    comb_nodes,
    concat,
    find_pattern,
    verify_convergence,
)

# A comb over the all-zeros branch, reading 0 and grafting 1, with three
# teeth at the first three available depths.
zeros = Branch(2, (), (0,))
gen = CombGenerator.over(zeros, 0, 1, 3)
print("teeth:", comb_nodes(gen))

# Moving the teeth under the node (1) keeps their shape: the moved teeth
# are first-move equivalent to the prototype (0,1)-comb, and the pattern
# search finds two of them.
moved = [concat(Word(2, (1,)), t) for t in comb_nodes(gen)]
match = find_pattern(moved, Comb(0, 1), 2, 2)
print("moved teeth:", moved)
print("(0,1)-comb of size 2 found at:", match.nodes)

# Colour the pairs (i, j) with the two-colour table that sends the
# ascending pair to colour 1 and everything else to colour 0.
table = PartitionTable.dense(2, 2, ((0, 1), (0, 0)))
space = PartitionSpace(table)

# The symbolic limit of the comb: a limit point on the branch whose class
# is the colour the teeth eventually report against it.
limit = space.comb_limit(gen)
print("limit point:", limit)

# Convergence certificates: for each test, the value at the k-th tooth
# agrees with the value at the limit for all k >= k0, and k0 is minimal.
tests = [NodeTest(Word(2, (0, 0))), NodeTest(Word(2, ())),
         ClassTest(zeros, 0), ClassTest(zeros, 1)]
for report in verify_convergence(gen, space, tests):
    assert report.limit_value == space.value(limit, report.test)
    print(f"  test {report.test}: limit value {report.limit_value}, "
          f"stable from k0={report.k0} (checked up to horizon {report.horizon})")

# The same machinery over a scattered space.  Here the grafted letter 1
# lies outside the single class {0}, so the teeth vanish on every class
# test and the symbolic limit is the point at infinity.
family = DisjointFamily(2, ((0,),))
sp = ScatteredSpace(family)
lim = sp.comb_limit(gen)
print("scattered limit:", lim)

# In a scattered space a node test fires only at the node itself, so the
# test at the fifth tooth reads ...0, 1, 0... and settles one step later.
s5 = Word(2, (0, 0, 0, 0, 0, 1))
(report,) = verify_convergence(gen, sp, [NodeTest(s5)])
assert report.limit_value == sp.value(lim, report.test)
print(f"tooth-5 test: limit value {report.limit_value}, k0={report.k0}")

# Forcing a horizon at the flip leaves the certificate unstable: the last
# inspected tooth still disagrees with the limit, and the report says where.
short = verify_convergence(gen, sp, [NodeTest(s5)], horizon=5)[0]
print("horizon 5 stable?", short.stable, "- violating k:", short.horizon)
