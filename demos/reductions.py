"""
Reductions between colourings
=============================

A reduction from colouring f to colouring g is a tuple of same-length
words e(0), ..., e(m0-1) together with an anchor word x: pairs are pulled
back through incidence against g, and the reduction verifies when the
pulled-back table equals f.  The module also restricts colour counts,
searches for reductions up to a word length, and turns a reduction into
maps on words and branches that transport combs.
"""

from madic import (
    Branch,
    CombGenerator,
    PartitionTable,
    ReductionData,
    Word,
    apply_reduction,
    check_reduces,
    comb_nodes,
    incidence,
    induced_branch_map,
    induced_word_map,
    restrict_colors,
    search_reduction,
)

g = PartitionTable.dense(2, 3, ((0, 2), (2, 1)))
print("g:", g.values)

# Pull g back through the block e(0)=(0,0), e(1)=(0,1) with anchor (0).
# apply_reduction gives pure tree data: the incidence pair each (u, v)
# lands on; composing with g's colours yields the pulled-back table.
r = ReductionData((Word(2, (0, 0)), Word(2, (0, 1))), Word(2, (0,)))
eps = apply_reduction(r)
print("incidence table:", eps)
f_values = tuple(tuple(g.color(*eps[u][v]) for v in range(2)) for u in range(2))
print("pulled back colours:", f_values)
f = PartitionTable(2, f_values)
print("check_reduces(f, g, r):", check_reduces(f, g, r))

# Colour restriction: collapse g to a 2-colour table together with the
# witnessing reduction, then re-verify it.
res = restrict_colors(g, 2)
print("restricted to", res.table.n, "colours:", res.table.values,
      "via", res.reduction)
print("restriction verifies:", check_reduces(res.table, g, res.reduction))

# Search: given both tables, find a reduction with words up to length 3.
found = search_reduction(res.table, g, max_k=3)
print("search found:", found)
print("found verifies:", check_reduces(res.table, g, found))

# A genuinely impossible instance comes back as None: the constant
# 1-colour table cannot be produced from a colouring whose diagonal
# already uses two colours in every candidate block.
asym = PartitionTable.dense(2, 2, ((0, 1), (0, 0)))
diag = PartitionTable.dense(2, 2, ((0, 1), (1, 1)))
print("ascending-pair reduces to diagonal?",
      search_reduction(asym, diag, max_k=4))

# Induced maps transport combs: the image of each tooth sits against the
# image branch exactly at the incidence pair the reduction prescribes.
branch = Branch(2, (), (0,))
gen = CombGenerator.over(branch, 0, 1, 4)
image = induced_branch_map(r, branch)
for tooth in comb_nodes(gen):
    mapped = induced_word_map(r, tooth)
    print(f"  tooth {tooth} -> {mapped}: incidence {incidence(image, mapped)}"
          f" (expected {eps[0][1]})")
