"""
Point separation, subspace predicates, and the doubled-line embedding
=====================================================================

Each space separates any tuple of distinct points (one more point than
its colour count for colourings, two more for disjoint families) by an
explicit family of basic descriptors with empty common intersection.
Two-colour colourings are classified by which classical space they
contain, and the asymmetric ones embed into the doubled line: every
point becomes a binary sequence plus a side bit.
"""

from madic import (
    Branch,
    CombGenerator,
    INFINITY,
    LimitPoint,
    NodePoint,
    PartitionSpace,
    PartitionTable,
    ScatteredSpace,
    DisjointFamily,
    Word,
    classify_subspaces,
    comb_nodes,
    descriptor_contains,
    family_intersection_empty,
    separate_points,
    split_embedding,
)

table = PartitionTable.dense(2, 2, ((0, 1), (0, 0)))
space = PartitionSpace(table)

# Three distinct points: a node and two limits.  The node forces the
# singleton/co-singleton rule; every descriptor contains its point and
# the family has empty intersection.
pts = (NodePoint(Word(2, (1,))),
       LimitPoint(Branch(2, (), (0,)), 0),
       LimitPoint(Branch(2, (), (1,)), 1))
descs = separate_points(pts, space)
for p, d in zip(pts, descs):
    print(f"  {p}  <-  {d}  (contains: {descriptor_contains(d, p, space)})")
print("empty intersection:", family_intersection_empty(descs))

# Scattered spaces need one more descriptor and include the point at
# infinity, which lands in the co-singleton side.
sp = ScatteredSpace(DisjointFamily(2, ((0,),)))
pts2 = (NodePoint(Word(2, (1,))), LimitPoint(Branch(2, (), (0,)), 0), INFINITY)
for p, d in zip(pts2, separate_points(pts2, sp)):
    print(f"  {p}  <-  {d}")

# Which classical space sits inside each two-colour colouring?
for values in (((0, 1), (0, 0)), ((0, 1), (1, 1))):
    t = PartitionTable.dense(2, 2, values)
    rep = classify_subspaces(t)
    print(f"{values}: contains_cantor={rep.contains_cantor}"
          f" contains_split={rep.contains_split}")

# The doubled-line embedding for the ascending-pair colouring: nodes map
# to an eventually periodic sequence with a forced tail, limits keep
# their class as the side bit.
for p in (NodePoint(Word(2, ())), NodePoint(Word(2, (0, 1))),
          LimitPoint(Branch(2, (), (0,)), 0), LimitPoint(Branch(2, (), (0,)), 1)):
    seq, side = split_embedding(table, p)
    print(f"  {p} -> ({seq}, side {side})")

# Comb teeth approach the image of their limit strictly from the side the
# bit dictates: side 1 limits are approached from above, side 0 from below.
gen = CombGenerator.over(Branch(2, (), (0,)), 0, 1, 4)
limit = space.comb_limit(gen)
lim_seq, lim_side = split_embedding(table, limit)
print("limit image:", lim_seq, "side", lim_side)
for tooth in comb_nodes(gen)[1:]:
    seq, _ = split_embedding(table, NodePoint(tooth))
    rel = "above" if seq.head(12) > lim_seq.head(12) else "below"
    print(f"  tooth {tooth} image approaches from {rel}")
