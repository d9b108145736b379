"""
Enumerating dense types and their induced colourings
====================================================

A dense type on n colours distributes the colours into five roles and
induces a square colouring of a finite alphabet through a four-case
formula.  A least relabelling puts the roles on consecutive colour
ranges, and fixes every role's order but A's in closed form: B in the
order psi first takes its colours, singleton blocks before pairs, D by
gamma value and E by descending number of gamma preimages.  So
enumeration walks only the role sizes (a, b, c, d, e) that admit a
valid type and builds only types already in those forms.  It keeps a
type when no order of A gives it a smaller key, so every kept type is
already the canonical representative of its relabelling class, giving
exactly 2, 3, 8 and 23 types on 2, 3, 4 and 5 colours.
"""

from madic import enumerate_types, partition_from_type, validate_type

for n in (2, 3, 4):
    types = enumerate_types(n)
    print(f"dense types on {n} colours: {len(types)}")
    for t in types:
        # Every enumerated representative passes its own validator.
        assert not validate_type(t)
        _, table = partition_from_type(t)
        rows = " / ".join("".join(str(c) for c in row) for row in table.values)
        print(f"  A={sorted(t.A)} B={sorted(t.B)} blocks={sorted(t.blocks)}"
              f" D={sorted(t.D)} E={sorted(t.E)}  ->  {table.m}x{table.m}"
              f" colouring [{rows}]")
    print()

print(f"dense types on 5 colours: {len(enumerate_types(5))}")

# The two 2-colour types induce exactly the two fundamental colourings:
# the "ascending pair" table and the "diagonal" table.
two = [partition_from_type(t)[1].values for t in enumerate_types(2)]
print("n=2 colourings:", two)

# Validation catches malformed types; for example, an empty A forces all
# blocks to be paired, so a singleton block must be reported.
from madic.dense_types import DenseType

bad = DenseType(2, A=(), B=(), C=(0, 1), D=(), E=(),
                psi=(), blocks=((0,), (1,)), gamma=())
print("violations for an all-singleton type with empty A:")
for msg in validate_type(bad):
    print("  -", msg)
