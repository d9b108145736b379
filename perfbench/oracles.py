"""Independent answer checks for the benchmark.

Nothing here calls into madic: values are read through their plain fields
(letters, stem, period, table values, type roles) and every answer is
rebuilt by expanding branches letter by letter, so agreement is evidence
rather than circularity.  Each check returns None when the answer holds and
a short reason when it does not.
"""

from __future__ import annotations

import itertools
import json


# -- words and branches, expanded ----------------------------------------------


def expand(branch, length: int) -> list[int]:
    """First `length` letters of an eventually periodic branch."""
    out = list(branch.stem[:length])
    period = branch.period
    while len(out) < length:
        out.append(period[(len(out) - len(branch.stem)) % len(period)])
    return out


def branch_lcp(x, y) -> int | None:
    """Length of the common prefix of two branches; None when they are equal.

    Two eventually periodic words that agree on their stems plus the product
    of their period lengths agree everywhere.
    """
    bound = len(x.stem) + len(y.stem) + len(x.period) * len(y.period)
    xs, ys = expand(x, bound), expand(y, bound)
    for i in range(bound):
        if xs[i] != ys[i]:
            return i
    return None


def _is_prefix(short, long) -> bool:
    return len(short) <= len(long) and all(a == b for a, b in zip(short, long))


# -- certify: teeth, values, certificates, separation ----------------------------


def letter_at(branch, d: int) -> int:
    stem = branch.stem
    if d < len(stem):
        return stem[d]
    return branch.period[(d - len(stem)) % len(branch.period)]


def teeth_depths(branch, letter: int, count: int) -> list[int]:
    """The first `count` depths where the branch reads `letter`."""
    depths: list[int] = []
    d = 0
    while len(depths) < count:
        if letter_at(branch, d) == letter:
            depths.append(d)
        d += 1
    return depths


class _Rules:
    """Colour class and limit rules of one space, read from its raw data."""

    def __init__(self, space):
        if hasattr(space, "table"):
            self.kind = "partition"
            self.values = space.table.values
            self.colors = sorted({c for row in self.values for c in row})
            self.n = len(self.colors)
        else:
            self.kind = "scattered"
            self.classes = [set(c) for c in space.family.classes]
            self.n = len(self.classes)

    def cls_of_pair(self, i: int, j: int) -> int:
        return self.colors.index(self.values[i][j])

    def family_class(self, letter: int) -> int | None:
        for idx, c in enumerate(self.classes):
            if letter in c:
                return idx
        return None


def _tooth_incidence(test_letters, lcp: int | None, x_letters, d: int, i: int, j: int):
    """Incidence (test branch, tooth) for the tooth at depth d of an (i, j)
    comb on x, given the common prefix length of the test branch and x."""
    if lcp is not None and lcp < d:
        return ("split", test_letters[lcp], x_letters[lcp])
    # The tooth's first d letters lie on the test branch.
    if i == j:
        return ("below", test_letters[d])
    if test_letters[d] == j:
        return ("below", test_letters[d + 1])
    return ("split", test_letters[d], j)


def limit_point(space, gen):
    """The comb's limit as (branch, class), or "infinity"."""
    pair = _Rules(space)
    if pair.kind == "partition":
        return (gen.branch, pair.cls_of_pair(gen.i, gen.j))
    if gen.i == gen.j:
        cls = pair.family_class(gen.i)
        if cls is not None:
            return (gen.branch, cls)
    return "infinity"


def check_certificate(space, gen, tests, reports) -> str | None:
    """k0 and limit values of verify_convergence, rebuilt from the teeth."""
    if len(reports) != len(tests):
        return f"{len(reports)} reports for {len(tests)} tests"
    pair = _Rules(space)
    limit = limit_point(space, gen)
    horizon = max(r.horizon for r in reports) if reports else 0
    x = gen.branch
    i, j = gen.i, gen.j
    depths = teeth_depths(x, i, horizon + 1)
    reach = depths[-1] + 2
    x_letters = expand(x, reach)
    lcp_cache: dict = {}

    def test_view(branch):
        key = (branch.stem, branch.period)
        if key not in lcp_cache:
            lcp = branch_lcp(branch, x)
            lcp_cache[key] = (lcp, expand(branch, reach))
        return lcp_cache[key]

    for test, rep in zip(tests, reports):
        if rep.test != test:
            return "report order differs from test order"
        if rep.horizon != horizon:
            return "reports disagree on the horizon"
        if hasattr(test, "word"):
            t = test.word.letters
            lim_val = 0 if limit == "infinity" else int(_is_prefix(t, x_letters))
            if pair.kind == "scattered":
                lim_val = 0
            values = []
            for d in depths:
                tooth = x_letters[:d] if i == j else x_letters[:d] + [j]
                if pair.kind == "partition":
                    values.append(int(_is_prefix(t, tooth)))
                else:
                    values.append(int(list(t) == tooth))
        else:
            lcp, y = test_view(test.branch)
            cls = test.cls
            if limit == "infinity":
                lim_val = 0
            elif pair.kind == "scattered":
                lim_val = int(lcp is None and limit[1] == cls)
            elif lcp is None:
                lim_val = int(limit[1] == cls)
            else:
                lim_val = int(pair.cls_of_pair(y[lcp], x_letters[lcp]) == cls)
            values = []
            for d in depths:
                inc = _tooth_incidence(y, lcp, x_letters, d, i, j)
                if pair.kind == "partition":
                    a, b = (inc[1], inc[1]) if inc[0] == "below" else inc[1:]
                    values.append(int(pair.cls_of_pair(a, b) == cls))
                else:
                    # Scattered node points fire only below the tested branch.
                    fires = inc[0] == "below" and inc[1] in pair.classes[cls]
                    values.append(int(fires))
        k0 = 0
        for k, v in enumerate(values):
            if v != lim_val:
                k0 = k + 1
        if rep.limit_value != lim_val:
            return f"limit value {rep.limit_value} at {test!r}, expected {lim_val}"
        if k0 > horizon:
            return f"teeth still disagree at the horizon for {test!r}"
        if rep.k0 != k0:
            return f"k0 {rep.k0} at {test!r}, expected {k0}"
    return None


def check_separation(points, descs) -> str | None:
    """Each limit point lies in its own cone or whole space, and two cones
    over incomparable nodes make the intersection empty."""
    if len(descs) != len(points):
        return f"{len(descs)} sets for {len(points)} points"
    cones = []
    for p, d in zip(points, descs):
        name = type(d).__name__
        if name == "WholeSpace":
            continue
        if name != "Cone":
            return f"unexpected descriptor {name} for limit points"
        w = d.word.letters
        cones.append(w)
        if p == "infinity":
            return "the infinity point was given a cone"
        branch = p[0]
        if not _is_prefix(w, expand(branch, len(w))):
            return f"point {p!r} is outside its cone {w}"
    for a, b in itertools.combinations(cones, 2):
        if not _is_prefix(a, b) and not _is_prefix(b, a):
            return None
    return "no two cones are incomparable"


# -- catalogue: dense types, colourings, reductions -------------------------------


def type_doc(t) -> dict:
    """A dense type as the JSON object the catalogue files use."""
    return {
        "n": t.n,
        "A": sorted(t.A),
        "B": sorted(t.B),
        "C": sorted(t.C),
        "D": sorted(t.D),
        "E": sorted(t.E),
        "psi": [list(x) for x in sorted(t.psi)],
        "blocks": [list(b) for b in sorted(tuple(sorted(b)) for b in t.blocks)],
        "gamma": [list(g) for g in sorted(t.gamma)],
    }


def _encoding(doc: dict) -> tuple:
    return (
        doc["n"],
        tuple(doc["A"]), tuple(doc["B"]), tuple(doc["C"]),
        tuple(doc["D"]), tuple(doc["E"]),
        tuple(tuple(x) for x in doc["psi"]),
        tuple(tuple(b) for b in doc["blocks"]),
        tuple(tuple(g) for g in doc["gamma"]),
    )


def _relabel(doc: dict, pi) -> dict:
    return {
        "n": doc["n"],
        "A": sorted(pi[a] for a in doc["A"]),
        "B": sorted(pi[a] for a in doc["B"]),
        "C": sorted(pi[a] for a in doc["C"]),
        "D": sorted(pi[a] for a in doc["D"]),
        "E": sorted(pi[a] for a in doc["E"]),
        "psi": sorted([pi[i], pi[j], pi[v]] for i, j, v in doc["psi"]),
        "blocks": sorted(sorted(pi[a] for a in b) for b in doc["blocks"]),
        "gamma": sorted([pi[d], pi[v]] for d, v in doc["gamma"]),
    }


def least_relabelling(doc: dict) -> dict:
    """The relabelling of a type whose encoding is least."""
    return min(
        (_relabel(doc, pi) for pi in itertools.permutations(range(doc["n"]))),
        key=_encoding,
    )


def catalogue_bytes(docs) -> bytes:
    """Order-free byte form of a catalogue: least relabellings, sorted."""
    lines = sorted(json.dumps(least_relabelling(d), sort_keys=True) for d in docs)
    return "\n".join(lines).encode()


EXPECTED_COUNTS = {2: 2, 3: 3, 4: 8, 5: 23}


def check_catalogue(n: int, types, golden: bytes | None) -> str | None:
    """Count, canonical representatives, distinct classes and, for n <= 4,
    the recorded catalogue."""
    if len(types) != EXPECTED_COUNTS[n]:
        return f"n={n}: {len(types)} types, expected {EXPECTED_COUNTS[n]}"
    docs = [type_doc(t) for t in types]
    encodings = [_encoding(d) for d in docs]
    if encodings != sorted(encodings) or len(set(encodings)) != len(encodings):
        return f"n={n}: types are not sorted and distinct"
    for d in docs:
        if _encoding(least_relabelling(d)) != _encoding(d):
            return f"n={n}: a listed type is not its least relabelling"
    if golden is not None and catalogue_bytes(docs) != golden:
        return f"n={n}: catalogue differs from the recorded one"
    return None


def check_colouring(t, alph, table) -> str | None:
    """The induced colouring is square, surjective onto 0..n-1, diagonal
    equal to sigma, and has one letter per free colour, block and link."""
    m = (len(t.A) or 1) + len(t.blocks) + len(t.D)
    values = table.values
    if alph.m != m or len(values) != m or any(len(r) != m for r in values):
        return f"colouring has {len(values)} letters, expected {m}"
    if sorted({c for r in values for c in r}) != list(range(t.n)):
        return "colouring is not surjective onto 0..n-1"
    if any(values[a][a] != alph.sigma[a] for a in range(m)):
        return "colouring diagonal differs from sigma"
    return None


def word_incidence(a: tuple, b: tuple) -> tuple[int, int]:
    """Incidence of two distinct finite words, the first not below the second."""
    k = 0
    while k < len(a) and k < len(b) and a[k] == b[k]:
        k += 1
    if k == len(b):
        return (a[k], a[k])
    return (a[k], b[k])


def check_witness(f_values, g_values, reduction) -> str | None:
    """f = g o eps, with eps rebuilt from the letter words and the anchor."""
    e = [w.letters for w in reduction.e]
    x = reduction.x.letters
    m0 = len(f_values)
    if len(e) != m0 or len(set(e)) != m0 or len({len(w) for w in e}) != 1:
        return "letter words are not m0 distinct words of one length"
    if len(x) >= len(e[0]):
        return "anchor is not shorter than the letter words"
    for u in range(m0):
        for v in range(m0):
            i, j = word_incidence(e[u], x if u == v else e[v])
            if f_values[u][v] != g_values[i][j]:
                return f"f({u},{v}) differs from g at eps = ({i},{j})"
    return None


def check_restriction(g_values, n0: int, result) -> str | None:
    """A restriction uses exactly n0 of g's colours and reduces into g."""
    f_values = result.table.values
    colours = sorted({c for r in f_values for c in r})
    g_colours = {c for r in g_values for c in r}
    if len(colours) != n0 or not set(colours) <= g_colours:
        return f"restriction uses colours {colours}, wanted {n0} of g's"
    if list(result.colors) != colours:
        return "restriction reports other colours than it uses"
    return check_witness(f_values, g_values, result.reduction)
