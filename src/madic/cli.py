"""Command line front end.

Subcommands: enumerate (dense types with their induced colourings),
reduce (check a reduction, search for one, or construct a colour
restriction), classify (classical subspaces of a colouring), converge
(stabilisation certificates for a comb), separate (open sets splitting a
point tuple), and tables (the full catalogue of dense types for 2 to 4
colours).

Exit codes: 0 success, 2 usage, 3 invalid input, 4 nothing found within
the given bounds.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from . import codec
from .codec import CodecError
from .dense_types import (
    DenseType,
    concrete_alphabet,
    enumerate_types,
    partition_from_type,
)
from .patterns import CombGenerator
from .reductions import check_reduces, restrict_colors, search_reduction
from .spaces import (
    ClassTest,
    NodeTest,
    PartitionSpace,
    ScatteredSpace,
    classify_subspaces,
    separate_points,
    verify_convergence,
)
from .words import Word

USAGE_ERROR = 2
VALIDATION_ERROR = 3
NOT_FOUND = 4


def _load_json(path: str) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CodecError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CodecError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CodecError(f"{path} is not valid JSON: nested too deeply") from exc


def _emit(doc: Any) -> None:
    sys.stdout.write(codec.dumps(doc))


# -- enumerate and tables -------------------------------------------------------


def _format_letters(role: tuple[int, ...]) -> str:
    return ",".join(map(str, role)) or "-"


def _format_map(items: Sequence[tuple[str, int]]) -> str:
    """"-" when empty, "all->v" when every value is v, else "key->value"."""
    if not items:
        return "-"
    values = {v for _, v in items}
    if len(values) == 1:
        return f"all->{values.pop()}"
    return " ".join(f"{k}->{v}" for k, v in items)


def _format_blocks(t: DenseType) -> str:
    if not t.blocks:
        return "-"
    return ",".join("{" + ",".join(str(a) for a in b) + "}" for b in t.blocks)


def render_type_table(n: int, types: Sequence[DenseType]) -> str:
    header = ["idx", "m", "A", "B", "C", "D", "E", "psi", "blocks", "gamma"]
    rows = [header]
    for idx, t in enumerate(types):
        rows.append(
            [
                str(idx),
                str(concrete_alphabet(t).m),
                *map(_format_letters, (t.A, t.B, t.C, t.D, t.E)),
                _format_map([(f"({i},{j})", v) for i, j, v in t.psi]),
                _format_blocks(t),
                _format_map([(str(d), v) for d, v in t.gamma]),
            ]
        )
    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    lines = [f"dense types on {n} colours: {len(types)}"]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def cmd_enumerate(args: argparse.Namespace) -> int:
    # n = 6 takes about 40 ms, n = 7 (9,166 types) about 15 s
    if not 2 <= args.n <= 6:
        print("error: --n must be in 2..6", file=sys.stderr)
        return USAGE_ERROR
    types = enumerate_types(args.n)
    if args.format == "table":
        sys.stdout.write(render_type_table(args.n, types))
        return 0
    entries = []
    for t in types:
        alph, table = partition_from_type(t)
        entries.append(
            {
                "type": codec.dense_type_to_json(t),
                "m": alph.m,
                "table": codec.table_to_json(table),
            }
        )
    _emit({"n": args.n, "count": len(types), "types": entries})
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    for n in (2, 3, 4):
        sys.stdout.write(render_type_table(n, enumerate_types(n)))
        sys.stdout.write("\n")
    return 0


# -- classify --------------------------------------------------------------------


def cmd_classify(args: argparse.Namespace) -> int:
    table = codec.table_from_json(_load_json(args.table))
    report = classify_subspaces(table)
    _emit(
        {
            "contains_cantor": report.contains_cantor,
            "contains_split": report.contains_split,
            "classes": table.n,
            "open_degree": table.n,
        }
    )
    return 0


# -- converge --------------------------------------------------------------------


def _load_space(args: argparse.Namespace):
    if args.space == "partition":
        if not args.table:
            raise CodecError("--space partition needs --table")
        return PartitionSpace(codec.table_from_json(_load_json(args.table)))
    if not args.family:
        raise CodecError("--space scattered needs --family")
    return ScatteredSpace(codec.family_from_json(_load_json(args.family)))


# The default tests number m² + m + 1 nodes and more class tests; at 256
# letters that is 65,793 nodes, and stdout is about 5 MB.
DEFAULT_TESTS_MAX_M = 256


def _default_tests(space, gen: CombGenerator) -> list:
    # The root, then the one- and two-letter nodes: the well order.
    m = space.m
    if m > DEFAULT_TESTS_MAX_M:
        raise CodecError(
            f"default tests need at most {DEFAULT_TESTS_MAX_M} letters, "
            f"not {m}: pass --tests"
        )
    tests: list = [
        NodeTest(Word(m, letters))
        for length in range(3)
        for letters in itertools.product(range(m), repeat=length)
    ]
    tests.extend(ClassTest(gen.branch, c) for c in range(space.n))
    return tests


def cmd_converge(args: argparse.Namespace) -> int:
    space = _load_space(args)
    m = space.m
    gen = codec.generator_from_json(_load_json(args.generator), m)
    if args.tests:
        doc = _load_json(args.tests)
        if not isinstance(doc, list):
            raise CodecError("tests file must hold a list of test points")
        tests = [codec.test_from_json(t, m) for t in doc]
    else:
        tests = _default_tests(space, gen)
    reports = verify_convergence(gen, space, tests, args.horizon)
    _emit(
        {
            "limit": codec.point_to_json(space.comb_limit(gen)),
            "reports": [codec.report_to_json(r) for r in reports],
            "all_stable": all(r.stable for r in reports),
        }
    )
    return 0


# -- separate --------------------------------------------------------------------


def cmd_separate(args: argparse.Namespace) -> int:
    space = _load_space(args)
    m = space.m
    doc = _load_json(args.points)
    if not isinstance(doc, list):
        raise CodecError("points file must hold a list of symbolic points")
    points = [codec.point_from_json(p, m) for p in doc]
    descs = separate_points(points, space)
    # separate_points returns only after checking that each point lies in its
    # set and that the sets share no point, and raises SpaceError otherwise.
    _emit(
        {
            "descriptors": [codec.descriptor_to_json(d) for d in descs],
            "membership": [1] * len(points),
            "empty_intersection": True,
        }
    )
    return 0


# -- reduce ----------------------------------------------------------------------


def cmd_reduce(args: argparse.Namespace) -> int:
    g = codec.table_from_json(_load_json(args.g))
    if args.construct is not None:
        result = restrict_colors(g, args.construct)
        _emit(
            {
                "table": codec.table_to_json(result.table),
                "reduction": codec.reduction_to_json(result.reduction),
                "colors": list(result.colors),
                "verified": True,
            }
        )
        return 0
    if args.f is None:
        raise CodecError("reduce needs --f unless --construct is given")
    f = codec.table_from_json(_load_json(args.f))
    if args.reduction is not None:
        r = codec.reduction_from_json(_load_json(args.reduction), g.m)
        _emit({"reduces": check_reduces(f, g, r)})
        return 0
    found = search_reduction(f, g, args.max_k)
    if found is None:
        _emit({"found": False, "max_k": args.max_k})
        return NOT_FOUND
    _emit({"found": True, "reduction": codec.reduction_to_json(found)})
    return 0


# -- parser ----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Parsing leaves the parser unchanged, so main reuses one parser for every
    call in a process instead of paying for argparse set-up each time.
    """
    parser = argparse.ArgumentParser(
        prog="madic",
        description="Exact combinatorics of m-adic trees and their compacta.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="dense types on n = 2..6 colours")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("tables", help="dense-type catalogue for n = 2, 3, 4")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("classify", help="classical subspaces of a colouring")
    p.add_argument("table")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("converge", help="stabilisation certificate for a comb")
    p.add_argument("--space", choices=("partition", "scattered"), required=True)
    p.add_argument("--table")
    p.add_argument("--family")
    p.add_argument("--generator", required=True)
    p.add_argument("--tests")
    p.add_argument("--horizon", type=int)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("separate", help="open sets splitting a point tuple")
    p.add_argument("--space", choices=("partition", "scattered"), required=True)
    p.add_argument("--table")
    p.add_argument("--family")
    p.add_argument("--points", required=True)
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("reduce", help="reductions between colourings")
    p.add_argument("--f", help="candidate reduced colouring (JSON file)")
    p.add_argument("--g", required=True, help="target colouring (JSON file)")
    p.add_argument("--reduction", help="check this reduction instead of searching")
    p.add_argument("--max-k", type=int, default=3, help="search bound on block length")
    p.add_argument(
        "--construct",
        type=int,
        metavar="N0",
        help="restrict --g onto N0 of its colours instead of checking/searching",
    )
    p.set_defaults(func=cmd_reduce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
