"""Command-line interface.

Subcommands: tree-poly, poset-poly, check, counts, census, asymptotics,
collide.  Inputs are file paths, or "-" for standard input.  Exit status:
0 success, 1 not a V-poset, 2 parse or usage error, 3 a brute-force, series
or memory bound exceeded, 141 (128 + SIGPIPE) when the reader closes
standard output early.  Each command imports the modules it runs, so
`tree-poly` compiles only `polynomial` and `trees`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import NotVPosetError, OracleBoundError, ParseError


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _print_poly(poly, args) -> None:
    if args.json:
        obj: dict = {"polynomial": [list(t) for t in poly.canonical_triples()]}
        if args.eval is not None:
            x0, y0 = args.eval
            obj["eval"] = {"x": x0, "y": y0, "value": poly.evaluate(x0, y0)}
        print(json.dumps(obj))
        return
    print(str(poly))
    if args.eval is not None:
        x0, y0 = args.eval
        print(f"P({x0},{y0}) = {poly.evaluate(x0, y0)}")


def _cmd_tree_poly(args) -> int:
    from .trees import parse_tree, tree_poly, tree_poly_dc

    t = parse_tree(_read_input(args.input))
    poly = tree_poly_dc(t) if args.dc else tree_poly(t)
    _print_poly(poly, args)
    return 0


def _cmd_poset_poly(args) -> int:
    from .posets import antichain_expansion_poset, parse_poset, poset_poly

    p = parse_poset(_read_input(args.input))
    poly = antichain_expansion_poset(p) if args.expansion else poset_poly(p)
    _print_poly(poly, args)
    return 0


def _pattern_text(pattern) -> str:
    kind = "BOWTIE" if pattern.kind == "bowtie" else "N"
    return f"{kind} {pattern.u + 1} {pattern.v + 1} {pattern.w + 1} {pattern.x + 1}"


def _cmd_check(args) -> int:
    from .posets import ForbiddenPattern, is_v_poset, parse_poset

    p = parse_poset(_read_input(args.input))
    certificate = is_v_poset(p)
    if isinstance(certificate, ForbiddenPattern):
        print(f"NOT-VPOSET {_pattern_text(certificate)}")
        return 1
    print(f"VPOSET {certificate.to_sexpr()}")
    return 0


def _cmd_counts(args) -> int:
    # A tree is a V-poset whose leaves are the basic elements, so both kinds
    # of input are checked by the poset oracles, a tree on the poset its own
    # oracles keep, which already holds its certificate and basic mask.
    from .bruteforce import SUBSET_BOUND
    from .polynomial import BivariatePoly
    from .posets import (
        BASIC,
        _oracle_poset,
        count_antichains_poset,
        count_cutsets_poset,
        count_maximal_antichains_no_basic,
        count_maximal_antichains_poset,
        element_status,
        parse_poset,
        poset_poly,
    )
    from .trees import parse_tree, tree_poly

    text = _read_input(args.input)
    if text.lstrip().startswith("("):
        t = parse_tree(text)
        n, poly, basics = t.size, tree_poly(t), t.leaf_count
        kind, units, plural, basic, ground = "tree", "vertices", "leaves", "leaf", "vertex"
        p = _oracle_poset(t) if n <= SUBSET_BOUND else None
    else:
        p = parse_poset(text)
        n, poly = p.n, poset_poly(p)
        basics = sum(1 for st in element_status(p) if st == BASIC)
        kind, units, plural, basic, ground = "poset", "elements", "basics", "basic", "element"
    small = n <= SUBSET_BOUND
    print(f"# {kind} with {n} {units}")
    # The points are asked grouped by y: the polynomial keeps its row values
    # at the last y asked, so each row is evaluated once per y.
    p11, p01, p21 = poly.evaluate(1, 1), poly.evaluate(0, 1), poly.evaluate(2, 1)
    px0 = poly.specialize(y=0)
    p12, p22 = poly.evaluate(1, 2), poly.evaluate(2, 2)
    rows = [
        ("P(1,1)", p11, "maximal antichains",
         count_maximal_antichains_poset(p) if small else None),
        ("P(x,0)", px0, f"x^{plural}", BivariatePoly.monomial(1, basics, 0)),
        ("P(0,1)", p01, f"{basic}-free maximal antichains",
         count_maximal_antichains_no_basic(p) if small else None),
        ("P(2,1)", p21, "antichains", count_antichains_poset(p) if small else None),
        ("P(1,2)", p12, "cutsets", count_cutsets_poset(p) if small else None),
        ("P(2,2)", p22, f"{ground} subsets", 2**n),
    ]
    all_ok = True
    for point, value, name, oracle in rows:
        verdict = "-" if oracle is None else "ok" if str(value) == str(oracle) else "MISMATCH"
        all_ok = all_ok and verdict != "MISMATCH"
        print(f"{point}\t{value}\t{name}\t{'-' if oracle is None else oracle}\t{verdict}")
    return 0 if all_ok else 1


def _cmd_census(args) -> int:
    from .enumeration import CENSUS_BOUND, _connected, census, v_series

    series = v_series(args.max)
    counts = census(min(args.max, CENSUS_BOUND))
    for n in range(1, args.max + 1):
        cells = [str(n), str(series[n])]
        if args.connected:
            cells.append(str(_connected(series.coeffs, n)))
        if n <= CENSUS_BOUND:
            cells.append(str(counts[n - 1]))
        print("\t".join(cells))
    return 0


def _cmd_asymptotics(args) -> int:
    from .enumeration import asymptotic_constant

    result = asymptotic_constant(order=args.order)
    print(
        json.dumps(
            {
                "rho": result.rho,
                "rhoInv": result.rho_inv,
                "constant": result.constant,
                "truncationOrder": result.truncation_order,
            }
        )
    )
    return 0


def _cmd_collide(args) -> int:
    from .trees import collision_search

    report = collision_search(args.max)
    print(f"trees examined: {report.tree_count} (sizes 1..{report.n_max})")
    if report.full_pairs:
        print(f"full-polynomial collisions: {len(report.full_pairs)} pair(s)")
        for a, b in report.full_pairs:
            print(f"  {a.encoding} {b.encoding}")
    else:
        print("full-polynomial collisions: none")
    for label, groups in (
        ("y=1", report.collisions_at_y1),
        ("x=1", report.collisions_at_x1),
    ):
        print(f"collision groups at {label}: {len(groups)}")
        for poly, members in groups:
            print(f"  {poly}: " + " ".join(t.encoding for t in members))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vposets",
        description="Tree and V-poset polynomials, recognition, and enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_poly_flags(p):
        p.add_argument("input", help="input file, or - for stdin")
        p.add_argument("--eval", nargs=2, type=int, metavar=("X", "Y"),
                       help="also evaluate at the integer point (X, Y)")
        p.add_argument("--json", action="store_true",
                       help="emit canonical [coeff, xExp, yExp] triples as JSON")

    p = sub.add_parser("tree-poly", help="polynomial of a rooted tree")
    add_poly_flags(p)
    p.add_argument("--dc", action="store_true",
                   help="compute via the deletion-contraction recursion")
    p.set_defaults(func=_cmd_tree_poly)

    p = sub.add_parser("poset-poly", help="polynomial of a V-poset")
    add_poly_flags(p)
    p.add_argument("--expansion", action="store_true",
                   help="compute via the maximal-antichain expansion")
    p.set_defaults(func=_cmd_poset_poly)

    p = sub.add_parser("check", help="recognise a V-poset and print a certificate")
    p.add_argument("input", help="poset file, or - for stdin")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("counts", help="evaluation table with brute-force cross-checks")
    p.add_argument("input", help="tree or poset file, or - for stdin")
    p.set_defaults(func=_cmd_counts)

    p = sub.add_parser("census", help="TSV of n, series count, and census count")
    p.add_argument("--max", type=_positive_int, required=True, metavar="N")
    p.add_argument("--connected", action="store_true",
                   help="insert the connected-count column")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("asymptotics", help="growth constants as JSON")
    p.add_argument("--order", type=int, default=100,
                   help="series truncation order (default 100)")
    p.set_defaults(func=_cmd_asymptotics)

    p = sub.add_parser("collide", help="search trees for polynomial collisions, up to 16 vertices")
    p.add_argument("--max", type=_positive_int, required=True, metavar="N",
                   help="largest tree size searched, at most 16")
    p.set_defaults(func=_cmd_collide)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact answers can run past 4300 digits
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader is gone: what is still buffered goes to the null
        # device, so the interpreter's last flush does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except NotVPosetError as exc:
        print(f"error: not a V-poset: {_pattern_text(exc.pattern)}", file=sys.stderr)
        return 1
    except OracleBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except ValueError as exc:  # ParseError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
