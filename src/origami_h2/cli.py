"""Command-line front end.

Subcommands: ``counts`` (primitive census vs. the closed formulas),
``orbit`` (SL(2,Z) orbit of one surface), ``noncong``
(noncongruence certificate for a named stabiliser), ``badcases`` (the fixed
d/δ reproduction table) and ``verify`` (orbit-count / level / invariant
property sweeps).

Exit codes: 0 success, 1 a checked property failed, 2 bad arguments or
unparsable input, 3 a surface that parses but breaks a length, height or width
rule or is imprimitive, 4 noncongruence search inconclusive.

Every orbit is computed afresh; nothing is written to disk.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Optional

from .congruence import (
    check_orbit_label,
    expected_index,
    expected_level,
    factorize,
    index_obstruction_check,
    noncongruence_search,
    orbit_labels,
)
from .enumeration import _candidates, count_primitive, verify_counts
from .origami_core import (
    InvalidSurfaceError,
    Origami,
    build_from_diagram,
    build_l_shape,
    key_to_text,
    lattice_index,
    parse_diagram,
    weierstrass_count,
)
from .sl2_orbit import level, orbit

SUMMARY_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_BAD_SURFACE = 3
EXIT_INCONCLUSIVE = 4

COUNTS_CSV_HEADER = "n,total,formula_total,a_count,a_formula,b_count,b_formula,match"

BAD_CASE_ROWS = (9, 15, 21, 27, 51)

# counts 100 100 takes about 1.9 s and 16.5 MB max RSS (15.1 MB for counts 3 3)
# on 2 cores; the limit caps what a single command may cost
MAX_COUNTS_N = 100


# ---------------------------------------------------------------------------
# seeds for the named stabilisers


def seed_surface(label: str, n: int) -> Origami:
    """The L-shaped seed whose orbit is the named one (A/B odd, C even)."""
    check_orbit_label(label, n)
    return build_l_shape(3, n - 2) if label == "B" else build_l_shape(2, n - 1)


# ---------------------------------------------------------------------------
# subcommands


def _print_doc(**fields) -> None:
    """Print one JSON answer, stamped with the summary schema version."""
    print(json.dumps({"schema_version": SUMMARY_SCHEMA_VERSION, **fields}, sort_keys=True, indent=2))


def cmd_counts(args: argparse.Namespace) -> int:
    if args.n_min < 3 or args.n_min > args.n_max:
        print(f"invalid range [{args.n_min}, {args.n_max}]: need 3 <= n_min <= n_max", file=sys.stderr)
        return EXIT_USAGE
    if args.n_max > MAX_COUNTS_N:
        print(f"n_max = {args.n_max} exceeds the census limit {MAX_COUNTS_N}", file=sys.stderr)
        return EXIT_USAGE
    reports = verify_counts(args.n_min, args.n_max)
    if args.format == "json":
        _print_doc(reports=[{**r._asdict(), "match": r.match} for r in reports])
    else:
        print(COUNTS_CSV_HEADER)
        for r in reports:
            # the header's columns before "match" are the report's first seven fields
            row = ["" if c is None else str(c) for c in r[:7]]
            row.append("true" if r.match else "false")
            print(",".join(row))
    return EXIT_OK if all(r.match for r in reports) else EXIT_FAILED


def cmd_orbit(args: argparse.Namespace) -> int:
    try:
        diag = parse_diagram(args.surface)
    except InvalidSurfaceError as exc:
        print(f"unsupported surface: {exc}", file=sys.stderr)
        return EXIT_BAD_SURFACE
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    # the size bound is checked before anything of size n is built
    if diag.n > args.max_orbit_n:
        print(f"n = {diag.n} exceeds --max-orbit-n = {args.max_orbit_n}", file=sys.stderr)
        return EXIT_USAGE
    # every parsed diagram builds a surface in H(2); primitivity is read off
    # the diagram, so an imprimitive one is never built
    if lattice_index(diag) != 1:
        print("surface is not a primitive H(2) origami", file=sys.stderr)
        return EXIT_BAD_SURFACE
    orb = orbit(build_from_diagram(diag))
    invariant = weierstrass_count(diag) if orb.n % 2 else None
    _print_doc(n=orb.n, size=orb.index, cusp_widths=orb.cusp_widths, level=level(orb), invariant=invariant)
    return EXIT_OK


def cmd_noncong(args: argparse.Namespace) -> int:
    # the size bound is checked before the seed of size n is built
    if args.n > args.max_orbit_n:
        print(f"n = {args.n} exceeds --max-orbit-n = {args.max_orbit_n}", file=sys.stderr)
        return EXIT_USAGE
    try:
        o = seed_surface(args.label, args.n)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    orb = orbit(o)
    cert = noncongruence_search(orb)
    if cert is None:
        print("inconclusive")
        return EXIT_INCONCLUSIVE
    _print_doc(
        n=args.n, orbit_label=args.label, surface_key=key_to_text(cert.surface),
        k=cert.k, k_prime=cert.k_prime, d=cert.d, level=cert.level, m=cert.m, delta=cert.delta,
        verdict="noncongruence",
    )
    return EXIT_OK


def cmd_badcases(args: argparse.Namespace) -> int:
    rows = []
    for n in BAD_CASE_ROWS:
        d = expected_index("B", n)
        ell = expected_level("B", n)
        witness = index_obstruction_check(d, ell, n - 4, 5)
        if witness is None or d % witness.delta == 0:
            # the table rows are exactly the certified cases; a None here
            # would mean the arithmetic itself regressed
            raise AssertionError(f"bad-case row n={n} no longer certifies")
        rows.append((n, str(factorize(d)), str(factorize(witness.delta))))
    if args.format == "json":
        _print_doc(rows=[{"n": n, "d_factored": df, "delta_factored": dltf} for n, df, dltf in rows])
    else:
        print("n,d_factored,delta_factored")
        for n, df, dltf in rows:
            print(f"{n},{df},{dltf}")
    return EXIT_OK


def _orbits_for(n: int) -> dict:
    """The named orbits at n: {label: Orbit} (one for n even or n = 3)."""
    return {label: orbit(seed_surface(label, n)) for label in orbit_labels(n)}


def cmd_verify(args: argparse.Namespace) -> int:
    if args.n_max < 3:
        print("need n_max >= 3", file=sys.stderr)
        return EXIT_USAGE
    if args.n_max > args.max_orbit_n:
        print(f"n_max = {args.n_max} exceeds --max-orbit-n = {args.max_orbit_n}", file=sys.stderr)
        return EXIT_USAGE
    failures = 0
    for n in range(3, args.n_max + 1):
        if args.suite == "invariant" and n % 2 == 0:
            continue  # the point count is defined for odd n only
        orbits = _orbits_for(n)
        if args.suite == "orbits":
            sizes = {label: orb.index for label, orb in orbits.items()}
            total = count_primitive(n)
            # equal sizes make the named orbits disjoint; equal sets make them the census's tuples
            union = set().union(*(orb.diagrams for orb in orbits.values()))
            ok = sum(sizes.values()) == len(union) == total and union == {
                c for _, coords in _candidates(n) for c in coords}
            detail = " + ".join(f"{lab}={sz}" for lab, sz in sorted(sizes.items()))
            detail = f"{detail} vs total {total}"
        elif args.suite == "levels":
            got = {label: level(orb) for label, orb in orbits.items()}
            want = {label: expected_level(label, n) for label in orbits}
            ok = got == want
            detail = ", ".join(f"{lab}: {got[lab]} (expected {want[lab]})" for lab in sorted(got))
        else:  # invariant, odd n
            values = {}
            ok = True
            for label, orb in orbits.items():
                per_surface = {weierstrass_count(diag) for diag in orb.diagrams}
                ok = ok and len(per_surface) == 1 and per_surface <= {1, 3}
                values[label] = sorted(per_surface)
            if len(orbits) == 2:
                ok = ok and values["A"] == [1] and values["B"] == [3]
            detail = ", ".join(f"{lab}: {vals}" for lab, vals in sorted(values.items()))
        status = "ok" if ok else "FAIL"
        print(f"{status} n={n}: {detail}")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_FAILED


# ---------------------------------------------------------------------------
# entry point


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="origami-h2",
        description="Primitive square-tiled surfaces in H(2): census, orbits, "
        "cusps and noncongruence certificates.",
    )
    parser.add_argument("--cache-dir", metavar="PATH",
                        help="ignored: orbits are recomputed, which is faster than the "
                        "disk cache this option used to name; kept so old command lines run")
    parser.add_argument("--max-orbit-n", type=int, default=25, metavar="N",
                        help="largest n for which orbits are computed (default 25)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="table output format (counts, badcases)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("counts", help="census of primitive surfaces vs. the closed formulas")
    p.add_argument("n_min", type=int)
    p.add_argument("n_max", type=int)
    p.set_defaults(func=cmd_counts)

    p = sub.add_parser("orbit", help="SL(2,Z) orbit summary of one surface")
    p.add_argument("surface", help="1cyl(l1,l2,l3;t;h) | 2cyl(h1,h2,w1,w2,t1,t2) | L(a,b)")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("noncong", help="noncongruence certificate for a named stabiliser")
    p.add_argument("label", choices=("A", "B", "C"))
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_noncong)

    p = sub.add_parser("badcases", help="fixed d/δ reproduction table (factored)")
    p.set_defaults(func=cmd_badcases)

    p = sub.add_parser("verify", help="property sweep over all n <= n_max")
    p.add_argument("suite", choices=("levels", "orbits", "invariant"))
    p.add_argument("n_max", type=int)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.max_orbit_n < 3:
        parser.error("--max-orbit-n must be >= 3")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
