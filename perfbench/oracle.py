"""Answer checks for the benchmark, derived without the library's helpers.

Every expected value here is recomputed from the closed formulas the paper
states, with stdlib arithmetic only: the census total
3(n−2)·n²·∏_{p|n}(1−1/p²)/8 and its odd-n split by the integer Weierstrass
count, the orbit index for A/B/C, the level lcm(1..n) (divided by 4 for B),
and the noncongruence obstruction δ = [Γ(1):Γ(ℓ/m)] with d ∤ δ.  A check
returns a list of problems; an empty list means the answer is right.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import reduce
from math import gcd, lcm


def prime_factors(n: int) -> dict:
    """{p: e} for n >= 1, by trial division."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def stratum_factor(n: int) -> Fraction:
    """n²·∏_{p|n}(1 − 1/p²) as an exact rational."""
    value = Fraction(n * n)
    for p in prime_factors(n):
        value *= 1 - Fraction(1, p * p)
    return value


def _integral(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"{what} is not an integer: {value}")
    return value.numerator


def census_total(n: int) -> int:
    return _integral(Fraction(3 * (n - 2), 8) * stratum_factor(n), f"total({n})")


def census_split(n: int) -> tuple:
    """(a_n, b_n): surfaces with 1 and with 3 integer Weierstrass points, odd n >= 5."""
    p = stratum_factor(n)
    a = _integral(Fraction(3 * (n - 1), 16) * p, f"a({n})")
    b = _integral(Fraction(3 * (n - 3), 16) * p, f"b({n})")
    return a, b


def orbit_index(label: str, n: int) -> int:
    """Size of the named orbit: A and B split the odd census, C is all of it."""
    if label == "C":
        return census_total(n)
    a, b = census_split(n)
    return a if label == "A" else b


def expected_level(label: str, n: int) -> int:
    ell = reduce(lcm, range(1, n + 1))
    return ell // 4 if label == "B" else ell


def principal_index(m: int) -> int:
    """[Γ(1):Γ(m)] = ∏_{p^e ∥ m} p^{3e−2}(p²−1)."""
    out = 1
    for p, e in prime_factors(m).items():
        out *= p ** (3 * e - 2) * (p * p - 1)
    return out


def label_of_invariant(n: int, invariant) -> str:
    """The orbit class named by a reported integer Weierstrass count."""
    if n % 2 == 0:
        return "C"
    return {1: "A", 3: "B"}.get(invariant, "?")


# ---------------------------------------------------------------------------
# parsers: program output -> plain values


def parse_counts(stdout: str) -> dict:
    """The single data row of ``counts n n`` CSV output, as a dict of strings."""
    lines = stdout.strip().splitlines()
    if len(lines) != 2:
        raise ValueError(f"expected header and one row, got {len(lines)} lines")
    header, row = lines[0].split(","), lines[1].split(",")
    if len(header) != len(row):
        raise ValueError("row width differs from header")
    return dict(zip(header, row))


def parse_json(stdout: str) -> dict:
    doc = json.loads(stdout)
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object")
    return doc


PARSERS = {"counts": parse_counts, "orbit": parse_json, "noncong": parse_json}


# ---------------------------------------------------------------------------
# checks: parsed answer -> problems


def check_counts(n: int, row: dict) -> list:
    problems = []
    want = census_total(n)
    if row.get("n") != str(n):
        problems.append(f"n={row.get('n')!r}, expected {n}")
    if row.get("total") != str(want):
        problems.append(f"total={row.get('total')!r}, expected {want}")
    if row.get("formula_total") != str(want):
        problems.append(f"formula_total={row.get('formula_total')!r}, expected {want}")
    if n % 2 and n >= 5:
        a, b = census_split(n)
        if (row.get("a_count"), row.get("b_count")) != (str(a), str(b)):
            problems.append(f"a/b = {row.get('a_count')}/{row.get('b_count')}, expected {a}/{b}")
    elif row.get("a_count") or row.get("b_count"):
        problems.append("a/b split reported for even n")
    if row.get("match") != "true":
        problems.append(f"match={row.get('match')!r}")
    return problems


def check_orbit(n: int, want_label: str, doc: dict) -> list:
    """An ``orbit`` summary for a surface that the benchmark placed in ``want_label``."""
    problems = []
    if doc.get("n") != n:
        return [f"n={doc.get('n')!r}, expected {n}"]
    inv = doc.get("invariant")
    if n % 2 == 0 and inv is not None:
        problems.append(f"invariant={inv!r} at even n")
    label = label_of_invariant(n, inv)
    if label != want_label:
        problems.append(f"invariant {inv!r} names orbit {label}, surface is in {want_label}")
        return problems
    size = doc.get("size")
    if size != orbit_index(label, n):
        problems.append(f"size={size!r}, expected {orbit_index(label, n)}")
    widths = doc.get("cusp_widths")
    if not isinstance(widths, list) or not all(isinstance(w, int) and w > 0 for w in widths):
        return problems + [f"cusp_widths malformed: {widths!r}"]
    if sum(widths) != size:
        problems.append(f"cusp widths sum to {sum(widths)}, size is {size}")
    if widths != sorted(widths):
        problems.append("cusp widths not sorted")
    ell = doc.get("level")
    if ell != expected_level(label, n):
        problems.append(f"level={ell!r}, expected {expected_level(label, n)}")
    if widths and ell != reduce(lcm, widths):
        problems.append(f"level={ell!r} is not lcm of the cusp widths")
    return problems


def check_noncong(label: str, n: int, doc: dict) -> list:
    problems = []
    if doc.get("verdict") != "noncongruence":
        return [f"verdict={doc.get('verdict')!r}"]
    if doc.get("n") != n or doc.get("orbit_label") != label:
        problems.append(f"echo n/label = {doc.get('n')!r}/{doc.get('orbit_label')!r}")
    fields = [doc.get(f) for f in ("d", "level", "m", "delta", "k", "k_prime")]
    if not all(isinstance(v, int) and v > 0 for v in fields):
        return problems + [f"non-positive or missing certificate fields: {fields}"]
    d, ell, m, delta, k, kp = fields
    if d != orbit_index(label, n):
        problems.append(f"d={d}, expected index {orbit_index(label, n)}")
    if ell != expected_level(label, n):
        problems.append(f"level={ell}, expected {expected_level(label, n)}")
    if ell % k or ell % kp:
        problems.append(f"cusp widths k={k}, k'={kp} do not divide the level")
    if ell % m:
        problems.append(f"m={m} does not divide the level")
    else:
        if gcd(m, k * kp) != 1:
            problems.append(f"gcd(m, k*k') = {gcd(m, k * kp)}")
        if gcd(m, ell // m) != 1:
            problems.append("level split m, level/m is not coprime")
        if delta != principal_index(ell // m):
            problems.append(f"delta={delta}, expected [Γ(1):Γ({ell // m})] = {principal_index(ell // m)}")
    if delta % d == 0:
        problems.append(f"d={d} divides delta={delta}: no obstruction")
    key = doc.get("surface_key")
    try:
        right, up = (list(map(int, half.split(","))) for half in key.split("|"))
        if sorted(right) != list(range(n)) or sorted(up) != list(range(n)):
            problems.append("surface_key is not a pair of permutations of n squares")
    except (AttributeError, ValueError):
        problems.append(f"surface_key malformed: {key!r}")
    return problems
