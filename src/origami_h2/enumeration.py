r"""Exhaustive enumeration of primitive H(2) origamis and formula checks.

Every H(2) origami is one- or two-cylinder, so the whole stratum at n squares
is swept in cylinder coordinates:

* two-cylinder: h1·w1 + h2·w2 = n with w1 < w2, twists t_i ∈ [0, w_i) —
  distinct primitive tuples give distinct surfaces (the decomposition
  round-trips exactly and ignores labels, so counting needs no key);
* one-cylinder: l1+l2+l3 = n, h = 1 (taller cylinders are never primitive),
  twist t ∈ [0, n) — tuples hit each surface exactly three times, through
  the rotation (l1,l2,l3,t) ↦ (l2,l3,l1,t−2·l1).

Primitivity in coordinates is gcd(h1,h2) = 1 together with
gcd(gcd(w1,w2), h2·t1 − h1·t2) = 1 (one-cylinder: gcd(l1,l2,l3) = 1), which
is the lattice-index test specialised to the builders.  One sweep, one
cylinder shape at a time, checks every candidate's laid-out permutations,
with no surface built: three corners, a decomposition that gives back the
enumerated tuple (one-cylinder tuples are kept only as their least rotation,
which is what the decomposition returns) and lattice index 1.  The corners
are not scanned: the layout gives them in closed form, and the commutator
check compares u∘r with r∘u as two byte strings, each made by one
``bytes.translate``, which differ exactly there.  Squares are bytes, so the
sweep takes n ≤ 256.  The census is that set of diagrams
(:func:`enumerate_diagrams`).

Counting is done in the same coordinates: per two-cylinder shape the number
of primitive twist pairs is w1·w2·φ(g)/g with g = gcd(w1,w2), and the odd-n
split by integer Weierstrass count applies :func:`weierstrass_count` once
per shape, with no twist sweep (see :func:`_classify_two_cylinder`).  The
closed formulas being verified: with P(n) = n²∏_{p|n}(1−1/p²),

    total = 3(n−2)·P(n)/8,   a_n = 3(n−1)·P(n)/16,   b_n = 3(n−3)·P(n)/16.
"""

from __future__ import annotations

from math import comb, gcd
from typing import Iterator, NamedTuple, Optional

from .congruence import divisor_sigma, divisors, euler_phi, formula_split, formula_total, moebius
from .origami_core import (
    CylinderDiagram,
    OneCylinder,
    TwoCylinder,
    _checked,
    _corners,
    _cut_corners,
    _decompose,
    _row_index,
    _shape,
    _twist_modulus,
    _up,
    lattice_index,
    least_rotation,
    weierstrass_count,
)


class CountReport(NamedTuple):
    """Counts at one n next to their formula values (None = not applicable)."""

    n: int
    total: int
    formula_total: int
    a_count: Optional[int] = None
    a_formula: Optional[int] = None
    b_count: Optional[int] = None
    b_formula: Optional[int] = None
    one_cylinder: Optional[int] = None  # informational, no formula to match
    two_cylinder: Optional[int] = None

    @property
    def match(self) -> bool:
        return (
            self.total == self.formula_total
            and self.a_count == self.a_formula
            and self.b_count == self.b_formula
        )


def _two_cylinder_shapes(n: int) -> Iterator[tuple]:
    """All (h1, h2, w1, w2) with h1·w1 + h2·w2 = n, w1 < w2 and coprime heights.

    A common factor of the heights divides every minor of
    :func:`lattice_index`, so it divides the lattice index: no twists make
    such a shape primitive.
    """
    for w2 in range(2, n):
        for h2 in range(1, (n - 1) // w2 + 1):
            m1 = n - h2 * w2
            for w1 in divisors(m1):
                if w1 >= w2:
                    break
                h1 = m1 // w1
                if gcd(h1, h2) == 1:
                    yield (h1, h2, w1, w2)


def _candidates(n: int) -> Iterator[tuple]:
    """The primitive n-square census in families: a shape's :func:`_shape` key, its tuples.

    One family per two-cylinder shape and one per normalised one-cylinder
    composition (l1, l2, l3), all of shape (n, 1).
    """
    for h1, h2, w1, w2 in _two_cylinder_shapes(n):
        g = gcd(w1, w2)
        yield (h1, h2, w1, w2), [
            (h1, h2, w1, w2, t1, t2) for t1 in range(w1) for t2 in range(w2) if gcd(g, h2 * t1 - h1 * t2) == 1
        ]
    for l1 in range(1, n - 1):
        for l2 in range(1, n - l1):
            l3 = n - l1 - l2
            if gcd(gcd(l1, l2), l3) != 1:
                continue
            # keep one tuple per rotation class; the oracle tests pin that the
            # rotation is the full overcount.  Unequal lengths alone decide which
            # reading is least, so most compositions are skipped whole; equal
            # lengths l pass the gcd test only at l = 1, where the one twist is 0.
            if least_rotation(OneCylinder(l1, l2, l3, 0, 1))[:3] != (l1, l2, l3):
                continue
            yield (n, 1), [(l1, l2, l3, t, 1) for t in range(_twist_modulus(l1, l2, l3))]


def _sweep(n: int) -> Iterator[CylinderDiagram]:
    """Each candidate diagram, once checked on its laid-out permutations.

    A family's candidates share their lengths and heights, so :func:`_checked`
    and :func:`_shape` run once per family, and the row index of the shared
    ``right`` (:func:`_row_index`, n steps) is built unless it is ``r``, the
    tuple last indexed.  Squares are held in bytes, so n ≤ 256: ``rb`` is r
    as bytes and ``rtab`` its 256-byte translation table.  Each candidate's
    :func:`_up` u gives u∘r as ``rb`` translated through u and r∘u as u
    translated through ``rtab``; the two must differ exactly at the
    candidate's closed-form corners (:func:`_cut_corners`), so the surface
    has three corners, on the squares its layout says.  The diagram read back
    from them, which is yielded, must be the candidate, of lattice index 1.
    """
    if n < 3:
        raise ValueError("H(2) needs at least 3 squares")
    if n > 256:
        raise ValueError(f"the census sweep holds squares in bytes: n = {n} exceeds 256")
    pad = bytes(range(n, 256))
    r = rows = None
    for dims, coords in _candidates(n):
        _checked(coords[0])
        shape = _shape(*dims)
        if shape[0] is not r:
            r, rows = shape[0], _row_index(shape[0], range(n))
            rb = bytes(r)
            rtab = rb + pad
        for c in coords:
            u = _up(shape, c)
            ub = bytearray(u)  # faster to make than bytes, and r∘u comes out mutable
            ur = rb.translate(ub + pad)
            ru = ub.translate(rtab)
            corners = _cut_corners(c)
            a, b, d = corners
            # off the corners they agree: r∘u with u∘r's corner bytes put in is
            # u∘r; at each corner they differ
            x, y, z = ru[a], ru[b], ru[d]
            ru[a], ru[b], ru[d] = ur[a], ur[b], ur[d]
            if ru != ur or x == ur[a] or y == ur[b] or z == ur[d]:
                scanned = _corners(r, u)
                if len(scanned) != 3:
                    raise AssertionError(f"{c} builds a surface with {len(scanned)} corners")
                raise AssertionError(f"{c} has its corners at {scanned}, not at {sorted(corners)}")
            found = _decompose(r, u, corners, rows)
            index = lattice_index(found)
            if found != c or index != 1:
                raise AssertionError(f"{c} decomposes as {found}, lattice determinant {index}")
            yield found


def enumerate_diagrams(n: int) -> set:
    """The normalised cylinder diagram of every primitive n-square H(2) origami."""
    return set(_sweep(n))


def _primitive_twist_pairs(h1: int, h2: int, w1: int, w2: int) -> int:
    """#{(t1,t2) primitive} = w1·w2·φ(g)/g for a shape with gcd(h1,h2) = 1.

    The residue h2·t1 − h1·t2 is equidistributed mod g = gcd(w1,w2) as the
    twists sweep their ranges, and exactly φ(g) of the g residues are units.
    """
    g = gcd(w1, w2)
    return (w1 // g) * euler_phi(g) * w2


def count_one_cylinder(n: int) -> int:
    """Number of primitive one-cylinder surfaces: n·#{gcd-1 compositions}/3."""
    tuples = n * sum(moebius(d) * comb(n // d - 1, 2) for d in divisors(n))
    if tuples % 3:
        raise ArithmeticError("one-cylinder rotation classes do not divide evenly")
    return tuples // 3


def count_two_cylinder(n: int) -> int:
    return sum(_primitive_twist_pairs(*shape) for shape in _two_cylinder_shapes(n))


def count_primitive(n: int) -> int:
    """Primitive surface count by coordinate arithmetic (no key building).

    Agrees with len(enumerate_diagrams(n)): two-cylinder tuples are in
    bijection with surfaces and one-cylinder tuples are exactly 3-to-1.
    """
    if n < 3:
        return 0
    return count_one_cylinder(n) + count_two_cylinder(n)


def _all_odd_compositions(m: int) -> int:
    # l_i = 2k_i + 1 turns odd compositions of m into weak ones of (m−3)/2
    return comb((m - 3) // 2 + 2, 2) if m >= 3 else 0


def _classify_one_cylinder(n: int) -> tuple:
    """(a, b) surface counts among one-cylinder surfaces at odd n.

    By :func:`weierstrass_count` a surface is in class A iff l1, l2, l3 are
    all odd, whatever its twist.
    """
    all_odd = n * sum(moebius(d) * _all_odd_compositions(n // d) for d in divisors(n))
    if all_odd % 3:
        raise ArithmeticError("rotation classes do not divide evenly")
    a = all_odd // 3
    return a, count_one_cylinder(n) - a


def _classify_two_cylinder(n: int) -> tuple:
    """(a, b) surface counts among two-cylinder surfaces at odd n.

    :func:`weierstrass_count` reads a twist only where a cylinder has even
    height and even width, and then only its parity (t1, or t2 as w1 is odd
    there).  Such a shape splits in half; every other shape takes the class
    of its zero-twist diagram.

    Lemma: if h1 and w1 are even, t1 is even in exactly half of the
    primitive pairs (likewise t2 if h2 and w2 are even).  Proof: odd n makes
    g = gcd(w1, w2) odd, so d = gcd(h1, g) is odd and 2d divides w1.  As t2
    sweeps [0, w2), h1·t2 covers the multiples of d mod g evenly, so the
    number of primitive pairs at a given t1 is a constant times
    [gcd(t1, d) = 1], since gcd(h2, d) = 1.  By CRT each block of 2d
    consecutive t1 holds φ(d) even and φ(d) odd ones coprime to d.
    """
    a = b = 0
    for h1, h2, w1, w2 in _two_cylinder_shapes(n):
        pairs = _primitive_twist_pairs(h1, h2, w1, w2)
        if h1 % 2 == w1 % 2 == 0 or h2 % 2 == w2 % 2 == 0:
            if pairs % 2:
                raise ArithmeticError(f"odd twist-parity split at {(h1, h2, w1, w2)}")
            a += pairs // 2
            b += pairs // 2
        elif weierstrass_count(TwoCylinder(h1, h2, w1, w2, 0, 0)) == 1:
            a += pairs
        else:
            b += pairs
    return a, b


def classify(n: int) -> CountReport:
    """Partition the primitive count at odd n by the Weierstrass invariant."""
    if n % 2 == 0 or n < 5:
        raise ValueError("classification needs odd n >= 5")
    a1, b1 = _classify_one_cylinder(n)
    a2, b2 = _classify_two_cylinder(n)
    a, b = a1 + a2, b1 + b2
    a_f, b_f = formula_split(n)
    return CountReport(n, a + b, formula_total(n), a, a_f, b, b_f, a1 + b1, a2 + b2)


def verify_counts(n_min: int, n_max: int) -> list:
    """Enumerate every n in the range and compare against the formulas.

    Totals count the checked diagrams of the census sweep, with no key
    built and no diagram kept; odd n ≥ 5 additionally get the invariant
    split (computed in coordinates, so a disagreement between the two
    pipelines also shows up as a failed match).
    """
    if not 3 <= n_min <= n_max:
        raise ValueError(f"invalid range [{n_min}, {n_max}]")
    reports = []
    for n in range(n_min, n_max + 1):
        total = sum(1 for _ in _sweep(n))
        if n >= 5 and n % 2:
            report = classify(n)._replace(total=total)
        else:
            one, two = count_one_cylinder(n), count_two_cylinder(n)
            report = CountReport(n, total, formula_total(n), one_cylinder=one, two_cylinder=two)
        reports.append(report)
    return reports


def total_count_with_imprimitive(n: int) -> int:
    """Count with torus covers included: Σ_{d|n} σ(n/d) · primitive(d)."""
    if n < 3:
        raise ValueError("H(2) needs at least 3 squares")
    return sum(divisor_sigma(n // d) * count_primitive(d) for d in divisors(n))
