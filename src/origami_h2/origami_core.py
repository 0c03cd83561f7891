r"""Square-tiled surfaces with a single cone point of angle 6π.

A square-tiled surface (origami) on n unit squares is a pair of permutations
``(right, up)`` of {0, .., n-1}: ``right[i]`` is the square across square i's
right edge, ``up[i]`` the square across its top edge.  The surface is connected
iff the two permutations act transitively, and it lies in the stratum H(2) iff
their commutator is a 3-cycle fixing the other n-3 squares.

Every H(2) origami decomposes into one or two horizontal cylinders.  This
module holds the combinatorial surface type, the builders for both cylinder
shapes, the inverse decomposition, canonical forms (for orbit bookkeeping),
and two rules read off the cylinder diagram: the lattice index of the
relative periods (primitivity) and, by parities alone, the count of integer
Weierstrass points that separates the two odd-n orbit classes.

Conventions used throughout (all anchored by tests):

* Two-cylinder coordinates ``(h1, h2, w1, w2, t1, t2)`` with ``w1 < w2``:
  the wide cylinder (width w2, height h2) sits at the bottom, the narrow one
  (w1, h1) on top of its first w1 columns.  Going up from the wide cylinder's
  top row, position x lands at s = (x - t2) mod w2: in the narrow cylinder's
  bottom row if s < w1, back in the wide cylinder's bottom row otherwise.
  Going up from the narrow cylinder's top row, position x lands at
  (x - t1) mod w1 in the wide cylinder's bottom row.
* One-cylinder coordinates ``(l1, l2, l3, t, h)``: a single cylinder of width
  w = l1+l2+l3 and height h whose top is cut at 0, l1, l1+l2 and glued to the
  bottom cut in reversed order (l3, l2, l1), shifted by the twist t.
  The same surface has three such readings, one per top cut taken as
  position 0: (l1, l2, l3, t) ↦ (l2, l3, l1, t − 2·l1 mod w) steps to the
  next, and the normal form is the least of the three
  (:func:`least_rotation`).
* The shear T = [[1,1],[0,1]] moves each twist by the cylinder's height, with
  the sign set by the conventions above: a two-cylinder diagram takes
  t1 + h1 (mod w1) and t2 + h2 (mod w2), a one-cylinder one t − h (mod w)
  and then its least rotation.  S = [[0,1],[-1,0]] exchanges horizontal and
  vertical.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import gcd
from struct import pack, unpack
from typing import NamedTuple, Union


class OneCylinder(NamedTuple):
    """One horizontal cylinder: saddle connection lengths, twist, height."""

    l1: int
    l2: int
    l3: int
    t: int
    h: int

    @property
    def n(self) -> int:
        return (self.l1 + self.l2 + self.l3) * self.h


class TwoCylinder(NamedTuple):
    """Two horizontal cylinders: heights h1, h2, widths w1 < w2, twists."""

    h1: int
    h2: int
    w1: int
    w2: int
    t1: int
    t2: int

    @property
    def n(self) -> int:
        return self.h1 * self.w1 + self.h2 * self.w2


CylinderDiagram = Union[OneCylinder, TwoCylinder]


class InvalidSurfaceError(ValueError):
    """Well-formed surface description that violates a geometric constraint."""


def _inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _cycles(p) -> list:
    """The cycles of the permutation p, each from its least point, in that order."""
    seen = bytearray(len(p))
    cycles = []
    for x in range(len(p)):
        cyc = []
        while not seen[x]:
            seen[x] = 1
            cyc.append(x)
            x = p[x]
        if cyc:
            cycles.append(cyc)
    return cycles


def _check_perm(p, n: int, name: str) -> None:
    if not p:
        raise ValueError(f"{name} is empty: a surface has at least one square")
    # by type, since 1.0 and True would pass the sorted comparison
    if set(map(type, p)) != {int} or len(p) != n or sorted(p) != list(range(n)):
        raise ValueError(f"{name} is not a permutation of 0..{n - 1}: {p!r}")


class Origami:
    """An origami as the permutation pair (right, up) on squares 0..n-1.

    Instances are immutable values; all operations on them are pure functions.
    """

    __slots__ = ("n", "right", "up")

    def __init__(self, right, up, check: bool = True):
        right = tuple(right)
        up = tuple(up)
        n = len(right)
        if check:
            _check_perm(right, n, "right")
            _check_perm(up, n, "up")
            if not _is_transitive(right, up):
                raise ValueError("permutation pair is not transitive (disconnected surface)")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "up", up)

    def __setattr__(self, *args):
        raise AttributeError("Origami is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Origami)
            and self.right == other.right
            and self.up == other.up
        )

    def __hash__(self):
        return hash((self.right, self.up))

    def __repr__(self):
        return f"Origami({_cycles_str(self.right)}, {_cycles_str(self.up)})"


def _is_transitive(right, up) -> bool:
    n = len(right)
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        x = stack.pop()
        for y in (right[x], up[x]):
            if not seen[y]:
                seen[y] = 1
                count += 1
                stack.append(y)
    return count == n


def _corners(r, u) -> list:
    """The squares y whose top-right vertex does not close up: u(r(y)) ≠ r(u(y)).

    The commutator r∘u∘r⁻¹∘u⁻¹ sends u(r(y)) to r(u(y)), and y ↦ u(r(y)) is a
    bijection, so there is one corner per square the commutator moves.  A
    derangement of three points is a 3-cycle, so the surface lies in H(2)
    iff there are exactly three corners: the squares whose top-right vertex
    is the cone point.
    """
    return [y for y in range(len(r)) if u[r[y]] != r[u[y]]]


def in_h2(o: Origami) -> bool:
    """True iff the commutator is one 3-cycle plus fixed points (single zero, angle 6π)."""
    return len(_corners(o.right, o.up)) == 3


# ---------------------------------------------------------------------------
# builders


def build_two_cylinder(h1: int, h2: int, w1: int, w2: int, t1: int, t2: int) -> Origami:
    """Origami with the two-cylinder diagram (h1, h2, w1, w2, t1, t2).

    Twists may be arbitrary integers; they are reduced modulo the widths.
    Raises InvalidSurfaceError unless :func:`_checked` accepts the diagram.
    """
    return build_from_diagram(TwoCylinder(h1, h2, w1, w2, t1, t2))


def build_one_cylinder(l1: int, l2: int, l3: int, t: int = 0, h: int = 1) -> Origami:
    """Origami made of one cylinder of width l1+l2+l3 and height h.

    The top boundary splits into arcs of lengths (l1, l2, l3); the bottom is
    the reversed sequence (l3, l2, l1), and the twist t rotates the gluing.
    """
    return build_from_diagram(OneCylinder(l1, l2, l3, t, h))


def _checked(diag: CylinderDiagram) -> CylinderDiagram:
    """``diag``, if its lengths and heights are positive and, for two cylinders, w1 < w2.

    Coordinates are read by position, so a plain tuple is checked as its diagram.
    """
    if len(diag) == 5:
        if min(*diag[:3], diag[4]) < 1:
            raise InvalidSurfaceError("one-cylinder lengths and height must be positive")
    elif min(diag[:4]) < 1:
        raise InvalidSurfaceError("cylinder dimensions must be positive")
    elif diag[2] >= diag[3]:
        raise InvalidSurfaceError(f"need w1 < w2, got w1={diag[2]}, w2={diag[3]}")
    return diag


def _perms(diag: CylinderDiagram) -> tuple:
    """(right, up) of the surface of ``diag`` once :func:`_checked` accepts it.

    ``right`` is the tuple its shape's layouts share and ``up`` a fresh list.
    """
    return _layout(_checked(diag))[:2]


# Cylinder shapes whose twist-free layout :func:`_shape` keeps.  The census
# lays out each shape's twists one after another, so it misses once per
# shape at any bound.  An orbit's quarter turns touch few shapes and hit 95 %
# of the time or more: 27 shapes at B₃₁, 103 at B₆₁, 247 at B₁₀₁ and 762 at
# B₂₀₁, of the 2 585 there are at n = 201, so this bound holds every shape
# of an orbit up to n = 201.  Unbounded, ``counts 3 100`` would keep all
# 31 482 shapes of its sweep: 69.3 MB max RSS, against 18.5 MB at this bound
# and 17.4 MB with no memo (2-core x86-64, Python 3.11).
LAYOUT_MEMO_SIZE = 1024


@lru_cache(maxsize=LAYOUT_MEMO_SIZE)
def _shape(*dims) -> tuple:
    """The twist-free half of the layouts of a shape (w, h) or (h1, h2, w1, w2).

    (right, rows, lands, …): ``right`` as one tuple, then for each cylinder,
    the wide one's first, the ``up`` images of its rows below the top row
    and the squares its top row lands on at twist 0, written twice so that
    every twist reads one slice.
    """
    if len(dims) == 2:
        w, h = dims
        n = w * h
        right = list(range(1, n + 1))
        right[w - 1 :: w] = range(0, n, w)
        return tuple(right), (*range(w, n),), (*range(w),) * 2
    h1, h2, w1, w2 = dims
    nbig = h2 * w2
    n = nbig + h1 * w1
    right = list(range(1, n + 1))
    right[w2 - 1 : nbig : w2] = range(0, nbig, w2)
    right[nbig + w1 - 1 :: w1] = range(nbig, n, w1)
    # wide top position x lands at s = (x - t2) mod w2 of the bottom rows: the
    # narrow one's for s < w1, the wide one's otherwise (cuts at t2, t2 + w1)
    wide = (*range(nbig, nbig + w1), *range(w1, w2))
    return tuple(right), (*range(w2, nbig),), wide * 2, (*range(nbig + w1, n),), (*range(w1),) * 2


def _up(shape: tuple, diag) -> list:
    """``up`` of ``diag``, or of its plain coordinate tuple, from its shape's :func:`_shape` entry."""
    if len(diag) == 5:
        l1, l2, l3, t, _ = diag
        _, rows, lands = shape
        w = l1 + l2 + l3
        t %= w
        # the top row's arcs A=[0,l1), B=[l1,l1+l2), C=[l1+l2,w) land in reversed
        # order on the bottom row, which the twist rotates: read as C, B, A, the
        # j-th square lands on lands[t + j]
        return [*rows, *lands[t + l2 + l3 : t + w], *lands[t + l3 : t + l2 + l3], *lands[t : t + l3]]
    _, _, w1, w2, t1, t2 = diag
    _, rows2, wide, rows1, narrow = shape
    s1, s2 = w1 - t1 % w1, w2 - t2 % w2
    return [*rows2, *wide[s2 : s2 + w2], *rows1, *narrow[s1 : s1 + w1]]


def _cut_corners(diag) -> list:
    """The corners of ``diag``'s layout, or of its plain coordinate tuple, in closed form.

    They are the squares before the three cuts of the top rows: the one
    cylinder's at 0 (the row's last square), l1 and l1 + l2; the narrow
    one's at t1, which lands on the wide bottom row's position 0; and the
    wide one's at t2 and t2 + w1, where its landings change rows.
    """
    if len(diag) == 5:
        l1, l2, l3, _, h = diag
        n = (l1 + l2 + l3) * h
        return [n - 1, n - l2 - l3 - 1, n - l3 - 1]
    h1, h2, w1, w2, t1, t2 = diag
    top2, top1 = h2 * w2 - w2, h2 * w2 + h1 * w1 - w1  # the top rows' first squares
    return [top2 + (t2 - 1) % w2, top2 + (t2 + w1 - 1) % w2, top1 + (t1 - 1) % w1]


def _layout(diag: CylinderDiagram) -> tuple:
    """(right, up, corners) of the surface the builders make from ``diag``.

    The one path from a diagram to its lists: builders and quarter turns
    call it, and the census sweep, which looks each shape up once, calls its
    :func:`_up` and :func:`_cut_corners`.  Rows are numbered up from the
    bottom of each cylinder, the wide one's first, and ``right`` steps
    right, wrapping at the row's end.  Only the top rows' landings depend
    on the twists, so ``right`` is the tuple that every layout of the shape
    shares (:func:`_shape`), and ``up`` a fresh list of the shape's rows
    with each top row read as one slice of its doubled landings (three
    slices for the one cylinder's three arcs).  The corners are not
    scanned: :func:`_cut_corners` gives them in closed form, and they are
    the squares :func:`_corners` would find, as the census sweep checks on
    every layout it makes.  The corner test is symmetric in right and up,
    so they are also the corners of the transposed pair (up, right).
    """
    if isinstance(diag, OneCylinder):
        l1, l2, l3, _, h = diag
        shape = _shape(l1 + l2 + l3, h)
    else:
        h1, h2, w1, w2, _, _ = diag
        shape = _shape(h1, h2, w1, w2)
    return shape[0], _up(shape, diag), _cut_corners(diag)


def build_l_shape(a: int, b: int) -> Origami:
    """The L-shaped surface on a+b-1 squares: an (a-1)x1 column over a 1xb row (a, b >= 2)."""
    return build_two_cylinder(a - 1, 1, 1, b, 0, 0)


def least_rotation(diag: OneCylinder) -> OneCylinder:
    """The normal form of a one-cylinder diagram: the least of its three readings.

    Reading the top from the next cut moves the origin l1 to the right and
    l1 to the end.  The bottom, in reversed order, then starts at its l1
    arc, l2 + l3 past its old start, so (l1, l2, l3, t) ↦
    (l2, l3, l1, t + (l2 + l3) − l1 ≡ t − 2·l1 mod w).  Unequal lengths
    never tie, so their triples alone pick the least reading, and only that
    one is built.  Equal lengths l read the twist t (mod 3l) as t, t + l and
    t + 2l, so the least reading keeps it mod l.
    """
    l1, l2, l3, t, h = diag
    if l1 == l2 == l3:
        return OneCylinder(l1, l2, l3, t % l1, h)
    w = l1 + l2 + l3
    second, third = (l2, l3, l1), (l3, l1, l2)
    if second < third and second < (l1, l2, l3):
        return OneCylinder(l2, l3, l1, (t - 2 * l1) % w, h)
    if third < (l1, l2, l3):
        return OneCylinder(l3, l1, l2, (t - 2 * (l1 + l2)) % w, h)
    return diag


def _twist_modulus(l1: int, l2: int, l3: int) -> int:
    """The modulus of a normalised one-cylinder twist: l for equal lengths l, else the width.

    :func:`least_rotation` keeps an equal-length twist mod l, and unequal
    lengths alone fix the least reading.
    """
    return l1 if l1 == l2 == l3 else l1 + l2 + l3


# ---------------------------------------------------------------------------
# cylinder decomposition


class MalformedSurfaceError(RuntimeError):
    """Horizontal decomposition did not produce one or two cylinders."""


def cylinder_decomposition(o: Origami) -> CylinderDiagram:
    """The horizontal cylinder diagram of ``o``; the vertical one is that of ``apply_S(o)``.

    Raises ValueError for a surface outside H(2) and MalformedSurfaceError
    for a flat torus or a cylinder count other than 1 or 2, which cannot
    happen in H(2).
    """
    corners = _corners(o.right, o.up)
    if not corners:
        raise MalformedSurfaceError("rigid row gluings form a cycle (flat torus)")
    if len(corners) != 3:
        raise ValueError("surface is not in H(2)")
    return _decompose(o.right, o.up, corners, _row_index(o.right, corners))


def _row_index(r, squares) -> tuple:
    """(cycle, place, lengths) of the r-cycles through ``squares``, walked once.

    A square on them gets its cycle's number and its place from where the
    walk entered the cycle, any other square cycle −1.  Over ``range(n)`` one
    index serves all layouts of a shape, as they share ``right`` (the census
    sweep); over the three corners it walks just the top rows.
    """
    cycle = [-1] * len(r)
    place = [0] * len(r)
    lengths = []
    for s in squares:
        if cycle[s] < 0:
            c = len(lengths)
            x, k = s, 0
            while cycle[x] < 0:
                cycle[x] = c
                place[x] = k
                k += 1
                x = r[x]
            lengths.append(k)
    return cycle, place, lengths


def _decompose(r, u, corners, rows) -> CylinderDiagram:
    """The cylinder diagram of the H(2) pair (r, u) with the given three corners.

    ``rows`` is :func:`_row_index` of r over squares that include the
    corners, whose cycles are the top rows.  Offsets along a row are place
    differences modulo its length, and columns are climbed from a bottom
    square u(q) to the next top row, so beyond the index a call costs the heights.

    One cylinder: the first break q = r(corner) is position 0, the arcs
    between the cuts from q are (l1, l2, l3), and the twist is where u(q)
    lands on the bottom row, measured from the column under q, less l2 + l3
    (≡ plus l1 mod w); the normal form is the least rotation of that
    reading.  Two cylinders: the narrow top row holds one break q1, and
    u(q1) is the wide bottom row's position 0.  Of the wide top row's two
    breaks, the one whose up-image climbs into the narrow cylinder, q2,
    lands on the narrow bottom row's position 0.  t1 and t2 are the
    positions of q1 and q2 counted from the top of the column climbed from
    their cylinder's position 0.
    """
    cycle, place, lengths = rows
    n = len(r)
    q0, q1, q2 = r[corners[0]], r[corners[1]], r[corners[2]]
    c0, c1, c2 = cycle[q0], cycle[q1], cycle[q2]
    if c0 == c1 == c2:
        k = lengths[c0]
        b = place[q0]
        p1, p2 = (place[q1] - b) % k, (place[q2] - b) % k
        if p2 < p1:
            p1, p2 = p2, p1
        x = u[q0]
        for h in range(1, n + 1):
            if cycle[x] == c0:
                break
            x = u[x]
        else:
            raise MalformedSurfaceError("rigid row gluings form a cycle")
        if k * h != n:
            raise MalformedSurfaceError("row gluing structure is inconsistent")
        return least_rotation(OneCylinder(p1, p2 - p1, k - p2, (place[x] - b + p1) % k, h))
    # the lone break's row is the narrow one, the other two breaks share a row
    if c0 == c1:
        cn, cw, q1, wide = c2, c0, q2, (q0, q1)
    elif c0 == c2:
        cn, cw, wide = c1, c0, (q0, q2)
    elif c1 == c2:
        cn, cw, q1, wide = c0, c1, q0, (q1, q2)
    else:
        raise MalformedSurfaceError("3 cylinders; H(2) allows only 1 or 2")
    w1, w2 = lengths[cn], lengths[cw]
    if w1 == w2:
        raise MalformedSurfaceError("two cylinders of equal width cannot occur in H(2)")
    if w1 > w2:
        raise MalformedSurfaceError("the narrow cylinder's top must hold one corner")
    for i, q in enumerate((q1, *wide)):
        x = u[q]
        for h in range(1, n + 1):
            if cycle[x] == cn or cycle[x] == cw:
                break
            x = u[x]
        else:
            raise MalformedSurfaceError("rigid row gluings form a cycle")
        if not i:
            a2, h2 = x, h
        elif cycle[x] == cn:
            break  # x is on the narrow top row, h rows up: h1
    else:
        raise MalformedSurfaceError("the wide cylinder does not glue into the narrow one")
    if h * w1 + h2 * w2 != n:
        raise MalformedSurfaceError("row gluing structure is inconsistent")
    return TwoCylinder(h, h2, w1, w2, (place[q1] - place[x]) % w1, (place[q] - place[a2]) % w2)


# ---------------------------------------------------------------------------
# canonical form


def canonical_key(o: Origami) -> bytes:
    """Relabelling-invariant encoding of the origami.

    The start squares are the squares the commutator moves: the three around
    the cone point in H(2), or every square when the commutator is trivial.
    Any relabelling maps this set onto the start set of the relabelled
    surface.  From each start, squares are relabelled in breadth-first order
    over (right, up), which reaches every square because both are
    permutations of a transitive pair; the key is the least of these whole
    encodings.  So two origamis get equal keys iff they differ by a
    simultaneous relabelling, and in H(2), with three starts, a key costs
    O(n).  The key is self-describing: ``pack(">H", n)`` followed by the
    relabelled (right, up) images as ``>H`` words, up to n = 65535 (a larger
    n raises ValueError).  Big-endian words compare like their values, so
    keys sort as their label lists do.  A key decodes back to the canonical
    representative via :func:`origami_from_key`.
    """
    r, u = o.right, o.up
    n = len(r)
    if n > 0xFFFF:
        raise ValueError("a canonical key holds at most 65535 squares")
    # the commutator moves u(r(y)) exactly for the corners y
    starts = [u[r[y]] for y in _corners(r, u)] or range(n)
    best = None
    for s0 in starts:
        lab = [-1] * n
        lab[s0] = 0
        order = [s0]
        flat = []
        for x in order:
            for y in (r[x], u[x]):
                if lab[y] < 0:
                    lab[y] = len(order)
                    order.append(y)
                flat.append(lab[y])
        if best is None or flat < best:
            best = flat
    # a start reaches only its own component of a pair built with check=False
    if len(best) != 2 * n:
        raise ValueError("permutation pair is not transitive (disconnected surface)")
    return pack(f">H{2 * n}H", n, *best)


def _key_images(key: bytes) -> tuple:
    """The (right, up) images stored in a canonical key, unvalidated."""
    if len(key) < 2:
        raise ValueError("corrupt canonical key")
    (n,) = unpack(">H", key[:2])
    if len(key) != 2 + 4 * n:
        raise ValueError("corrupt canonical key")
    flat = unpack(f">{2 * n}H", key[2:])
    return flat[0::2], flat[1::2]


def origami_from_key(key: bytes) -> Origami:
    """Rebuild the canonical representative encoded by a canonical key."""
    return Origami(*_key_images(key))


def key_to_text(key: bytes) -> str:
    """Printable form of a canonical key: right images, '|', up images."""
    right, up = _key_images(key)
    return ",".join(map(str, right)) + "|" + ",".join(map(str, up))


def key_from_text(text: str) -> bytes:
    """The key of a text that must be the canonical form of an H(2) surface."""
    rpart, upart = text.split("|")
    if max(rpart.count(","), upart.count(",")) >= 0xFFFF:  # before any entry is converted
        raise ValueError("a canonical key holds at most 65535 squares")
    right = [int(v) for v in rpart.split(",")]
    up = [int(v) for v in upart.split(",")]
    o = Origami(right, up)
    # checked first: outside H(2) the key may try all n starts, O(n²) in all
    if not in_h2(o):
        raise ValueError("text is not a surface in H(2)")
    key = canonical_key(o)
    if key_to_text(key) != text:
        raise ValueError("text does not encode a canonical representative")
    return key


# ---------------------------------------------------------------------------
# primitivity


def lattice_index(diag: CylinderDiagram) -> int:
    """Index in Z² of the lattice spanned by the diagram's relative periods.

    The periods are generated by (gcd of the horizontal saddle lengths, 0)
    and one crossing vector (t_i, h_i) per cylinder, and the index of the
    lattice they span is the gcd of their 2×2 minors.
    """
    if isinstance(diag, OneCylinder):
        return gcd(diag.l1, diag.l2, diag.l3) * diag.h
    h1, h2, w1, w2, t1, t2 = diag
    g = gcd(w1, w2)
    return gcd(g * h1, g * h2, t1 * h2 - t2 * h1)


def is_primitive(o: Origami) -> bool:
    """True iff the relative periods span all of Z² (no torus factorisation)."""
    return lattice_index(cylinder_decomposition(o)) == 1


# ---------------------------------------------------------------------------
# Weierstrass invariant


def weierstrass_count(diag: CylinderDiagram) -> int:
    """Integer Weierstrass points of a primitive diagram with odd n: 1 or 3.

    The hyperelliptic involution fixes six points: the cone point, two on
    each core curve (doubled x = c and c + w, at half height) and the
    midpoints of the saddle connections it maps to themselves.  One is a
    vertex iff its doubled coordinates are even.  One cylinder: h = 1 keeps
    the core points off the lattice, and a bottom saddle of length l has its
    midpoint at doubled x = 2·start + l.  Two cylinders: c is t1 for the
    narrow cylinder and w1 + t2 for the wide one, whose self-glued top saddle
    has doubled x = 2·t2 + w1 + w2.  Core points count only on an
    even-height cylinder, and the heights are coprime.  Both odd forces
    w1 + w2 odd: 1.  Else take (w, c) of the even-height cylinder; the other
    has odd width, so the saddle counts iff w is odd, and then so does
    exactly one core point: 3.  For even w both core points count iff c is
    even.
    """
    if isinstance(diag, OneCylinder):
        return 1 + sum(1 for length in diag[:3] if length % 2 == 0)
    h1, h2, w1, w2, t1, t2 = diag
    if h1 % 2 and h2 % 2:
        return 1
    w, c = (w1, t1) if h1 % 2 == 0 else (w2, w1 + t2)
    return 3 if w % 2 or c % 2 == 0 else 1


def integer_weierstrass_count(o: Origami) -> int:
    """Number of fixed points of the hyperelliptic involution at square vertices.

    For odd n the count is 1 or 3 and separates the two orbit classes (see
    :func:`weierstrass_count`); even n and imprimitive surfaces are rejected.
    """
    if o.n % 2 == 0:
        raise ValueError("invariant is defined for odd square counts only")
    diag = cylinder_decomposition(o)
    if lattice_index(diag) != 1:
        raise ValueError("invariant requires a primitive surface")
    return weierstrass_count(diag)


# ---------------------------------------------------------------------------
# text serialization


def _cycles_str(p) -> str:
    return "".join("(" + " ".join(str(v + 1) for v in cyc) + ")" for cyc in _cycles(p))


_ONE_CYL_RE = re.compile(
    r"^1cyl\(\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*;\s*(-?\d+)\s*;\s*(-?\d+)\s*\)$"
)
_TWO_CYL_RE = re.compile(r"^2cyl\(\s*" + r"\s*,\s*".join([r"(-?\d+)"] * 5) + r"\s*,\s*(-?\d+)\s*\)$")
_L_RE = re.compile(r"^L\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)$")


def parse_diagram(text: str) -> CylinderDiagram:
    """Parse ``1cyl(l1,l2,l3;t;h)``, ``2cyl(h1,h2,w1,w2,t1,t2)`` or ``L(a,b)``."""
    text = text.strip()
    m = _ONE_CYL_RE.match(text)
    if m:
        l1, l2, l3, t, h = _checked(OneCylinder(*map(int, m.groups())))
        return OneCylinder(l1, l2, l3, t % (l1 + l2 + l3), h)
    m = _TWO_CYL_RE.match(text)
    if m:
        h1, h2, w1, w2, t1, t2 = _checked(TwoCylinder(*map(int, m.groups())))
        return TwoCylinder(h1, h2, w1, w2, t1 % w1, t2 % w2)
    m = _L_RE.match(text)
    if m:
        a, b = map(int, m.groups())
        # a < 2 or b < 2 fails positivity or w1 < w2
        return _checked(TwoCylinder(a - 1, 1, 1, b, 0, 0))
    raise ValueError(f"cannot parse surface description {text!r}")


def build_from_diagram(diag: CylinderDiagram) -> Origami:
    return Origami(*_perms(diag), check=False)
