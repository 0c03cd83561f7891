r"""Square-tiled surfaces with a single cone point of angle 6π.

A square-tiled surface (origami) on n unit squares is a pair of permutations
``(right, up)`` of {0, .., n-1}: ``right[i]`` is the square across square i's
right edge, ``up[i]`` the square across its top edge.  The surface is connected
iff the two permutations act transitively, and it lies in the stratum H(2) iff
their commutator is a 3-cycle fixing the other n-3 squares.

Every H(2) origami decomposes into one or two horizontal cylinders.  This
module holds the combinatorial surface type, the builders for both cylinder
shapes, the inverse decomposition, canonical forms (for orbit bookkeeping),
the primitivity test through the holonomy lattice, and the count of integer
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
* The shear T = [[1,1],[0,1]] then changes each twist by the cylinder height
  (mod the width), and S = [[0,1],[-1,0]] exchanges horizontal and vertical.
"""

from __future__ import annotations

import re
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

    @property
    def width(self) -> int:
        return self.l1 + self.l2 + self.l3


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


class HolonomyLattice(NamedTuple):
    """Upper-triangular normal form [[a, b], [0, c]] of a rank-2 sublattice of Z^2."""

    a: int
    b: int
    c: int

    @property
    def determinant(self) -> int:
        return self.a * self.c


def _inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _check_perm(p, n: int, name: str) -> None:
    if len(p) != n or sorted(p) != list(range(n)):
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


def commutator(o: Origami) -> tuple:
    """The permutation right∘up∘right⁻¹∘up⁻¹ (functions composed right to left)."""
    r, u = o.right, o.up
    rinv, uinv = _inverse(r), _inverse(u)
    return tuple(r[u[rinv[uinv[x]]]] for x in range(o.n))


def in_h2(o: Origami) -> bool:
    """True iff the commutator is one 3-cycle plus fixed points (single zero, angle 6π)."""
    c = commutator(o)
    moved = [x for x in range(o.n) if c[x] != x]
    if len(moved) != 3:
        return False
    m = moved[0]
    return c[c[c[m]]] == m


def relabel(o: Origami, g) -> Origami:
    """Conjugate both permutations by g (simultaneous square relabelling)."""
    g = tuple(g)
    _check_perm(g, o.n, "g")
    r2 = [0] * o.n
    u2 = [0] * o.n
    for i in range(o.n):
        r2[g[i]] = g[o.right[i]]
        u2[g[i]] = g[o.up[i]]
    return Origami(r2, u2, check=False)


# ---------------------------------------------------------------------------
# builders


def build_two_cylinder(h1: int, h2: int, w1: int, w2: int, t1: int, t2: int) -> Origami:
    """Origami with the two-cylinder diagram (h1, h2, w1, w2, t1, t2).

    Twists may be arbitrary integers; they are reduced modulo the widths.
    Raises ValueError unless all dimensions are positive and w1 < w2.
    """
    if min(h1, h2, w1, w2) < 1:
        raise InvalidSurfaceError("cylinder heights and widths must be positive")
    if w1 >= w2:
        raise InvalidSurfaceError(f"need w1 < w2, got w1={w1}, w2={w2}")
    t1 %= w1
    t2 %= w2
    nbig = h2 * w2

    # Square ids: wide cylinder rows first (y*w2 + x, y = 0 bottom), then the
    # narrow cylinder (nbig + y*w1 + x).
    def big(x: int, y: int) -> int:
        return y * w2 + x

    def small(x: int, y: int) -> int:
        return nbig + y * w1 + x

    n = nbig + h1 * w1
    right = [0] * n
    up = [0] * n
    for y in range(h2):
        for x in range(w2):
            right[big(x, y)] = big((x + 1) % w2, y)
            if y < h2 - 1:
                up[big(x, y)] = big(x, y + 1)
            else:
                s = (x - t2) % w2
                up[big(x, y)] = small(s, 0) if s < w1 else big(s, 0)
    for y in range(h1):
        for x in range(w1):
            right[small(x, y)] = small((x + 1) % w1, y)
            if y < h1 - 1:
                up[small(x, y)] = small(x, y + 1)
            else:
                up[small(x, y)] = big((x - t1) % w1, 0)
    return Origami(right, up, check=False)


def build_one_cylinder(l1: int, l2: int, l3: int, t: int = 0, h: int = 1) -> Origami:
    """Origami made of one cylinder of width l1+l2+l3 and height h.

    The top boundary splits into arcs of lengths (l1, l2, l3); the bottom is
    the reversed sequence (l3, l2, l1), and the twist t rotates the gluing.
    """
    if min(l1, l2, l3) < 1:
        raise InvalidSurfaceError("saddle connection lengths must be positive")
    if h < 1:
        raise InvalidSurfaceError("height must be positive")
    w = l1 + l2 + l3
    t %= w
    n = w * h
    right = [0] * n
    up = [0] * n
    for y in range(h):
        for x in range(w):
            i = y * w + x
            right[i] = y * w + (x + 1) % w
            if y < h - 1:
                up[i] = i + w
            else:
                # arcs A=[0,l1), B=[l1,l1+l2), C=[l1+l2,w) land in reversed order
                if x < l1:
                    fx = x + l2 + l3
                elif x < l1 + l2:
                    fx = x - l1 + l3
                else:
                    fx = x - l1 - l2
                up[i] = (fx + t) % w
    return Origami(right, up, check=False)


def build_l_shape(a: int, b: int) -> Origami:
    """The L-shaped surface on a+b-1 squares: an (a-1)x1 column over a 1xb row."""
    if a < 2 or b < 2:
        raise InvalidSurfaceError("L(a, b) needs a, b >= 2")
    return build_two_cylinder(a - 1, 1, 1, b, 0, 0)


# ---------------------------------------------------------------------------
# cylinder decomposition


class MalformedSurfaceError(RuntimeError):
    """Horizontal decomposition did not produce one or two cylinders."""


def _rows(right) -> list:
    """Cycles of ``right`` in traversal order: the horizontal rows of squares."""
    n = len(right)
    seen = bytearray(n)
    rows = []
    for start in range(n):
        if seen[start]:
            continue
        row = [start]
        seen[start] = 1
        x = right[start]
        while x != start:
            row.append(x)
            seen[x] = 1
            x = right[x]
        rows.append(row)
    return rows


def _cylinder_chains(o: Origami) -> list:
    """Group rows into cylinders.

    A row glues rigidly to the row above when up commutes with right along it;
    rigid gluings are cylinder-internal, the others carry the cone point.
    Returns a list of chains, each a bottom-to-top list of rows.
    """
    r, u = o.right, o.up
    rows = _rows(r)
    row_of = {}
    for idx, row in enumerate(rows):
        for x in row:
            row_of[x] = idx
    rigid = [all(u[r[x]] == r[u[x]] for x in row) for row in rows]
    above = [row_of[u[row[0]]] if rigid[i] else None for i, row in enumerate(rows)]
    is_above = set(a for a in above if a is not None)
    chains = []
    used = set()
    for i in range(len(rows)):
        if i in is_above:
            continue
        chain = [i]
        while rigid[chain[-1]]:
            chain.append(above[chain[-1]])
            if len(chain) > len(rows):
                raise MalformedSurfaceError("rigid row gluings form a cycle (flat torus)")
        chains.append([rows[j] for j in chain])
        used.update(chain)
    if len(used) != len(rows):
        raise MalformedSurfaceError("row gluing structure is inconsistent")
    return chains


def _row_order(row, origin, right) -> list:
    """The row's squares starting at origin, following ``right``."""
    out = [origin]
    x = right[origin]
    while x != origin:
        out.append(x)
        x = right[x]
    return out


def cylinder_decomposition(o: Origami, direction: str = "horizontal") -> CylinderDiagram:
    """The cylinder diagram of ``o`` in the given direction.

    Horizontal decomposition reads the diagram straight off the rows; the
    vertical one is the horizontal decomposition of the quarter-turned
    surface.  Raises MalformedSurfaceError when the cylinder count is not
    1 or 2, which cannot happen for a surface in H(2).
    """
    if direction == "vertical":
        return cylinder_decomposition(_quarter_turn(o), "horizontal")
    if direction != "horizontal":
        raise ValueError(f"unknown direction {direction!r}")
    if not in_h2(o):
        raise ValueError("surface is not in H(2)")
    chains = _cylinder_chains(o)
    if len(chains) == 1:
        return _one_cylinder_diagram(o, chains[0])
    if len(chains) == 2:
        return _two_cylinder_diagram(o, chains)
    raise MalformedSurfaceError(f"{len(chains)} cylinders; H(2) allows only 1 or 2")


def _one_cylinder_diagram(o: Origami, chain) -> OneCylinder:
    r, u = o.right, o.up
    h = len(chain)
    bottom, top = chain[0], chain[-1]
    w = len(bottom)
    uinv = _inverse(u)
    rinv = _inverse(r)
    # corner candidates: positions on the top row where the gluing breaks
    breaks = [q for q in top if u[q] != r[u[rinv[q]]]]
    if len(breaks) != 3:
        raise MalformedSurfaceError(f"one-cylinder gluing with {len(breaks)} corners")
    best = None
    for q in breaks:
        order_top = _row_order(top, q, r)
        pos_top = {x: i for i, x in enumerate(order_top)}
        cuts = sorted(pos_top[b] for b in breaks)
        l1 = cuts[1] - cuts[0]
        l2 = cuts[2] - cuts[1]
        l3 = w - cuts[2]
        # the column under q runs straight down to the bottom row
        b0 = q
        for _ in range(h - 1):
            b0 = uinv[b0]
        pos_bot = {x: i for i, x in enumerate(_row_order(bottom, b0, r))}
        t = (pos_bot[u[q]] - l2 - l3) % w
        cand = OneCylinder(l1, l2, l3, t, h)
        if best is None or cand < best:
            best = cand
    return best


def _two_cylinder_diagram(o: Origami, chains) -> TwoCylinder:
    r, u = o.right, o.up
    uinv = _inverse(u)
    rinv = _inverse(r)
    chains.sort(key=lambda ch: len(ch[0]))
    small_chain, big_chain = chains
    w1, w2 = len(small_chain[0]), len(big_chain[0])
    if w1 >= w2:
        raise MalformedSurfaceError("two cylinders of equal width cannot occur in H(2)")
    h1, h2 = len(small_chain), len(big_chain)
    small_top = set(small_chain[-1])
    small_bottom = set(small_chain[0])
    big_bottom_row = big_chain[0]

    # origin of the wide cylinder: where the narrow cylinder's gluing range starts
    y0 = next(
        y for y in big_bottom_row if uinv[y] in small_top and uinv[rinv[y]] not in small_top
    )
    big_order = _row_order(big_bottom_row, y0, r)
    # climb the rigid part to coordinate the top row
    top_of = {x: x for x in big_order}
    for _ in range(h2 - 1):
        top_of = {x: u[top_of[x]] for x in big_order}
    # t2: top position whose up-image starts the narrow cylinder's bottom row
    t2 = next(
        x
        for x in range(w2)
        if u[top_of[big_order[x]]] in small_bottom
        and u[top_of[big_order[(x - 1) % w2]]] not in small_bottom
    )
    s0 = u[top_of[big_order[t2]]]
    small_order = _row_order(small_chain[0], s0, r)
    stop_of = {x: x for x in small_order}
    for _ in range(h1 - 1):
        stop_of = {x: u[stop_of[x]] for x in small_order}
    t1 = next(x for x in range(w1) if u[stop_of[small_order[x]]] == y0)
    return TwoCylinder(h1, h2, w1, w2, t1, t2)


def _quarter_turn(o: Origami) -> Origami:
    # the vertical structure of o is the horizontal structure of (up, right^-1)
    return Origami(o.up, _inverse(o.right), check=False)


# ---------------------------------------------------------------------------
# canonical form


def canonical_key(o: Origami) -> bytes:
    """Relabelling-invariant encoding of the origami.

    The start squares are the squares the commutator moves: the three around
    the cone point in H(2), or every square when the commutator is trivial.
    Any relabelling maps this set onto the start set of the relabelled
    surface.  From each start, squares are relabelled in breadth-first order
    over (right, up), which reaches every square because both are
    permutations of a transitive pair; the key is the least of these
    encodings.  So two origamis get equal keys iff they differ by a
    simultaneous relabelling, and a key costs O(n).  The key is
    self-describing: ``pack(">H", n)`` followed by the relabelled
    (right, up) images, as bytes for n ≤ 255 and as ``>H`` words above; it
    decodes back to the canonical representative via
    :func:`origami_from_key`.
    """
    n, r, u = o.n, o.right, o.up
    # c = r∘u∘r⁻¹∘u⁻¹ sends u(r(y)) to r(u(y)), so it moves u(r(y)) iff the
    # corner at the top right of y does not close up
    starts = [u[r[y]] for y in range(n) if u[r[y]] != r[u[y]]] or range(n)
    best = None
    for s0 in starts:
        # BFS and encoding fused: the pair for x is final once x is processed,
        # so a candidate can be abandoned at its first label above `best`.
        lab = [-1] * n
        lab[s0] = 0
        order = [s0]
        flat = []
        comparing = best is not None
        for x in order:
            y = r[x]
            b0 = lab[y]
            if b0 < 0:
                b0 = lab[y] = len(order)
                order.append(y)
            y = u[x]
            b1 = lab[y]
            if b1 < 0:
                b1 = lab[y] = len(order)
                order.append(y)
            if comparing:
                p = best[len(flat)]
                if b0 != p:
                    if b0 > p:
                        break
                    comparing = False
                else:
                    p = best[len(flat) + 1]
                    if b1 != p:
                        if b1 > p:
                            break
                        comparing = False
            flat.append(b0)
            flat.append(b1)
        else:  # never abandoned: flat ≤ best
            best = flat
    body = bytes(best) if n <= 0xFF else pack(f">{2 * n}H", *best)
    return pack(">H", n) + body


def canonical_form(o: Origami) -> Origami:
    """The canonically relabelled representative of ``o``."""
    return origami_from_key(canonical_key(o))


def _key_images(key: bytes) -> tuple:
    """The (right, up) images stored in a canonical key, unvalidated."""
    if len(key) < 2:
        raise ValueError("corrupt canonical key")
    (n,) = unpack(">H", key[:2])
    body = key[2:]
    if len(body) != (2 * n if n <= 0xFF else 4 * n):
        raise ValueError("corrupt canonical key")
    flat = body if n <= 0xFF else unpack(f">{2 * n}H", body)
    return flat[0::2], flat[1::2]


def origami_from_key(key: bytes) -> Origami:
    """Rebuild the canonical representative encoded by a canonical key."""
    return Origami(*_key_images(key))


def key_to_text(key: bytes) -> str:
    """Printable form of a canonical key: right images, '|', up images."""
    right, up = _key_images(key)
    return ",".join(map(str, right)) + "|" + ",".join(map(str, up))


def key_from_text(text: str) -> bytes:
    """The key of a text that must be the canonical form of a valid surface."""
    rpart, upart = text.split("|")
    right = [int(v) for v in rpart.split(",")]
    up = [int(v) for v in upart.split(",")]
    if len(right) > 0xFFFF:
        raise ValueError("a canonical key holds at most 65535 squares")
    key = canonical_key(Origami(right, up))
    if key_to_text(key) != text:
        raise ValueError("text does not encode a canonical representative")
    return key


# ---------------------------------------------------------------------------
# primitivity


def holonomy_lattice(o: Origami) -> HolonomyLattice:
    """Normal form of the lattice spanned by the surface's relative periods.

    Generated by (gcd of horizontal saddle lengths, 0) together with one
    crossing vector (t_i, h_i) per cylinder; column-reduced to an
    upper-triangular basis.
    """
    return _diagram_lattice(cylinder_decomposition(o))


def _diagram_lattice(diag: CylinderDiagram) -> HolonomyLattice:
    if isinstance(diag, OneCylinder):
        g = gcd(diag.l1, gcd(diag.l2, diag.l3))
        gens = [(g, 0), (diag.t, diag.h)]
    else:
        gens = [
            (gcd(diag.w1, diag.w2), 0),
            (diag.t1, diag.h1),
            (diag.t2, diag.h2),
        ]
    return _lattice_normal_form(gens)


def _lattice_normal_form(gens) -> HolonomyLattice:
    # integer column reduction of a 2 x k generator matrix
    c = 0
    b = 0
    rest = []
    for (x, y) in gens:
        if y:
            if c:
                # combine (b, c) and (x, y) into one vector with gcd y-part;
                # the vector left with y = 0 still carries lattice content
                while y:
                    q = c // y
                    b, c, x, y = x, y, b - q * x, c - q * y
                rest.append(x)
            else:
                b, c = x, y
        else:
            rest.append(x)
    a = 0
    for x in rest:
        a = gcd(a, x)
    if c < 0:
        b, c = -b, -c
    if a == 0 or c == 0:
        raise ValueError("holonomy generators do not span a rank-2 lattice")
    b %= a
    return HolonomyLattice(a, b, c)


def is_primitive(o: Origami) -> bool:
    """True iff the relative periods span all of Z² (no torus factorisation)."""
    return holonomy_lattice(o).determinant == 1


# ---------------------------------------------------------------------------
# Weierstrass invariant


def integer_weierstrass_count(o: Origami) -> int:
    """Number of fixed points of the hyperelliptic involution at square vertices.

    The involution has six fixed points: the cone point, two on each
    cylinder's mid-height circle, and the midpoint of each saddle connection
    the involution fixes.  All six are enumerated with doubled coordinates
    (2x, 2y), which stay integral; a fixed point sits on the integer lattice
    iff both doubled coordinates are even.  For odd n the count is 1 or 3 and
    separates the two orbit classes; even n is rejected.
    """
    if o.n % 2 == 0:
        raise ValueError("invariant is defined for odd square counts only")
    diag = cylinder_decomposition(o)
    if _diagram_lattice(diag).determinant != 1:
        raise ValueError("invariant requires a primitive surface")
    points = _weierstrass_points_doubled(diag)
    if len(points) != 6:
        raise MalformedSurfaceError("expected six involution fixed points")
    count = sum(1 for (dx, dy) in points if dx % 2 == 0 and dy % 2 == 0)
    if count not in (1, 3):
        raise MalformedSurfaceError(f"{count} integer Weierstrass points; expected 1 or 3")
    return count


def _weierstrass_points_doubled(diag: CylinderDiagram) -> list:
    """Doubled (2x, 2y) coordinates of the six hyperelliptic fixed points."""
    if isinstance(diag, OneCylinder):
        l1, l2, l3, t, h = diag
        w = l1 + l2 + l3
        return [
            (0, 0),  # cone point (a vertex by construction)
            (t, h), (t + w, h),  # mid-height circle, reflection centre t
            # saddle midpoints on the bottom circle, arcs (l3, l2, l1) from t
            (2 * t + l3, 0),
            (2 * (t + l3) + l2, 0),
            (2 * (t + l3 + l2) + l1, 0),
        ]
    h1, h2, w1, w2, t1, t2 = diag
    return [
        (0, 0),
        # wide cylinder's circle: its reflection centre is w1 + t2
        (w1 + t2, h2), (w1 + t2 + w2, h2),
        # narrow cylinder's circle (raised by h2): centre t1
        (t1, 2 * h2 + h1), (t1 + w1, 2 * h2 + h1),
        # the self-glued saddle connection on the wide cylinder's top
        (2 * t2 + w1 + w2, 2 * h2),
    ]


# ---------------------------------------------------------------------------
# text serialization


def _cycles_str(p) -> str:
    n = len(p)
    seen = [False] * n
    parts = []
    for s in range(n):
        if seen[s]:
            continue
        cyc = [s]
        seen[s] = True
        x = p[s]
        while x != s:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        parts.append("(" + " ".join(str(v + 1) for v in cyc) + ")")
    return "".join(parts)


def origami_to_text(o: Origami) -> str:
    """Two lines of cycle notation (1-based), fixed points written as singletons."""
    return f"r={_cycles_str(o.right)}\nu={_cycles_str(o.up)}"


def _parse_cycles(s: str, n: int) -> tuple:
    p = list(range(n))
    for group in re.findall(r"\(([^()]*)\)", s):
        vals = [int(v) - 1 for v in group.split()]
        if any(v < 0 or v >= n for v in vals):
            raise ValueError("cycle entry out of range")
        for i in range(len(vals)):
            p[vals[i]] = vals[(i + 1) % len(vals)]
    return tuple(p)


def origami_from_text(text: str) -> Origami:
    """Inverse of :func:`origami_to_text`; n is the largest symbol mentioned."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) != 2 or not lines[0].startswith("r=") or not lines[1].startswith("u="):
        raise ValueError("expected lines 'r=<cycles>' and 'u=<cycles>'")
    symbols = [int(v) for ln in lines for v in re.findall(r"\d+", ln)]
    if not symbols:
        raise ValueError("no squares mentioned")
    n = max(symbols)
    return Origami(_parse_cycles(lines[0][2:], n), _parse_cycles(lines[1][2:], n))


def format_diagram(diag: CylinderDiagram) -> str:
    if isinstance(diag, OneCylinder):
        return f"1cyl({diag.l1},{diag.l2},{diag.l3};{diag.t};{diag.h})"
    return f"2cyl({diag.h1},{diag.h2},{diag.w1},{diag.w2},{diag.t1},{diag.t2})"


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
        l1, l2, l3, t, h = map(int, m.groups())
        if min(l1, l2, l3) < 1 or h < 1:
            raise InvalidSurfaceError("one-cylinder lengths and height must be positive")
        return OneCylinder(l1, l2, l3, t % (l1 + l2 + l3), h)
    m = _TWO_CYL_RE.match(text)
    if m:
        h1, h2, w1, w2, t1, t2 = map(int, m.groups())
        if min(h1, h2, w1, w2) < 1:
            raise InvalidSurfaceError("cylinder dimensions must be positive")
        if w1 >= w2:
            raise InvalidSurfaceError("need w1 < w2")
        return TwoCylinder(h1, h2, w1, w2, t1 % w1, t2 % w2)
    m = _L_RE.match(text)
    if m:
        a, b = map(int, m.groups())
        if a < 2 or b < 2:
            raise InvalidSurfaceError("L(a, b) needs a, b >= 2")
        return TwoCylinder(a - 1, 1, 1, b, 0, 0)
    raise ValueError(f"cannot parse surface description {text!r}")


def build_from_diagram(diag: CylinderDiagram) -> Origami:
    if isinstance(diag, OneCylinder):
        return build_one_cylinder(diag.l1, diag.l2, diag.l3, diag.t, diag.h)
    return build_two_cylinder(*diag)
