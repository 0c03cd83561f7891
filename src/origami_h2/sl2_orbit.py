r"""The SL(2,Z) action on origamis: shears, quarter turn, orbits and cusps.

The generators act on the permutation pair by precomposition:
T = [[1,1],[0,1]] (horizontal shear) sends (right, up) to
(right, up∘right⁻¹), and S = [[0,1],[-1,0]] (quarter turn) sends it to
(up, right⁻¹), exchanging the horizontal and vertical directions.  The
mirror ρ = diag(1, −1) sends it to (right, up⁻¹) (:func:`reflect`), and
the transposition τ = [[0,1],[1,0]] = ρ·S to (up, right)
(:func:`transpose`), so S = ρ·τ: (right, up) ↦ (up, right) ↦
(up, right⁻¹).  The corner test u(r(y)) ≠ r(u(y)) is symmetric in r and
u, so τ keeps the three corners, and a transpose decomposes the diagram's
layout with right and up exchanged, building no surface and listing no
inverse: one layout (``origami_core._layout``) serves the builders, the
census and every turn.

Orbits are closed under T and S on normalised cylinder diagrams, which
name H(2) surfaces completely.  T is twist arithmetic, so any member of a
T-cycle (cusp) comes in closed form (:func:`t_member`), and inverted it
gives a diagram's cusp, width and place on it (:func:`cusp_coordinates`):
the orbit lists no cusp.  S² = −I fixes every H(2) surface (the
hyperelliptic involution), so one quarter turn gives both S-edges of a
pair.  S·T = [[0,1],[−1,−1]], (S·T)² = [[−1,−1],[1,0]] and (S·T)³ = I,
so of the three S-edges of an f-cycle a → f(a) → f²(a) → a, f = S∘T, any
two give the third.  ρ normalises SL(2,Z): from ρTρ = T⁻¹ and
ρSρ = S⁻¹ = −S, with −I acting trivially, T(ρx) = ρT⁻¹(x) and
S(ρx) = ρS(x), so ρ maps each cusp onto a cusp read in reverse T-order
and each S-edge x–y onto ρx–ρy.  The orbit reads S through the mirror:
for z = τx it records S(x) = ρz and S(ρx) = ρS(x) = z, and as it turns
only when nothing is left to infer, it makes about 0.1 turns per
surface.  The lcm of the cusp widths is the level of the stabiliser, and
an arbitrary unimodular matrix acts as Euclid factors it, S⁻¹·T^q at a
time (:func:`apply_matrix`).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from functools import cached_property
from itertools import chain, repeat
from math import gcd, lcm
from typing import NamedTuple

from .origami_core import (
    CylinderDiagram,
    OneCylinder,
    Origami,
    TwoCylinder,
    _cycles,
    _decompose,
    _inverse,
    _key_images,
    _layout,
    _row_index,
    _twist_modulus,
    build_from_diagram,
    canonical_key,
    cylinder_decomposition,
    key_from_text,
    key_to_text,
    lattice_index,
    least_rotation,
)

ORBIT_SCHEMA_VERSION = 3


class MatrixZ(NamedTuple):
    """An element [[a, b], [c, d]] of SL(2,Z)."""

    a: int
    b: int
    c: int
    d: int

    def __matmul__(self, other: "MatrixZ") -> "MatrixZ":
        return MatrixZ(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "MatrixZ":
        return MatrixZ(-self.a, -self.b, -self.c, -self.d)


IDENTITY = MatrixZ(1, 0, 0, 1)


def t_power(k: int) -> MatrixZ:
    return MatrixZ(1, k, 0, 1)


def v_power(k: int) -> MatrixZ:
    return MatrixZ(1, 0, k, 1)


def apply_T(o: Origami) -> Origami:
    """The horizontal shear: (right, up) ↦ (right, up∘right⁻¹)."""
    return Origami(o.right, tuple(o.up[j] for j in _inverse(o.right)), check=False)


def apply_S(o: Origami) -> Origami:
    """The quarter turn: (right, up) ↦ (up, right⁻¹)."""
    return Origami(o.up, _inverse(o.right), check=False)


def apply_S_inverse(o: Origami) -> Origami:
    return Origami(_inverse(o.up), o.right, check=False)


def _perm_power(p: tuple, k: int) -> tuple:
    """p^k computed cycle by cycle (k may be negative)."""
    out = [0] * len(p)
    for cyc in _cycles(p):
        shift = k % len(cyc)
        for v, image in zip(cyc, cyc[shift:] + cyc[:shift]):
            out[v] = image
    return tuple(out)


def _apply_t_power(o: Origami, q: int) -> Origami:
    if q == 0:
        return o
    rq = _perm_power(o.right, -q)
    return Origami(o.right, tuple(o.up[j] for j in rq), check=False)


def apply_matrix(o: Origami, m: MatrixZ) -> Origami:
    """Act by an arbitrary unimodular matrix (left action), one factor at a time.

    Euclid on the bottom row peels m = m′·S⁻¹·T^q off the right with
    q = d // c, so m′ = m·T^{−q}·S = [[q·a − b, a], [q·c − d, c]] and
    |q·c − d| < |c|; S⁻¹·T^q acts on o at once.  At c = 0, m = a·T^{a·b},
    and −I acts as S².
    """
    a, b, c, d = m
    if a * d - b * c != 1:
        raise ValueError(f"matrix {tuple(m)} is not unimodular")
    while c:
        q = d // c
        o = apply_S_inverse(_apply_t_power(o, q))
        a, b, c, d = q * a - b, a, q * c - d, c
    o = _apply_t_power(o, a * b)
    return o if a == 1 else apply_S(apply_S(o))


def u_orbit_width(o: Origami) -> int:
    """Least k ≥ 1 with T^k·o canonically equal to o: the cusp width at o.

    T commutes with relabelling, so such k are the multiples of the width; T^k sends
    up to up∘right^{−k}, so it divides L = ord(right).  Each p ≤ n divides out while the key holds.
    """
    base = canonical_key(o)
    k = lcm(*map(len, _cycles(o.right)))
    for p in range(2, o.n + 1):
        while k % p == 0 and canonical_key(_apply_t_power(o, k // p)) == base:
            k //= p
    return k


def membership(o: Origami, m: MatrixZ) -> bool:
    """True iff m stabilises o up to relabelling."""
    return canonical_key(apply_matrix(o, m)) == canonical_key(o)


def t_member(diag: CylinderDiagram, j: int) -> CylinderDiagram:
    """T^j of a normalised diagram, in closed form.

    T steps each twist by its height: t1 + h1 (mod w1) and t2 + h2 (mod w2)
    for two cylinders, t − h (mod :func:`_twist_modulus`) for one.
    """
    if isinstance(diag, TwoCylinder):
        h1, h2, w1, w2, t1, t2 = diag
        return TwoCylinder(h1, h2, w1, w2, (t1 + j * h1) % w1, (t2 + j * h2) % w2)
    l1, l2, l3, t, h = diag
    return OneCylinder(l1, l2, l3, (t - j * h) % _twist_modulus(l1, l2, l3), h)


def cusp_coordinates(diag: CylinderDiagram) -> tuple:
    """(cusp id, width k, offset j) of a normalised diagram: ``diag`` is T^j of the cusp's base point.

    The inverse of :func:`t_member`'s closed form.  A twist t stepping by h
    (mod w) keeps its class r = t mod g, g = gcd(h, w), and runs through
    that class in k = w/g steps, reaching t after j ≡ ((t − r)/g)·(h/g)⁻¹
    (mod k) steps from r.  Two cylinders: the narrow twist alone gives k1
    and j ≡ j1 (mod k1).  Write j = j1 + m·k1: T^{k1} fixes the narrow twist
    and steps the wide one by k1·h2, so t2 − j1·h2 (mod w2) gives k2 and m
    the same way, and k = k1·k2.  The base point has the twists r1 and r2,
    so the id (h1, h2, w1, w2, r1, r2) names the cusp.  One cylinder: the
    twist steps by −h, and the id is (l1, l2, l3, h, r).
    """
    if isinstance(diag, TwoCylinder):
        h1, h2, w1, w2, t1, t2 = diag
        g1 = gcd(h1, w1)
        k1 = w1 // g1
        r1 = t1 % g1
        j1 = (t1 - r1) // g1 * pow(h1 // g1, -1, k1) % k1
        t2 = (t2 - j1 * h2) % w2
        g2 = gcd(k1 * h2, w2)
        k2 = w2 // g2
        r2 = t2 % g2
        m = (t2 - r2) // g2 * pow(k1 * h2 // g2, -1, k2) % k2
        return (h1, h2, w1, w2, r1, r2), k1 * k2, j1 + m * k1
    l1, l2, l3, t, h = diag
    w = _twist_modulus(l1, l2, l3)
    g = gcd(h, w)
    k = w // g
    r = t % g
    return (l1, l2, l3, h, r), k, (r - t) // g * pow(h // g, -1, k) % k


def reflect(diag: CylinderDiagram) -> CylinderDiagram:
    """ρ = diag(1, −1) on a normalised diagram: the surface (right, up⁻¹).

    Upside down, each cylinder keeps its height and width and its twist
    changes sign.  A one-cylinder top turns into the bottom, which carries
    the cuts in reversed order, so (l1, l2, l3, t) reads (l3, l2, l1, −t)
    before its least rotation.
    """
    if isinstance(diag, TwoCylinder):
        h1, h2, w1, w2, t1, t2 = diag
        return TwoCylinder(h1, h2, w1, w2, -t1 % w1, -t2 % w2)
    l1, l2, l3, t, h = diag
    return least_rotation(OneCylinder(l3, l2, l1, -t % (l1 + l2 + l3), h))


def transpose(diag: CylinderDiagram) -> CylinderDiagram:
    """τ = [[0,1],[1,0]] on a diagram: its layout decomposed as (up, right), with the same corners."""
    right, up, corners = _layout(diag)
    return _decompose(up, right, corners, _row_index(up, corners))


def quarter_turn(diag: CylinderDiagram) -> CylinderDiagram:
    """S = ρ∘τ on a diagram: ``cylinder_decomposition(apply_S(build_from_diagram(diag)))``.

    :func:`orbit` reads ρ off its positions instead; the codec calls this.
    """
    return reflect(transpose(diag))


class Orbit:
    """A full SL(2,Z) orbit as the T- and S-permutations of its positions.

    The cusps take consecutive positions, in T-order from their first
    member: ``starts`` holds each cusp's first member, ``ks`` its width and
    ``bases`` its first position, and ``t_perm`` and ``s_perm`` send a
    position to that of its image under T and under S.  ``index``,
    ``cusp_widths`` and ``widths`` (the cusp width at each position) read
    the widths alone, and :meth:`diagram` finds a position's cusp in
    ``bases`` and gives its diagram in closed form.  ``diagrams`` lists
    every member in position order and is built on first use.  Canonical
    keys are made only on demand: :meth:`key` of one diagram, and
    ``surfaces`` and ``base_key``, which key the whole orbit on first use.
    """

    def __init__(self, n: int, starts: list, ks: list, bases: list, t_perm: list, s_perm: list):
        self.n = n
        self.starts = starts
        self.ks = ks
        self.bases = bases
        self.t_perm = t_perm
        self.s_perm = s_perm

    @property
    def index(self) -> int:
        """The stabiliser's index in SL(2,Z): the orbit's cardinality."""
        return len(self.t_perm)

    @property
    def cusp_widths(self) -> list:
        """The T-cycle lengths, sorted."""
        return sorted(self.ks)

    @cached_property
    def widths(self) -> list:
        """The width of each position's cusp."""
        return list(chain.from_iterable(map(repeat, self.ks, self.ks)))

    def diagram(self, p: int) -> CylinderDiagram:
        """The normalised diagram at position ``p``."""
        if not 0 <= p < self.index:
            raise IndexError(f"position {p} is outside an orbit of {self.index}")
        c = bisect_right(self.bases, p) - 1
        return t_member(self.starts[c], p - self.bases[c])

    @cached_property
    def diagrams(self) -> list:
        """The orbit's surfaces as normalised cylinder diagrams, in position order."""
        return [t_member(d, j) for d, k in zip(self.starts, self.ks) for j in range(k)]

    def key(self, diag: CylinderDiagram) -> bytes:
        """The canonical key of the orbit's surface ``diag``."""
        return canonical_key(build_from_diagram(diag))

    @cached_property
    def surfaces(self) -> tuple:
        """The canonical keys of the orbit, sorted."""
        return tuple(sorted(map(self.key, self.diagrams)))

    @cached_property
    def base_key(self) -> bytes:
        """The orbit's least key, whichever member the orbit was launched from."""
        return self.surfaces[0]


def _reversed_cusp(base: int, e0: int, k: int) -> list:
    """[base + (e0 − j) mod k for j < k]: the mirrors of a k-cusp's members."""
    return [*range(base + e0, base - 1, -1), *range(base + k - 1, base + e0, -1)]


def orbit(o: Origami) -> Orbit:
    """Closure of {o} under T and S, on the positions of its cylinder diagrams.

    Diagrams are numbered as they are found, a whole cusp at a time, so T
    is index arithmetic.  No cusp is listed: the first member seen of a cusp
    takes the next k positions from its base (``Orbit.bases``), and any
    other member's position is read off its :func:`cusp_coordinates`,
    base + (j − j0) mod k.  A quarter turn bisects the bases for its input's
    cusp and builds that input alone (:func:`t_member`).  The closure walks
    one f-cycle a → b → c → a at a time, f = S∘T, with f³ = 1 because
    (S·T)³ = I (see the module docstring).  Its S-edges are T(a)–b, T(b)–c
    and T(c)–a.  The start is turned first, and every other a taken up is
    T(x) for x on a closed f-cycle, whose edge T(x)–f(x) is stored, so
    S(a) is always known and gives c = T⁻¹(S(a)).  Only b can be missing:
    it is S(T(a)), or T⁻¹(S(c)), or else T(a) costs a quarter turn.  Such
    an f-cycle waits on a second stack until no other is left, as
    deductions come before definitions in coset enumeration (Felsch), so
    the turns made meanwhile may give its edge for free.  A fixed point of
    f is the cycle a = b = c, and the T-images of the cycle are closed
    next, so the forward closure is the full group orbit.

    A cusp is numbered together with its mirror: ρ(T^j·d) = T^{−j}(ρd), so
    one :func:`reflect` per cusp places every mirror, the cusp itself when
    ρd = T^{e0}·d.  Each mirror cusp is numbered in reverse T-order
    (:func:`_reversed_cusp`), so ρ∘T∘ρ = T⁻¹ holds on positions by
    construction, whatever the mirror's geometry, and the closure reads T⁻¹
    through the mirror instead of storing it.  A turn decomposes only
    z = τx (:func:`transpose`) and reads S(x) = ρz and S(ρx) = z off those
    mirrors.  Each H(2) orbit is ρ-invariant (n and the integer Weierstrass
    count, both ρ-invariant, tell the orbits apart: Hubert–Lelièvre), but
    the closure does not trust the mirror: a mirror cusp it never reaches,
    or mirrors that do not commute with S, raise RuntimeError.  No
    canonical key is computed.
    """
    start = cylinder_decomposition(o)
    if lattice_index(start) != 1:
        raise ValueError("orbit computation expects a primitive surface")
    cusps = {}  # cusp id -> (first position, width, offset of the first member seen)
    starts, ks, bases = [], [], []  # each cusp's first member, width and first position
    t_perm, s_perm, r_perm = [], [], []
    closed = bytearray()  # positions whose f-cycle is walked

    def number(diag: CylinderDiagram, cusp: tuple, k: int, j: int) -> int:
        # diag's cusp, with coordinates (cusp, k, j), at the next k positions; returns the first
        base = len(t_perm)
        cusps[cusp] = (base, k, j)
        starts.append(diag)
        ks.append(k)
        bases.append(base)
        t_perm.extend([*range(base + 1, base + k), base])
        s_perm.extend([-1] * k)
        closed.extend(bytes(k))
        return base

    def find(diag: CylinderDiagram) -> int:
        # diag's position; on first sight its cusp and the mirror cusp are numbered
        cusp, k, j = cusp_coordinates(diag)
        seen = cusps.get(cusp)
        if seen is not None:
            base, k, j0 = seen
            return base + (j - j0) % k
        i = number(diag, cusp, k, j)
        mirror = reflect(diag)
        mirror_cusp, mirror_k, mirror_j = cusp_coordinates(mirror)
        seen = cusps.get(mirror_cusp)
        if seen is None and mirror_k == k:
            number(mirror, mirror_cusp, k, mirror_j)
            r_perm.extend(_reversed_cusp(i + k, 0, k) + _reversed_cusp(i, 0, k))
        elif seen is not None and seen[0] == i:
            r_perm.extend(_reversed_cusp(i, (mirror_j - j) % k, k))
        else:
            raise RuntimeError(f"{mirror} does not start the mirror cusp of {diag}")
        return i

    def turn(x: int) -> int:
        # S(x) = ρ(τx) from the transpose z = τx, with the mirror edge S(ρx) = z
        c = bisect_right(bases, x) - 1
        z = find(transpose(t_member(starts[c], x - bases[c])))
        y, rx = r_perm[z], r_perm[x]
        s_perm[x], s_perm[y], s_perm[rx], s_perm[z] = y, x, z, rx
        return y

    x = find(start)
    turn(x)  # from here on every position taken up knows its S-image
    todo, later = [x], []  # later: f-cycles that wait for a quarter turn
    while todo or later:
        turning = not todo
        a = (todo or later).pop()
        if closed[a]:
            continue
        ta, tc = t_perm[a], s_perm[a]
        c = r_perm[t_perm[r_perm[tc]]]
        b = s_perm[ta]
        if b < 0:
            sc = s_perm[c]
            if sc < 0 and not turning:
                later.append(a)
                continue
            b = turn(ta) if sc < 0 else r_perm[t_perm[r_perm[sc]]]
            s_perm[ta], s_perm[b] = b, ta
        tb = t_perm[b]
        s_perm[tb], s_perm[c] = c, tb
        closed[a] = closed[b] = closed[c] = 1
        todo += (ta, tb, tc)
    if 0 in closed:
        raise RuntimeError(f"the mirror of the orbit of {start} is another orbit")
    if list(map(s_perm.__getitem__, r_perm)) != list(map(r_perm.__getitem__, s_perm)):
        raise RuntimeError(f"the mirror does not commute with S on the orbit of {start}")
    return Orbit(o.n, starts, ks, bases, t_perm, s_perm)


def level(orb: Orbit) -> int:
    """lcm of the cusp widths: the least ℓ with T^ℓ stabilising every cusp."""
    return lcm(*orb.cusp_widths)


def orbit_to_json(orb: Orbit) -> str:
    """Deterministic JSON form (stable ordering, no whitespace).

    ``surfaces`` lists each surface's canonical text once, in key order;
    ``t_edges``, ``s_edges`` and each cusp's ``rep`` are positions in it.
    """
    keys = list(map(orb.key, orb.diagrams))
    order = sorted(range(orb.index), key=keys.__getitem__)
    rank_of = {keys[p]: i for i, p in enumerate(order)}  # key -> place in key order
    rank = list(map(rank_of.__getitem__, keys))  # position -> place in key order
    cusps = sorted((min(keys[b:b + k]), k) for b, k in zip(orb.bases, orb.ks))
    doc = {
        "schema_version": ORBIT_SCHEMA_VERSION,
        "n": orb.n,
        "base_key": key_to_text(keys[order[0]]),
        "surfaces": [key_to_text(keys[p]) for p in order],
        "t_edges": [rank[orb.t_perm[p]] for p in order],
        "s_edges": [rank[orb.s_perm[p]] for p in order],
        "cusps": [{"rep": rank_of[least], "width": k} for least, k in cusps],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _field(doc: dict, name: str, kind: type):
    value = doc.get(name)
    if type(value) is not kind:
        raise ValueError(f"orbit field {name!r} is not a {kind.__name__}")
    return value


def _index(value, size: int) -> int:
    # bool is an int subclass, so the type is compared exactly
    if type(value) is not int or not 0 <= value < size:
        raise ValueError(f"{value!r} is not an index into the surface list")
    return value


def orbit_from_json(text: str) -> Orbit:
    """Parse and fully re-validate an orbit document, and return :func:`orbit` of its base key.

    Every surface text is checked once to be the canonical form of a valid
    surface; edges and cusp representatives must be plain in-range indices.
    Each T-edge must be the shear and each S-edge the quarter turn of the
    surfaces' cylinder diagrams, so the listed set is closed under T and S
    and holds the base key's orbit: :func:`orbit` then computes at most as
    many positions as the document lists, and it must compute them all.  A
    surface listed without its images (one of large n, say) fails the edge
    checks before any orbit is computed.  Any malformed document raises
    ValueError.
    """
    try:
        doc = json.loads(text)
    except RecursionError as exc:
        raise ValueError("orbit document nests too deeply") from exc
    if type(doc) is not dict:
        raise ValueError("orbit document is not a JSON object")
    if doc.get("schema_version") != ORBIT_SCHEMA_VERSION:
        raise ValueError(f"unsupported orbit schema: {doc.get('schema_version')!r}")
    texts = _field(doc, "surfaces", list)
    if not all(type(t) is str for t in texts):
        raise ValueError("surface texts must be strings")
    surfaces = [key_from_text(t) for t in texts]
    size = len(surfaces)
    if len(set(surfaces)) != size:
        raise ValueError("duplicate surfaces")
    # key_from_text has validated every key, so its surface is not re-checked
    diagrams = [
        cylinder_decomposition(Origami(*_key_images(k), check=False)) for k in surfaces
    ]

    def resolve(name: str) -> list:
        targets = [_index(i, size) for i in _field(doc, f"{name}_edges", list)]
        if len(targets) != size:
            raise ValueError("edge arrays do not match the surface list")
        # checked before the T-edges are walked into cycles, which needs a bijection
        if len(set(targets)) != size:
            raise ValueError(f"{name}-edges are not a permutation of the orbit")
        return targets

    t_next, s_next = resolve("t"), resolve("s")
    if any(diagrams[i] != t_member(d, 1) for d, i in zip(diagrams, t_next)):
        raise ValueError("T-edges disagree with the shear of the surfaces")
    if any(diagrams[i] != quarter_turn(d) for d, i in zip(diagrams, s_next)):
        raise ValueError("S-edges disagree with the quarter turn of the surfaces")
    base_key = key_from_text(_field(doc, "base_key", str))
    if min(surfaces, default=None) != base_key:
        raise ValueError("base key is not the orbit's canonical representative")
    if len(_key_images(base_key)[0]) != _field(doc, "n", int):
        raise ValueError("stored n disagrees with the keys")
    stored = []
    for cusp in _field(doc, "cusps", list):
        if type(cusp) is not dict or type(cusp.get("width")) is not int:
            raise ValueError("malformed cusp entry")
        stored.append((surfaces[_index(cusp.get("rep"), size)], cusp["width"]))
    if stored != sorted((min(surfaces[i] for i in c), len(c)) for c in _cycles(t_next)):
        raise ValueError("stored cusps disagree with the edge structure")
    orb = orbit(Origami(*_key_images(base_key), check=False))
    if orb.index != size:
        raise ValueError(f"the {size} surfaces hold an orbit of {orb.index}")
    return orb
