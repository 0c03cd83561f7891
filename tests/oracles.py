"""Independent oracles the tests check the library against.

Each oracle recomputes a quantity by a route disjoint from the production
code: the canonical key started from every square, the cylinder builders
square by square and their layout without the per-shape memo, brute force over permutation pairs, spanning-tree holonomy
with explicit sublattice enumeration, and the hyperelliptic involution found
by constraint propagation, T stepped one shear at a time, and the orbit
closed with a quarter turn for every S-pair.  Slow is fine here; different
is the point.  The helpers at the end have no caller in the library: square
relabelling, the commutator, the canonical representative, the text that
``parse_diagram`` reads back, and an orbit's cusps and positions listed from
its diagrams.
"""

from itertools import permutations
from math import factorial, prod
from struct import pack

import numpy as np

from origami_h2.origami_core import (
    CylinderDiagram,
    InvalidSurfaceError,
    OneCylinder,
    Origami,
    TwoCylinder,
    canonical_key,
    cylinder_decomposition,
    in_h2,
    is_primitive,
    least_rotation,
    origami_from_key,
)
from origami_h2.sl2_orbit import cusp_coordinates, quarter_turn, t_member


# ---------------------------------------------------------------------------
# the all-starts canonical key
#
# The library's key starts its breadth-first relabelling only at the squares
# the commutator moves.  This reference starts it at every square, walks the
# alphabet (right, up, right^-1, up^-1), and keeps the least encoding, so it
# shares no start set or walk with the library.  Its bytes differ from the
# library's, because it walks four directions from every square; only the
# partition into equal keys must agree.


def all_starts_key(o: Origami) -> bytes:
    n, r, u = o.n, o.right, o.up
    ri, ui = [0] * n, [0] * n
    for x in range(n):
        ri[r[x]] = x
        ui[u[x]] = x
    best = None
    for s0 in range(n):
        lab = {s0: 0}
        order = [s0]
        for x in order:
            for y in (r[x], u[x], ri[x], ui[x]):
                if y not in lab:
                    lab[y] = len(order)
                    order.append(y)
        flat = [lab[g[x]] for x in order for g in (r, u)]
        if best is None or flat < best:
            best = flat
    return pack(f">H{2 * n}H", n, *best)


# ---------------------------------------------------------------------------
# the cylinder builders, square by square
#
# The library keeps each cylinder shape's twist-free rows and reads each top
# row as one slice of its doubled landing squares.  These references compute
# every square's right and up neighbour separately from its (x, y)
# coordinates; the library's builders must return equal Origami values.
# ``layout_from_ranges`` builds a whole layout from ranges for every
# diagram, with no per-shape memo; the library's ``_layout`` must equal it.


def reference_two_cylinder(h1: int, h2: int, w1: int, w2: int, t1: int, t2: int) -> Origami:
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


def reference_one_cylinder(l1: int, l2: int, l3: int, t: int = 0, h: int = 1) -> Origami:
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


def layout_from_ranges(diag: CylinderDiagram) -> tuple:
    """(right, up, corners) as lists, every list built from ranges for this diagram."""
    if isinstance(diag, OneCylinder):
        l1, l2, l3, t, h = diag
        w = l1 + l2 + l3
        t %= w
        n = w * h
        right = list(range(1, n + 1))
        right[w - 1 :: w] = range(0, n, w)
        # the top row's arcs A=[0,l1), B=[l1,l1+l2), C=[l1+l2,w) land in reversed
        # order on the bottom row, which the twist rotates: x ↦ lands[x]
        lands = [*range(t, w), *range(t)]
        up = [*range(w, n), *lands[l2 + l3 :], *lands[l3 : l2 + l3], *lands[:l3]]
        return right, up, [n - 1, n - w + l1 - 1, n - w + l1 + l2 - 1]
    h1, h2, w1, w2, t1, t2 = diag
    t1 %= w1
    t2 %= w2
    nbig = h2 * w2
    n = nbig + h1 * w1
    right = list(range(1, n + 1))
    right[w2 - 1 : nbig : w2] = range(0, nbig, w2)
    right[nbig + w1 - 1 :: w1] = range(nbig, n, w1)
    # wide top position x lands at s = (x - t2) mod w2 of the bottom rows: the
    # narrow one's for s < w1, the wide one's otherwise (cuts at t2, t2 + w1)
    lands = [*range(nbig, nbig + w1), *range(w1, w2)]
    up = [*range(w2, nbig), *lands[w2 - t2 :], *lands[: w2 - t2]]
    up += [*range(nbig + w1, n), *range(w1 - t1, w1), *range(w1 - t1)]
    return right, up, [nbig - w2 + (t2 - 1) % w2, nbig - w2 + (t2 + w1 - 1) % w2, n - w1 + (t1 - 1) % w1]


# ---------------------------------------------------------------------------
# brute force over permutation pairs (n <= 9)
#
# Every pair (r, u) is simultaneously conjugate to one whose r is the
# canonical representative of its cycle type, and canonical keys are
# conjugation-invariant, so scanning all u against one r per cycle type
# visits every surface.  The full pair count is recovered by weighting each
# type with its conjugacy-class size.


def _partitions(n: int, largest: int = None) -> list:
    if largest is None:
        largest = n
    if n == 0:
        return [()]
    out = []
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            out.append((part,) + rest)
    return out


def _class_size(parts: tuple) -> int:
    n = sum(parts)
    denom = prod(parts)
    for size in set(parts):
        denom *= factorial(parts.count(size))
    return factorial(n) // denom


def _type_representative(parts: tuple) -> tuple:
    r = []
    start = 0
    for length in parts:
        r.extend(list(range(start + 1, start + length)) + [start])
        start += length
    return tuple(r)


def brute_force_census(n: int) -> tuple:
    """(primitive canonical-key set, total pair count incl. imprimitive).

    The pair count is over all (r, u) in S_n x S_n that are transitive with
    one-3-cycle commutator; dividing by n! gives the surface count because
    H(2) origamis admit no nontrivial translations.
    """
    perms, inverses = all_permutations(n)
    keys = set()
    total_pairs = 0
    for parts in _partitions(n):
        r = _type_representative(parts)
        mask = h2_transitive_mask(r, perms, inverses)

        total_pairs += _class_size(parts) * int(mask.sum())
        for row in perms[mask]:
            o = Origami(r, tuple(int(v) for v in row), check=False)
            assert in_h2(o)
            if is_primitive(o):
                keys.add(canonical_key(o))
    return keys, total_pairs


def all_permutations(n: int) -> tuple:
    """Every permutation of 0..n-1 one per row, and their inverses."""
    perms = np.array(list(permutations(range(n))), dtype=np.int8).reshape(-1, n)
    return perms, np.argsort(perms, axis=1).astype(np.int8)


def pair_masks(r: tuple, perms: np.ndarray, inverses: np.ndarray) -> tuple:
    """(commutator is one 3-cycle, pair is transitive) for r against each row u.

    Both straight from the definitions: the commutator r.u.r^-1.u^-1 fixes
    all but three squares and its cube is the identity; transitivity by
    min-label propagation along r and u edges, both ways.
    """
    return _commutator_mask(r, perms, inverses), _transitive_mask(r, perms, inverses)


def h2_transitive_mask(r: tuple, perms: np.ndarray, inverses: np.ndarray) -> np.ndarray:
    """``h2_mask & transitive`` of :func:`pair_masks`, propagating labels only
    on the rows whose commutator is one 3-cycle."""
    mask = _commutator_mask(r, perms, inverses)
    mask[mask] = _transitive_mask(r, perms[mask], inverses[mask])
    return mask


def _commutator_mask(r: tuple, perms: np.ndarray, inverses: np.ndarray) -> np.ndarray:
    n = perms.shape[1]
    idx = np.arange(n, dtype=np.int8)
    r_arr = np.array(r, dtype=np.int8)
    rinv_arr = np.argsort(r_arr).astype(np.int8)

    # commutator c = r . u . r^-1 . u^-1, composed right to left
    step = rinv_arr[inverses]
    step = np.take_along_axis(perms, step, axis=1)
    c = r_arr[step]
    fixed = (c == idx).sum(axis=1)
    ccc = np.take_along_axis(c, np.take_along_axis(c, c, axis=1), axis=1)
    return (fixed == n - 3) & (ccc == idx).all(axis=1)


def _transitive_mask(r: tuple, perms: np.ndarray, inverses: np.ndarray) -> np.ndarray:
    n = perms.shape[1]
    r_arr = np.array(r, dtype=np.int8)
    rinv_arr = np.argsort(r_arr).astype(np.int8)
    labels = np.broadcast_to(np.arange(n, dtype=np.int8), perms.shape).copy()
    for _ in range(n):
        labels = np.minimum(labels, labels[:, r_arr])
        labels = np.minimum(labels, labels[:, rinv_arr])
        labels = np.minimum(labels, np.take_along_axis(labels, perms, axis=1))
        labels = np.minimum(labels, np.take_along_axis(labels, inverses, axis=1))
    return labels.max(axis=1) == 0


# ---------------------------------------------------------------------------
# holonomy via a spanning tree, primitivity via explicit sublattices


def holonomy_generators(o: Origami) -> list:
    """Generators of the absolute-period lattice from BFS-tree defects.

    Each square gets a position in Z^2 along a spanning tree of the
    right/up edge graph; every non-tree edge then closes a loop whose
    holonomy is position + step - position-of-target.
    """
    pos = {0: (0, 0)}
    tree = set()
    queue = [0]
    while queue:
        s = queue.pop()
        x, y = pos[s]
        for t, step in ((o.right[s], (1, 0)), (o.up[s], (0, 1))):
            if t not in pos:
                pos[t] = (x + step[0], y + step[1])
                tree.add((s, t, step))
                queue.append(t)
    gens = []
    for s in range(o.n):
        x, y = pos[s]
        for t, step in ((o.right[s], (1, 0)), (o.up[s], (0, 1))):
            if (s, t, step) not in tree:
                vx, vy = x + step[0] - pos[t][0], y + step[1] - pos[t][1]
                if (vx, vy) != (0, 0):
                    gens.append((vx, vy))
    return gens


def sublattice_is_primitive(o: Origami) -> bool:
    """True iff no sublattice of Z^2 of index 2..n contains every generator.

    Sublattices of index d are enumerated by their normal forms
    [[a, b], [0, c]] with a*c = d and 0 <= b < a.
    """
    gens = holonomy_generators(o)
    for d in range(2, o.n + 1):
        for a in range(1, d + 1):
            if d % a:
                continue
            c = d // a
            for b in range(a):
                if all(y % c == 0 and (x - b * (y // c)) % a == 0 for x, y in gens):
                    return False
    return True


def sublattice_index(o: Origami) -> int:
    """Index in Z^2 of the lattice the generators span, found by search.

    Every sublattice of Z^2 that contains the generators contains their
    span, so its index divides the span's.  The span's index is therefore
    the largest d <= n for which some normal form [[a, b], [0, c]] with
    a*c = d and 0 <= b < a contains every generator.
    """
    gens = holonomy_generators(o)
    for d in range(o.n, 0, -1):
        for a in range(1, d + 1):
            if d % a:
                continue
            c = d // a
            for b in range(a):
                if all(y % c == 0 and (x - b * (y // c)) % a == 0 for x, y in gens):
                    return d
    raise AssertionError("the generators span no sublattice of index <= n")


# ---------------------------------------------------------------------------
# integer Weierstrass points via the hyperelliptic involution


def square_involution(o: Origami) -> tuple:
    """The unique square permutation with pi.r = r^-1.pi and pi.u = u^-1.pi.

    This is how the hyperelliptic involution permutes squares (each square
    also gets rotated by half a turn).  Found by propagating pi(0) through
    the edge relations; exactly one consistent involution must exist.
    """
    r, u = o.right, o.up
    rinv = tuple(np.argsort(r))
    uinv = tuple(np.argsort(u))
    found = None
    for image in range(o.n):
        pi = {0: image}
        queue = [0]
        ok = True
        while queue and ok:
            s = queue.pop()
            for t, target in ((r[s], rinv[pi[s]]), (u[s], uinv[pi[s]])):
                if t in pi:
                    ok = pi[t] == target
                    if not ok:
                        break
                else:
                    pi[t] = target
                    queue.append(t)
        if not ok:
            continue
        candidate = tuple(pi[s] for s in range(o.n))
        if all(candidate[candidate[s]] == s for s in range(o.n)):
            assert found is None, "involution is not unique"
            found = candidate
    assert found is not None, "no hyperelliptic involution found"
    return found


def involution_weierstrass_count(o: Origami) -> int:
    """Count integer Weierstrass points from fixed vertices of the involution.

    The cone point always contributes one.  A regular vertex is the
    top-right corner of a unique square s (regular means the four squares
    close up: u[r[s]] == r[u[s]]); the involution fixes it iff it sends the
    diagonal square u[r[s]] back to s.
    """
    r, u = o.right, o.up
    pi = square_involution(o)
    count = 1
    for s in range(o.n):
        if u[r[s]] == r[u[s]] and pi[s] == u[r[s]]:
            count += 1
    return count


# ---------------------------------------------------------------------------
# T and T⁻¹ one step at a time
#
# The library reaches any member of a cusp in closed form (``t_member``)
# and reads T⁻¹ as a position's predecessor on its cusp.  These step T once
# on a diagram and T⁻¹ once on a surface.


def shear(diag: CylinderDiagram) -> CylinderDiagram:
    """T on a normalised cylinder diagram: each twist moves by its height.

    Equal to ``cylinder_decomposition(apply_T(build_from_diagram(diag)))``;
    the sign of the one-cylinder step follows the builders' conventions.
    """
    if isinstance(diag, TwoCylinder):
        h1, h2, w1, w2, t1, t2 = diag
        return TwoCylinder(h1, h2, w1, w2, (t1 + h1) % w1, (t2 + h2) % w2)
    l1, l2, l3, t, h = diag
    return least_rotation(OneCylinder(l1, l2, l3, (t - h) % (l1 + l2 + l3), h))


def apply_T_inverse(o: Origami) -> Origami:
    """T⁻¹ on a surface: (right, up) ↦ (right, up∘right)."""
    return Origami(o.right, tuple(o.up[j] for j in o.right), check=False)


# ---------------------------------------------------------------------------
# the orbit with every S-pair turned
#
# The library's orbit turns only the S-edges of an (ST)-triangle that no
# other edge fixes.  This reference turns every S-pair it meets and infers
# nothing, so it shares the diagram moves with the library but not the
# closure.  The two must give equal T- and S-edge maps.


def all_turns_orbit(o: Origami) -> tuple:
    """(t_next, s_next) of o's SL(2,Z) orbit on normalised cylinder diagrams."""
    start = cylinder_decomposition(o)
    t_next, s_next = {}, {}
    seen = {start}
    todo = [start]
    while todo:
        diag = todo.pop()
        image = t_next[diag] = shear(diag)
        if image not in seen:
            seen.add(image)
            todo.append(image)
        if diag not in s_next:
            image = quarter_turn(diag)
            s_next[diag] = image
            s_next[image] = diag
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return t_next, s_next


# ---------------------------------------------------------------------------
# helpers only the tests use


def relabel(o: Origami, g) -> Origami:
    """Conjugate both permutations by g (simultaneous square relabelling)."""
    g = tuple(g)
    if sorted(g) != list(range(o.n)):
        raise ValueError(f"g is not a permutation of 0..{o.n - 1}: {g!r}")
    r2 = [0] * o.n
    u2 = [0] * o.n
    for i in range(o.n):
        r2[g[i]] = g[o.right[i]]
        u2[g[i]] = g[o.up[i]]
    return Origami(r2, u2, check=False)


def commutator(o: Origami) -> tuple:
    """The permutation right∘up∘right⁻¹∘up⁻¹ (functions composed right to left)."""
    r, u = o.right, o.up
    rinv, uinv = [0] * o.n, [0] * o.n
    for x in range(o.n):
        rinv[r[x]] = x
        uinv[u[x]] = x
    return tuple(r[u[rinv[uinv[x]]]] for x in range(o.n))


def canonical_form(o: Origami) -> Origami:
    """The canonically relabelled representative of ``o``."""
    return origami_from_key(canonical_key(o))


def format_diagram(diag: CylinderDiagram) -> str:
    """The ``parse_diagram`` text of a normalised diagram."""
    if isinstance(diag, OneCylinder):
        return f"1cyl({diag.l1},{diag.l2},{diag.l3};{diag.t};{diag.h})"
    return f"2cyl({diag.h1},{diag.h2},{diag.w1},{diag.w2},{diag.t1},{diag.t2})"


def t_cycle(diag: CylinderDiagram) -> list:
    """The cusp of a normalised diagram, in T-order from ``diag``: T^j of it for j below its width."""
    return [t_member(diag, j) for j in range(cusp_coordinates(diag)[1])]


def cusps(orb) -> list:
    """An orbit's cusps in position order, each a slice of ``orb.diagrams`` in T-order."""
    at = orb.diagrams
    return [at[b:b + k] for b, k in zip(orb.bases, orb.ks)]


def positions(orb) -> dict:
    """The position of each of an orbit's diagrams."""
    return {d: p for p, d in enumerate(orb.diagrams)}
