"""Seeded job plans for the benchmark's workloads.

A run is a sequence of passes.  Every pass of a workload holds the same
kinds of job at the same sizes, so pass wall time does not depend on the
seed; the seed picks the surfaces and the order.  A job is the argv of one
``origami-h2`` command plus what the benchmark needs to check its answer.

Surfaces are drawn here, not by the library: a uniformly random primitive
cylinder tuple (``2cyl`` or ``1cyl``) at a given n, with its orbit class
(A/B at odd n, C at even n) read off the hyperelliptic involution, so each
pass holds the same classes and the class check on the answer is
independent of the program.
"""

from __future__ import annotations

import random
from math import gcd
from typing import NamedTuple, Optional

# --max-orbit-n for every orbit/noncong job: the largest n any workload uses
MAX_ORBIT_N = "31"

# (label, n) of the orbits in each pass.  A/B/C all appear at n between 25
# and 31; noncong sizes sit between the orbit sizes.
SIZES = {
    "full": {
        "census": (38, 39, 40),
        "orbit-cold": (("A", 25), ("B", 25), ("C", 26), ("C", 30), ("A", 31), ("B", 31)),
        "noncong": (("A", 27), ("C", 28), ("B", 29)),
        "requery": (("A", 25), ("B", 25), ("C", 26)),
    },
    "tiny": {
        "census": (9, 10),
        "orbit-cold": (("A", 9), ("B", 9), ("C", 10)),
        "noncong": (("A", 11), ("C", 12)),
        "requery": (("A", 9), ("B", 9), ("C", 10)),
    },
}


WHY = {
    "census": (
        "Acceptance criterion 1 (the census for 3 <= n <= 40 against the closed "
        "formulas) is the gate closest to its budget, so census jobs run `counts n n` "
        "at the top of its range, n = 38, 39, 40, in a seed-shuffled order.  At this "
        "size canonical_key is about 70 % of wall time, is_primitive about 22 % and "
        "the two builders about 7 %; orbit BFS, the cache and congruence do no work.  "
        "A faster key or cylinder decomposition shows here first."
    ),
    "orbit-cold": (
        "Orbit BFS is the cost centre of the Veech-group computation (Schmithusen, "
        "Exp. Math. 2004).  Each job is `orbit <surface>` for a seeded random "
        "primitive 1cyl/2cyl surface at n between 25 and 31, so the A, B and C orbits "
        "all appear, or `noncong <label> <n>`, each with a fresh empty --cache-dir.  "
        "The work is BFS-bound (canonical_key is about 94 % of orbit at B31) and every "
        "job also pays the cache write, which at n = 31 costs 0.4-0.6 s of JSON "
        "encoding beside 1.3-1.7 s of BFS."
    ),
    "requery": (
        "The read side of the orbit cache, beside orbit-cold's writes.  Set-up fills a "
        "cache with cold `noncong` queries for A25, B25 and C26; every job starts from "
        "that snapshot.  Each pass asks, per orbit, `noncong`, `orbit` of the seed "
        "L-shape (both hit) and `orbit` of a random other member.  At this commit it "
        "shows two facts: a hit is slower than recomputing (B25: about 1.0 s against "
        "0.7 s for compute plus write), and a member other than the seed or the orbit "
        "minimum misses, because `put` indexes only those two keys."
    ),
}


class Job(NamedTuple):
    kind: str  # counts | orbit | noncong
    args: tuple  # the command after the global flags
    n: int
    label: Optional[str] = None  # orbit class the answer must name
    cache: Optional[str] = None  # None | "fresh" (empty dir) | "warm" (the set-up snapshot)
    computed: bool = True  # False when the answer should come from the warm cache

    def argv(self, cache_dir: Optional[str]) -> list:
        if self.kind == "counts":
            return list(self.args)
        return ["--cache-dir", cache_dir, "--max-orbit-n", MAX_ORBIT_N, *self.args]


# ---------------------------------------------------------------------------
# surfaces in cylinder coordinates


def seed_diagram(label: str, n: int) -> str:
    """The L-shaped seed that ``noncong <label> <n>`` starts from."""
    return f"L(3,{n - 2})" if label == "B" else f"L(2,{n - 1})"


def two_cylinder_perms(h1, h2, w1, w2, t1, t2) -> tuple:
    """(right, up) of ``2cyl(h1,h2,w1,w2,t1,t2)``: the narrow cylinder sits on
    the wide one; the wide top is shifted by t2, the narrow top by t1."""
    nbig = h2 * w2
    n = nbig + h1 * w1
    right, up = [0] * n, [0] * n
    for y in range(h2):
        for x in range(w2):
            i = y * w2 + x
            right[i] = y * w2 + (x + 1) % w2
            if y < h2 - 1:
                up[i] = i + w2
            else:
                s = (x - t2) % w2
                up[i] = nbig + s if s < w1 else s
    for y in range(h1):
        for x in range(w1):
            i = nbig + y * w1 + x
            right[i] = nbig + y * w1 + (x + 1) % w1
            up[i] = i + w1 if y < h1 - 1 else (x - t1) % w1
    return right, up


def one_cylinder_perms(l1, l2, l3, t) -> tuple:
    """(right, up) of ``1cyl(l1,l2,l3;t;1)``: top arcs l1,l2,l3 land on the
    bottom in reversed order, rotated by t."""
    w = l1 + l2 + l3
    right = [(x + 1) % w for x in range(w)]
    up = []
    for x in range(w):
        if x < l1:
            fx = x + l2 + l3
        elif x < l1 + l2:
            fx = x - l1 + l3
        else:
            fx = x - l1 - l2
        up.append((fx + t) % w)
    return right, up


def _inverse(p) -> list:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return out


def weierstrass_count(right, up) -> int:
    """Fixed points of the hyperelliptic involution that sit at square corners.

    The involution is rotation by π: the square relabelling g with
    g∘r = r⁻¹∘g and g∘u = u⁻¹∘g, found by propagation from each candidate
    image of square 0.  Its six fixed points lie at square centres (g(x) = x),
    bottom-edge midpoints (u(g(x)) = x), left-edge midpoints (r(g(x)) = x)
    or corners; the corners are what is left of six.
    """
    n = len(right)
    ri, ui = _inverse(right), _inverse(up)
    for image in range(n):
        g = [-1] * n
        g[0] = image
        stack = [0]
        ok = True
        while stack and ok:
            x = stack.pop()
            gx = g[x]
            for a, b in ((right[x], ri[gx]), (up[x], ui[gx]), (ri[x], right[gx]), (ui[x], up[gx])):
                if g[a] < 0:
                    g[a] = b
                    stack.append(a)
                elif g[a] != b:
                    ok = False
                    break
        if ok and sorted(g) == list(range(n)):
            interior = sum(
                (g[x] == x) + (up[g[x]] == x) + (right[g[x]] == x) for x in range(n)
            )
            return 6 - interior
    raise ValueError("surface has no hyperelliptic involution")


def _shapes(n: int) -> tuple:
    """Every cylinder shape at n with its number of twist tuples."""
    shapes = []
    for w2 in range(2, n):
        for h2 in range(1, (n - 1) // w2 + 1):
            rest = n - h2 * w2
            for w1 in range(1, w2):
                if rest % w1 == 0:
                    shapes.append(((rest // w1, h2, w1, w2), w1 * w2))
    for l1 in range(1, n - 1):
        for l2 in range(1, n - l1):
            shapes.append(((l1, l2, n - l1 - l2), n))
    cum, total = [], 0
    for _, weight in shapes:
        total += weight
        cum.append(total)
    return [s for s, _ in shapes], cum


def random_surface(rng: random.Random, n: int, label: str, avoid: str = "") -> str:
    """A uniformly random primitive cylinder tuple at n whose orbit is ``label``.

    Primitive means the relative periods span Z²: the gcd of the 2×2 minors
    of the generators (gcd(w1, w2), 0), (t1, h1), (t2, h2) is 1 (one
    cylinder: gcd(l1, l2, l3) = 1 and height 1).
    """
    shapes, cum = _shapes(n)
    while True:
        dims = rng.choices(shapes, cum_weights=cum)[0]
        if len(dims) == 4:
            h1, h2, w1, w2 = dims
            t1, t2 = rng.randrange(w1), rng.randrange(w2)
            g = gcd(w1, w2)
            if gcd(gcd(g * h1, g * h2), t1 * h2 - t2 * h1) != 1:
                continue
            text = f"2cyl({h1},{h2},{w1},{w2},{t1},{t2})"
            perms = two_cylinder_perms(h1, h2, w1, w2, t1, t2)
        else:
            l1, l2, l3 = dims
            if gcd(gcd(l1, l2), l3) != 1:
                continue
            t = rng.randrange(n)
            text = f"1cyl({l1},{l2},{l3};{t};1)"
            perms = one_cylinder_perms(l1, l2, l3, t)
        if text == avoid:
            continue
        if n % 2 == 0 or {1: "A", 3: "B"}[weierstrass_count(*perms)] == label:
            return text


# ---------------------------------------------------------------------------
# passes


def pass_jobs(workload: str, size: str, seed: int, index: int) -> list:
    """The jobs of pass ``index`` of a run, in the order they run."""
    rng = random.Random(f"{workload}:{size}:{seed}:{index}")
    sizes = SIZES[size]
    if workload == "census":
        jobs = [Job("counts", ("counts", str(n), str(n)), n) for n in sizes["census"]]
    elif workload == "orbit-cold":
        jobs = [
            Job("orbit", ("orbit", random_surface(rng, n, label)), n, label, "fresh")
            for label, n in sizes["orbit-cold"]
        ]
        jobs += [
            Job("noncong", ("noncong", label, str(n)), n, label, "fresh")
            for label, n in sizes["noncong"]
        ]
    elif workload == "requery":
        jobs = []
        for label, n in sizes["requery"]:
            seed_text = seed_diagram(label, n)
            # the seed and the noncong query hit the warm cache; a random other
            # member of the same orbit misses it
            jobs.append(Job("noncong", ("noncong", label, str(n)), n, label, "warm", False))
            jobs.append(Job("orbit", ("orbit", seed_text), n, label, "warm", False))
            member = random_surface(rng, n, label, avoid=_as_two_cylinder(seed_text))
            jobs.append(Job("orbit", ("orbit", member), n, label, "warm"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def _as_two_cylinder(l_shape: str) -> str:
    a, b = map(int, l_shape[2:-1].split(","))
    return f"2cyl({a - 1},1,1,{b},0,0)"


def warm_jobs(size: str) -> list:
    """The cold ``noncong`` queries that fill the requery cache during set-up."""
    return [
        Job("noncong", ("noncong", label, str(n)), n, label, "warm")
        for label, n in SIZES[size]["requery"]
    ]
