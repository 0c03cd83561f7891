r"""Congruence-subgroup arithmetic and noncongruence certificates.

For a finite-index subgroup Γ ≤ SL(2,Z) arising as the stabiliser of an
origami, the level ℓ is the lcm of the cusp widths, and Γ is congruence iff
it contains the principal congruence subgroup Γ(ℓ).  The obstruction used
here runs the other way: if Γ contains the parabolics T^k and V^{k′} and one
picks the largest divisor m of ℓ coprime to k·k′, those parabolics generate
all of SL(2,Z/mZ), so a congruence Γ of index d would force d to divide
δ = [Γ(m):Γ(ℓ)].  Whenever d ∤ δ, the subgroup is certified noncongruence.

All index arithmetic is exact integer work on prime factorisations:
[Γ(1):Γ(m)] = m·J₂(m) = ∏_{p^e ∥ m} p^{3e−2}(p²−1), multiplicative in coprime parts.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from typing import NamedTuple, Optional

from .origami_core import origami_from_key
from .sl2_orbit import IDENTITY, Orbit, level, membership, t_power, v_power


class FactoredInteger(NamedTuple):
    """A positive integer together with its prime factorisation."""

    value: int
    factors: tuple  # ((p, e), ...) with primes strictly increasing

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return "*".join(f"{p}^{e}" if e > 1 else f"{p}" for p, e in self.factors)


def factorize(a: int) -> FactoredInteger:
    """Prime factorisation by trial division (inputs here are small or smooth)."""
    if a < 1:
        raise ValueError(f"expected a positive integer, got {a}")
    value = a
    factors = []
    p = 2
    while p * p <= a:
        if a % p == 0:
            e = 0
            while a % p == 0:
                a //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if a > 1:
        factors.append((a, 1))
    return FactoredInteger(value, tuple(factors))


def lcm_upto(n: int) -> FactoredInteger:
    """lcm(1, 2, .., n) = ∏ p^⌊log_p n⌋, factorised."""
    if n < 1:
        raise ValueError("lcm_upto needs n >= 1")
    return factorize(lcm(*range(1, n + 1)))


def coprime_part(a: int, b: int) -> int:
    """The largest divisor of a coprime to b."""
    if a < 1 or b < 1:
        raise ValueError("coprime_part expects positive integers")
    g = gcd(a, b)
    while g > 1:
        while a % g == 0:
            a //= g
        g = gcd(a, g)
    return a


def divisors(n: int) -> list:
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def divisor_sigma(n: int) -> int:
    """σ(n): the sum of divisors."""
    out = 1
    for p, e in factorize(n).factors:
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def euler_phi(n: int) -> int:
    out = n
    for p, _ in factorize(n).factors:
        out -= out // p
    return out


def moebius(n: int) -> int:
    f = factorize(n).factors
    if any(e > 1 for _, e in f):
        return 0
    return -1 if len(f) % 2 else 1


def principal_index(m: int) -> int:
    """[Γ(1):Γ(m)] = m·J₂(m), as p^{3e−2}(p²−1) = p^e·p^{2e−2}(p²−1) (J₂: :func:`stratum_product`)."""
    return m * stratum_product(m)


def relative_index(m: int, ell: int) -> int:
    """δ = [Γ(m):Γ(ℓ)] for a coprime split m | ℓ, gcd(m, ℓ/m) = 1.

    Multiplicativity of the principal index over the split gives
    δ = [Γ(1):Γ(ℓ/m)] exactly.
    """
    if m < 1 or ell < 1 or ell % m:
        raise ValueError(f"need m | ℓ, got m={m}, ℓ={ell}")
    if gcd(m, ell // m) != 1:
        raise ValueError(f"split is not coprime: gcd({m}, {ell // m}) > 1")
    return principal_index(ell // m)


def stratum_product(n: int) -> int:
    """Jordan's J₂(n) = n² ∏_{p|n} (1 − 1/p²) = ∏_{p^e ∥ n} p^{2e−2}(p²−1), exactly."""
    out = 1
    for p, e in factorize(n).factors:
        out *= p ** (2 * e - 2) * (p * p - 1)
    return out


def formula_total(n: int) -> int:
    """3(n−2)·P(n)/8: the primitive count predicted for H(2)."""
    num = 3 * (n - 2) * stratum_product(n)
    if num % 8:
        raise ArithmeticError(f"total formula not integral at n={n}")
    return num // 8


def formula_split(n: int) -> tuple:
    """(a_n, b_n) = (3(n−1)·P(n)/16, 3(n−3)·P(n)/16) for odd n ≥ 5."""
    if n % 2 == 0 or n < 5:
        raise ValueError("the split is defined for odd n >= 5")
    p = stratum_product(n)
    a, b = 3 * (n - 1) * p, 3 * (n - 3) * p
    if a % 16 or b % 16:
        raise ArithmeticError(f"split formula not integral at n={n}")
    return a // 16, b // 16


_LEAST_N = {"A": 3, "B": 5, "C": 4}


def orbit_labels(n: int) -> list:
    """The labels of the named orbits of H(2) at n squares.

    A and B are the two odd-n orbits, with one and three integer Weierstrass
    points (Hubert–Lelièvre), C the single even-n orbit (McMullen); A also
    covers the lone n = 3 orbit.
    """
    return [label for label, least in _LEAST_N.items() if n >= least and n % 2 != (label == "C")]


def check_orbit_label(label: str, n: int) -> None:
    """Raise ValueError unless (label, n) names an orbit of H(2)."""
    least = _LEAST_N.get(label)
    if least is None:
        raise ValueError(f"unknown orbit label {label!r}")
    if label not in orbit_labels(n):
        raise ValueError(f"{label}_n needs {'even' if label == 'C' else 'odd'} n >= {least}")


def expected_index(orbit_label: str, n: int) -> int:
    """Stabiliser index predicted for the named orbit through n-square surfaces.

    C and A₃ are the whole census at their n; otherwise A and B split it.
    """
    check_orbit_label(orbit_label, n)
    if orbit_label == "C" or n == 3:
        return formula_total(n)
    a, b = formula_split(n)
    return b if orbit_label == "B" else a


def expected_level(orbit_label: str, n: int) -> int:
    """Level predicted for the named orbit: lcm(1..n), a quarter of it for B, 2 at n = 3."""
    check_orbit_label(orbit_label, n)
    if n == 3:
        return 2
    ell = lcm_upto(n).value
    return ell // 4 if orbit_label == "B" else ell


class ArithmeticWitness(NamedTuple):
    """The modulus/index pair that makes the divisibility obstruction bite."""

    m: int
    delta: int


def index_obstruction_check(d: int, ell: int, k: int, k_prime: int) -> Optional[ArithmeticWitness]:
    """Divisibility obstruction for a level-ℓ, index-d stabiliser with T^k, V^{k′}.

    Take m = the largest divisor of ℓ coprime to k·k′ — the two parabolic
    powers then surject onto SL(2,Z/mZ) — and δ = [Γ(m):Γ(ℓ)].  If the group
    were congruence, d would divide δ; so d ∤ δ certifies noncongruence.
    Returns the witness (m, δ), or None when the test is inconclusive.
    """
    if min(d, ell, k, k_prime) < 1:
        raise ValueError("all arguments must be positive")
    m = coprime_part(ell, k * k_prime)
    delta = relative_index(m, ell)
    if delta % d:
        return ArithmeticWitness(m, delta)
    return None


class NoncongruenceCertificate(NamedTuple):
    """A verified noncongruence witness for one origami's stabiliser."""

    surface: bytes  # canonical key
    k: int
    k_prime: int
    d: int
    level: int
    m: int
    delta: int


def verify_certificate(cert: NoncongruenceCertificate) -> None:
    """Re-derive every certificate invariant; raise RuntimeError on failure."""
    ok = (
        min(cert.k, cert.k_prime, cert.d, cert.level, cert.m) >= 1
        and cert.level % cert.m == 0
        and gcd(cert.m, cert.k * cert.k_prime) == 1
        and gcd(cert.m, cert.level // cert.m) == 1
        and cert.delta == principal_index(cert.level // cert.m)
        and cert.delta % cert.d != 0
    )
    if not ok:
        raise RuntimeError(f"certificate arithmetic does not hold: {cert}")
    o = origami_from_key(cert.surface)
    if not membership(o, t_power(cert.k)):
        raise RuntimeError(f"T^{cert.k} does not stabilise the certified surface")
    if not membership(o, v_power(cert.k_prime)):
        raise RuntimeError(f"V^{cert.k_prime} does not stabilise the certified surface")


def noncongruence_search(orb: Orbit) -> Optional[NoncongruenceCertificate]:
    """Scan an orbit for a noncongruence certificate of its stabiliser.

    Each surface contributes its horizontal cusp width k and the width k′ of
    its S-image's cusp (its vertical width).  The least pair (k, k′) that
    passes the arithmetic obstruction yields the certificate, on the least
    key carrying that pair, after full re-verification.  The reported
    (k, k′, m, δ) is thus an invariant of the orbit, not of the key bytes.
    The distinct pairs are read off the width at each position and
    ``s_perm`` without a list of them, and only the carriers of the
    certifying pair, sought on the cusps of width k alone (from each
    cusp's first position in ``Orbit.bases``), are built
    (:meth:`Orbit.diagram`) and keyed, so no cusp is listed.  None means
    inconclusive — the criterion is one-sided and never proves congruence.
    """
    d = orb.index
    ell = level(orb)
    widths, s_perm, ks = orb.widths, orb.s_perm, orb.ks
    for k, k_prime in sorted(set(zip(widths, map(widths.__getitem__, s_perm)))):
        witness = index_obstruction_check(d, ell, k, k_prime)
        if witness is not None:
            # only the positions of a cusp of width k can carry (k, k′)
            carriers = (p for base, width in zip(orb.bases, ks) if width == k
                        for p in range(base, base + k) if widths[s_perm[p]] == k_prime)
            key = min(map(orb.key, map(orb.diagram, carriers)))
            cert = NoncongruenceCertificate(
                key, k, k_prime, d, ell, witness.m, witness.delta
            )
            verify_certificate(cert)
            return cert
    return None


def congruence_verify_level2(orb: Orbit) -> bool:
    """Check a level-2 stabiliser against Γ(2) = ⟨−I, T², V²⟩.

    A subgroup of level ℓ is congruence iff it contains Γ(ℓ); at ℓ = 2 the
    three listed generators make that directly checkable.  Other levels are
    rejected — general-level verification needs generating sets for Γ(ℓ).
    """
    if level(orb) != 2:
        raise ValueError(f"only level 2 is supported, orbit has level {level(orb)}")
    base = origami_from_key(orb.base_key)
    return all(membership(base, g) for g in (-IDENTITY, t_power(2), v_power(2)))


def smooth_p2m1_scan(limit: int) -> set:
    """Primes p ≤ limit for which p² − 1 factors over {2, 3} alone.

    p² − 1 = (p − 1)(p + 1) is a {2, 3}-number iff both factors are, so p = s + 1
    where s < limit and s + 2 ≤ 2^b, b = limit.bit_length(), are {2, 3}-numbers
    and s + 1 is prime (Størmer: s = 1, 2, 4, 6, 16).  About b²/3 numbers 3^j·2^i
    are ≤ 2^b (143 at 10⁶), so the cost grows with b², not with limit.
    """
    if limit < 2:
        raise ValueError("limit must be at least 2")
    b = limit.bit_length()
    smooth = {3**j << i for j in range(b) for i in range(((1 << b) // 3**j).bit_length())}
    return {s + 1 for s in smooth if s < limit and s + 2 in smooth and factorize(s + 1).factors[0][0] == s + 1}


def bad_case_classifier(n: int) -> Optional[tuple]:
    """Detect n − 3 = 2^r·3^s with 1 ≤ r ≤ 4 and s ≥ 1; returns (r, s) or None.

    These are the odd n where the generic cusp-width argument degenerates and
    the certificate needs the dedicated L(5, n−4) computation.
    """
    if n < 5 or n % 2 == 0:
        raise ValueError("classifier is defined for odd n >= 5")
    m = n - 3
    r = 0
    while m % 2 == 0:
        m //= 2
        r += 1
    s = 0
    while m % 3 == 0:
        m //= 3
        s += 1
    if m == 1 and 1 <= r <= 4 and s >= 1:
        return (r, s)
    return None
