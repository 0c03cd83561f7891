"""Arithmetic layer: factorizations, index formulas, and the obstruction test."""

import tracemalloc
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest

from origami_h2.congruence import (
    ArithmeticWitness,
    bad_case_classifier,
    congruence_verify_level2,
    coprime_part,
    divisor_sigma,
    divisors,
    euler_phi,
    expected_index,
    expected_level,
    factorize,
    formula_split,
    index_obstruction_check,
    lcm_upto,
    moebius,
    noncongruence_search,
    orbit_labels,
    principal_index,
    relative_index,
    smooth_p2m1_scan,
    stratum_product,
    verify_certificate,
)
from origami_h2.sl2_orbit import level
from oracles import cusps, positions


class TestFactoredInteger:
    def test_factorize_630(self):
        f = factorize(630)
        assert f.value == 630
        assert f.factors == ((2, 1), (3, 2), (5, 1), (7, 1))
        assert str(f) == "2*3^2*5*7"

    def test_factorize_one(self):
        f = factorize(1)
        assert f.factors == ()
        assert str(f) == "1"

    def test_factorize_prime_power(self):
        assert str(factorize(81)) == "3^4"
        assert str(factorize(2520)) == "2^3*3^2*5*7"

    @pytest.mark.parametrize("bad", [0, -1, -30])
    def test_factorize_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            factorize(bad)

    def test_factorize_roundtrip(self):
        for a in range(1, 500):
            f = factorize(a)
            prod = 1
            for p, e in f.factors:
                prod *= p**e
            assert prod == a == f.value

    def test_lcm_upto(self):
        assert lcm_upto(1).value == 1
        assert lcm_upto(5).value == 60
        assert lcm_upto(9).value == 2520
        assert str(lcm_upto(9)) == "2^3*3^2*5*7"

    @pytest.mark.parametrize("bad", [0, -3])
    def test_lcm_upto_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            lcm_upto(bad)


class TestSmallArithmetic:
    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]

    def test_divisor_sigma(self):
        assert divisor_sigma(6) == 12
        assert divisor_sigma(9) == 13

    def test_euler_phi(self):
        assert [euler_phi(k) for k in (1, 2, 6, 12)] == [1, 1, 2, 4]

    def test_moebius(self):
        assert moebius(30) == -1
        assert moebius(6) == 1
        assert moebius(12) == 0

    def test_phi_sums_to_n(self):
        for n in range(1, 60):
            assert sum(euler_phi(d) for d in divisors(n)) == n


class TestCoprimePart:
    @pytest.mark.parametrize(
        "a,b,want",
        [(12, 10, 3), (630, 25, 126), (630, 1, 630), (1, 7, 1), (64, 2, 1)],
    )
    def test_anchors(self, a, b, want):
        assert coprime_part(a, b) == want

    def test_properties(self):
        for a in range(1, 300):
            for b in (1, 2, 3, 4, 6, 10, 12, 15, 35, 128):
                r = coprime_part(a, b)
                assert a % r == 0
                assert gcd(r, b) == 1
                # the cofactor must be built entirely from primes of b,
                # otherwise r was not the largest coprime divisor
                t = a // r
                while t > 1:
                    g = gcd(t, b)
                    assert g > 1
                    t //= g

    @pytest.mark.parametrize("a,b", [(0, 5), (5, 0), (-2, 3)])
    def test_rejects_nonpositive(self, a, b):
        with pytest.raises(ValueError):
            coprime_part(a, b)


class TestIndexFormulas:
    @pytest.mark.parametrize(
        "m,want", [(1, 1), (2, 6), (3, 24), (4, 48), (5, 120), (6, 144)]
    )
    def test_principal_index(self, m, want):
        assert principal_index(m) == want

    def test_principal_index_multiplicative(self):
        for a in range(1, 61):
            for b in range(1, 61):
                if gcd(a, b) == 1:
                    assert principal_index(a * b) == principal_index(a) * principal_index(b)

    def test_principal_index_is_sl2_order(self):
        # [Γ(1):Γ(m)] = |SL(2, Z/m)|, read off trial-division primes
        for m in range(1, 201):
            assert principal_index(m) == _sl2_order(m)

    @pytest.mark.parametrize(
        "m,ell,want", [(126, 630, 120), (15, 60, 48), (1, 2, 6), (7, 7, 1)]
    )
    def test_relative_index(self, m, ell, want):
        assert relative_index(m, ell) == want

    def test_relative_index_identity(self):
        for m in range(1, 50):
            assert relative_index(m, m) == 1

    def test_relative_index_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            relative_index(5, 12)

    def test_relative_index_rejects_non_coprime_split(self):
        with pytest.raises(ValueError):
            relative_index(2, 8)

    @pytest.mark.parametrize("n,want", [(3, 8), (4, 12), (5, 24), (6, 24), (9, 72)])
    def test_stratum_product(self, n, want):
        assert stratum_product(n) == want

    @pytest.mark.parametrize(
        "label,n,want",
        [("A", 3, 3), ("A", 5, 18), ("B", 5, 9), ("C", 4, 9), ("B", 9, 81), ("B", 51, 20736)],
    )
    def test_expected_index(self, label, n, want):
        assert expected_index(label, n) == want

    @pytest.mark.parametrize("label,n", [("A", 4), ("B", 3), ("B", 8), ("C", 5), ("X", 7)])
    def test_expected_index_rejects(self, label, n):
        with pytest.raises(ValueError):
            expected_index(label, n)

    @pytest.mark.parametrize("n", [4, 3, 1])
    def test_formula_split_rejects(self, n):
        # the split is defined for odd n >= 5 only
        with pytest.raises(ValueError):
            formula_split(n)

    @pytest.mark.parametrize("n,want", [(3, ["A"]), (4, ["C"]), (5, ["A", "B"]), (6, ["C"])])
    def test_orbit_labels(self, n, want):
        assert orbit_labels(n) == want

    @pytest.mark.parametrize("label,n", [(label, n) for n in range(3, 16) for label in orbit_labels(n)])
    def test_expected_level_is_the_orbit_level(self, named_orbit, label, n):
        assert expected_level(label, n) == level(named_orbit(label, n))


class TestObstruction:
    def test_witness_found(self):
        assert index_obstruction_check(81, 630, 5, 5) == ArithmeticWitness(126, 120)
        assert index_obstruction_check(36, 60, 4, 4) == ArithmeticWitness(15, 48)

    def test_inconclusive(self):
        # level 2, index 3: delta = principal_index(2) = 6 is divisible by 3
        assert index_obstruction_check(3, 2, 2, 2) is None

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            index_obstruction_check(3, 2, 0, 2)

    def test_witness_never_divides(self):
        for d in range(2, 40):
            got = index_obstruction_check(d, 60, 4, 4)
            if got is not None:
                assert got.delta % d != 0


def _divisors(a):
    small = [q for q in range(1, isqrt(a) + 1) if a % q == 0]
    return small + [a // q for q in small]


def _sl2_order(modulus):
    """|SL(2, Z/N)| = N^3 prod_{p | N} (1 - 1/p^2), primes found by trial division."""
    out = Fraction(modulus**3)
    for p in range(2, modulus + 1):
        if modulus % p == 0 and all(p % q for q in range(2, isqrt(p) + 1)):
            out *= 1 - Fraction(1, p * p)
    return int(out)


class TestCertificates:
    def test_search_c4(self, named_orbit):
        cert = noncongruence_search(named_orbit("C", 4))
        assert cert is not None
        assert (cert.k, cert.k_prime) == (2, 4)
        assert cert.d == 9
        assert cert.level == 12
        assert cert.m == 3
        assert cert.delta == 48

    def test_search_b9(self, named_orbit):
        cert = noncongruence_search(named_orbit("B", 9))
        assert cert is not None
        assert cert.d == 81
        assert cert.level == 630
        assert (cert.k, cert.k_prime) == (5, 5)
        assert cert.m == 126
        assert cert.delta == 120
        verify_certificate(cert)

    def test_search_c10(self, named_orbit):
        cert = noncongruence_search(named_orbit("C", 10))
        assert (cert.k, cert.k_prime, cert.m, cert.delta) == (1, 10, 63, 46080)
        assert (cert.d, cert.level) == (216, 2520)

    @pytest.mark.parametrize(
        "label,n",
        [("A", 3)] + [(lab, n) for n in range(4, 14) for lab in (("C",) if n % 2 == 0 else ("A", "B"))],
    )
    def test_search_reports_least_certifying_pair(self, named_orbit, label, n):
        # brute force over the orbit's (width, S-width) pairs, with the
        # obstruction re-derived from divisor lists and N^3 prod(1 - 1/p^2)
        orb = named_orbit(label, n)
        d = orb.index
        width = [0] * d
        position = positions(orb)
        for cycle in cusps(orb):
            for diag in cycle:
                width[position[diag]] = len(cycle)
        ell = lcm(*width)
        carriers = {}
        for i, diag in enumerate(orb.diagrams):
            carriers.setdefault((width[i], width[orb.s_perm[i]]), []).append(orb.key(diag))
        want = None
        for k, k_prime in sorted(carriers):
            m = max(q for q in _divisors(ell) if gcd(q, k * k_prime) == 1)
            delta = _sl2_order(ell // m)
            if delta % d:
                want = (min(carriers[k, k_prime]), k, k_prime, d, ell, m, delta)
                break
        cert = noncongruence_search(orb)
        assert (None if cert is None else tuple(cert)) == want

    def test_search_inconclusive_n3(self, named_orbit):
        assert noncongruence_search(named_orbit("A", 3)) is None

    def test_verify_rejects_tampering(self, named_orbit):
        cert = noncongruence_search(named_orbit("C", 4))
        verify_certificate(cert)  # the genuine one is fine
        with pytest.raises(RuntimeError):
            verify_certificate(cert._replace(delta=cert.delta + 1))
        with pytest.raises(RuntimeError):
            verify_certificate(cert._replace(m=1))
        with pytest.raises(RuntimeError):
            verify_certificate(cert._replace(d=cert.delta))
        # a zero modulus or index is refused, not divided by
        for zero in ("m", "d"):
            with pytest.raises(RuntimeError, match="certificate arithmetic"):
                verify_certificate(cert._replace(**{zero: 0}))
        # arithmetic still consistent, but T^1 (V^1) does not stabilise the surface
        with pytest.raises(RuntimeError, match=r"T\^1"):
            verify_certificate(cert._replace(k=1))
        with pytest.raises(RuntimeError, match=r"V\^1 does not stabilise"):
            verify_certificate(cert._replace(k_prime=1))

    def test_level2_verification(self, named_orbit):
        assert congruence_verify_level2(named_orbit("A", 3)) is True

    def test_level2_rejects_other_levels(self, named_orbit):
        with pytest.raises(ValueError):
            congruence_verify_level2(named_orbit("C", 4))


def brute_smooth_scan(limit):
    """Primes p <= limit, by trial division, whose p² − 1 is 1 once its 2s and 3s are stripped."""
    found = set()
    for p in range(2, limit + 1):
        if any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            continue
        m = p * p - 1
        for q in (2, 3):
            while m % q == 0:
                m //= q
        if m == 1:
            found.add(p)
    return found


class TestBadCases:
    def test_smooth_scan(self):
        assert smooth_p2m1_scan(20) == {2, 3, 5, 7, 17}
        assert smooth_p2m1_scan(2) == {2}
        with pytest.raises(ValueError):
            smooth_p2m1_scan(1)
        want = brute_smooth_scan(2000)
        for limit in range(2, 2001):
            assert smooth_p2m1_scan(limit) == {p for p in want if p <= limit}, limit

    def test_smooth_scan_memory_does_not_grow_with_limit(self):
        # the listing holds 143 numbers at 10**6; anything sized by limit would pass 64 KiB
        tracemalloc.start()
        try:
            assert smooth_p2m1_scan(10**6) == {2, 3, 5, 7, 17}
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

    @pytest.mark.parametrize(
        "n,want",
        [(9, (1, 1)), (15, (2, 1)), (21, (1, 2)), (27, (3, 1)), (51, (4, 1))],
    )
    def test_classifier_hits(self, n, want):
        assert bad_case_classifier(n) == want

    @pytest.mark.parametrize("n", [5, 7, 11, 13, 29, 99])
    def test_classifier_misses(self, n):
        assert bad_case_classifier(n) is None

    @pytest.mark.parametrize("n", [3, 4, 10])
    def test_classifier_rejects(self, n):
        with pytest.raises(ValueError):
            bad_case_classifier(n)

    def test_classifier_matches_definition(self):
        for n in range(5, 200, 2):
            got = bad_case_classifier(n)
            m = n - 3
            r = (m & -m).bit_length() - 1
            rest = m >> r
            s = 0
            while rest % 3 == 0:
                rest //= 3
                s += 1
            if rest == 1 and 1 <= r <= 4 and s >= 1:
                assert got == (r, s)
            else:
                assert got is None
