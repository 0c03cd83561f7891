"""Census layer: enumerator, closed-form counts, and the invariant split."""

import tracemalloc
from math import gcd

import pytest

from oracles import involution_weierstrass_count
import origami_h2
from origami_h2 import congruence, enumeration, origami_core, sl2_orbit
from origami_h2.enumeration import (
    classify,
    count_primitive,
    enumerate_diagrams,
    formula_split,
    formula_total,
    total_count_with_imprimitive,
    verify_counts,
)
from origami_h2.origami_core import (
    InvalidSurfaceError,
    MalformedSurfaceError,
    OneCylinder,
    TwoCylinder,
    build_from_diagram,
    canonical_key,
    in_h2,
    is_primitive,
    origami_from_key,
)

ENUMERATORS = (enumerate_diagrams,)


class TestFormulas:
    @pytest.mark.parametrize(
        "n,want", [(3, 3), (4, 9), (5, 27), (6, 36), (7, 90), (8, 108), (9, 189)]
    )
    def test_total(self, n, want):
        assert formula_total(n) == want

    @pytest.mark.parametrize("n,want", [(5, (18, 9)), (7, (54, 36)), (9, (108, 81))])
    def test_split(self, n, want):
        assert formula_split(n) == want

    def test_split_sums_to_total(self):
        for n in range(5, 100, 2):
            a, b = formula_split(n)
            assert a + b == formula_total(n)
            # the two parts sit in ratio (n−1) : (n−3)
            assert a * (n - 3) == b * (n - 1)


class TestEnumerator:
    @pytest.mark.parametrize("n,want", [(3, 3), (4, 9), (5, 27), (6, 36)])
    def test_sizes(self, n, want, enum_keys):
        assert len(enum_keys(n)) == want

    def test_rejects_small_n(self):
        for enumerate_ in ENUMERATORS:
            with pytest.raises(ValueError):
                enumerate_(2)

    def test_every_key_is_a_primitive_h2_surface(self, enum_keys):
        for n in range(3, 11):
            for key in enum_keys(n):
                o = origami_from_key(key)
                assert o.n == n
                assert in_h2(o)
                assert is_primitive(o)

    def test_count_matches_enumeration(self, enum_keys):
        for n in range(3, 13):
            assert count_primitive(n) == len(enum_keys(n)) == len(enumerate_diagrams(n))

    def test_count_below_three_is_zero(self):
        assert count_primitive(2) == 0

    def test_distinct_diagrams_are_distinct_surfaces(self):
        # why counting needs no key: the diagrams key one-to-one onto the census
        for n in range(3, 17):
            diagrams = enumerate_diagrams(n)
            keys = {canonical_key(build_from_diagram(d)) for d in diagrams}
            assert len(keys) == len(diagrams), n

    def test_named_orbits_partition_the_diagrams(self, named_orbit):
        for n in range(3, 22):
            labels = "A" if n == 3 else "C" if n % 2 == 0 else "AB"
            parts = [set(named_orbit(label, n).diagrams) for label in labels]
            census = enumerate_diagrams(n)
            # equal sizes make the parts disjoint
            assert sum(map(len, parts)) == len(census), n
            assert set().union(*parts) == census, n


class TestCrossCheck:
    """Every built candidate must decompose back into its own tuple.

    At n = 7 every shifted twist below still gives a primitive surface, so
    only the decomposition, not primitivity, can tell the builder is wrong.
    """

    def test_wrong_two_cylinder_twist_raises(self, monkeypatch):
        real = enumeration._up
        monkeypatch.setattr(
            enumeration, "_up",
            lambda shape, c: real(shape, (*c[:5], c[5] + 1) if len(c) == 6 else c),
        )
        for enumerate_ in ENUMERATORS:
            with pytest.raises(AssertionError, match="decomposes as"):
                enumerate_(7)

    def test_wrong_one_cylinder_twist_raises(self, monkeypatch):
        real = enumeration._up
        monkeypatch.setattr(
            enumeration, "_up",
            lambda shape, c: real(shape, (*c[:3], c[3] + 1, c[4]) if len(c) == 5 else c),
        )
        for enumerate_ in ENUMERATORS:
            with pytest.raises(AssertionError, match="decomposes as"):
                enumerate_(7)

    def test_imprimitive_candidate_raises(self, monkeypatch):
        # with the coordinate filter off, 2cyl(2,2,1,2,0,0) is built: it
        # decomposes back into itself, but both heights are even
        monkeypatch.setattr(enumeration, "gcd", lambda a, b: 1)
        for enumerate_ in ENUMERATORS:
            with pytest.raises(AssertionError, match="lattice determinant 2"):
                enumerate_(6)

    def test_flat_torus_candidate_raises(self, monkeypatch):
        # the shape's rows beside the identity have no corner: the H(2) check
        # fires before the decomposition is tried
        monkeypatch.setattr(enumeration, "_up", lambda shape, c: list(range(len(shape[0]))))
        for enumerate_ in ENUMERATORS:
            with pytest.raises(AssertionError, match="builds a surface with 0 corners"):
                enumerate_(7)

    def test_invalid_candidate_raises(self, monkeypatch):
        # w1 > w2: the sweep lays out a family only once its shape is checked
        def candidates(n):
            yield (1, 1, 3, 2), [(1, 1, 3, 2, 0, 0)]

        monkeypatch.setattr(enumeration, "_candidates", candidates)
        for enumerate_ in ENUMERATORS:
            with pytest.raises(InvalidSurfaceError, match="need w1 < w2"):
                enumerate_(5)


class TestCornerScans:
    def test_one_corner_scan_per_candidate(self, monkeypatch):
        # the H(2) check and the decomposition share one scan
        calls = []
        real = origami_core._corners

        def counting(r, u):
            calls.append(len(r))
            return real(r, u)

        for module in (origami_core, enumeration):
            monkeypatch.setattr(module, "_corners", counting)
        diagrams = enumerate_diagrams(13)
        # two-cylinder tuples and least one-cylinder readings are distinct surfaces
        assert len(calls) == len(diagrams) == formula_total(13)

    def test_counting_builds_no_key(self, monkeypatch):
        calls = []
        real = origami_core._corners

        def counting(r, u):
            calls.append(len(r))
            return real(r, u)

        def no_key(o):
            raise RuntimeError("counting built a canonical key")

        for module in (origami_core, enumeration):
            monkeypatch.setattr(module, "_corners", counting)
        for module in (origami_core, sl2_orbit, congruence, enumeration, origami_h2):
            if getattr(module, "canonical_key", None) is canonical_key:
                monkeypatch.setattr(module, "canonical_key", no_key)
        assert len(enumerate_diagrams(13)) == formula_total(13) == len(calls)
        calls.clear()
        assert all(rep.match for rep in verify_counts(3, 15))
        assert len(calls) == sum(formula_total(n) for n in range(3, 16))

    def test_counting_builds_no_surface(self, monkeypatch):
        # the sweep checks the laid-out permutations; no Origami is made
        def no_surface(*args, **kwargs):
            raise RuntimeError("counting built a surface")

        monkeypatch.setattr(origami_core, "Origami", no_surface)
        assert len(enumerate_diagrams(9)) == 189
        assert all(rep.match for rep in verify_counts(3, 12))

    def test_counting_keeps_no_census(self, monkeypatch):
        # the totals count the checked sweep; no set of diagrams is collected
        def no_census(n):
            raise RuntimeError("counting collected the census")

        monkeypatch.setattr(enumeration, "enumerate_diagrams", no_census)
        assert all(rep.match for rep in verify_counts(3, 12))


class TestRowIndexReuse:
    def test_one_row_index_per_shape(self, monkeypatch):
        calls = []
        real = enumeration._row_index

        def counting(r, squares):
            calls.append(r)
            return real(r, squares)

        monkeypatch.setattr(enumeration, "_row_index", counting)
        assert sum(1 for _ in enumeration._sweep(12)) == formula_total(12)
        shapes = {origami_core._shape(*dims)[0] for dims, _ in enumeration._candidates(12)}
        # every two-cylinder shape and the one-cylinder shape (12, 1)
        assert len(shapes) == len(list(enumeration._two_cylinder_shapes(12))) + 1
        assert len(calls) == len(set(calls)) == len(shapes)

    def test_one_shape_check_per_family(self, monkeypatch):
        # a family's candidates share their lengths and heights: one check
        # per two-cylinder shape and per normalised one-cylinder composition
        calls = []
        real = enumeration._checked

        def counting(diag):
            calls.append(diag)
            return real(diag)

        monkeypatch.setattr(enumeration, "_checked", counting)
        assert len(enumerate_diagrams(12)) == formula_total(12)
        # count_one_cylinder(n) is n times the gcd-1 compositions over three
        compositions = enumeration.count_one_cylinder(12) // 12
        assert len(calls) == len(list(enumeration._two_cylinder_shapes(12))) + compositions

    def test_the_sweep_streams(self):
        # no list longer than one shape's twists: collecting the census at
        # n = 61 peaks at about 13 MiB
        origami_core._shape.cache_clear()
        tracemalloc.start()
        try:
            assert sum(1 for _ in enumeration._sweep(61)) == formula_total(61)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_a_stale_row_index_is_caught(self, monkeypatch):
        # the first shape's index read for every candidate puts the second
        # shape's corners on three different rows
        real = enumeration._row_index
        first = []

        def stale(r, squares):
            if not first:
                first.append(real(r, squares))
            return first[0]

        monkeypatch.setattr(enumeration, "_row_index", stale)
        with pytest.raises(MalformedSurfaceError, match="3 cylinders"):
            enumerate_diagrams(7)


class TestClassify:
    def test_n5(self):
        rep = classify(5)
        assert (rep.a_count, rep.b_count) == (18, 9)
        assert (rep.a_formula, rep.b_formula) == (18, 9)
        assert rep.match

    def test_n9(self):
        rep = classify(9)
        assert (rep.a_count, rep.b_count) == (108, 81)
        assert rep.match

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_rejects_even_or_tiny(self, n):
        with pytest.raises(ValueError):
            classify(n)

    def test_split_agrees_with_invariant(self, enum_keys):
        # recount straight from the involution's fixed vertices on every surface
        for n in (7, 9, 11):
            by_invariant = {1: 0, 3: 0}
            for key in enum_keys(n):
                by_invariant[involution_weierstrass_count(origami_from_key(key))] += 1
            rep = classify(n)
            assert by_invariant == {1: rep.a_count, 3: rep.b_count}, n

    def test_twist_parity_halves_the_primitive_pairs(self):
        # the lemma behind classify: where the class reads a twist's parity,
        # exactly half of the shape's primitive pairs have that twist even
        shapes = 0
        for n in range(5, 100, 2):
            for h1, h2, w1, w2 in enumeration._two_cylinder_shapes(n):
                narrow = h1 % 2 == w1 % 2 == 0
                if gcd(h1, h2) != 1 or not (narrow or h2 % 2 == w2 % 2 == 0):
                    continue
                g = gcd(w1, w2)
                pairs = [
                    (t1, t2)
                    for t1 in range(w1)
                    for t2 in range(w2)
                    if gcd(g, h2 * t1 - h1 * t2) == 1
                ]
                even = sum(1 for t1, t2 in pairs if (t1 if narrow else t2) % 2 == 0)
                assert 2 * even == len(pairs), (h1, h2, w1, w2)
                assert len(pairs) == enumeration._primitive_twist_pairs(h1, h2, w1, w2)
                shapes += 1
        assert shapes == 4598

    def test_match_is_a_real_comparison(self):
        rep = classify(5)
        assert not rep._replace(total=rep.total + 1).match
        assert not rep._replace(b_count=rep.b_count - 1).match


class TestVerifyCounts:
    def test_single_even_n(self):
        (rep,) = verify_counts(4, 4)
        assert rep.total == rep.formula_total == 9
        assert rep.a_count is None and rep.b_formula is None
        assert rep.match

    def test_range_all_match(self):
        reports = verify_counts(3, 15)
        assert [r.n for r in reports] == list(range(3, 16))
        assert all(r.match for r in reports)

    def test_cylinder_counts_partition_total(self):
        for rep in verify_counts(3, 12):
            assert rep.one_cylinder + rep.two_cylinder == rep.total

    @pytest.mark.parametrize("lo,hi", [(2, 5), (4, 3), (0, 0)])
    def test_rejects_bad_range(self, lo, hi):
        with pytest.raises(ValueError):
            verify_counts(lo, hi)


class TestWithImprimitive:
    @pytest.mark.parametrize("n,want", [(3, 3), (4, 9), (5, 27), (6, 45), (9, 201)])
    def test_anchors(self, n, want):
        assert total_count_with_imprimitive(n) == want

    def test_prime_n_has_no_proper_covers(self):
        # only the d = n and the (empty) d < 3 terms survive at prime n
        for n in (5, 7, 11, 13):
            assert total_count_with_imprimitive(n) == count_primitive(n)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            total_count_with_imprimitive(2)
