import random
from itertools import compress, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _partitions,
    _type_representative,
    all_permutations,
    all_starts_key,
    canonical_form,
    commutator,
    format_diagram,
    h2_transitive_mask,
    involution_weierstrass_count,
    layout_from_ranges,
    pair_masks,
    reference_one_cylinder,
    reference_two_cylinder,
    relabel,
    sublattice_index,
)
from origami_h2 import origami_core
from origami_h2.origami_core import (
    LAYOUT_MEMO_SIZE,
    InvalidSurfaceError,
    MalformedSurfaceError,
    OneCylinder,
    Origami,
    TwoCylinder,
    _decompose,
    _is_transitive,
    _layout,
    _perms,
    _row_index,
    _shape,
    build_from_diagram,
    build_l_shape,
    build_one_cylinder,
    build_two_cylinder,
    canonical_key,
    cylinder_decomposition,
    in_h2,
    integer_weierstrass_count,
    is_primitive,
    key_from_text,
    key_to_text,
    lattice_index,
    origami_from_key,
    parse_diagram,
)


def all_two_cylinder_tuples(n):
    for h1 in range(1, n):
        for w1 in range(1, n):
            rest = n - h1 * w1
            if rest <= 0:
                continue
            for h2 in range(1, rest + 1):
                if rest % h2:
                    continue
                w2 = rest // h2
                if w1 < w2:
                    for t1 in range(w1):
                        for t2 in range(w2):
                            yield (h1, h2, w1, w2, t1, t2)


def all_one_cylinder_tuples(n):
    """Every (l1, l2, l3, t, h) on n squares, heights above 1 included."""
    for w in range(3, n + 1):
        if n % w == 0:
            for l1 in range(1, w - 1):
                for l2 in range(1, w - l1):
                    for t in range(w):
                        yield (l1, l2, w - l1 - l2, t, n // w)


def all_h2_surfaces(n):
    """Every H(2) surface on n squares, primitive or not, once per cylinder tuple."""
    for t in all_two_cylinder_tuples(n):
        yield build_two_cylinder(*t)
    for t in all_one_cylinder_tuples(n):
        yield build_one_cylinder(*t)


def least_rotation(l1, l2, l3, t, h):
    """The one-cylinder tuple the decomposition reports: the least of the three
    readings (l1,l2,l3,t), (l2,l3,l1,t−2·l1), (l3,l1,l2,t−2·(l1+l2)) mod w."""
    w = l1 + l2 + l3
    rots = [(l1, l2, l3, t % w), (l2, l3, l1, (t - 2 * l1) % w), (l3, l1, l2, (t - 2 * (l1 + l2)) % w)]
    return OneCylinder(*min(rots), h)


def quarter_turn(o):
    """(up, right⁻¹): the surface whose horizontal structure is o's vertical one."""
    rinv = [0] * o.n
    for i, j in enumerate(o.right):
        rinv[j] = i
    return Origami(o.up, rinv)


class TestBuilders:
    def test_l_shape_is_the_two_cylinder_special_case(self):
        assert build_l_shape(2, 4) == build_two_cylinder(1, 1, 1, 4, 0, 0)

    def test_l_shape_square_count(self):
        for a in range(2, 6):
            for b in range(2, 6):
                assert build_l_shape(a, b).n == a + b - 1

    def test_every_built_surface_is_in_h2(self):
        for tup in all_two_cylinder_tuples(8):
            assert in_h2(build_two_cylinder(*tup))
        for t in range(7):
            assert in_h2(build_one_cylinder(2, 2, 3, t, 1))

    def test_dimension_validation(self):
        with pytest.raises(InvalidSurfaceError):
            build_two_cylinder(1, 1, 2, 2, 0, 0)  # needs w1 < w2
        with pytest.raises(InvalidSurfaceError):
            build_two_cylinder(1, 1, 0, 2, 0, 0)
        with pytest.raises(InvalidSurfaceError):
            build_one_cylinder(1, 0, 1, 0, 1)
        with pytest.raises(InvalidSurfaceError):
            build_one_cylinder(1, 1, 1, 0, 0)
        with pytest.raises(InvalidSurfaceError):
            build_l_shape(1, 5)

    def test_slices_equal_the_per_square_reference(self):
        # every tuple up to n = 20, with twists as given and moved out of [0, w)
        for n in range(3, 21):
            for h1, h2, w1, w2, t1, t2 in all_two_cylinder_tuples(n):
                for tup in ((h1, h2, w1, w2, t1, t2), (h1, h2, w1, w2, t1 - 2 * w1, t2 + 3 * w2)):
                    assert build_two_cylinder(*tup) == reference_two_cylinder(*tup), tup
            for l1, l2, l3, t, h in all_one_cylinder_tuples(n):
                for tup in ((l1, l2, l3, t, h), (l1, l2, l3, t + 2 * n, h), (l1, l2, l3, t - n, h)):
                    assert build_one_cylinder(*tup) == reference_one_cylinder(*tup), tup

    def test_twists_are_reduced_modulo_widths(self):
        assert build_two_cylinder(1, 1, 2, 3, 2, 3) == build_two_cylinder(1, 1, 2, 3, 0, 0)
        assert build_one_cylinder(1, 2, 2, 5, 1) == build_one_cylinder(1, 2, 2, 0, 1)


class TestLayoutMemo:
    """``_layout`` reads each shape's twist-free half from a bounded memo."""

    @staticmethod
    def every_shape(n_max):
        """A diagram of every cylinder shape on at most n_max squares, at twist 0."""
        for n in range(3, n_max + 1):
            for h1, h2, w1, w2, t1, t2 in all_two_cylinder_tuples(n):
                if t1 == t2 == 0:
                    yield TwoCylinder(h1, h2, w1, w2, 0, 0)
            for l1, l2, l3, t, h in all_one_cylinder_tuples(n):
                if t == 0:
                    yield OneCylinder(l1, l2, l3, 0, h)

    def test_layout_is_the_layout_from_ranges(self):
        # every shape with n <= 24, heights above 1 included, at twists 0, 1,
        # w - 1, negative and >= w on each cylinder
        for diag in self.every_shape(24):
            if isinstance(diag, OneCylinder):
                w = diag.l1 + diag.l2 + diag.l3
                variants = [diag._replace(t=t) for t in (0, 1, w - 1, -1, -w - 2, w, w + 3, 2 * w + 1)]
            else:
                twists = lambda w: (0, 1, w - 1, -1, -2 * w + 1, w, w + 2)
                variants = [diag._replace(t1=t1, t2=t2) for t1 in twists(diag.w1) for t2 in twists(diag.w2)]
            for d in variants:
                right, up, corners = _layout(d)
                assert (list(right), up, corners) == layout_from_ranges(d), d

    def test_mutating_up_leaves_the_next_layout_unchanged(self):
        # each twin has its diagram's shape: (h1, h2, w1, w2), or (w, h)
        for diag, twin in ((TwoCylinder(2, 3, 2, 5, 1, 3), TwoCylinder(2, 3, 2, 5, 0, 4)),
                           (OneCylinder(2, 3, 4, 5, 2), OneCylinder(4, 3, 2, 0, 2))):
            up = _perms(diag)[1]
            up.reverse()
            up[-1] = -1
            for d in (diag, twin):
                assert _layout(d)[1] == layout_from_ranges(d)[1], d

    def test_right_cannot_corrupt_the_memo(self):
        diag = TwoCylinder(1, 2, 3, 4, 1, 2)
        right, _ = _perms(diag)
        with pytest.raises(TypeError):
            right[0] = right[1]
        # the shape's other twists share it, unchanged
        assert _layout(diag._replace(t1=0, t2=3))[0] is right
        assert list(right) == layout_from_ranges(diag)[0]

    def test_memo_stays_within_its_bound(self):
        # more one-cylinder shapes (w, h) than the bound, each laid out twice
        shapes = [(w, h) for w in range(3, 40) for h in range(1, LAYOUT_MEMO_SIZE // 30)]
        assert len(shapes) > LAYOUT_MEMO_SIZE
        for w, h in shapes:
            for t in (0, 1):
                _layout(OneCylinder(1, 1, w - 2, t, h))
        info = _shape.cache_info()
        assert info.maxsize == LAYOUT_MEMO_SIZE
        assert info.currsize <= LAYOUT_MEMO_SIZE


class TestOrigamiValidation:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Origami((0, 0, 1), (1, 2, 0))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Origami((1, 0), (1, 2, 0))

    def test_rejects_disconnected(self):
        # two separate tori
        with pytest.raises(ValueError):
            Origami((1, 0, 3, 2), (0, 1, 2, 3))

    def test_disconnected_pair_has_no_key_or_diagram(self):
        # L(2,2) next to a separate torus square, unchecked: its key search
        # reaches only the L's three squares
        l_shape = build_l_shape(2, 2)
        o = Origami(l_shape.right + (3,), l_shape.up + (3,), check=False)
        with pytest.raises(ValueError, match="not transitive"):
            canonical_key(o)
        with pytest.raises(MalformedSurfaceError, match="row gluing structure is inconsistent"):
            cylinder_decomposition(o)

    def test_immutable_hashable_value(self):
        o = build_l_shape(2, 4)
        with pytest.raises(AttributeError):
            o.n = 5
        twin = build_l_shape(2, 4)
        assert twin is not o and hash(twin) == hash(o)
        assert len({o, twin}) == 1

    def test_rejects_empty_pair(self):
        with pytest.raises(ValueError):
            Origami((), ())

    def test_rejects_non_integer_entries(self):
        for right, up in (((1.0, 0), (0, 1.0)), ((True, False), (0, 1))):
            with pytest.raises(ValueError):
                Origami(right, up)

    def test_commutator_shape_in_h2(self):
        o = build_l_shape(2, 2)
        c = commutator(o)
        assert sorted(c) == list(range(3))
        assert all(c[x] != x for x in range(3))


class TestDecomposition:
    def test_l24_horizontal_diagram(self):
        diag = cylinder_decomposition(build_l_shape(2, 4))
        assert diag == TwoCylinder(1, 1, 1, 4, 0, 0)

    def test_l24_vertical_diagram(self):
        diag = cylinder_decomposition(quarter_turn(build_l_shape(2, 4)))
        assert diag == TwoCylinder(3, 1, 1, 2, 0, 0)

    def test_one_cylinder_diagram(self):
        diag = cylinder_decomposition(build_one_cylinder(1, 6, 2, 0, 1))
        assert isinstance(diag, OneCylinder)
        assert diag == OneCylinder(1, 6, 2, 0, 1)
        assert diag.l1 + diag.l2 + diag.l3 == 9 and diag.h == 1

    def test_two_cylinder_round_trip_all_tuples_up_to_15(self):
        for n in range(3, 16):
            for tup in all_two_cylinder_tuples(n):
                o = build_two_cylinder(*tup)
                assert cylinder_decomposition(o) == TwoCylinder(*tup)

    def test_one_cylinder_lex_min_of_corner_rotation(self):
        # the three corner choices give rotated coordinates; the
        # decomposition must return the lexicographically least
        for (l1, l2, l3) in ((1, 6, 2), (2, 3, 4), (1, 1, 3)):
            n = l1 + l2 + l3
            for t in range(n):
                rots = [
                    (l1, l2, l3, t),
                    (l2, l3, l1, (t - 2 * l1) % n),
                    (l3, l1, l2, (t - 2 * (l1 + l2)) % n),
                ]
                o = build_one_cylinder(l1, l2, l3, t, 1)
                assert cylinder_decomposition(o) == OneCylinder(*min(rots), 1)

    def test_rotated_coordinates_build_the_same_surface(self):
        for (l1, l2, l3, t) in ((1, 6, 2, 4), (2, 3, 4, 0), (1, 2, 2, 3)):
            n = l1 + l2 + l3
            a = build_one_cylinder(l1, l2, l3, t, 1)
            b = build_one_cylinder(l2, l3, l1, (t - 2 * l1) % n, 1)
            assert canonical_key(a) == canonical_key(b)

    def test_vertical_of_one_cylinder_surface(self):
        # (1, n-3, 2) is one-cylinder in both directions
        diag = cylinder_decomposition(quarter_turn(build_one_cylinder(1, 6, 2, 0, 1)))
        assert isinstance(diag, OneCylinder)

    @pytest.mark.parametrize(
        "r,u,match",
        [
            ((0, 1, 2), (0, 1, 2), "3 cylinders"),
            ((1, 0, 3, 2), (0, 1, 2, 3), "equal width"),
            ((1, 0, 3, 4, 2), (0, 1, 2, 3, 4), "must hold one corner"),
            ((0, 2, 1), (0, 1, 2), "does not glue into the narrow one"),
            ((1, 2, 0, 3), (0, 1, 2, 3), "row gluing structure is inconsistent"),
            ((1, 2, 0, 3), (0, 3, 1, 3), "rigid row gluings form a cycle"),
            ((1, 0, 2, 3), (0, 1, 3, 3), "rigid row gluings form a cycle"),
        ],
        ids=["three-rows", "equal-widths", "narrow-two-breaks", "no-narrow-gluing",
             "one-row-short", "one-cylinder-climb-cycles", "two-cylinder-climb-cycles"],
    )
    def test_corners_from_outside_the_scan_raise(self, r, u, match):
        # _decompose trusts its caller's corners (transpose passes the
        # laid-out corners); corners 0, 1, 2 of these pairs are no H(2) corners,
        # and in the last two up is no permutation: its climb from a corner
        # never reaches a top row
        with pytest.raises(MalformedSurfaceError, match=match):
            _decompose(r, u, [0, 1, 2], _row_index(r, [0, 1, 2]))


class TestDecompositionOracles:
    def test_rebuilds_every_surface_in_both_directions(self):
        # horizontal: the diagram rebuilds o; vertical: it rebuilds o turned
        # a quarter, whose rows are o's columns
        for n in range(3, 11):
            for o in all_h2_surfaces(n):
                key = canonical_key(o)
                assert canonical_key(build_from_diagram(cylinder_decomposition(o))) == key
                turned = quarter_turn(o)
                vertical = cylinder_decomposition(turned)
                assert canonical_key(build_from_diagram(vertical)) == canonical_key(turned)

    def test_recovers_every_relabelled_tuple(self):
        # all tuples up to n = 16: imprimitive ones, and one-cylinder ones of
        # every height h | n; a two-cylinder tuple comes back as itself, a
        # one-cylinder tuple as its least rotation
        rng = random.Random(16)
        tall = imprimitive = 0
        for n in range(3, 17):
            g = list(range(n))
            diags = [TwoCylinder(*t) for t in all_two_cylinder_tuples(n)]
            diags += [OneCylinder(*t) for t in all_one_cylinder_tuples(n)]
            for diag in diags:
                rng.shuffle(g)
                o = relabel(build_from_diagram(diag), g)
                found = cylinder_decomposition(o)
                want = diag if isinstance(diag, TwoCylinder) else least_rotation(*diag)
                assert found == want, (diag, g)
                assert canonical_key(build_from_diagram(found)) == canonical_key(o)
                tall += isinstance(diag, OneCylinder) and diag.h > 1
                imprimitive += not is_primitive(o)
        assert tall and imprimitive

    def test_either_row_index_gives_the_diagram(self):
        # every tuple up to n = 16, laid out as (r, u) and transposed as
        # (u, r) with the same corners: an index of every row and one of the
        # top rows alone give the tuple's diagram, and the transpose's
        # diagram rebuilds (u, r)
        tall = imprimitive = 0
        for n in range(3, 17):
            diags = [TwoCylinder(*t) for t in all_two_cylinder_tuples(n)]
            diags += [OneCylinder(*t) for t in all_one_cylinder_tuples(n)]
            for diag in diags:
                r, u, corners = _layout(diag)
                want = diag if isinstance(diag, TwoCylinder) else least_rotation(*diag)
                turned = cylinder_decomposition(Origami(u, r))
                assert canonical_key(build_from_diagram(turned)) == canonical_key(Origami(u, r))
                for a, b, found in ((r, u, want), (u, r, turned)):
                    for squares in (range(n), corners):
                        assert _decompose(a, b, corners, _row_index(a, squares)) == found, diag
                tall += isinstance(diag, OneCylinder) and diag.h > 1
                imprimitive += lattice_index(want) != 1
        assert tall and imprimitive

    def test_errors_over_every_transitive_pair_up_to_5(self):
        # a trivial commutator is a flat torus; any other one that is not a
        # 3-cycle, such as (0 1)(2 3) of r = (2 3), u = (0 2)(1 3) in H(1,1),
        # is outside H(2)
        for n in range(1, 6):
            perms = list(permutations(range(n)))
            for r in perms:
                for u in perms:
                    if not _is_transitive(r, u):
                        continue
                    o = Origami(r, u)
                    moved = sum(a != b for a, b in enumerate(commutator(o)))
                    if moved == 3:
                        continue
                    error, match = (
                        (MalformedSurfaceError, "flat torus") if moved == 0
                        else (ValueError, "not in H\\(2\\)")
                    )
                    for surface in (o, quarter_turn(o)):
                        with pytest.raises(error, match=match):
                            cylinder_decomposition(surface)

    def test_in_h2_is_the_commutator_definition(self):
        # every transitive pair with n <= 6, against the 3-cycle definition
        # evaluated independently over all u at once
        pairs = 0
        for n in range(1, 7):
            perms, inverses = all_permutations(n)
            rows = [tuple(p) for p in perms.tolist()]
            for r in rows:
                h2_mask, transitive = pair_masks(r, perms, inverses)
                got = [in_h2(Origami(r, u, check=False)) for u in compress(rows, transitive)]
                assert got == h2_mask[transitive].tolist(), r
                pairs += len(got)
        assert pairs == 425160

    def test_census_mask_propagates_only_h2_rows(self):
        # brute_force_census tests transitivity only on the rows that pass
        # the commutator test; every class with n <= 7 gets the same mask
        classes = 0
        for n in range(1, 8):
            perms, inverses = all_permutations(n)
            for parts in _partitions(n):
                r = _type_representative(parts)
                h2_mask, transitive = pair_masks(r, perms, inverses)
                assert (h2_transitive_mask(r, perms, inverses) == (h2_mask & transitive)).all(), r
                classes += 1
        assert classes == 1 + 2 + 3 + 5 + 7 + 11 + 15


class TestCanonicalKey:
    def test_relabelling_invariance_spot(self):
        rng = random.Random(7)
        for o in (build_l_shape(2, 4), build_one_cylinder(1, 6, 2, 3, 1)):
            key = canonical_key(o)
            for _ in range(25):
                g = list(range(o.n))
                rng.shuffle(g)
                assert canonical_key(relabel(o, g)) == key

    @settings(max_examples=60, deadline=None)
    @given(st.permutations(list(range(7))))
    def test_relabelling_invariance_hypothesis(self, g):
        o = build_one_cylinder(1, 4, 2, 3, 1)
        assert canonical_key(relabel(o, g)) == canonical_key(o)

    def test_shear_changes_the_surface_at_n3(self):
        # L(2,2) and its twist-1 shear are genuinely non-isomorphic:
        # no relabelling maps one to the other
        a = build_two_cylinder(1, 1, 1, 2, 0, 0)
        b = build_two_cylinder(1, 1, 1, 2, 0, 1)
        assert canonical_key(a) != canonical_key(b)
        for g in permutations(range(3)):
            assert relabel(a, g) != b

    def test_idempotent_under_rebuild(self):
        o = build_l_shape(3, 4)
        key = canonical_key(o)
        assert canonical_key(origami_from_key(key)) == key
        assert canonical_key(canonical_form(o)) == key

    def test_printable_form_round_trip(self):
        key = canonical_key(build_l_shape(3, 3))
        assert key_from_text(key_to_text(key)) == key

    def test_distinct_surfaces_distinct_keys(self):
        keys = {canonical_key(build_l_shape(a, b)) for a in (2, 3, 4) for b in (2, 3, 4)}
        assert len(keys) == 9

    def test_classes_match_all_starts_oracle(self):
        # equal keys <=> equal oracle keys, over every H(2) surface at n <= 12
        # and a random relabelling of each
        rng = random.Random(12)
        for n in range(3, 13):
            pairs = set()
            for o in all_h2_surfaces(n):
                g = list(range(n))
                rng.shuffle(g)
                for surf in (o, relabel(o, g)):
                    pairs.add((canonical_key(surf), all_starts_key(surf)))
            keys = {k for k, _ in pairs}
            oracle_keys = {q for _, q in pairs}
            assert len(keys) == len(pairs) == len(oracle_keys), n

    def test_starts_fall_back_to_every_square_on_a_torus(self):
        # trivial commutator: a 2x3 torus, where every square is a start
        torus = Origami([1, 2, 0, 4, 5, 3], [3, 4, 5, 0, 1, 2])
        assert commutator(torus) == tuple(range(6))
        g = [4, 0, 5, 2, 1, 3]
        assert canonical_key(relabel(torus, g)) == canonical_key(torus)
        assert canonical_key(origami_from_key(canonical_key(torus))) == canonical_key(torus)


class TestKeyDecoding:
    @pytest.mark.parametrize(
        "key",
        [b"", b"\x00", b"\x00\x03\x01\x02", b"\x00\x03" + bytes(13), b"\x01\x2e" + bytes(4 * 302 - 2)],
        ids=["empty", "half-header", "short", "long", "wide-short"],
    )
    def test_corrupt_key_raises_value_error(self, key):
        for decode in (origami_from_key, key_to_text):
            with pytest.raises(ValueError, match="corrupt canonical key"):
                decode(key)

    def test_key_text_is_the_representative(self):
        key = canonical_key(build_l_shape(3, 4))
        o = origami_from_key(key)
        assert key_to_text(key) == ",".join(map(str, o.right)) + "|" + ",".join(map(str, o.up))

    @pytest.mark.parametrize(
        "text",
        ["1,0,2|2,0,1", "0,1|0,1", "1,0|1,0,2", "x|0", "0,1"],
        ids=["not-canonical", "disconnected", "lengths", "garbage", "no-bar"],
    )
    def test_key_from_text_rejects(self, text):
        with pytest.raises(ValueError):
            key_from_text(text)

    def test_key_from_text_rejects_a_torus_cover_before_keying(self, monkeypatch):
        # the n-cycle beside the identity is canonical and transitive but has
        # no cone point, so a key of it would try all n starts
        n = 4000
        text = ",".join(map(str, [*range(1, n), 0])) + "|" + ",".join(map(str, range(n)))
        calls = []
        monkeypatch.setattr(origami_core, "canonical_key", calls.append)
        with pytest.raises(ValueError, match="not a surface in H\\(2\\)"):
            key_from_text(text)
        assert calls == []

    def test_key_from_text_rejects_more_squares_than_a_key_holds(self):
        o = build_l_shape(2, 0xFFFF)  # an H(2) surface on 65536 squares
        text = ",".join(map(str, o.right)) + "|" + ",".join(map(str, o.up))
        with pytest.raises(ValueError, match="at most 65535 squares"):
            key_from_text(text)

    def test_key_from_text_counts_squares_before_converting(self):
        # the bound is read off the commas: no entry of an oversized text is
        # converted, so its last, non-integer entry is never reached
        text = ",".join(["0"] * 0xFFFF + ["x"]) + "|0"
        with pytest.raises(ValueError, match="at most 65535 squares"):
            key_from_text(text)

    def test_canonical_key_rejects_more_squares_than_a_key_holds(self):
        # a ValueError, not the struct.error of packing n into the header
        with pytest.raises(ValueError, match="at most 65535 squares"):
            canonical_key(build_l_shape(2, 0xFFFF))


class TestWideKey:
    """Every key stores its labels as big-endian 16-bit words, for small n as for n > 255."""

    @pytest.fixture(scope="class")
    def surface(self):
        return build_l_shape(3, 300)

    def test_format(self, surface):
        key = canonical_key(surface)
        assert surface.n == 302
        assert key[:2] == (302).to_bytes(2, "big") and len(key) == 2 + 4 * 302
        assert canonical_key(origami_from_key(key)) == key
        small = canonical_key(build_l_shape(2, 2))
        assert small[:2] == (3).to_bytes(2, "big") and len(small) == 2 + 4 * 3

    def test_relabelling_invariance(self, surface):
        rng = random.Random(300)
        key = canonical_key(surface)
        for _ in range(3):
            g = list(range(surface.n))
            rng.shuffle(g)
            assert canonical_key(relabel(surface, g)) == key

    def test_text_round_trip(self, surface):
        key = canonical_key(surface)
        assert key_from_text(key_to_text(key)) == key

    def test_agrees_with_oracle(self, surface):
        g = list(range(surface.n))[::-1]
        others = (relabel(surface, g), build_two_cylinder(2, 1, 1, 300, 0, 1))
        key, oracle = canonical_key(surface), all_starts_key(surface)
        for other in others:
            assert (canonical_key(other) == key) == (all_starts_key(other) == oracle)
        assert canonical_key(others[0]) == key
        assert canonical_key(others[1]) != key


class TestPrimitivity:
    def test_l_shapes_are_primitive(self):
        for a in range(2, 7):
            for b in range(2, 7):
                assert is_primitive(build_l_shape(a, b))

    def test_even_heights_not_primitive(self):
        o = build_two_cylinder(2, 2, 2, 4, 0, 0)
        assert not is_primitive(o)
        assert lattice_index(cylinder_decomposition(o)) == 4

    def test_horizontal_gcd_not_primitive(self):
        o = build_one_cylinder(2, 2, 2, 0, 1)
        assert not is_primitive(o)
        assert lattice_index(cylinder_decomposition(o)) == 2

    def test_tall_one_cylinder_not_primitive(self):
        assert not is_primitive(build_one_cylinder(1, 1, 1, 0, 2))

    def test_twist_can_restore_primitivity(self):
        # heights (2,2) are never primitive; heights (1,2) depend on twists
        assert is_primitive(build_two_cylinder(1, 2, 2, 4, 0, 1))
        assert not is_primitive(build_two_cylinder(1, 2, 2, 4, 0, 0))

    def test_lattice_index_matches_sublattice_search(self):
        # every H(2) surface with n <= 10, imprimitive ones included
        imprimitive = 0
        for n in range(3, 11):
            for o in all_h2_surfaces(n):
                index = lattice_index(cylinder_decomposition(o))
                assert index == sublattice_index(o), o
                imprimitive += index > 1
        assert imprimitive


class TestWeierstrassCount:
    def test_even_l_shape(self):
        assert integer_weierstrass_count(build_l_shape(2, 4)) == 1

    def test_odd_l_shape(self):
        assert integer_weierstrass_count(build_l_shape(3, 3)) == 3

    def test_one_cylinder_n9(self):
        assert integer_weierstrass_count(build_one_cylinder(1, 6, 2, 0, 1)) == 3

    def test_rejects_even_square_count(self):
        with pytest.raises(ValueError):
            integer_weierstrass_count(build_l_shape(2, 3))

    def test_rejects_imprimitive(self):
        with pytest.raises(ValueError):
            integer_weierstrass_count(build_one_cylinder(2, 2, 2, 0, 1))

    @pytest.mark.parametrize("surface", [build_l_shape(3, 3), build_one_cylinder(1, 1, 1, 0, 3)])
    def test_decomposes_once(self, monkeypatch, surface):
        calls = []
        real = origami_core.cylinder_decomposition

        def counting(o, *args):
            calls.append(o)
            return real(o, *args)

        monkeypatch.setattr(origami_core, "cylinder_decomposition", counting)
        try:
            integer_weierstrass_count(surface)
        except ValueError:
            pass  # the imprimitive surface is rejected after the same one decomposition
        assert len(calls) == 1

    def test_matches_involution_oracle(self, enum_keys):
        # the oracle counts fixed vertices of the square involution directly
        checked = 0
        for n in range(5, 16, 2):
            for key in enum_keys(n):
                o = origami_from_key(key)
                assert integer_weierstrass_count(o) == involution_weierstrass_count(o), o
                checked += 1
        assert checked == 2340


class TestSerialization:
    def test_diagram_grammar_round_trip(self):
        for diag in (OneCylinder(1, 6, 2, 4, 1), TwoCylinder(2, 3, 3, 8, 2, 1)):
            assert parse_diagram(format_diagram(diag)) == diag

    def test_one_cylinder_grammar(self):
        assert format_diagram(OneCylinder(1, 6, 2, 0, 1)) == "1cyl(1,6,2;0;1)"
        assert parse_diagram(" 1cyl( 1, 6, 2 ; 0 ; 1 )") == OneCylinder(1, 6, 2, 0, 1)

    def test_l_shorthand_desugars(self):
        assert parse_diagram("L(2,4)") == TwoCylinder(1, 1, 1, 4, 0, 0)
        assert build_from_diagram(parse_diagram("L(2,4)")) == build_l_shape(2, 4)

    def test_parse_errors(self):
        with pytest.raises(InvalidSurfaceError):
            parse_diagram("2cyl(1,1,2,2,0,0)")
        with pytest.raises(InvalidSurfaceError):
            parse_diagram("L(1,5)")
        with pytest.raises(ValueError):
            parse_diagram("hexagon(1,2,3)")

    def test_repr_is_one_based_cycles(self):
        assert repr(build_l_shape(2, 2)) == "Origami((1 2)(3), (1 3)(2))"
