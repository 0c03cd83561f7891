import json
import random
import tracemalloc
from functools import reduce
from itertools import accumulate
from math import lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from origami_h2 import origami_core, sl2_orbit
from origami_h2.cli import seed_surface
from origami_h2.congruence import orbit_labels
from origami_h2.enumeration import enumerate_diagrams
from origami_h2.origami_core import (
    OneCylinder,
    Origami,
    TwoCylinder,
    build_from_diagram,
    build_l_shape,
    build_one_cylinder,
    build_two_cylinder,
    canonical_key,
    cylinder_decomposition,
    integer_weierstrass_count,
    is_primitive,
    origami_from_key,
    key_from_text,
    key_to_text,
)
from origami_h2.sl2_orbit import (
    IDENTITY,
    ORBIT_SCHEMA_VERSION,
    MatrixZ,
    apply_matrix,
    apply_S,
    apply_S_inverse,
    apply_T,
    cusp_coordinates,
    level,
    membership,
    orbit,
    orbit_from_json,
    orbit_to_json,
    quarter_turn,
    reflect,
    t_power,
    transpose,
    u_orbit_width,
    v_power,
)
import oracles
from oracles import all_turns_orbit, apply_T_inverse, cusps, positions, relabel, shear, t_cycle
from test_origami_core import all_one_cylinder_tuples, all_two_cylinder_tuples

# the generators: horizontal shear, quarter turn and vertical shear
T = MatrixZ(1, 1, 0, 1)
S = MatrixZ(0, 1, -1, 0)
V = MatrixZ(1, 0, 1, 1)

ORBIT_JSON_GOLDEN = Path(__file__).resolve().parent / "golden" / "orbit_json.json"


def named_orbit_documents(n_max=12) -> dict:
    """``orbit_to_json`` of every named orbit with n ≤ n_max, by ``"<label> <n>"``."""
    return {f"{label} {n}": orbit_to_json(orbit(seed_surface(label, n))) for label, n in named_seeds(n_max)}


def named_seeds(n_max: int) -> list:
    """(label, n) of every named orbit with n ≤ n_max."""
    return [(label, n) for n in range(3, n_max + 1) for label in orbit_labels(n)]


def _malformed_documents() -> list:
    """Malformed variants of the A3 orbit document (3 surfaces, n = 3)."""
    good = json.loads(orbit_to_json(orbit(seed_surface("A", 3))))
    cases = [
        pytest.param(text, id=name)
        for name, text in (
            ("empty", ""), ("truncated", "{"), ("list", "[]"), ("null", "null"),
            ("number", "5"), ("string", '"x"'), ("deep", "[" * 100_000), ("no-fields", "{}"),
        )
    ]

    def variant(name: str, **changes) -> None:
        doc = {k: v for k, v in {**good, **changes}.items() if v is not _DROP}
        cases.append(pytest.param(json.dumps(doc), id=name))

    for field in good:
        variant(f"{field}-missing", **{field: _DROP})
        for value in (None, 7, -1, 3.5, True, "x", [], {}, ["x"], [7]):
            variant(f"{field}={json.dumps(value)}", **{field: value})
    for cusps in ([5], [{}], [{"rep": 0}], [{"width": 1}]):
        variant(f"cusps={json.dumps(cusps)}", cusps=cusps)
    # the width-1 cusp gets values that compare equal to 1 but are not ints
    for width in (None, "1", True, 1.0):
        cusps = [{**c, "width": width} if c["width"] == 1 else c for c in good["cusps"]]
        variant(f"width={json.dumps(width)}", cusps=cusps)
    for text in (5, None):
        variant(f"surface={json.dumps(text)}", surfaces=[text, *good["surfaces"][1:]])
    variant("empty-orbit", surfaces=[], t_edges=[], s_edges=[], cusps=[])
    return cases


_DROP = object()


def _document(t_next: dict, s_next: dict) -> str:
    """A schema-3 document for T- and S-maps on canonical keys, laid out as ``orbit_to_json`` does."""
    keys = sorted(t_next)
    rank = {key: i for i, key in enumerate(keys)}
    cusps, seen = [], set()
    for key in keys:  # in key order, so a cusp is first met at its least key
        if key not in seen:
            cycle = [key]
            while t_next[cycle[-1]] != key:
                cycle.append(t_next[cycle[-1]])
            seen.update(cycle)
            cusps.append({"rep": rank[key], "width": len(cycle)})
    return json.dumps({
        "schema_version": ORBIT_SCHEMA_VERSION,
        "n": origami_from_key(keys[0]).n,
        "base_key": key_to_text(keys[0]),
        "surfaces": [key_to_text(key) for key in keys],
        "t_edges": [rank[t_next[key]] for key in keys],
        "s_edges": [rank[s_next[key]] for key in keys],
        "cusps": cusps,
    }, sort_keys=True, separators=(",", ":"))


class TestShears:
    def test_t_updates_twists(self):
        # twists move by the heights: t2 0 -> 1 (mod 4), t1 stays 0 (mod 1)
        sheared = apply_T(build_two_cylinder(1, 1, 1, 4, 0, 0))
        expected = build_two_cylinder(1, 1, 1, 4, 0, 1)
        assert canonical_key(sheared) == canonical_key(expected)

    def test_t_inverse_undoes_t(self):
        for o in (build_l_shape(2, 4), build_one_cylinder(1, 6, 2, 3, 1)):
            assert apply_T_inverse(apply_T(o)) == o
            assert apply_T(apply_T_inverse(o)) == o

    def test_s_inverse_undoes_s(self):
        o = build_l_shape(3, 4)
        assert apply_S_inverse(apply_S(o)) == o

    def test_s_of_one_cylinder_is_one_cylinder(self):
        image = apply_S(build_one_cylinder(1, 6, 2, 0, 1))
        assert isinstance(cylinder_decomposition(image), OneCylinder)

    def test_s_squared_acts_trivially_spot(self):
        for o in (build_l_shape(2, 4), build_one_cylinder(1, 2, 2, 4, 1)):
            assert canonical_key(apply_S(apply_S(o))) == canonical_key(o)

    def test_t_preserves_invariant(self, enum_keys):
        for n in (5, 7, 9):
            for key in enum_keys(n):
                o = origami_from_key(key)
                assert integer_weierstrass_count(apply_T(o)) == integer_weierstrass_count(o)


class TestDiagramAction:
    """T and S on cylinder diagrams, the orbit's only moves, against the surfaces."""

    @staticmethod
    def diagrams(n_max: int) -> list:
        # every tuple: imprimitive ones, one-cylinder ones of every height and
        # in each of their three readings
        out = []
        for n in range(3, n_max + 1):
            out += [TwoCylinder(*t) for t in all_two_cylinder_tuples(n)]
            out += [OneCylinder(*t) for t in all_one_cylinder_tuples(n)]
        return out

    def test_shear_is_the_decomposed_shear(self):
        diags = self.diagrams(16)
        assert len(diags) == 10_859
        for diag in diags:
            assert shear(diag) == cylinder_decomposition(apply_T(build_from_diagram(diag))), diag

    def test_quarter_turn_is_the_decomposed_quarter_turn(self):
        # S = ρ∘τ: the transpose (up, right) and then the mirror
        diags = self.diagrams(16)
        assert len(diags) == 10_859
        for diag in diags:
            o = build_from_diagram(diag)
            assert transpose(diag) == cylinder_decomposition(Origami(o.up, o.right, check=False)), diag
            assert quarter_turn(diag) == cylinder_decomposition(apply_S(o)), diag

    @staticmethod
    def normalised(n_max: int) -> set:
        return {cylinder_decomposition(build_from_diagram(d)) for d in TestDiagramAction.diagrams(n_max)}

    def test_t_cycle_is_the_iterated_shear(self):
        # the closed form against T applied one step at a time, imprimitive
        # diagrams included; 1cyl(1,1,1;0;1) keeps cusp width 1
        for diag in self.normalised(16):
            cycle = [diag]
            while (image := shear(cycle[-1])) != diag:
                cycle.append(image)
            assert t_cycle(diag) == cycle, diag
        assert t_cycle(OneCylinder(1, 1, 1, 0, 1)) == [OneCylinder(1, 1, 1, 0, 1)]

    def test_cusp_coordinates_invert_the_cusp(self):
        # orbit() places a diagram by these alone: the cusp's id and width k,
        # and the offset j from its base point, which steps by one with T;
        # t_member builds one member, t_cycle all of them
        members_of = {}
        for diag in self.normalised(16):
            cycle = t_cycle(diag)
            cusp, k, j0 = cusp_coordinates(diag)
            assert k == len(cycle) and 0 <= j0 < k, diag
            sheared = diag  # T^j of diag, one shear at a time
            for j, member in enumerate(cycle):
                assert type(member) is type(diag), member
                assert cusp_coordinates(member) == (cusp, k, (j0 + j) % k), member
                assert member == sheared, (diag, j)
                sheared = shear(sheared)
            assert sheared == diag, diag
            # one id per cusp, and distinct cusps get distinct ids
            assert members_of.setdefault(cusp, set(cycle)) == set(cycle), diag
        assert len(members_of) == 706

    def test_shear_inverse_is_the_decomposed_inverse_shear(self):
        # orbit() reads T⁻¹ of a diagram as its predecessor on the cusp
        for diag in self.normalised(16):
            expected = cylinder_decomposition(apply_T_inverse(build_from_diagram(diag)))
            assert t_cycle(diag)[-1] == expected, diag

    def test_shear_inverse_undoes_shear(self):
        # the cusp starts at its diagram, and its predecessor, read as T⁻¹,
        # undoes T both ways
        for diag in self.normalised(16):
            assert t_cycle(diag)[0] == diag
            assert shear(t_cycle(diag)[-1]) == diag == t_cycle(shear(diag))[-1], diag

    def test_reflect_is_the_decomposed_mirror(self):
        # ρ = diag(1, −1) on surfaces: (right, up) ↦ (right, up⁻¹)
        diags = self.diagrams(16)
        assert len(diags) == 10_859
        for diag in diags:
            o = build_from_diagram(diag)
            mirror = Origami(o.right, origami_core._inverse(o.up), check=False)
            assert reflect(diag) == cylinder_decomposition(mirror), diag

    def test_reflect_commutes_with_the_quarter_turn(self):
        # ρSρ = −S acts as S: orbit() records S(ρx) = ρy for each turn x → y
        for diag in self.normalised(16):
            assert reflect(reflect(diag)) == diag, diag
            assert quarter_turn(reflect(diag)) == reflect(quarter_turn(diag)), diag

    def test_reflect_reverses_the_cusp(self):
        # ρTρ = T⁻¹: the cusp of ρd is ρ of d's cusp in reverse T-order
        for diag in self.normalised(16):
            cycle = t_cycle(diag)
            assert t_cycle(reflect(diag)) == [reflect(d) for d in cycle[:1] + cycle[:0:-1]], diag

    def test_quarter_turn_is_an_involution(self):
        # orbit() records every S-edge both ways and reads S(a) = T(c) back
        # as c = T⁻¹(S(a)) on the strength of this
        for diag in self.normalised(16):
            assert quarter_turn(quarter_turn(diag)) == diag, diag

    def test_st_has_order_three(self):
        # (S·T)³ = I on diagrams: orbit() infers the third S-edge of each
        # f-cycle a → f(a) → f²(a) → a, f = S∘T, from this
        for diag in self.normalised(16):
            image = diag
            for _ in range(3):
                image = quarter_turn(shear(image))
            assert image == diag, diag

    def test_layout_corners_are_the_scanned_corners(self):
        # the closed-form corners are the squares the scan finds on the built
        # surface, the square before each cut of a top row
        for diag in self.diagrams(16):
            o = build_from_diagram(diag)
            corners = origami_core._layout(diag)[2]
            assert sorted(corners) == origami_core._corners(o.right, o.up), diag

    def test_quarter_turn_builds_no_surface(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a quarter turn must not build or scan a surface")

        for module, name in ((sl2_orbit, "build_from_diagram"), (sl2_orbit, "apply_S"),
                             (sl2_orbit, "_inverse"), (sl2_orbit, "cylinder_decomposition"),
                             (origami_core, "_corners"), (origami_core, "_inverse")):
            monkeypatch.setattr(module, name, refuse)
        for diag in (TwoCylinder(2, 1, 3, 7, 1, 4), OneCylinder(1, 6, 2, 3, 1), OneCylinder(2, 2, 2, 1, 3)):
            transpose(diag)
            quarter_turn(diag)


@st.composite
def primitive_surfaces(draw, max_n=40):
    """A primitive H(2) surface on at most max_n squares, randomly relabelled."""
    if draw(st.booleans()):
        w2 = draw(st.integers(2, max_n - 1))
        w1 = draw(st.integers(1, min(w2 - 1, max_n - w2)))
        h2 = draw(st.integers(1, (max_n - w1) // w2))
        h1 = draw(st.integers(1, (max_n - h2 * w2) // w1))
        t1 = draw(st.integers(0, w1 - 1))
        t2 = draw(st.integers(0, w2 - 1))
        o = build_two_cylinder(h1, h2, w1, w2, t1, t2)
    else:
        l1 = draw(st.integers(1, max_n - 2))
        l2 = draw(st.integers(1, max_n - 1 - l1))
        l3 = draw(st.integers(1, max_n - l1 - l2))
        o = build_one_cylinder(l1, l2, l3, draw(st.integers(0, l1 + l2 + l3 - 1)), 1)
    assume(is_primitive(o))
    return relabel(o, draw(st.permutations(list(range(o.n)))))


class TestGroupRelationsOnKeys:
    """SL(2,Z) relations hold on canonical keys of primitive surfaces, n <= 40."""

    @settings(max_examples=60, deadline=None)
    @given(primitive_surfaces())
    def test_s_has_order_four(self, o):
        image = o
        for _ in range(4):
            image = apply_S(image)
        assert canonical_key(image) == canonical_key(o)

    @settings(max_examples=60, deadline=None)
    @given(primitive_surfaces())
    def test_st_cubed_is_s_squared(self, o):
        image = o
        for _ in range(3):
            image = apply_S(apply_T(image))
        assert canonical_key(image) == canonical_key(apply_S(apply_S(o)))


class TestCuspWidths:
    @pytest.mark.parametrize("a,b", [(2, 4), (3, 3), (5, 5)])
    def test_l_shape_width_is_b(self, a, b):
        assert u_orbit_width(build_l_shape(a, b)) == b

    def test_one_cylinder_width_is_n(self):
        assert u_orbit_width(build_one_cylinder(1, 6, 2, 0, 1)) == 9

    def test_vertical_width_of_l24(self):
        assert u_orbit_width(apply_S(build_l_shape(2, 4))) == 2

    def test_two_cylinder_lcm_width(self):
        # lcm(3/gcd(2,3), 8/gcd(3,8)) = lcm(3, 8)
        assert u_orbit_width(build_two_cylinder(2, 3, 3, 8, 2, 1)) == 24

    @staticmethod
    def omega(m: int) -> int:
        """The number of prime factors of m, with multiplicity."""
        count, p = 0, 2
        while m > 1:
            while m % p == 0:
                m //= p
                count += 1
            p += 1
        return count

    @pytest.mark.parametrize(
        "o,width",
        [
            (build_two_cylinder(1, 1, 5, 12, 0, 0), 60),
            (build_one_cylinder(1, 1, 17, 0, 1), 19),
            (build_l_shape(3, 20), 20),
            (build_two_cylinder(2, 3, 2, 9, 0, 0), 3),
        ],
        ids=["2cyl(1,1,5,12,0,0)", "1cyl(1,1,17;0;1)", "L(3,20)", "2cyl(2,3,2,9,0,0)"],
    )
    def test_width_by_order_finding_makes_few_keys(self, monkeypatch, o, width):
        # the width W divides L = ord(right): one key for o, one per prime taken
        # out of L down to W, and one failing key per p <= n that divides W;
        # a key per shear makes W + 1 of them
        calls = []
        real = sl2_orbit.canonical_key
        monkeypatch.setattr(sl2_orbit, "canonical_key", lambda s: calls.append(s) or real(s))
        ell = lcm(*map(len, origami_core._cycles(o.right)))
        assert u_orbit_width(o) == width
        divisors_of_width = sum(width % p == 0 for p in range(2, o.n + 1))
        assert len(calls) <= 1 + self.omega(ell) - self.omega(width) + divisors_of_width


class TestApplyMatrix:
    def test_identity_fixes_key(self):
        o = build_l_shape(3, 4)
        assert canonical_key(apply_matrix(o, IDENTITY)) == canonical_key(o)

    def test_t_matrix_matches_shear(self, enum_keys):
        rng = random.Random(3)
        pool = [key for n in (5, 7, 8, 10) for key in sorted(enum_keys(n))]
        for key in rng.sample(pool, 50):
            o = origami_from_key(key)
            assert canonical_key(apply_matrix(o, T)) == canonical_key(apply_T(o))

    def test_minus_identity_acts_trivially(self, enum_keys):
        minus = MatrixZ(-1, 0, 0, -1)
        for n in (3, 4, 5, 6, 7, 8):
            for key in enum_keys(n):
                o = origami_from_key(key)
                assert canonical_key(apply_matrix(o, minus)) == key

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            apply_matrix(build_l_shape(2, 2), MatrixZ(2, 0, 0, 1))

    def test_matrix_helpers(self):
        assert t_power(3) == MatrixZ(1, 3, 0, 1)
        assert v_power(-2) == MatrixZ(1, 0, -2, 1)
        assert (T @ S) @ V == T @ (S @ V)
        assert (-IDENTITY) == MatrixZ(-1, 0, 0, -1)

    def test_group_law_on_random_words(self):
        # words of up to 8 letters over T^{±1} and S^{±1}, then words of up to 40
        # letters that also hold T^q with 2 <= |q| <= 9, stepped as |q| single
        # shears, so apply_matrix meets large quotients and long descents
        rng = random.Random(11)
        bases = (build_l_shape(2, 4), build_l_shape(3, 3), build_one_cylinder(1, 6, 2, 0, 1))
        gens = {"T": (T, apply_T), "t": (MatrixZ(1, -1, 0, 1), apply_T_inverse),
                "S": (S, apply_S), "s": (MatrixZ(0, -1, 1, 0), apply_S_inverse)}
        powers = [*range(-9, -1), *range(2, 10)]
        for q in powers:
            gens[q] = (t_power(q), lambda o, q=q: reduce(
                lambda s, _: apply_T(s) if q > 0 else apply_T_inverse(s), range(abs(q)), o))
        rounds = [(o, "TtSs", 8) for o in bases for _ in range(200 // len(bases) + 1)]
        rounds += [(o, [*"TtSs", *powers], 40) for o in bases for _ in range(30)]
        for o, letters, longest in rounds:
            word = [rng.choice(letters) for _ in range(rng.randint(1, longest))]
            m = IDENTITY
            stepped = o
            for letter in reversed(word):  # apply right-to-left like the product
                stepped = gens[letter][1](stepped)
            for letter in word:
                m = m @ gens[letter][0]
            assert canonical_key(apply_matrix(o, m)) == canonical_key(stepped)


class TestMembership:
    def test_parabolics_of_one_cylinder_surface(self):
        o = build_one_cylinder(1, 6, 2, 0, 1)
        assert membership(o, t_power(9))
        assert membership(o, v_power(9))

    def test_horizontal_cusp_width_of_l24(self):
        o = build_l_shape(2, 4)
        assert not membership(o, T)
        assert membership(o, t_power(4))

    def test_minus_identity_member_everywhere(self, enum_keys):
        minus = -IDENTITY
        for n in (3, 5, 8):
            for key in enum_keys(n):
                assert membership(origami_from_key(key), minus)

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            membership(build_l_shape(2, 2), MatrixZ(1, 0, 0, 2))


class TestOrbits:
    def test_orbit_sizes(self, named_orbit):
        assert named_orbit("A", 3).index == 3
        assert named_orbit("A", 5).index == 18
        assert named_orbit("B", 5).index == 9

    def test_levels(self, named_orbit):
        assert level(named_orbit("A", 3)) == 2
        assert level(named_orbit("B", 5)) == 15
        assert level(named_orbit("C", 4)) == 12

    def test_cusp_widths_partition_the_orbit(self, named_orbit):
        for label, n in (("A", 3), ("A", 5), ("B", 5), ("C", 4)):
            orb = named_orbit(label, n)
            assert sum(orb.cusp_widths) == orb.index
            assert all(level(orb) % width == 0 for width in orb.cusp_widths)
            members = [d for cycle in cusps(orb) for d in cycle]
            assert len(members) == orb.index and set(members) == set(orb.diagrams)

    def test_views_agree_with_the_cusps(self):
        # one fresh orbit: widths and single positions need no listed member,
        # and the listing views come out in position order
        orb = orbit(seed_surface("B", 11))
        at = [orb.diagram(p) for p in range(orb.index)]
        assert orb.widths == [k for k in orb.ks for _ in range(k)]
        assert "diagrams" not in vars(orb)
        assert at == orb.diagrams == list(positions(orb))
        assert [(cycle[0], len(cycle)) for cycle in cusps(orb)] == list(zip(orb.starts, orb.ks))
        # the cusps take consecutive positions from 0, and each one's first position holds its first member
        assert orb.bases == list(accumulate(orb.ks[:-1], initial=0))
        assert all(orb.diagram(b) == s for b, s in zip(orb.bases, orb.starts))
        for p in (-1, orb.index):
            with pytest.raises(IndexError):
                orb.diagram(p)

    def test_n3_cusp_widths(self, named_orbit):
        assert named_orbit("A", 3).cusp_widths == [1, 2]

    @pytest.mark.parametrize("label,n", named_seeds(9))
    def test_orbit_closed_under_generators(self, named_orbit, label, n):
        orb = named_orbit(label, n)
        at = list(orb.diagrams)
        position = positions(orb)
        for i, d in enumerate(at):
            o = build_from_diagram(d)
            assert o.n == orb.n and cylinder_decomposition(o) == d and position[d] == i
            assert canonical_key(apply_T(o)) == orb.key(at[orb.t_perm[i]])
            assert canonical_key(apply_S(o)) == orb.key(at[orb.s_perm[i]])
        # the diagrams are distinct surfaces and both edge maps are bijections of them
        assert len({orb.key(d) for d in orb.diagrams}) == orb.index
        for perm in (orb.t_perm, orb.s_perm):
            assert sorted(perm) == list(range(orb.index))
        # each cycle's first diagram returns after exactly its width of T-steps
        for cycle in cusps(orb):
            first = position[cycle[0]]
            cur = orb.t_perm[first]
            steps = 1
            while cur != first:
                cur = orb.t_perm[cur]
                steps += 1
            assert steps == len(cycle)
            assert all(orb.widths[position[d]] == steps for d in cycle)
        assert sum(len(cycle) for cycle in cusps(orb)) == orb.index
        assert origami_from_key(orb.base_key).n == orb.n

    def test_orbit_rejects_imprimitive(self):
        with pytest.raises(ValueError):
            orbit(build_one_cylinder(2, 2, 2, 0, 1))

    def test_base_key_is_orbit_minimum(self, named_orbit):
        orb = named_orbit("C", 4)
        assert orb.base_key == min(orb.surfaces)

    def test_closure_memory_budget(self):
        # B61's 40 455 positions: the closure's lists (t_perm, s_perm, r_perm,
        # closed) and its cusp table, traced once the per-shape layout memo is
        # warm.  The mirror-commute check compares S∘ρ with ρ∘S in one pass:
        # listing both sides first lifts the peak from 3.73 to 4.35 MiB
        o = seed_surface("B", 61)
        orbit(o)
        tracemalloc.start()
        try:
            orbit(o)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.0 * 2**20


def all_turns_perms(orb, o) -> tuple:
    """``all_turns_orbit(o)`` as (t_perm, s_perm) over the positions of ``orb``."""
    t_next, s_next = all_turns_orbit(o)
    position = positions(orb)
    assert t_next.keys() == s_next.keys() == position.keys()
    return [position[t_next[d]] for d in orb.diagrams], [position[s_next[d]] for d in orb.diagrams]


class TestOrbitAgainstAllTurns:
    """orbit() infers S-edges; the reference turns every S-pair it meets."""

    @pytest.mark.parametrize("label,n", named_seeds(21))
    def test_named_orbit(self, named_orbit, label, n):
        orb = named_orbit(label, n)
        t_perm, s_perm = all_turns_perms(orb, seed_surface(label, n))
        assert orb.t_perm == t_perm
        assert orb.s_perm == s_perm

    @pytest.mark.parametrize("n", range(3, 12))
    def test_every_census_start(self, n):
        starts = enumerate_diagrams(n)
        assert starts
        for diag in starts:
            o = build_from_diagram(diag)
            orb = orbit(o)
            assert (orb.t_perm, orb.s_perm) == all_turns_perms(orb, o), diag

    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
    def test_mirror_in_the_twin_orbit_raises(self, monkeypatch, named_orbit, n):
        # a reflect that leaves the A-orbit for its B twin, onto a twin cusp
        # of the same width while one is left: orbit() must raise, not
        # return the twin's diagrams as part of the orbit
        twin = named_orbit("B", n)
        free = {}
        for cycle in cusps(twin):
            free.setdefault(len(cycle), []).append(cycle[0])

        def into_twin(diag):
            return (free.get(len(t_cycle(diag))) or [twin.starts[0]]).pop()

        monkeypatch.setattr(sl2_orbit, "reflect", into_twin)
        with pytest.raises(RuntimeError):
            orbit(seed_surface("A", n))

    def test_unreached_mirror_cusp_raises(self, monkeypatch, named_orbit):
        # A3's two cusps (widths 1 and 2) sent onto B9's cusps of those widths:
        # every mirror cusp is numbered but the closure never reaches it
        twin = {len(cycle): cycle[0] for cycle in cusps(named_orbit("B", 9))}
        assert sorted(named_orbit("A", 3).cusp_widths) == [1, 2]
        monkeypatch.setattr(sl2_orbit, "reflect", lambda diag: twin[len(t_cycle(diag))])
        with pytest.raises(RuntimeError, match="is another orbit"):
            orbit(seed_surface("A", 3))

    def test_mirror_that_does_not_commute_with_s_raises(self, monkeypatch, named_orbit):
        # A11's cusps of width 7 sent onto B11's first cusp of that width,
        # reflect right elsewhere: both mirror guards pass, and without the
        # check that rho commutes with S the closure returns 232 diagrams
        # where the orbit has 225 (sending the width-3 cusps too trips the
        # reach guard first, since a turn reads S(x) through the mirror)
        members = set(named_orbit("A", 11).diagrams)
        twin = {}
        for cycle in cusps(named_orbit("B", 11)):
            twin.setdefault(len(cycle), cycle[0])
        real = sl2_orbit.reflect

        def wrong(diag):
            k = len(t_cycle(diag))
            return twin[k] if diag in members and k == 7 else real(diag)

        monkeypatch.setattr(sl2_orbit, "reflect", wrong)
        with pytest.raises(RuntimeError, match="does not commute with S"):
            orbit(seed_surface("A", 11))

    def test_cusp_budget(self, monkeypatch):
        # No cusp is listed and no diagram is sheared: positions come from
        # cusp coordinates and T from index arithmetic, and the one member
        # built in closed form is each transpose's input.  One reflect per
        # first-seen cusp numbers its mirror too, and a turn reads S through
        # that mirror, calling none.  The mirrored S-edges leave
        # 543 quarter turns (843 before the mirror), deferring the f-cycles
        # that need a turn until no other is left leaves 428, and walking
        # each cusp in place, deferring while other work is left, leaves
        # 416.  Of the index 4095, the all-turns closure turns about
        # index / 2, inference alone leaves about index / 5, the mirrored
        # S-edges 0.13·index, and the deferral about index / 10.
        calls = {name: [] for name in ("shear", "t_member", "transpose", "reflect")}
        for module, name in ((oracles, "shear"), (sl2_orbit, "t_member"),
                             (sl2_orbit, "transpose"), (sl2_orbit, "reflect")):
            def counting(*args, real=getattr(module, name), seen=calls[name]):
                seen.append(args)
                return real(*args)

            monkeypatch.setattr(module, name, counting)
        orb = orbit(seed_surface("B", 29))
        assert orb.index == 4095
        made = {name: len(seen) for name, seen in calls.items()}
        assert made["shear"] == 0
        assert made["t_member"] == made["transpose"] == 416
        assert len(orb.ks) == 199
        self_mirror = sum(reflect(cycle[0]) in cycle for cycle in cusps(orb))
        assert 2 * made["reflect"] == len(orb.ks) + self_mirror

    @pytest.mark.parametrize("label, n, index, turns", [("A", 27, 3159, 312), ("C", 28, 5616, 537)])
    def test_noncong_orbit_turns(self, monkeypatch, label, n, index, turns):
        # the other two noncong orbits of the orbit-cold benchmark, at the
        # walk's exact count (322 and 581 while every T-image went through
        # the stack)
        made = []

        def counting(diag, real=sl2_orbit.transpose):
            made.append(diag)
            return real(diag)

        monkeypatch.setattr(sl2_orbit, "transpose", counting)
        assert orbit(seed_surface(label, n)).index == index
        assert len(made) == turns


def _merged_a7_b7() -> str:
    """The A7 and B7 documents merged into one of 90 surfaces in key order."""
    t_next, s_next = {}, {}
    for label in ("A", "B"):
        text = orbit_to_json(orbit(seed_surface(label, 7)))
        doc = json.loads(text)
        keys = [key_from_text(t) for t in doc["surfaces"]]
        edges = [dict(zip(keys, map(keys.__getitem__, doc[f"{g}_edges"]))) for g in "ts"]
        assert _document(*edges) == text
        t_next.update(edges[0])
        s_next.update(edges[1])
    return _document(t_next, s_next)


def _imprimitive() -> str:
    """The document of the imprimitive orbit of 2cyl(1,1,2,4,0,0), which orbit() refuses."""
    o = build_two_cylinder(1, 1, 2, 4, 0, 0)
    assert not is_primitive(o)
    maps = all_turns_orbit(o)
    key = {d: canonical_key(build_from_diagram(d)) for d in maps[0]}
    return _document(*({key[d]: key[e] for d, e in edges.items()} for edges in maps))


class TestOrbitJson:
    def test_round_trip(self, named_orbit):
        orb = named_orbit("B", 5)
        text = orbit_to_json(orb)
        back = orbit_from_json(text)
        # the reader numbers the cusps in its own order: compare diagram by diagram
        position, back_position = positions(orb), positions(back)
        assert back_position.keys() == position.keys()
        at, back_at = list(orb.diagrams), list(back.diagrams)
        for d, i in position.items():
            j = back_position[d]
            assert back_at[back.t_perm[j]] == at[orb.t_perm[i]]
            assert back_at[back.s_perm[j]] == at[orb.s_perm[i]]
            assert back.widths[j] == orb.widths[i]
        assert back.surfaces == orb.surfaces
        assert sorted(min(map(back.key, c)) for c in cusps(back)) == sorted(
            min(map(orb.key, c)) for c in cusps(orb)
        )
        assert all(back.diagram(b) == s for b, s in zip(back.bases, back.starts))
        assert orbit_to_json(back) == text

    def test_rejects_wrong_schema(self, named_orbit):
        doc = json.loads(orbit_to_json(named_orbit("A", 3)))
        doc["schema_version"] = 99
        with pytest.raises(ValueError):
            orbit_from_json(json.dumps(doc))

    def test_rejects_previous_schema(self, named_orbit):
        assert ORBIT_SCHEMA_VERSION == 3
        doc = json.loads(orbit_to_json(named_orbit("A", 3)))
        doc["schema_version"] = 1
        with pytest.raises(ValueError, match="unsupported orbit schema"):
            orbit_from_json(json.dumps(doc))

    def test_rejects_schema_2_document(self, named_orbit, as_schema_2):
        v2 = as_schema_2(orbit_to_json(named_orbit("B", 5)))
        assert json.loads(v2)["t_edges"][0] in json.loads(v2)["surfaces"]
        with pytest.raises(ValueError, match="unsupported orbit schema: 2"):
            orbit_from_json(v2)

    def test_edges_are_surface_indices(self, named_orbit):
        orb = named_orbit("B", 5)
        doc = json.loads(orbit_to_json(orb))
        assert doc["surfaces"] == [key_to_text(k) for k in orb.surfaces]
        assert doc["base_key"] == doc["surfaces"][0]
        at = list(orb.diagrams)
        position_of = {orb.key(d): p for p, d in enumerate(at)}
        for i, key in enumerate(orb.surfaces):
            p = position_of[key]
            assert orb.surfaces[doc["t_edges"][i]] == orb.key(at[orb.t_perm[p]])
            assert orb.surfaces[doc["s_edges"][i]] == orb.key(at[orb.s_perm[p]])
        least = sorted((min(map(orb.key, c)), len(c)) for c in cusps(orb))
        assert [(orb.surfaces[c["rep"]], c["width"]) for c in doc["cusps"]] == least

    @pytest.mark.parametrize(
        "bad",
        [lambda size: size, lambda size: -size, lambda size: False, lambda size: 0.0, lambda size: "0"],
        ids=["out-of-range", "negative", "bool", "float", "string"],
    )
    @pytest.mark.parametrize("field", ["t_edges", "s_edges", "rep"])
    def test_rejects_bad_index(self, named_orbit, field, bad):
        # the tampered entry is an index 0, so each bad value other than the
        # out-of-range one would name the same surface if it were accepted
        # (-size through Python's negative indexing, False/0.0/"0" by coercion)
        doc = json.loads(orbit_to_json(named_orbit("B", 5)))
        size = len(doc["surfaces"])
        if field == "rep":
            assert doc["cusps"][0]["rep"] == 0
            doc["cusps"][0]["rep"] = bad(size)
        else:
            doc[field][doc[field].index(0)] = bad(size)
        with pytest.raises(ValueError, match="not an index into the surface list"):
            orbit_from_json(json.dumps(doc))

    @pytest.mark.parametrize("field", ["t_edges", "s_edges"])
    def test_rejects_edges_that_are_not_a_permutation(self, named_orbit, field):
        doc = json.loads(orbit_to_json(named_orbit("B", 5)))
        edges = doc[field]
        edges[1] = edges[0]
        with pytest.raises(ValueError, match=f"{field[0]}-edges are not a permutation"):
            orbit_from_json(json.dumps(doc))

    def test_rejects_cusp_with_wrong_rep(self, named_orbit):
        doc = json.loads(orbit_to_json(named_orbit("B", 5)))
        doc["cusps"][0]["rep"] = doc["t_edges"][doc["cusps"][0]["rep"]]
        with pytest.raises(ValueError, match="stored cusps disagree"):
            orbit_from_json(json.dumps(doc))

    @pytest.mark.parametrize("text", _malformed_documents())
    def test_malformed_document_raises_value_error(self, text):
        with pytest.raises(ValueError):
            orbit_from_json(text)

    def test_rejects_duplicate_surface(self, named_orbit):
        doc = json.loads(orbit_to_json(named_orbit("A", 3)))
        doc["surfaces"][1] = doc["surfaces"][0]
        with pytest.raises(ValueError, match="duplicate surfaces"):
            orbit_from_json(json.dumps(doc))

    def test_rejects_tampered_edges(self, named_orbit):
        doc = json.loads(orbit_to_json(named_orbit("A", 3)))
        doc["t_edges"] = doc["t_edges"][::-1]
        with pytest.raises(ValueError):
            orbit_from_json(json.dumps(doc))
        # two S-edges swapped: still a permutation, no longer S (not even an
        # involution), and the T-edges and cusps are untouched
        doc = json.loads(orbit_to_json(named_orbit("B", 7)))
        s_edges = doc["s_edges"]
        s_edges[0], s_edges[1] = s_edges[1], s_edges[0]
        with pytest.raises(ValueError, match="S-edges disagree"):
            orbit_from_json(json.dumps(doc))

    def test_rejects_cusps_walked_backwards(self, named_orbit):
        # T-edges reversed on every cusp keep each cusp's members, width and
        # least key, but are T⁻¹: the shear of the surfaces tells them apart
        doc = json.loads(orbit_to_json(named_orbit("B", 7)))
        doc["t_edges"] = list(origami_core._inverse(doc["t_edges"]))
        assert doc["t_edges"] != json.loads(orbit_to_json(named_orbit("B", 7)))["t_edges"]
        with pytest.raises(ValueError, match="T-edges disagree with the shear"):
            orbit_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "document,size,error",
        [(_merged_a7_b7, 90, "90 surfaces hold an orbit of"), (_imprimitive, 6, "expects a primitive surface")],
        ids=["A7+B7", "imprimitive"],
    )
    def test_rejects_documents_that_are_not_one_orbit(self, document, size, error):
        # closed under T and S, with edges that are the shear and the quarter
        # turn and cusps that match them, but not the orbit of the base key
        text = document()
        assert len(json.loads(text)["surfaces"]) == size
        with pytest.raises(ValueError, match=error):
            orbit_from_json(text)

    def test_rejects_dropped_surface(self, named_orbit):
        doc = json.loads(orbit_to_json(named_orbit("A", 3)))
        for field in ("surfaces", "t_edges", "s_edges"):
            doc[field] = doc[field][1:]
        with pytest.raises(ValueError):
            orbit_from_json(json.dumps(doc))


def test_orbit_json_matches_golden(named_orbit):
    # schema 3 bytes of every named orbit with n <= 12; regenerate with:
    # PYTHONPATH=src python3 tests/test_sl2_orbit.py
    golden = json.loads(ORBIT_JSON_GOLDEN.read_text())
    assert len(golden) == 14
    for name, doc in golden.items():
        label, n = name.split()
        assert orbit_to_json(named_orbit(label, int(n))) == doc, name


class TestCodecCounts:
    """Each surface's text is made once on write and checked once on read."""

    @staticmethod
    def count_calls(monkeypatch, module, name: str) -> list:
        calls = []
        real = getattr(module, name)

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, name, counting)
        return calls

    def test_write_formats_each_surface_once(self, monkeypatch, named_orbit):
        orb = named_orbit("A", 7)
        calls = self.count_calls(monkeypatch, sl2_orbit, "key_to_text")
        orbit_to_json(orb)
        assert 0 < len(calls) <= orb.index + 1  # plus the base key

    def test_read_parses_each_surface_once(self, monkeypatch, named_orbit):
        orb = named_orbit("A", 7)
        text = orbit_to_json(orb)
        calls = self.count_calls(monkeypatch, sl2_orbit, "key_from_text")
        orbit_from_json(text)
        assert len(calls) == orb.index + 1  # plus the base key

    def test_read_checks_transitivity_once_per_surface(self, monkeypatch, named_orbit):
        orb = named_orbit("A", 7)
        text = orbit_to_json(orb)
        calls = self.count_calls(monkeypatch, origami_core, "_is_transitive")
        orbit_from_json(text)
        assert len(calls) == orb.index + 1  # plus the base key


if __name__ == "__main__":
    ORBIT_JSON_GOLDEN.write_text(json.dumps(named_orbit_documents(), indent=1) + "\n")
