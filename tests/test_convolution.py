import random
from fractions import Fraction

import pytest

from convalg import (
    CapacityError,
    LatticeMap,
    RelationalStructure,
    Signature,
    chain_lattice,
    conv_op,
    enumerate_maps,
    interval_structure,
    make_topology,
    open_set_heyting,
    pointwise_impl,
    pointwise_join,
    pointwise_meet,
    random_map,
    rel_image,
)
from convalg.convolution import count_maps


def fs(*labels):
    return frozenset(labels)


class TestConvOp:
    def test_worked_example(self, thirds_lattice, four_point_structure, thirds_args):
        alpha1, alpha2 = thirds_args
        result = conv_op(thirds_lattice, four_point_structure, "f", [alpha1, alpha2])
        assert result.values == {
            "x1": fs("t2"),
            "x2": fs(),
            "x3": fs(),
            "x4": fs("t1", "t3"),
        }

    @pytest.mark.parametrize("make_lattice", [lambda: chain_lattice(1), lambda: chain_lattice(3)])
    def test_nullary_constant_is_crisp_spike(self, make_lattice):
        lat = make_lattice()
        s = interval_structure(1)
        result = conv_op(lat, s, "zero", [])
        assert result.values == {Fraction(0): lat.top, Fraction(1): lat.bottom}

    def test_empty_relation_gives_constant_bottom(self, wedge_lattice):
        s = RelationalStructure(("a", "b"), Signature((("f", 2),)), {"f": set()})
        top = LatticeMap(s.carrier, wedge_lattice, (wedge_lattice.top_code,) * 2)
        bottom = LatticeMap(s.carrier, wedge_lattice, (wedge_lattice.bottom_code,) * 2)
        assert conv_op(wedge_lattice, s, "f", [top, top]) == bottom

    def test_arity_mismatch(self, thirds_lattice, four_point_structure, thirds_args):
        with pytest.raises(ValueError):
            conv_op(thirds_lattice, four_point_structure, "f", [thirds_args[0]])

    def test_lattice_mismatch(self, four_point_structure, thirds_args):
        other = chain_lattice(2)
        bad = LatticeMap.from_values(
            four_point_structure.carrier, other, {x: Fraction(0) for x in four_point_structure.carrier}
        )
        with pytest.raises(ValueError):
            conv_op(other, four_point_structure, "f", [thirds_args[0], bad])

    def test_carrier_mismatch(self, thirds_lattice, four_point_structure, thirds_args):
        bad = LatticeMap(("x1", "x2", "x3", "x5"), thirds_lattice, thirds_args[1].codes)
        with pytest.raises(ValueError, match="^argument carrier does not match the structure$"):
            conv_op(thirds_lattice, four_point_structure, "f", [thirds_args[0], bad])

    def test_monotone_in_each_argument(self, wedge_lattice, four_point_structure):
        rng = random.Random(11)
        carrier = four_point_structure.carrier
        for _ in range(40):
            a1, a2 = (random_map(rng, wedge_lattice, carrier) for _ in range(2))
            b1 = pointwise_join(a1, random_map(rng, wedge_lattice, carrier))
            b2 = pointwise_join(a2, random_map(rng, wedge_lattice, carrier))
            lo = conv_op(wedge_lattice, four_point_structure, "f", [a1, a2])
            hi = conv_op(wedge_lattice, four_point_structure, "f", [b1, b2])
            assert pointwise_meet(lo, hi) == lo

    def test_preserves_joins_in_each_argument_exhaustively(self):
        lat = chain_lattice(2)
        s = RelationalStructure(
            ("a", "b"), Signature((("f", 2),)), {"f": {("a", "a", "b"), ("b", "a", "a"), ("b", "b", "b")}}
        )
        maps = list(enumerate_maps(lat, s.carrier))
        for alpha in maps:
            for alpha2 in maps:
                for beta in maps:
                    joined = conv_op(lat, s, "f", [pointwise_join(alpha, alpha2), beta])
                    split = pointwise_join(
                        conv_op(lat, s, "f", [alpha, beta]),
                        conv_op(lat, s, "f", [alpha2, beta]),
                    )
                    assert joined == split

    def test_crisp_maps_follow_relational_image(self):
        two = chain_lattice(1)
        s = interval_structure(1)
        subsets = [fs(), fs(Fraction(0)), fs(Fraction(1)), fs(Fraction(0), Fraction(1))]
        for a in subsets:
            for b in subsets:
                maps = [
                    LatticeMap.from_values(s.carrier, two, {x: two.top if x in sub else two.bottom for x in s.carrier})
                    for sub in (a, b)
                ]
                image = rel_image(s, "join", [a, b])
                crisp = conv_op(two, s, "join", maps)
                assert {x for x in s.carrier if crisp.values[x] == two.top} == image


class TestPointwise:
    def test_join_with_bottom_is_identity(self, wedge_lattice, four_point_structure):
        rng = random.Random(5)
        alpha = random_map(rng, wedge_lattice, four_point_structure.carrier)
        bottom = LatticeMap(alpha.carrier, wedge_lattice, (wedge_lattice.bottom_code,) * 4)
        assert pointwise_join(alpha, bottom) == alpha

    def test_impl_reflexive_is_top(self, wedge_lattice, four_point_structure):
        rng = random.Random(6)
        alpha = random_map(rng, wedge_lattice, four_point_structure.carrier)
        top = LatticeMap(alpha.carrier, wedge_lattice, (wedge_lattice.top_code,) * 4)
        assert pointwise_impl(alpha, alpha) == top

    def test_componentwise_meet_example(self, wedge_lattice, wedge_topology):
        carrier = ("p", "q")
        a = LatticeMap.from_values(carrier, wedge_lattice, {"p": fs("a", "b"), "q": wedge_topology.points})
        b = LatticeMap.from_values(carrier, wedge_lattice, {"p": fs("b", "c"), "q": fs()})
        assert pointwise_meet(a, b).values == {"p": fs("b"), "q": fs()}

    def test_carrier_mismatch(self, wedge_lattice):
        a = LatticeMap.from_values(("p",), wedge_lattice, {"p": fs()})
        b = LatticeMap.from_values(("q",), wedge_lattice, {"q": fs()})
        with pytest.raises(ValueError):
            pointwise_join(a, b)


class TestEnumerateMaps:
    def test_count_five_lattice_two_carrier(self, wedge_lattice):
        maps = list(enumerate_maps(wedge_lattice, ("p", "q")))
        assert len(maps) == 25
        assert len({m.codes for m in maps}) == 25

    def test_count_two_lattice_three_carrier(self):
        assert sum(1 for _ in enumerate_maps(chain_lattice(1), ("x", "y", "z"))) == 8

    def test_trivial_lattice_single_map(self):
        one = open_set_heyting(make_topology([], []))
        assert sum(1 for _ in enumerate_maps(one, ("x", "y"))) == 1

    def test_capacity_bound(self, wedge_lattice):
        with pytest.raises(CapacityError, match="^9765625 maps exceed the bound 1000000$"):
            list(enumerate_maps(wedge_lattice, tuple("abcdefghij")))
        assert count_maps(chain_lattice(1), tuple(range(19))) == 2**19
        with pytest.raises(CapacityError, match="^1048576 maps exceed the bound 1000000$"):
            count_maps(chain_lattice(3), tuple("abcdefghij"))


class TestLatticeMap:
    def test_must_be_total(self, wedge_lattice):
        with pytest.raises(ValueError):
            LatticeMap.from_values(("p", "q"), wedge_lattice, {"p": fs()})

    def test_values_must_be_elements(self, wedge_lattice):
        with pytest.raises(ValueError):
            LatticeMap.from_values(("p",), wedge_lattice, {"p": fs("a")})


class TestCodeConstructor:
    """The stored field is ``codes``: one position in ``lattice.elements`` per
    carrier element, checked by the one constructor."""

    @pytest.mark.parametrize(
        "codes",
        [
            (0,), (0, 1, 2), (-1, 0), (0, 5), (0, 99),
            (0, "1"), (0, 1.0), (True, 0), [0, 1], {"p": 0, "q": 1},
        ],
        ids=[
            "short", "long", "negative", "just-out-of-range", "far-out-of-range",
            "str", "float", "bool", "list", "dict",
        ],
    )
    def test_rejects_malformed_codes(self, wedge_lattice, codes):
        with pytest.raises(ValueError):
            LatticeMap(("p", "q"), wedge_lattice, codes)

    def test_values_call_and_key_agree(self, wedge_lattice):
        carrier = ("p", "q", "r")
        m = LatticeMap(carrier, wedge_lattice, (4, 0, 2))
        els = wedge_lattice.elements
        assert m.codes == (4, 0, 2)
        assert m.values == {"p": els[4], "q": els[0], "r": els[2]}
        assert [m.values[x] for x in carrier] == [els[4], els[0], els[2]]
        assert LatticeMap.from_values(carrier, wedge_lattice, m.values) == m

    def test_values_is_a_fresh_dict(self, wedge_lattice):
        m = LatticeMap(("p",), wedge_lattice, (1,))
        m.values["p"] = fs()
        assert m.values == {"p": wedge_lattice.elements[1]}

    def test_every_constructed_map_agrees_with_its_codes(self, wedge_lattice):
        rng = random.Random(4)
        carrier = ("p", "q", "r", "s")
        for _ in range(50):
            m = random_map(rng, wedge_lattice, carrier)
            assert tuple(wedge_lattice.index[m.values[x]] for x in carrier) == m.codes
            assert hash(m) == hash(LatticeMap(carrier, wedge_lattice, m.codes))

    def test_from_values_rejects_extra_keys(self, wedge_lattice):
        with pytest.raises(ValueError):
            LatticeMap.from_values(("p",), wedge_lattice, {"p": fs(), "q": fs()})
