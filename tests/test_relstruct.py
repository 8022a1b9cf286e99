from fractions import Fraction
from itertools import product

import pytest

from convalg import (
    CapacityError,
    ConstantRelationalEtale,
    RelationalStructure,
    Signature,
    chain_lattice,
    conv_op,
    fiberwise_rel_image,
    interval_structure,
    per_fiber_rel_image,
    rel_image,
)

from helpers import graph

# Every caller of a relation by name, given a structure without "g" and its lift.
UNKNOWN_SYMBOL_CALLS = {
    "compiled": lambda s, lifted: s.compiled("g"),
    "slot_masks": lambda s, lifted: s.slot_masks("g"),
    "plan": lambda s, lifted: lifted.plan("g"),
    "conv_op": lambda s, lifted: conv_op(chain_lattice(1), s, "g", []),
    "rel_image": lambda s, lifted: rel_image(s, "g", []),
    "fiberwise_rel_image": lambda s, lifted: fiberwise_rel_image(lifted, "g", []),
    "per_fiber_rel_image": lambda s, lifted: per_fiber_rel_image(lifted, "g", []),
}


class TestIntervalStructure:
    def test_relation_counts_for_two_elements(self):
        s = interval_structure(1)
        sizes = [len(s.relations[name]) for name in s.signature.names]
        assert sizes == [4, 4, 2, 1, 1]

    def test_negation_fixpoint(self):
        s = interval_structure(2)
        assert (Fraction(1, 2), Fraction(1, 2)) in s.relations["neg"]

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_join_relation_is_total_binary(self, n):
        s = interval_structure(n)
        assert len(s.relations["join"]) == (n + 1) ** 2

    @pytest.mark.parametrize("n", [1, 3])
    def test_relations_are_functional_graphs(self, n):
        s = interval_structure(n)
        for name in s.signature.names:
            arity = s.signature.arity(name)
            prefixes = [t[:-1] for t in s.relations[name]]
            assert len(set(prefixes)) == len(prefixes)
            assert set(prefixes) == set(product(s.carrier, repeat=arity))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            interval_structure(0)

    def test_graphs_are_min_max_and_reflection(self):
        s = interval_structure(3)
        assert s.relations["meet"] == graph(s.carrier, min, 2)
        assert s.relations["join"] == graph(s.carrier, max, 2)
        assert s.relations["neg"] == graph(s.carrier, lambda x: 1 - x, 1)

    def test_binary_graphs_past_the_bound_are_refused(self, monkeypatch):
        monkeypatch.setattr("convalg.relstruct.MAX_MAPS", 24)
        assert len(interval_structure(3).relations["meet"]) == 16
        with pytest.raises(CapacityError, match="^25 tuples per binary relation exceed the bound"):
            interval_structure(4)


class TestValidateStructure:
    """Relation tuples are checked once, when the structure is built."""

    def test_worked_example_is_valid(self, four_point_structure):
        s = four_point_structure
        assert RelationalStructure(s.carrier, s.signature, dict(s.relations)) == s

    def test_wrong_length_reported(self):
        with pytest.raises(ValueError) as info:
            RelationalStructure(("a", "b"), Signature((("f", 1),)), {"f": {("a", "b", "b")}})
        assert str(info.value) == "f: tuple ('a', 'b', 'b') has length 3, expected 2"

    def test_unknown_label_reported(self):
        with pytest.raises(ValueError) as info:
            RelationalStructure(("a", "b"), Signature((("f", 1),)), {"f": {("a", "z")}})
        assert str(info.value) == "f: tuple ('a', 'z') mentions unknown element 'z'"

    def test_first_violation_in_sorted_order(self):
        # symbols in signature order, then each relation's tuples in sorted order
        sig = Signature((("g", 0), ("f", 2)))
        relations = {"f": {("b", "z", "a"), ("a", "y", "x"), ("a", "a")}, "g": {("q",)}}
        with pytest.raises(ValueError) as info:
            RelationalStructure(("a", "b"), sig, relations)
        assert str(info.value) == "g: tuple ('q',) mentions unknown element 'q'"
        relations["g"] = set()
        with pytest.raises(ValueError) as info:
            RelationalStructure(("a", "b"), sig, relations)
        assert str(info.value) == "f: tuple ('a', 'a') has length 2, expected 3"

    def test_incomparable_tuples_ordered_by_repr(self):
        # 0 < "a" raises TypeError, so the bad tuples cannot be sorted themselves
        with pytest.raises(ValueError) as info:
            RelationalStructure((0, "a"), Signature((("f", 1),)), {"f": {(0, "z"), ("a", 1)}})
        assert str(info.value) == "f: tuple ('a', 1) mentions unknown element 1"


class TestConstruction:
    def test_duplicate_symbol_names_rejected(self):
        with pytest.raises(ValueError):
            Signature((("f", 1), ("f", 2)))

    def test_negative_arity_rejected(self):
        with pytest.raises(ValueError):
            Signature((("f", -1),))

    def test_duplicate_carrier_elements_rejected(self):
        with pytest.raises(ValueError, match="^duplicate carrier elements$"):
            RelationalStructure(("a", "a"), Signature((("f", 1),)), {"f": set()})

    def test_relations_must_match_signature(self):
        with pytest.raises(ValueError):
            RelationalStructure(("a",), Signature((("f", 1),)), {"g": set()})

    def test_unknown_symbol_lookup(self):
        with pytest.raises(ValueError):
            Signature((("f", 1),)).arity("g")

    def test_hash_agrees_with_equality(self):
        sig = Signature((("f", 1), ("c", 0)))
        s = RelationalStructure(("a", "b"), sig, {"f": [("a", "b"), ["b", "b"]], "c": set()})
        relations = {"c": frozenset(), "f": {("b", "b"), ("a", "b")}}
        twin = RelationalStructure(("a", "b"), sig, relations)
        other = RelationalStructure(("a", "b"), sig, {"f": {("a", "b")}, "c": set()})
        assert s == twin and hash(s) == hash(twin)
        assert s != other
        assert len({s, twin, other}) == 2
        s.compiled("f")  # cached views stay out of the hash
        assert hash(s) == hash(twin)

    def test_list_inputs_are_stored_as_tuples(self):
        sig = Signature((("f", 1), ("c", 0)))
        listed = Signature([["f", 1], ["c", 0]])
        assert listed.symbols == sig.symbols and type(listed.symbols) is tuple
        assert listed == sig and hash(listed) == hash(sig)
        relations = {"f": {("a", "b")}, "c": set()}
        s = RelationalStructure(("a", "b"), sig, relations)
        twin = RelationalStructure(["a", "b"], listed, relations)
        assert type(twin.carrier) is tuple
        assert twin == s and hash(twin) == hash(s)
        # maps over the stored carrier take conv_op's identity fast path
        assert conv_op(chain_lattice(1), twin, "c", []).carrier is twin.carrier


class TestCompiled:
    def test_groups_by_result_in_slots(self, four_point_structure):
        arity, groups = four_point_structure.compiled("f")
        assert arity == 2
        # x1 x1 -> x1; x2 x2 -> x3; x1 x3 -> x4 and x3 x2 -> x4, with the
        # second argument's positions shifted by the carrier size 4
        assert groups == (((0, 4),), (), ((1, 5),), ((0, 6), (2, 5)))

    def test_compiling_leaves_equality_and_repr_alone(self, four_point_structure):
        fresh = RelationalStructure(
            four_point_structure.carrier,
            four_point_structure.signature,
            dict(four_point_structure.relations),
        )
        before = repr(fresh)
        fresh.compiled("f")
        assert repr(fresh) == before
        assert fresh == four_point_structure

    @pytest.mark.parametrize("tuples", [{("a", "b", "b")}, {("a", "z")}])
    def test_invalid_tuples_are_refused(self, tuples):
        # before any relation can be compiled
        with pytest.raises(ValueError, match="^f: tuple "):
            RelationalStructure(("a", "b"), Signature((("f", 1),)), {"f": tuples})

    @pytest.mark.parametrize("call", sorted(UNKNOWN_SYMBOL_CALLS))
    def test_unknown_symbol(self, four_point_structure, thirds_topology, call):
        # a ValueError, which the CLI reports as an input error, both before and after
        # every relation's views are built
        lifted = ConstantRelationalEtale(four_point_structure, thirds_topology)
        for _ in range(2):
            with pytest.raises(ValueError, match="^unknown symbol 'g'$"):
                UNKNOWN_SYMBOL_CALLS[call](four_point_structure, lifted)
            four_point_structure.compiled("f")
            lifted.plan("f")
