import dataclasses
import random

import pytest

import convalg.complexalg
import convalg.lattice
import convalg.terms
from convalg import (
    CapacityError,
    LatticeMap,
    RelationalStructure,
    Signature,
    all_subsets,
    chain_lattice,
    char_map,
    characteristic_iso,
    interval_structure,
    pointwise_meet,
    rel_image,
    subset_from_map,
)

from helpers import graph
from test_oracle import literal_image


def fs(*labels):
    return frozenset(labels)


class TestRelImage:
    def test_worked_example_image(self, four_point_structure):
        image = rel_image(four_point_structure, "f", [fs("x1", "x2"), fs("x2", "x3")])
        assert image == fs("x3", "x4")

    def test_empty_argument_gives_empty_image(self, four_point_structure):
        assert rel_image(four_point_structure, "f", [fs(), fs("x1", "x2")]) == fs()

    def test_full_arguments_give_last_coordinate_projection(self, four_point_structure):
        carrier = fs(*four_point_structure.carrier)
        image = rel_image(four_point_structure, "f", [carrier, carrier])
        assert image == {t[-1] for t in four_point_structure.relations["f"]}

    def test_arity_mismatch(self, four_point_structure):
        with pytest.raises(ValueError):
            rel_image(four_point_structure, "f", [fs("x1")])

    def test_argument_outside_carrier(self, four_point_structure):
        with pytest.raises(ValueError):
            rel_image(four_point_structure, "f", [fs("zz"), fs("x1")])

    def test_cyclic_group_complex_multiplication(self):
        carrier = (0, 1, 2)
        add = graph(carrier, lambda x, y: (x + y) % 3, 2)
        group = RelationalStructure(carrier, Signature((("add", 2),)), {"add": add})
        for a in carrier:
            for b in carrier:
                assert rel_image(group, "add", [fs(a), fs(b)]) == fs((a + b) % 3)

    def test_union_preserving_in_each_argument(self, four_point_structure):
        subsets = all_subsets(four_point_structure.carrier)
        for a in subsets:
            for a2 in subsets:
                for b in subsets[:4]:
                    union_image = rel_image(four_point_structure, "f", [a | a2, b])
                    split = rel_image(four_point_structure, "f", [a, b]) | rel_image(
                        four_point_structure, "f", [a2, b]
                    )
                    assert union_image == split

    def test_nullary_image_is_the_relation(self):
        s = interval_structure(1)
        assert rel_image(s, "zero", []) == {t[0] for t in s.relations["zero"]}


def memo_sizes(structure):
    return structure.subset_mask.cache_info().currsize, structure.mask_subset.cache_info().currsize


def assert_literal_images(structure, name, arg_tuples):
    for args in arg_tuples:
        assert rel_image(structure, name, args) == literal_image(structure, name, args)


class TestSubsetMemo:
    """``rel_image`` reads argument masks and result subsets through the
    structure's bounded memo; every answer stays the literal image."""

    FORMS = [frozenset, set, list, tuple, lambda a: (x for x in a)]

    @pytest.mark.parametrize("form", FORMS, ids=["frozenset", "set", "list", "tuple", "generator"])
    def test_any_iterable_gives_the_literal_image(self, four_point_structure, form):
        subsets = all_subsets(four_point_structure.carrier)
        for a in subsets:
            for b in subsets:
                image = rel_image(four_point_structure, "f", [form(a), form(b)])
                assert image == literal_image(four_point_structure, "f", [a, b])

    def test_outside_the_carrier_raises_and_remembers_nothing(self, four_point_structure):
        rel_image(four_point_structure, "f", [fs("x1"), fs("x2")])
        before = memo_sizes(four_point_structure)
        for _ in range(3):
            with pytest.raises(ValueError, match=r"^subset \['x2', 'zz'\] is not contained"):
                rel_image(four_point_structure, "f", [fs("x1"), fs("x2", "zz")])
        assert memo_sizes(four_point_structure) == before

    def test_thirteen_elements_stay_within_the_bound(self):
        # a permutation, so 8,192 distinct subsets have 8,192 distinct images
        carrier = tuple(range(13))
        rot = graph(carrier, lambda x: (x + 1) % 13, 1)
        s = RelationalStructure(carrier, Signature((("rot", 1),)), {"rot": rot})
        cases = [[a] for a in all_subsets(carrier)]
        assert len(cases) == 8192
        for _ in range(2):  # the second pass starts on a full memo
            assert_literal_images(s, "rot", cases)
            assert memo_sizes(s) == (1 << 12, 1 << 12)

    def test_warm_structure_repeats_its_answers(self, four_point_structure):
        subsets = all_subsets(four_point_structure.carrier)
        cases = [[a, b] for a in subsets for b in subsets]
        assert_literal_images(four_point_structure, "f", cases)
        memo = four_point_structure.subset_mask, four_point_structure.mask_subset
        misses = [m.cache_info().misses for m in memo]
        assert_literal_images(four_point_structure, "f", cases)
        assert [m.cache_info().misses for m in memo] == misses  # every lookup a hit

    def test_memo_leaves_identity_unchanged(self, four_point_structure):
        data = four_point_structure.carrier, four_point_structure.signature
        s = RelationalStructure(*data, four_point_structure.relations)
        before = hash(s), repr(s)
        rel_image(s, "f", [fs("x1", "x2"), fs("x2", "x3")])
        assert "subset_mask" in vars(s) and "mask_subset" in vars(s)
        assert (hash(s), repr(s)) == before
        twin = RelationalStructure(*data, four_point_structure.relations)
        assert s == twin and hash(s) == hash(twin) and repr(s) == repr(twin)
        assert "subset_mask" not in vars(twin) and "mask_subset" not in vars(twin)
        assert [f.name for f in dataclasses.fields(s)] == ["carrier", "signature", "relations"]


class TestCharacteristicIso:
    def test_worked_example_exhaustive(self, four_point_structure):
        report = characteristic_iso(four_point_structure, exhaustive=True)
        assert report.ok
        assert report.checked == 16 * 16

    def test_interval_structure_exhaustive(self):
        report = characteristic_iso(interval_structure(1))
        assert report.ok
        assert report.mode == "exhaustive"
        # two ternary relations contribute 4x4 tuples each, the binary one 4,
        # and each unary constant a single empty tuple
        assert report.checked == 16 + 16 + 4 + 1 + 1

    def test_empty_subset_maps_to_bottom(self, four_point_structure):
        two = chain_lattice(1)
        m = char_map(two, four_point_structure.carrier, fs())
        assert all(v == two.bottom for v in m.values.values())
        assert subset_from_map(m) == fs()

    def test_order_isomorphism(self, four_point_structure):
        two = chain_lattice(1)
        carrier = four_point_structure.carrier
        subsets = all_subsets(carrier)
        for a in subsets:
            for b in subsets:
                ca, cb = char_map(two, carrier, a), char_map(two, carrier, b)
                assert (a <= b) == (pointwise_meet(ca, cb) == ca)

    def test_char_map_matches_values(self, four_point_structure):
        carrier = four_point_structure.carrier
        for two in (chain_lattice(1), chain_lattice(3)):
            for a in all_subsets(carrier):
                values = {x: two.top if x in a else two.bottom for x in carrier}
                assert char_map(two, carrier, a) == LatticeMap.from_values(carrier, two, values)

    def test_round_trip(self, four_point_structure):
        two = chain_lattice(1)
        carrier = four_point_structure.carrier
        for a in all_subsets(carrier):
            assert subset_from_map(char_map(two, carrier, a)) == a

    def test_sampled_mode_for_medium_carriers(self):
        carrier = tuple("abcde")
        identity = graph(carrier, lambda x: x, 1)
        s = RelationalStructure(carrier, Signature((("g", 1),)), {"g": identity})
        report = characteristic_iso(s, trials=25, seed=1)
        assert report.ok
        assert report.mode == "sampled"

    @pytest.mark.parametrize(
        "exhaustive,trials,checked,failure",
        [
            (True, 200, 20, "f(['x1'], ['x3']): image [] vs convolution ['x4']"),
            (
                False,
                50,
                3,
                "f(['x1', 'x3'], ['x2', 'x3', 'x4']): image [] vs convolution ['x4']",
            ),
        ],
        ids=["exhaustive", "sampled"],
    )
    def test_failure_report(
        self, monkeypatch, four_point_structure, exhaustive, trials, checked, failure
    ):
        # the image route reads its arguments in reverse: f is not symmetric
        monkeypatch.setattr(
            convalg.complexalg, "rel_image", lambda s, name, args: rel_image(s, name, args[::-1])
        )
        report = characteristic_iso(four_point_structure, exhaustive, trials=trials, seed=3)
        mode = "exhaustive" if exhaustive else "sampled"
        assert (report.ok, report.mode, report.checked, report.failure) == (
            False, mode, checked, failure
        )
        assert str(report) == f"failed after {checked} tuples: {failure}"

    @pytest.mark.parametrize("exhaustive", [None, True, False])
    def test_negative_trials_rejected(self, exhaustive):
        with pytest.raises(ValueError, match="trials"):
            characteristic_iso(interval_structure(4), exhaustive=exhaustive, trials=-5)

    @pytest.mark.parametrize("trials", [True, False, 2.0, "3"])
    def test_non_int_trials_rejected(self, trials):
        with pytest.raises(ValueError, match="trials must be a nonnegative int"):
            characteristic_iso(interval_structure(4), exhaustive=False, trials=trials)

    @pytest.mark.parametrize(
        "size,arity,exhaustive,message",
        [
            (20, 1, False, "1048576 subsets exceed the bound 1000000"),
            (10, 2, True, "1048576 argument tuples exceed the bound 1000000"),
        ],
        ids=["sampled-20", "exhaustive-binary-10"],
    )
    def test_capacity_bound_before_any_subset(self, monkeypatch, size, arity, exhaustive, message):
        calls = []
        for name in ("all_subsets", "rel_image"):
            monkeypatch.setattr(convalg.complexalg, name, lambda *a, name=name: calls.append(name))
        s = RelationalStructure(tuple(range(size)), Signature((("g", arity),)), {"g": set()})
        with pytest.raises(CapacityError, match=message):
            characteristic_iso(s, exhaustive, trials=1)
        assert calls == []

    def test_sampled_mode_under_the_bound(self):
        s = RelationalStructure(tuple(range(10)), Signature((("g", 2),)), {"g": {(0, 1, 2)}})
        report = characteristic_iso(s, exhaustive=False, trials=3)
        assert (report.ok, report.mode, report.checked) == (True, "sampled", 3)

    def test_sampled_mode_draws_subsets_without_listing_them(self, monkeypatch):
        # 2^19 subsets would take seconds and hundreds of MiB to list; bit i of one
        # getrandbits(19) per argument selects carrier[i]
        def refuse(carrier):
            raise AssertionError("sampled mode listed every subset")

        def recording(s, name, args):
            drawn.append(args)
            return rel_image(s, name, args)

        drawn = []
        monkeypatch.setattr(convalg.complexalg, "all_subsets", refuse)
        monkeypatch.setattr(convalg.complexalg, "rel_image", recording)
        carrier = tuple(range(19))
        s = RelationalStructure(carrier, Signature((("g", 1),)), {"g": {(x, x) for x in carrier}})
        report = characteristic_iso(s, exhaustive=False, trials=4, seed=9)
        assert (report.ok, report.mode, report.checked) == (True, "sampled", 4)
        rng = random.Random(9)
        want = []
        for _ in range(4):
            bits = rng.getrandbits(19)
            want.append((frozenset(x for x in carrier if bits >> x & 1),))
        assert drawn == want

    def test_builds_no_chain(self, monkeypatch, four_point_structure):
        # every call shares the one two-element chain of the two_valued algebras, whose
        # tables are built once per process
        built, init = [], convalg.lattice.ChainLattice.__init__

        def counting(chain, n):
            built.append(n)
            init(chain, n)

        monkeypatch.setattr(convalg.lattice.ChainLattice, "__init__", counting)
        for _ in range(3):
            assert characteristic_iso(four_point_structure).ok
        assert built == []
        assert convalg.complexalg._TWO is convalg.terms._TWO

    def test_default_mode_samples_a_seven_element_carrier(self, monkeypatch):
        def refuse(carrier):
            raise AssertionError("sampled mode listed every subset")

        monkeypatch.setattr(convalg.complexalg, "all_subsets", refuse)
        carrier = tuple("abcdefg")
        s = RelationalStructure(carrier, Signature((("g", 1),)), {"g": {(x, x) for x in carrier}})
        report = characteristic_iso(s, trials=5)
        assert (report.ok, report.mode, report.checked) == (True, "sampled", 5)
