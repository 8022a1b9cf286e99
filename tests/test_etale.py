import dataclasses
import random
from fractions import Fraction
from itertools import islice, product

import pytest

import convalg.etale
from convalg import (
    ConstantEtale,
    FiniteTopology,
    ConstantRelationalEtale,
    EtaleSubobject,
    GridFunction,
    LatticeMap,
    RelationalStructure,
    Signature,
    chain_lattice,
    conv_op,
    empty_subobject,
    enumerate_maps,
    fiberwise_rel_image,
    grid_conv_oracle,
    interval_structure,
    make_topology,
    open_set_heyting,
    per_fiber_rel_image,
    phi,
    pointwise_impl,
    pointwise_join,
    pointwise_meet,
    pointwise_neg,
    random_grid_step,
    random_map,
    rel_image,
    sample_to_grid,
    sub_impl,
    sub_intersection,
    sub_neg,
    sub_union,
    t2_constants,
    verify_main_iso,
)
from convalg.etale import worked_example
from helpers import frame_naturality_mismatches, route_naturality_mismatches


def fs(*labels):
    return frozenset(labels)


def whole_sub(parent):
    """The subobject whose every section is the whole base."""
    return EtaleSubobject(parent, (parent.base.mask_of[parent.base.points],) * len(parent.fibers))


def constant(lattice, carrier, code):
    return LatticeMap(tuple(carrier), lattice, (code,) * len(carrier))


class TestPhi:
    def test_constant_top_is_whole_bundle(self, wedge_lattice, wedge_topology):
        carrier = ("p", "q")
        sub = phi(wedge_lattice, constant(wedge_lattice, carrier, wedge_lattice.top_code))
        assert sub.sections == {x: wedge_topology.points for x in carrier}
        assert sub == whole_sub(ConstantEtale(carrier, wedge_topology))

    def test_constant_bottom_is_empty(self, wedge_lattice, wedge_topology):
        carrier = ("p", "q")
        sub = phi(wedge_lattice, constant(wedge_lattice, carrier, wedge_lattice.bottom_code))
        assert sub == empty_subobject(ConstantEtale(carrier, wedge_topology))

    def test_lower_segment_bars(self):
        # base discretized as a chain of initial-segment opens; the sections
        # of phi(alpha) are exactly the bars alpha assigns to each fiber
        pts = ("1", "2", "3")
        segments = [fs(*pts[:k]) for k in range(4)]
        topo = make_topology(pts, segments)
        lat = open_set_heyting(topo)
        assert set(topo.opens) == set(segments)
        carrier = ("x1", "x2", "x3", "x4")
        bars = {
            "x1": segments[2],
            "x2": segments[3],
            "x3": segments[1],
            "x4": segments[0],
        }
        alpha = LatticeMap.from_values(carrier, lat, bars)
        assert phi(lat, alpha).sections == bars

    def test_round_trip_exhaustive(self, wedge_lattice):
        carrier = ("p", "q")
        for alpha in enumerate_maps(wedge_lattice, carrier):
            sub = phi(wedge_lattice, alpha)
            back = LatticeMap.from_values(sub.parent.fibers, wedge_lattice, sub.sections)
            assert back == alpha
            assert phi(wedge_lattice, back) == sub

    def test_order_isomorphism(self, wedge_lattice):
        carrier = ("p",)
        maps = list(enumerate_maps(wedge_lattice, carrier))
        for a in maps:
            for b in maps:
                below = phi(wedge_lattice, a).sections["p"] <= phi(wedge_lattice, b).sections["p"]
                assert (pointwise_meet(a, b) == a) == below

    def test_requires_open_set_lattice(self, four_point_structure):
        lat = chain_lattice(2)
        alpha = constant(lat, four_point_structure.carrier, lat.bottom_code)
        with pytest.raises(ValueError):
            phi(lat, alpha)

    def test_map_over_another_lattice_is_refused(self, wedge_lattice, thirds_args):
        with pytest.raises(ValueError, match="^map does not live over the given lattice$"):
            phi(wedge_lattice, thirds_args[0])

    def test_sections_must_be_open(self, wedge_topology):
        # {a} is not open in the wedge; its mask over sorted points a, b, c would be 1
        parent = ConstantEtale(("p", "q"), wedge_topology)
        assert fs("a") not in wedge_topology.mask_of
        with pytest.raises(ValueError, match="mask 1 does not name an open set"):
            EtaleSubobject(parent, (1, wedge_topology.mask_of[fs("b")]))

    def test_equal_carriers_share_one_bundle_found_by_identity(self, wedge_topology):
        # a topology object of its own, so that no other test's bundle is in its table
        topology = FiniteTopology(wedge_topology.points, wedge_topology.opens)
        lattice, hashes = open_set_heyting(topology), []

        class Label(str):  # a label that records each hash of itself
            def __hash__(self):
                hashes.append(self)
                return str.__hash__(self)

        carrier = (Label("p"), Label("q"))
        parent = phi(lattice, constant(lattice, carrier, 0)).parent
        assert parent.fibers is carrier
        hashes.clear()
        # the carrier the bundle holds is found by identity, hashing no label
        assert convalg.etale._bundle(carrier, topology) is parent
        assert phi(lattice, constant(lattice, carrier, 1)).parent is parent
        assert hashes == []
        # an equal but distinct carrier is found by equality, and shares the bundle
        twin = tuple(list(carrier))
        assert twin is not carrier and twin == carrier
        assert convalg.etale._bundle(twin, topology) is parent
        assert phi(lattice, constant(lattice, twin, 1)).parent is parent
        assert hashes != []

    def test_open_masks_follow_element_positions(self, wedge_lattice, wedge_topology):
        masks = wedge_lattice.open_masks
        assert masks == tuple(wedge_topology.mask_of[e] for e in wedge_lattice.elements)

    def test_maps_on_one_carrier_share_one_parent(self, wedge_lattice, wedge_topology):
        carrier = ("p", "q")
        subs = [phi(wedge_lattice, m) for m in enumerate_maps(wedge_lattice, carrier)]
        assert all(sub.parent is subs[0].parent for sub in subs)
        # one bundle per carrier and topology object, whichever lattice or étalé asks for it
        other = open_set_heyting(wedge_topology)
        assert phi(other, constant(other, carrier, other.bottom_code)).parent is subs[0].parent
        s = RelationalStructure(carrier, Signature((("g", 1),)), {"g": {("p", "q")}})
        assert ConstantRelationalEtale(s, wedge_topology).etale is subs[0].parent
        # an equal but distinct topology has its own bundle, equal to this one
        twin = FiniteTopology(wedge_topology.points, wedge_topology.opens)
        assert twin == wedge_topology and hash(twin) == hash(wedge_topology)
        lattice = open_set_heyting(twin)
        fresh = phi(lattice, constant(lattice, carrier, lattice.bottom_code))
        assert fresh.parent is not subs[0].parent
        assert fresh.parent == subs[0].parent == ConstantEtale(carrier, wedge_topology)
        assert fiberwise_rel_image(ConstantRelationalEtale(s, twin), "g", [subs[-1]]) == (
            per_fiber_rel_image(ConstantRelationalEtale(s, wedge_topology), "g", [subs[-1]])
        )


class TestSubobjectConstruction:
    """The constructor validates the masks. Wedge masks over sorted points
    a, b, c: {} 0, {b} 2, {a b} 3, {b c} 6, {a b c} 7."""

    @pytest.mark.parametrize("masks", [(1, 0), (4, 2), (8, 0), (-1, 0)], ids=repr)
    def test_mask_must_name_an_open(self, wedge_topology, masks):
        parent = ConstantEtale(("p", "q"), wedge_topology)
        with pytest.raises(ValueError, match="does not name an open set"):
            EtaleSubobject(parent, masks)

    def test_mask_must_be_an_int(self, thirds_topology):
        # mask 1 is the open {t1}, so only the type check rejects True and 1.0
        parent = ConstantEtale(("p",), thirds_topology)
        assert EtaleSubobject(parent, (1,)).sections == {"p": fs("t1")}
        for bad in (True, 1.0, fs("t1")):
            with pytest.raises(ValueError, match="does not name an open set"):
                EtaleSubobject(parent, (bad,))

    @pytest.mark.parametrize(
        "masks", [[3, 2], (3,), (3, 2, 0), {"p": fs("a", "b"), "q": fs("b")}],
        ids=["list", "short", "long", "sections-dict"],
    )
    def test_masks_must_be_a_tuple_per_label(self, wedge_topology, masks):
        parent = ConstantEtale(("p", "q"), wedge_topology)
        with pytest.raises(ValueError, match="one entry per fiber label"):
            EtaleSubobject(parent, masks)

    def test_mutating_sections_leaves_the_subobject_unchanged(self):
        topology, lattice, structure, (alpha1, _) = worked_example()
        sub = phi(lattice, alpha1)
        sections = sub.sections
        sections["x1"] = frozenset()
        assert sub.sections == alpha1.values
        assert sub == phi(lattice, alpha1)


class TestFiberwiseRelImage:
    def test_worked_example(self, thirds_topology, thirds_lattice, four_point_structure, thirds_args):
        rel_etale = ConstantRelationalEtale(four_point_structure, thirds_topology)
        subs = [phi(thirds_lattice, a) for a in thirds_args]
        result = fiberwise_rel_image(rel_etale, "f", subs)
        assert result.sections == {
            "x1": fs("t2"),
            "x2": fs(),
            "x3": fs(),
            "x4": fs("t1", "t3"),
        }

    def test_total_functional_relation_on_whole_bundle(self, wedge_topology):
        s = interval_structure(1)
        rel_etale = ConstantRelationalEtale(s, wedge_topology)
        whole = whole_sub(rel_etale.etale)
        assert fiberwise_rel_image(rel_etale, "join", [whole, whole]) == whole

    def test_empty_argument_gives_empty_result(self, thirds_topology, four_point_structure):
        rel_etale = ConstantRelationalEtale(four_point_structure, thirds_topology)
        empty = empty_subobject(rel_etale.etale)
        whole = whole_sub(rel_etale.etale)
        assert fiberwise_rel_image(rel_etale, "f", [empty, whole]) == empty

    def test_agrees_with_per_fiber_route(self, wedge_topology, wedge_lattice, four_point_structure):
        rel_etale = ConstantRelationalEtale(four_point_structure, wedge_topology)
        rng = random.Random(17)
        for _ in range(60):
            subs = [
                phi(wedge_lattice, random_map(rng, wedge_lattice, four_point_structure.carrier))
                for _ in range(2)
            ]
            assert fiberwise_rel_image(rel_etale, "f", subs) == per_fiber_rel_image(
                rel_etale, "f", subs
            )

    def test_fiber_restriction_is_relational_image(
        self, thirds_topology, thirds_lattice, four_point_structure, thirds_args
    ):
        rel_etale = ConstantRelationalEtale(four_point_structure, thirds_topology)
        subs = [phi(thirds_lattice, a) for a in thirds_args]
        result = fiberwise_rel_image(rel_etale, "f", subs)
        for y in thirds_topology.points:
            memberships = [
                fs(*(x for x in four_point_structure.carrier if y in sub.sections[x]))
                for sub in subs
            ]
            fiber = fs(*(x for x in four_point_structure.carrier if y in result.sections[x]))
            assert fiber == rel_image(four_point_structure, "f", memberships)

    def test_arguments_over_another_bundle_rejected(
        self, thirds_topology, thirds_lattice, four_point_structure, thirds_args
    ):
        rel_etale = ConstantRelationalEtale(four_point_structure, thirds_topology)
        good = [phi(thirds_lattice, a) for a in thirds_args]
        coarse = make_topology(thirds_topology.points, [{"t1"}])
        bad = [
            empty_subobject(ConstantEtale(four_point_structure.carrier, coarse)),
            empty_subobject(ConstantEtale(("x1", "x2", "x3", "x5"), thirds_topology)),
        ]
        for route in (fiberwise_rel_image, per_fiber_rel_image):
            assert route(rel_etale, "f", good) == fiberwise_rel_image(rel_etale, "f", good)
            for b in bad:
                for args in ([good[0], b], [b, good[1]], [b, b]):
                    with pytest.raises(ValueError, match="different bundle"):
                        route(rel_etale, "f", args)

    def test_argument_count_checked(self, thirds_topology, four_point_structure):
        rel_etale = ConstantRelationalEtale(four_point_structure, thirds_topology)
        with pytest.raises(ValueError):
            fiberwise_rel_image(rel_etale, "f", [whole_sub(rel_etale.etale)])


class TestMalformedRelations:
    """A tuple of the wrong length or with an element outside the carrier is
    refused when the structure is built, so no route ever sees it."""

    @pytest.mark.parametrize(
        "bad,message",
        [
            (("p",), "g: tuple ('p',) has length 1, expected 2"),
            (("p", "p", "p"), "g: tuple ('p', 'p', 'p') has length 3, expected 2"),
            (("p", "zz"), "g: tuple ('p', 'zz') mentions unknown element 'zz'"),
        ],
        ids=["short", "long", "unknown"],
    )
    def test_every_route_raises_the_validation_message(self, bad, message):
        with pytest.raises(ValueError) as info:
            RelationalStructure(("p", "q"), Signature((("g", 1),)), {"g": {("q", "p"), bad}})
        assert str(info.value) == message


class TestCachedViews:
    """``EtaleSubobject.stalks`` and ``ConstantRelationalEtale.plan`` are built
    once per object and stay out of equality, hashing and repr."""

    def test_stalks_leave_identity_unchanged(self, thirds_lattice, thirds_args):
        sub = phi(thirds_lattice, thirds_args[0])
        twin = EtaleSubobject(sub.parent, sub.masks)
        before = hash(sub), repr(sub)
        assert sub.stalks is sub.stalks
        assert (hash(sub), repr(sub)) == before == (hash(twin), repr(twin))
        assert sub == twin and "stalks" not in vars(twin)
        assert [f.name for f in dataclasses.fields(sub)] == ["parent", "masks"]

    def test_plans_leave_identity_unchanged(self, thirds_topology, four_point_structure):
        rel_etale = ConstantRelationalEtale(four_point_structure, thirds_topology)
        before = repr(rel_etale)
        whole = whole_sub(rel_etale.etale)
        fiberwise_rel_image(rel_etale, "f", [whole, whole])
        assert repr(rel_etale) == before
        twin = ConstantRelationalEtale(four_point_structure, thirds_topology)
        assert rel_etale == twin and hash(rel_etale) == hash(twin)
        assert [f.name for f in dataclasses.fields(rel_etale)] == ["structure", "base"]

    def test_relation_translated_once(self, monkeypatch, thirds_topology, four_point_structure):
        built = []
        slot_masks = RelationalStructure.slot_masks

        def counting(self, name):
            built.append(name)
            return slot_masks(self, name)

        monkeypatch.setattr(RelationalStructure, "slot_masks", counting)
        rel_etale = ConstantRelationalEtale(four_point_structure, thirds_topology)
        whole = whole_sub(rel_etale.etale)
        first = fiberwise_rel_image(rel_etale, "f", [whole, whole])
        assert built == ["f"]
        plan = rel_etale.plan("f")
        assert fiberwise_rel_image(rel_etale, "f", [whole, whole]) == first
        assert per_fiber_rel_image(rel_etale, "f", [whole, whole]) == first
        assert rel_etale.plan("f") is plan
        assert built == ["f"]

    def test_a_route_call_builds_its_relation_alone(self, wedge_topology, wedge_lattice):
        relations = {"c": {("q",)}, "g": {("p", "q")}, "f": {("p", "q", "q")}}
        s = RelationalStructure(("p", "q"), Signature((("c", 0), ("g", 1), ("f", 2))), relations)
        rel_etale = ConstantRelationalEtale(s, wedge_topology)
        sub = phi(wedge_lattice, random_map(random.Random(6), wedge_lattice, s.carrier))
        for route in (per_fiber_rel_image, fiberwise_rel_image):
            route(rel_etale, "g", [sub])
        assert list(rel_etale._plans) == ["g"] and list(s._slot_views) == ["g"]

    def test_results_live_over_the_etales_bundle(self, thirds_lattice, four_point_structure):
        # over an equal but distinct topology, so that the arguments' bundle is another object
        base = FiniteTopology(thirds_lattice.topology.points, thirds_lattice.topology.opens)
        rel_etale = ConstantRelationalEtale(four_point_structure, base)
        top = constant(thirds_lattice, four_point_structure.carrier, thirds_lattice.top_code)
        subs = [phi(thirds_lattice, top)] * 2
        assert subs[0].parent is not rel_etale.etale
        for route in (fiberwise_rel_image, per_fiber_rel_image):
            assert route(rel_etale, "f", subs).parent is rel_etale.etale

    def test_remembered_images_match_fresh_plans(self, wedge_topology, wedge_lattice):
        rng = random.Random(5)
        carrier = ("p", "q")
        relations = {
            "c": {("q",)},
            "g": {("p", "q"), ("q", "q")},
            "f": {("p", "p", "p"), ("p", "q", "q"), ("q", "p", "q")},
        }
        s = RelationalStructure(carrier, Signature((("c", 0), ("g", 1), ("f", 2))), relations)
        kept = ConstantRelationalEtale(s, wedge_topology)
        for _ in range(40):
            for name, arity in s.signature.symbols:
                maps = [random_map(rng, wedge_lattice, carrier) for _ in range(arity)]
                subs = [phi(wedge_lattice, m) for m in maps]
                fresh = ConstantRelationalEtale(s, wedge_topology)
                want = fiberwise_rel_image(fresh, name, subs)
                assert per_fiber_rel_image(kept, name, subs) == want
                assert per_fiber_rel_image(fresh, name, subs) == want
        assert kept.plan("f")[3].cache_info().hits > 0


class TestSubobjectMemo:
    """Each bundle remembers the subobjects its constructors build, keyed by masks: every
    constructor in ``convalg.etale`` returns the one checked object for its masks."""

    def test_equal_masks_give_one_object_from_every_site(self, four_point_structure):
        topology = make_topology(("t1", "t2", "t3"), [{"t1"}, {"t2"}, {"t3"}])
        lattice = open_set_heyting(topology)
        rel_etale = ConstantRelationalEtale(four_point_structure, topology)
        rng = random.Random(3)
        for _ in range(30):
            alpha, beta = (random_map(rng, lattice, four_point_structure.carrier) for _ in "ab")
            a, b = phi(lattice, alpha), phi(lattice, beta)
            assert phi(lattice, alpha) is a and a.parent is rel_etale.etale
            image = phi(lattice, conv_op(lattice, four_point_structure, "f", [alpha, beta]))
            for route in (fiberwise_rel_image, per_fiber_rel_image):
                assert route(rel_etale, "f", [a, b]) is image
            for op, pointwise in [
                (sub_union, pointwise_join),
                (sub_intersection, pointwise_meet),
                (sub_impl, pointwise_impl),
            ]:
                assert op(a, b) is op(a, b) is phi(lattice, pointwise(alpha, beta))
            assert sub_neg(a) is phi(lattice, pointwise_neg(alpha))
        bottom = constant(lattice, four_point_structure.carrier, lattice.bottom_code)
        assert empty_subobject(a.parent) is empty_subobject(a.parent) is phi(lattice, bottom)

    def test_equal_topologies_give_equal_distinct_objects(self, wedge_topology, wedge_lattice):
        twin = FiniteTopology(wedge_topology.points, wedge_topology.opens)
        alpha = random_map(random.Random(4), wedge_lattice, ("p", "q"))
        sub = phi(wedge_lattice, alpha)
        lattice = open_set_heyting(twin)
        other = phi(lattice, LatticeMap(alpha.carrier, lattice, alpha.codes))
        assert other == sub and hash(other) == hash(sub) and other is not sub
        assert empty_subobject(other.parent) == empty_subobject(sub.parent)
        assert empty_subobject(other.parent) is not empty_subobject(sub.parent)

    def test_direct_construction_equals_the_remembered_object(self, thirds_lattice, thirds_args):
        sub = phi(thirds_lattice, thirds_args[0])
        direct = EtaleSubobject(sub.parent, sub.masks)
        assert direct == sub and hash(direct) == hash(sub) and repr(direct) == repr(sub)
        assert direct is not sub and phi(thirds_lattice, thirds_args[0]) is sub

    @pytest.mark.parametrize("masks", [(1, 0), (8, 0), (2.5, 0), (3,), (3, 2, 0)], ids=repr)
    def test_refused_masks_are_not_remembered(self, masks):
        # the wedge's opens are masks 0, 2, 3, 6 and 7
        wedge = make_topology({"a", "b", "c"}, [{"b"}, {"a", "b"}, {"b", "c"}])
        parent = ConstantEtale(("p", "q"), wedge)
        empty = empty_subobject(parent)
        with pytest.raises(ValueError):
            parent._subobject(masks)
        assert parent._subobject.cache_info().currsize == 1
        assert empty_subobject(parent) is empty

    def test_memo_is_bounded(self):
        # 8 opens on 5 fibers: 32,768 subobjects, more than the memo keeps
        topology = make_topology(("t1", "t2", "t3"), [{"t1"}, {"t2"}, {"t3"}])
        parent = ConstantEtale(("v", "w", "x", "y", "z"), topology)
        whole = whole_sub(parent)
        for masks in islice(product(sorted(topology.open_of), repeat=5), 5000):
            got = sub_intersection(EtaleSubobject(parent, masks), whole)
            assert got.masks == masks
        info = parent._subobject.cache_info()
        assert (info.currsize, info.maxsize, info.misses) == (4096, 4096, 5000)
        assert sub_union(got, got) is got


class TestSubobjectOps:
    def test_intersection_with_whole(self, wedge_lattice, wedge_topology):
        rng = random.Random(23)
        alpha = random_map(rng, wedge_lattice, ("p", "q"))
        sub = phi(wedge_lattice, alpha)
        assert sub_intersection(sub, whole_sub(sub.parent)) == sub

    def test_neg_of_empty_is_whole(self, wedge_topology):
        parent = ConstantEtale(("p", "q"), wedge_topology)
        assert sub_neg(empty_subobject(parent)) == whole_sub(parent)

    def test_subobject_count(self, wedge_lattice):
        carrier = ("p", "q")
        subs = {
            tuple(sorted((x, tuple(sorted(s))) for x, s in phi(wedge_lattice, m).sections.items()))
            for m in enumerate_maps(wedge_lattice, carrier)
        }
        assert len(subs) == 25

    @pytest.mark.parametrize(
        "generators", [[], [{"a"}], [{"a"}, {"b"}], [{"a"}, {"a", "b"}], [{"b"}, {"a", "b"}, {"b", "c"}]]
    )
    def test_impl_matches_topological_impl(self, generators):
        # one fiber per open a, holding a; the section at a of a => b is impl(a, b)
        topo = make_topology({"a", "b", "c"}, generators)
        parent = ConstantEtale(tuple(topo.opens), topo)
        every = EtaleSubobject(parent, tuple(topo.mask_of[a] for a in parent.fibers))
        for b in topo.opens:
            const = EtaleSubobject(parent, (topo.mask_of[b],) * len(parent.fibers))
            assert sub_impl(every, const).sections == {a: topo.impl(a, b) for a in parent.fibers}

    def test_union_parent_mismatch(self, wedge_topology, thirds_topology):
        a = whole_sub(ConstantEtale(("p",), wedge_topology))
        b = whole_sub(ConstantEtale(("p",), thirds_topology))
        with pytest.raises(ValueError):
            sub_union(a, b)


class TestVerifyMainIso:
    def test_worked_example_instance(self, thirds_topology, thirds_lattice, four_point_structure):
        report = verify_main_iso(
            thirds_lattice, four_point_structure, thirds_topology, trials=500, seed=0
        )
        assert report.ok and report.trials == 500

    def test_interval_structure_over_wedge_topology(self, wedge_topology, wedge_lattice):
        report = verify_main_iso(
            wedge_lattice, interval_structure(2), wedge_topology, trials=200, seed=0
        )
        assert report.ok

    def test_trivial_structure_vacuous(self, wedge_topology, wedge_lattice):
        s = RelationalStructure(("p",), Signature(()), {})
        report = verify_main_iso(wedge_lattice, s, wedge_topology, trials=10, seed=0)
        assert report.ok

    def test_zero_trials_vacuous(self, wedge_topology, wedge_lattice, four_point_structure):
        report = verify_main_iso(wedge_lattice, four_point_structure, wedge_topology, trials=0, seed=0)
        assert report.ok
        assert report.checks == 0

    def test_wrong_topological_impl_is_caught(self, monkeypatch, four_point_structure):
        # The mask route of sub_impl does not call FiniteTopology.impl, so a
        # wrong implication reaches only the lattice side of the check.
        monkeypatch.setattr(FiniteTopology, "impl", lambda self, a, b: a & b)
        topo = make_topology(("t1", "t2", "t3"), [{"t1"}, {"t2"}, {"t3"}])
        report = verify_main_iso(open_set_heyting(topo), four_point_structure, topo, trials=20, seed=0)
        assert not report.ok
        assert "pointwise impl" in report.counterexample

    def test_failure_report(
        self, monkeypatch, thirds_topology, thirds_lattice, four_point_structure
    ):
        # the sectionwise route reads its arguments in reverse: f is not symmetric
        monkeypatch.setattr(
            convalg.etale,
            "fiberwise_rel_image",
            lambda r, name, args: fiberwise_rel_image(r, name, args[::-1]),
        )
        report = verify_main_iso(
            thirds_lattice, four_point_structure, thirds_topology, trials=20, seed=0
        )
        detail = (
            "trial 2, relation f, args x1->{t2 t3}, x2->{}, x3->{t1 t2 t3}, x4->{t1 t3}; "
            "x1->{t3}, x2->{t1 t3}, x3->{t1}, x4->{t3}"
        )
        assert (report.ok, report.trials, report.checks, report.counterexample) == (
            False, 20, 11, detail
        )
        assert str(report) == f"counterexample after 11 checks: {detail}"

    def test_negative_trials_rejected(self, wedge_topology, wedge_lattice, four_point_structure):
        with pytest.raises(ValueError, match="trials"):
            verify_main_iso(wedge_lattice, four_point_structure, wedge_topology, trials=-2)

    @pytest.mark.parametrize("trials", [True, False, 2.0])
    def test_non_int_trials_rejected(
        self, wedge_topology, wedge_lattice, four_point_structure, trials
    ):
        with pytest.raises(ValueError, match="trials must be a nonnegative int"):
            verify_main_iso(wedge_lattice, four_point_structure, wedge_topology, trials=trials)

    def test_wrong_lattice_rejected(self, thirds_topology, wedge_lattice, four_point_structure):
        with pytest.raises(ValueError):
            verify_main_iso(wedge_lattice, four_point_structure, thirds_topology, trials=1, seed=0)

    def test_exhaustive_homomorphism_small_instance(self):
        topo = make_topology(("y1", "y2"), [{"y1"}])
        lat = open_set_heyting(topo)
        s = RelationalStructure(
            ("u", "v"),
            Signature((("f", 2),)),
            {"f": {("u", "u", "u"), ("u", "v", "v"), ("v", "u", "v"), ("v", "v", "v")}},
        )
        rel_etale = ConstantRelationalEtale(s, topo)
        maps = list(enumerate_maps(lat, s.carrier))
        for a in maps:
            for b in maps:
                lhs = phi(lat, conv_op(lat, s, "f", [a, b]))
                rhs = fiberwise_rel_image(rel_etale, "f", [phi(lat, a), phi(lat, b)])
                assert lhs == rhs


class TestType2ThroughEtale:
    """The finite instance of the type-2 isomorphism: the interval structure on
    the grid 0, 1/8, ..., 1 lifted over the lower topology on 12 points, whose
    opens are the initial segments. A grid function with values k/12 is the
    subobject whose section at x holds the first 12 g(x) points; both image
    routes of the lifted relations give the brute-force grid convolution."""

    N, M = 8, 12

    def instance(self):
        opens = frozenset(frozenset(range(k)) for k in range(self.M + 1))
        lower = FiniteTopology(frozenset(range(self.M)), opens)
        return open_set_heyting(lower), ConstantRelationalEtale(interval_structure(self.N), lower)

    def lift(self, rel_etale, g):
        sizes = [self.M * v for v in g.values]
        assert all(k.denominator == 1 for k in sizes)
        sections = [frozenset(range(int(k))) for k in sizes]
        return EtaleSubobject(rel_etale.etale, tuple(map(rel_etale.base.mask_of.get, sections)))

    def lower(self, sub):
        open_of = sub.parent.base.open_of
        return GridFunction(self.N, [Fraction(len(open_of[m]), self.M) for m in sub.masks])

    def routes(self, lattice, rel_etale):
        """Each route as a map from grid-function arguments to a grid function:
        ``conv_op`` on the maps through ``phi``, both étale image routes on the
        lifted arguments, and the grid oracle."""
        structure = rel_etale.structure

        def as_map(g):
            sections = self.lift(rel_etale, g).sections
            return LatticeMap.from_values(structure.carrier, lattice, sections)

        def image(route):
            return lambda op, *args: self.lower(
                route(rel_etale, op, [self.lift(rel_etale, g) for g in args]))

        return {
            "conv_op": lambda op, *args: self.lower(
                phi(lattice, conv_op(lattice, structure, op, [as_map(g) for g in args]))),
            "fiberwise_rel_image": image(fiberwise_rel_image),
            "per_fiber_rel_image": image(per_fiber_rel_image),
            "grid_conv_oracle": lambda op, *args: grid_conv_oracle(self.N, op, *args),
        }

    def test_routes_match_the_grid_oracle(self):
        _, rel_etale = self.instance()
        rng, checks = random.Random(0), 0
        for _ in range(200):
            a, b = (sample_to_grid(random_grid_step(rng, self.N), self.N) for _ in range(2))
            for op, args in (("join", (a, b)), ("meet", (a, b)), ("neg", (a,))):
                expected = grid_conv_oracle(self.N, op, *args)
                subs = [self.lift(rel_etale, g) for g in args]
                for route in (fiberwise_rel_image, per_fiber_rel_image):
                    assert self.lower(route(rel_etale, op, subs)) == expected, (op, args)
                    checks += 1
        assert checks == 1200

    def certificate_mismatches(self, lattice, rel_etale):
        """The generator tuples, and the constants, on which the routes disagree.

        Every route is completely additive in each argument: its value at a point
        is a join, over relation tuples or argument pairs, of meets of argument
        values, and meet distributes over join in the chain of opens. The
        generators are bottom and the 108 point maps x ↦ first k points; each of
        the 13^9 maps is the join of the generators below it, and, since bottom
        is one of them, a non-empty one. So a route's value at any argument
        tuple is the join of its values at the generator tuples below it
        (Jónsson–Tarski), and routes that agree on the 109^2 + 109^2 + 109
        generator tuples of join, meet and neg agree on all 13^9 maps and
        13^18 pairs. Each tuple is lifted and mapped once; the three routes'
        subobjects must be equal, and lowered to the grid must equal the
        oracle's. The oracle has no constants: zero and one are compared with
        ``t2_constants`` sampled to the grid."""
        structure = rel_etale.structure
        zero = GridFunction(self.N, [0] * (self.N + 1))
        grids = [zero] + [
            GridFunction(self.N, [Fraction(k, self.M) * (y == x) for y in range(self.N + 1)])
            for x in range(self.N + 1) for k in range(1, self.M + 1)
        ]
        subs = [self.lift(rel_etale, g) for g in grids]
        maps = [LatticeMap.from_values(structure.carrier, lattice, s.sections) for s in subs]
        assert len(grids) == 109 and [phi(lattice, m) for m in maps] == subs

        lowered = {}  # by masks: far fewer distinct results than tuples

        def images(op, idx):
            return (
                phi(lattice, conv_op(lattice, structure, op, [maps[i] for i in idx])),
                fiberwise_rel_image(rel_etale, op, [subs[i] for i in idx]),
                per_fiber_rel_image(rel_etale, op, [subs[i] for i in idx]),
            )

        pairs, singles = list(product(range(len(grids)), repeat=2)), [(i,) for i in range(len(grids))]
        for op, tuples in (("join", pairs), ("meet", pairs), ("neg", singles)):
            for idx in tuples:
                first, *others = images(op, idx)
                if first.masks not in lowered:
                    lowered[first.masks] = self.lower(first)
                expected = grid_conv_oracle(self.N, op, *[grids[i] for i in idx])
                if others != [first, first] or lowered[first.masks] != expected:
                    yield op, idx
        for op, constant in zip(("zero", "one"), t2_constants()):
            first, *others = images(op, ())
            if others != [first, first] or self.lower(first) != sample_to_grid(constant, self.N):
                yield op, ()

    def test_generator_certificate_of_the_whole_instance(self):
        assert list(self.certificate_mismatches(*self.instance())) == []

    def test_certificate_catches_a_dropped_relation_tuple(self, monkeypatch):
        """The sectionwise route missing the join tuple (1/2, 1/2, 1/2) differs
        first at the pair of point maps 1/2 ↦ first point. The 1,200 sampled
        checks above pass under this bug, as they do for 10 other single
        join or meet tuples dropped, of 171 tuples of join, meet and neg."""
        plan = ConstantRelationalEtale.plan

        def dropped(self, name):
            n, parent, tuples, image = plan(self, name)
            return n, parent, tuple(t for t in tuples if (name, t) != ("join", (4, 4, 4))), image

        monkeypatch.setattr(ConstantRelationalEtale, "plan", dropped)
        mismatch = next(self.certificate_mismatches(*self.instance()), None)
        assert mismatch == ("join", (1 + 12 * 4, 1 + 12 * 4)), mismatch

    @pytest.mark.parametrize("route", ["conv_op", "fiberwise_rel_image", "per_fiber_rel_image",
                                       "grid_conv_oracle"])
    def test_routes_are_additive_in_each_argument(self, route):
        """f(x ∨ y, z) = f(x, z) ∨ f(y, z), and the same in the second argument,
        on samples: a bug that breaks additivity can hide from the generators."""
        f = self.routes(*self.instance())[route]
        rng = random.Random(1)

        def join(g, h):
            return GridFunction(self.N, [max(u, v) for u, v in zip(g.values, h.values)])

        for _ in range(25):
            x, y, z = (sample_to_grid(random_grid_step(rng, self.N), self.N) for _ in range(3))
            assert f("neg", join(x, y)) == join(f("neg", x), f("neg", y))
            for op in ("join", "meet"):
                assert f(op, join(x, y), z) == join(f(op, x, z), f(op, y, z)), (op, x, y, z)
                assert f(op, z, join(x, y)) == join(f(op, z, x), f(op, z, y)), (op, x, y, z)


class TestNaturality:
    """ROADMAP item 14 for the routes: a relabelling with a shuffled carrier
    order, the fold X ⊔ X → X and the inclusion X → X ⊔ X′, all bounded
    morphisms, commute with ``conv_op``, ``rel_image`` and both étale image
    routes, on five-, seven- and ten-point carriers with a constant, a binary
    and a ternary relation. Seeded-bug rows break each route's relation by
    emptying its last point. Frame maps of the base's opens, stalks and
    restrictions to least opens, commute with ``conv_op`` and both étale
    routes too; a join table read from the position order breaks
    ``conv_op``'s, and cutting every section to one least open breaks the
    étale routes'."""

    def test_relabelling_and_fold(self):
        assert route_naturality_mismatches(100, morphisms=("relabelling", "fold")) == {
            "conv_op": (1200, 0),
            "rel_image": (600, 0),
            "fiberwise_rel_image": (600, 0),
            "per_fiber_rel_image": (600, 0),
        }

    def test_inclusion_into_a_disjoint_union(self):
        # the route on X ⊔ X′, restricted to X, is the route on X of the restricted arguments
        assert route_naturality_mismatches(100, morphisms=("inclusion",)) == {
            "conv_op": (600, 0),
            "rel_image": (300, 0),
            "fiberwise_rel_image": (300, 0),
            "per_fiber_rel_image": (300, 0),
        }

    def test_stalks_and_restrictions_to_least_opens(self):
        # frame maps O(Y) → O(S): the stalk at each base point and the restriction to
        # each least open, over 60 seeded three- and four-point bases
        assert frame_naturality_mismatches(60) == {
            "conv_op": (933, 0),
            "fiberwise_rel_image": (933, 0),
            "per_fiber_rel_image": (933, 0),
        }
