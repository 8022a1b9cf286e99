import copy
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from convalg import (
    CapacityError,
    FiniteLattice,
    FiniteTopology,
    LatticeMap,
    RelationalStructure,
    Signature,
    chain_lattice,
    check_heyting_laws,
    conv_op,
    enumerate_topologies,
    make_topology,
    open_set_heyting,
    pointwise_join,
)
from convalg.lattice import (
    MAX_LAW_CHECKS,
    MAX_OPENS,
    ChainLattice,
    OpenSetLattice,
    law_check_count,
)
from helpers import count_fraction_calls


def fs(*labels):
    return frozenset(labels)


class TestMakeTopology:
    def test_three_point_example(self, wedge_topology):
        assert wedge_topology.opens == {
            fs(),
            fs("b"),
            fs("a", "b"),
            fs("b", "c"),
            fs("a", "b", "c"),
        }

    def test_smallest_topology(self):
        t = make_topology({"p"}, [])
        assert t.opens == {fs(), fs("p")}

    def test_discrete_from_singletons(self):
        # oracle: closure of all singletons must be the full powerset
        t = make_topology({"1", "2", "3"}, [{"1"}, {"2"}, {"3"}])
        assert len(t.opens) == 8
        from itertools import combinations, product

        expected = {
            frozenset(c) for r in range(4) for c in combinations(("1", "2", "3"), r)
        }
        assert t.opens == expected

    def test_too_many_opens_refused(self):
        assert len(make_topology(range(8), [{i} for i in range(8)]).opens) == MAX_OPENS
        for points in (9, 20):
            t0 = time.perf_counter()
            with pytest.raises(CapacityError, match=f"opens exceed the bound {MAX_OPENS}$"):
                make_topology(range(points), [{i} for i in range(points)])
            assert time.perf_counter() - t0 < 1.0
        # a generator list past the bound costs only its least opens: these are the
        # 24 singletons, so the eighth joining step (2^8 unions and the full set) passes it
        gens = [{i, j} for i in range(24) for j in range(i + 1, 24)]
        assert len(gens) > MAX_OPENS
        with pytest.raises(CapacityError):
            make_topology(range(24), gens)

    @pytest.mark.parametrize("points,gens", [
        (20, [{i} for i in range(20)]),
        (24, [{i, j} for i in range(24) for j in range(i + 1, 24)]),
    ], ids=["singletons", "pairs"])
    def test_refusal_counts_the_first_step_past_the_bound(self, points, gens):
        # 2^8 unions of the first eight singletons, and the full set
        with pytest.raises(CapacityError, match=f"^257 opens exceed the bound {MAX_OPENS}$"):
            make_topology(range(points), gens)

    def test_smallest_of_the_enumerated_topologies(self):
        # every topology on the points that contains the generators contains the closure
        rng = random.Random(5)
        for n in range(5):
            points = range(n)
            topologies = list(enumerate_topologies(points))
            for _ in range(8):
                gens = [frozenset(p for p in points if rng.random() < 0.4)
                        for _ in range(rng.randint(0, 3))]
                t = make_topology(points, gens)
                over = [u.opens for u in topologies if u.opens >= set(gens)]
                assert t.opens in over
                assert all(t.opens <= opens for opens in over)

    def test_unknown_generator_point(self):
        with pytest.raises(ValueError):
            make_topology({"a"}, [{"a", "z"}])

    def test_idempotent(self, wedge_topology):
        again = make_topology(wedge_topology.points, wedge_topology.opens)
        assert again == wedge_topology

    @given(
        gens=st.lists(
            st.frozensets(st.sampled_from("abcd"), max_size=4), max_size=4
        ),
        extra=st.frozensets(st.sampled_from("abcd"), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_closure_monotone_and_extensive(self, gens, extra):
        points = "abcd"
        t = make_topology(points, gens)
        assert all(frozenset(g) in t.opens for g in gens)
        bigger = make_topology(points, gens + [extra])
        assert t.opens <= bigger.opens

    def test_invalid_family_rejected(self):
        with pytest.raises(ValueError):
            FiniteTopology(fs("a", "b"), frozenset({fs(), fs("a"), fs("b"), fs("a", "b")}) - {fs("a", "b")})
        with pytest.raises(ValueError):
            # closed under neither union nor intersection
            FiniteTopology(fs("a", "b", "c"), frozenset({fs(), fs("a"), fs("b"), fs("a", "b", "c")}))

    @pytest.mark.parametrize(
        "opens,message",
        [
            ({fs(), fs("a"), fs("a", "z")}, r"^open set \['a', 'z'\] is not a subset of the points$"),
            ({fs("a")}, "^the empty set must be open$"),
        ],
        ids=["outside-the-points", "no-empty-set"],
    )
    def test_malformed_family_named(self, opens, message):
        with pytest.raises(ValueError, match=message):
            FiniteTopology(fs("a"), frozenset(opens))


class TestOpenSetHeyting:
    def test_negation_of_ab_is_empty(self, wedge_topology, wedge_lattice):
        # oracle: union of opens disjoint from {a, b}
        expected = frozenset()
        for w in wedge_topology.opens:
            if not (w & fs("a", "b")):
                expected |= w
        assert expected == fs()
        assert wedge_lattice.neg(fs("a", "b")) == fs()

    def test_impl_bc_b(self, wedge_topology, wedge_lattice):
        # oracle: union of opens whose trace on {b, c} lies inside {b}
        expected = frozenset()
        for w in wedge_topology.opens:
            if w & fs("b", "c") <= fs("b"):
                expected |= w
        assert expected == fs("a", "b")
        assert wedge_lattice.impl(fs("b", "c"), fs("b")) == fs("a", "b")

    def test_negation_of_empty_is_everything(self, wedge_lattice, wedge_topology):
        assert wedge_lattice.neg(fs()) == wedge_topology.points

    def test_adjunction_exhaustive(self, wedge_lattice):
        for a in wedge_lattice.elements:
            for b in wedge_lattice.elements:
                c = wedge_lattice.impl(a, b)
                for w in wedge_lattice.elements:
                    assert (w & a <= b) == (w <= c)

    def test_topology_impl_on_every_small_space(self):
        # the largest open W with W & a <= b, on every topology of <= 3 points
        for n in range(4):
            for topo in enumerate_topologies([f"y{i}" for i in range(n)]):
                lat = open_set_heyting(topo)
                for a in topo.opens:
                    for b in topo.opens:
                        c = topo.impl(a, b)
                        assert c in topo.opens
                        assert lat.impl(a, b) == c
                        assert all((w & a <= b) == (w <= c) for w in topo.opens)

    def test_impl_table_of_256_opens_within_a_second(self):
        # the discrete space on 8 points, the largest family MAX_OPENS admits
        lat = open_set_heyting(make_topology(range(8), [{i} for i in range(8)]))
        t0 = time.perf_counter()
        table = lat.impl_table
        assert time.perf_counter() - t0 < 1.0
        assert len(table) == MAX_OPENS and table[0] == (lat.top_code,) * MAX_OPENS

    def test_bounds(self, wedge_lattice, wedge_topology):
        assert wedge_lattice.bottom == fs()
        assert wedge_lattice.top == wedge_topology.points
        assert wedge_lattice.join_all(()) == wedge_lattice.bottom
        assert wedge_lattice.meet_all(()) == wedge_lattice.top


class TestChainLattice:
    def test_two_element_chain(self):
        two = chain_lattice(1)
        assert two.elements == (Fraction(0), Fraction(1))
        assert two.impl(Fraction(1), Fraction(0)) == Fraction(0)

    def test_impl_against_bruteforce(self):
        lat = chain_lattice(2)
        a, b = Fraction(1, 2), Fraction(0)
        # oracle: the largest c with min(c, a) <= b
        best = max(c for c in lat.elements if min(c, a) <= b)
        assert best == Fraction(0)
        assert lat.impl(a, b) == best

    def test_impl_reflexive_is_top(self):
        lat = chain_lattice(5)
        for a in lat.elements:
            assert lat.impl(a, a) == Fraction(1)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            chain_lattice(0)

    def test_empty_join_and_meet_are_the_chain_ends(self):
        # the chain's own end elements, not a fresh Fraction per call
        lat = chain_lattice(4)
        assert lat.join_all(()) is lat.elements[0]
        assert lat.meet_all(()) is lat.elements[-1]
        assert lat.join_all([Fraction(1, 4)]) == Fraction(1, 4)

    def test_negation_involution_and_antisymmetry(self):
        lat = chain_lattice(7)
        for x in lat.elements:
            assert lat.negation(lat.negation(x)) == x
            assert lat.negation(x) in lat.index
        for x in lat.elements:
            for y in lat.elements:
                if x <= y:
                    assert lat.negation(y) <= lat.negation(x)

    def test_negation_rejects_off_chain(self):
        with pytest.raises(ValueError):
            chain_lattice(2).negation(Fraction(1, 3))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_rank_answers_match_fraction_comparison(self, n):
        """Every answer on every pair is the one plain Fraction comparison gives, for the
        chain's own elements (answered on ranks), equal but distinct Fractions, the ints 0
        and 1, values off the chain, and mixtures (answered by exact comparison); a deep
        copy answers the same."""
        lat = chain_lattice(n)
        for chain in (lat, copy.deepcopy(lat)):
            assert chain == lat
            own = chain.elements
            values = [*own, *[Fraction(x.numerator, x.denominator) for x in own], 0, 1]
            values += [Fraction(2 * k + 1, 2 * n) for k in range(n)]
            for a, b in product(values, repeat=2):
                assert chain.leq(a, b) is (a <= b)
                assert chain.join(a, b) == chain.join_all((a, b)) == max(a, b)
                assert chain.meet(a, b) == chain.meet_all((a, b)) == min(a, b)
                assert chain.impl(a, b) == (1 if a <= b else b)
            for a, b in product(own, repeat=2):
                for answer in (chain.join(a, b), chain.meet(a, b)):
                    assert answer is a or answer is b
                assert chain.impl(a, b) is (chain.top if a <= b else b)
            for k in range(len(own) + 1):
                for s in combinations(own, k):
                    assert chain.join_all(s) is max(s, default=own[0])
                    assert chain.meet_all(s) is min(s, default=own[-1])


class TestCheckHeytingLaws:
    def test_open_set_lattice_passes(self, wedge_lattice):
        assert check_heyting_laws(wedge_lattice).ok

    def test_chain_passes(self):
        assert check_heyting_laws(chain_lattice(4)).ok

    def test_m3_fails_distributivity(self):
        els = ("0", "p", "q", "r", "1")
        below = {("0", x) for x in els} | {(x, "1") for x in els}
        m3 = FiniteLattice(els, lambda a, b: a == b or (a, b) in below)
        report = check_heyting_laws(m3)
        assert not report.ok
        assert report.failure.law == "distributivity"

    def test_negative_subset_size_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            check_heyting_laws(chain_lattice(2), max_subset_size=-5)

    def test_every_small_topology_is_heyting(self):
        for t in enumerate_topologies(("1", "2")):
            assert check_heyting_laws(open_set_heyting(t)).ok


class TestLawCheckCapacity:
    def test_planned_count_is_the_count_made(self, wedge_lattice):
        lattices = [chain_lattice(n) for n in range(1, 7)] + [wedge_lattice]
        lattices += [open_set_heyting(t) for t in enumerate_topologies(("1", "2", "3"))]
        for lat in lattices:
            for size in range(4):
                report = check_heyting_laws(lat, max_subset_size=size)
                assert report.ok
                assert report.checks == law_check_count(len(lat.elements), size)

    def test_chain_12_count_unchanged(self):
        assert check_heyting_laws(chain_lattice(12)).checks == 8532

    def test_long_chain_refused_before_any_check(self):
        calls = 0

        def leq(a, b):
            nonlocal calls
            calls += 1
            return a <= b

        lat = FiniteLattice(range(200), leq)
        calls = 0
        with pytest.raises(CapacityError):
            check_heyting_laws(lat)
        assert calls == 0
        with pytest.raises(CapacityError):
            check_heyting_laws(chain_lattice(400))

    def test_each_question_asked_once(self):
        """On a lawful lattice the checker makes n^2 calls each of leq,
        meet and impl at every subset size, on a chain and on an open-set
        lattice; ``literal_check_heyting_laws`` in test_oracle.py, which
        scans element by element, makes about 2n^3."""
        calls = Counter()

        class Counting:
            def leq(self, a, b):
                calls["leq"] += 1
                return super().leq(a, b)

            def meet(self, a, b):
                calls["meet"] += 1
                return super().meet(a, b)

            def impl(self, a, b):
                calls["impl"] += 1
                return super().impl(a, b)

        class IntChain(FiniteLattice):
            def join_all(self, items):
                return max(items, default=self.elements[0])

            def meet_all(self, items):
                return min(items, default=self.elements[-1])

            def meet(self, a, b):
                return min(a, b)

            def impl(self, a, b):
                return self.elements[-1] if a <= b else b

        class CountingChain(Counting, IntChain):
            pass

        class CountingOpens(Counting, OpenSetLattice):
            pass

        chain = CountingChain(range(30), lambda a, b: a <= b)
        # the discrete topology on four points: 16 opens
        opens = CountingOpens(make_topology("abcd", [{p} for p in "abcd"]))
        for lat, size in product((chain, opens), (0, 1, 2, 3)):
            n = len(lat.elements)
            calls.clear()
            assert check_heyting_laws(lat, max_subset_size=size).ok
            assert calls["leq"] <= n * n + 2 * n
            assert calls["meet"] == calls["impl"] == n * n

    def test_each_join_asked_once(self):
        """Each checked subset's ``join_all`` and ``meet_all`` is asked once, and the
        distributive law asks ``join_all`` only for right-hand sides that are not
        checked subsets: 117 questions on chain:12, where asking the checked
        subsets again made 209."""
        asked = Counter()

        class CountingChain(ChainLattice):
            def join_all(self, items):
                items = tuple(items)
                asked["join_all", items] += 1
                return super().join_all(items)

            def meet_all(self, items):
                items = tuple(items)
                asked["meet_all", items] += 1
                return super().meet_all(items)

        lat = CountingChain(12)
        asked.clear()
        assert check_heyting_laws(lat).ok
        assert max(asked.values()) == 1
        assert sum(op == "join_all" for op, _ in asked) == 117
        els = lat.elements
        for s in [*combinations(els, 1), *combinations(els, 2), els]:
            assert asked["join_all", s] == asked["meet_all", s] == 1

    def test_chain_questions_compare_no_fractions(self, monkeypatch):
        """chain:12's law check is answered on ranks: no Fraction ordering comparison,
        where comparing its Fractions made 843, and only the two ``__eq__`` calls of the
        checker's own test of the empty join and meet."""
        lat = chain_lattice(12)
        calls = count_fraction_calls(monkeypatch)
        assert check_heyting_laws(lat).ok
        assert calls == Counter({"__eq__": 2})

    def test_large_subset_size_refused(self):
        assert law_check_count(19, 18) > MAX_LAW_CHECKS
        with pytest.raises(CapacityError):
            check_heyting_laws(chain_lattice(18), max_subset_size=18)
        assert check_heyting_laws(chain_lattice(3), max_subset_size=30).ok

    def test_subset_size_past_the_lattice_costs_nothing(self):
        # subsets larger than |L| do not exist, so sizes past it add no work
        lat = chain_lattice(3)
        t0 = time.perf_counter()
        report = check_heyting_laws(lat, max_subset_size=3 * 10**5)
        assert time.perf_counter() - t0 < 1.0
        assert report == check_heyting_laws(lat, max_subset_size=4)
        assert report.checks == law_check_count(4, 3 * 10**5) == 394


class TestEnumerateTopologies:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 4), (3, 29), (4, 355)])
    def test_labeled_counts(self, n, count):
        points = [str(i) for i in range(n)]
        assert sum(1 for _ in enumerate_topologies(points)) == count

    def test_too_many_points(self):
        with pytest.raises(ValueError):
            list(enumerate_topologies("abcde"))

    @pytest.mark.parametrize("n,count", [(3, 29), (4, 355)])
    def test_each_topology_built_once(self, monkeypatch, n, count):
        # one FiniteTopology per transitive choice of least opens, none per other choice
        # (64 choices of an open around each of 3 points, 4,096 around 4)
        built, validate = [], FiniteTopology.__post_init__

        def counting(topology):
            built.append(topology)
            validate(topology)

        monkeypatch.setattr(FiniteTopology, "__post_init__", counting)
        assert sum(1 for _ in enumerate_topologies(range(n))) == count
        assert len(built) == count

    @pytest.mark.parametrize("points,distinct", [(["a", "a", "b"], ["a", "b"]), ("aabbcc", "abc")])
    def test_repeated_labels_name_one_point(self, points, distinct):
        assert list(enumerate_topologies(points)) == list(enumerate_topologies(distinct))


class TestLatticeIdentity:
    @pytest.mark.parametrize(
        "elements,message",
        [((), "^a lattice needs at least one element$"), (("a", "a"), "^duplicate lattice elements$")],
        ids=["empty", "duplicate"],
    )
    def test_malformed_elements_named(self, elements, message):
        with pytest.raises(ValueError, match=message):
            FiniteLattice(elements, lambda x, y: x <= y)

    def test_equality_includes_the_order(self):
        up = FiniteLattice(("a", "b"), lambda x, y: x <= y)
        down = FiniteLattice(("a", "b"), lambda x, y: x >= y)
        assert up != down
        assert up == FiniteLattice(("a", "b"), lambda x, y: x <= y)
        assert hash(up) == hash(FiniteLattice(("a", "b"), lambda x, y: x <= y))
        assert up.meet_table != down.meet_table

    def test_compatibility_checks_reject_a_map_over_the_reversed_order(self):
        up = FiniteLattice(("a", "b"), lambda x, y: x <= y)
        down = FiniteLattice(("a", "b"), lambda x, y: x >= y)
        s = RelationalStructure(("p",), Signature((("g", 1),)), {"g": {("p", "p")}})
        over_up = LatticeMap.from_values(("p",), up, {"p": "a"})
        over_down = LatticeMap.from_values(("p",), down, {"p": "a"})
        assert conv_op(up, s, "g", [over_up]).values == {"p": "a"}
        with pytest.raises(ValueError, match="lattice mismatch"):
            conv_op(down, s, "g", [over_up])
        with pytest.raises(ValueError, match="different lattices"):
            pointwise_join(over_up, over_down)

    def test_equal_open_set_lattices_from_separate_constructions(self, wedge_topology):
        assert open_set_heyting(wedge_topology) == open_set_heyting(wedge_topology)
        assert open_set_heyting(wedge_topology) != chain_lattice(4)


class TestPositionTables:
    def test_tables_follow_meet_and_join(self, wedge_lattice):
        els = wedge_lattice.elements
        for i, a in enumerate(els):
            assert els[wedge_lattice.index[a]] is a
            for j, b in enumerate(els):
                assert els[wedge_lattice.meet_table[i][j]] == a & b
                assert els[wedge_lattice.join_table[i][j]] == a | b
        assert els[wedge_lattice.bottom_code] == wedge_lattice.bottom
        assert els[wedge_lattice.top_code] == wedge_lattice.top

    def test_order_that_is_not_a_lattice_constructs_but_has_no_join_table(self):
        # a and b have two minimal upper bounds, c and d
        els = ("0", "a", "b", "c", "d", "1")
        below = {("0", x) for x in els} | {(x, "1") for x in els}
        below |= {(x, y) for x in ("a", "b") for y in ("c", "d")}
        lat = FiniteLattice(els, lambda a, b: a == b or (a, b) in below)
        assert lat.bottom == "0" and lat.top == "1"
        with pytest.raises(ValueError, match="no least upper bound"):
            lat.join_table

    def test_join_override_that_leaves_the_elements_is_refused_at_the_table(self):
        class Leaky(FiniteLattice):
            def join(self, a, b):
                return a + b

        lat = Leaky((0, 1), lambda a, b: a <= b)
        assert lat.bottom == 0 and lat.top == 1 and lat.meet_table == ((0, 0), (0, 1))
        with pytest.raises(ValueError, match=r"^join\(1, 1\) = 2 left the lattice$"):
            lat.join_table
