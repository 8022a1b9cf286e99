import dataclasses
import gc
from fractions import Fraction
from itertools import product

import pytest

from convalg import (
    App,
    CapacityError,
    ComplexAlgebra,
    ConvolutionAlgebra,
    Equation,
    FiniteLattice,
    Var,
    chain_lattice,
    eval_term,
    format_equation,
    holds_in,
    interval_structure,
    make_topology,
    open_set_heyting,
    random_equations,
    same_equations_report,
)
import convalg.terms
from convalg.terms import term_variables
from helpers import naturality_mismatches


def fs(*labels):
    return frozenset(labels)


class TestEvalTerm:
    def test_variable_lookup(self, four_point_structure):
        alg = ComplexAlgebra(four_point_structure)
        assert eval_term(alg, Var("v"), {"v": fs("x1")}) == fs("x1")

    def test_unbound_variable(self, four_point_structure):
        with pytest.raises(ValueError):
            eval_term(ComplexAlgebra(four_point_structure), Var("v"), {})

    def test_application_in_powerset_algebra(self, four_point_structure):
        alg = ComplexAlgebra(four_point_structure)
        term = App("f", (Var("v"), Var("w")))
        env = {"v": fs("x1", "x2"), "w": fs("x2", "x3")}
        assert eval_term(alg, term, env) == fs("x3", "x4")

    def test_constant_in_two_valued_map_algebra(self):
        s = interval_structure(1)
        two = chain_lattice(1)
        alg = ConvolutionAlgebra(two, s)
        result = eval_term(alg, App("zero", ()), {})
        assert result.values == {Fraction(0): two.top, Fraction(1): two.bottom}

    def test_compositional(self, four_point_structure):
        alg = ComplexAlgebra(four_point_structure)
        inner = App("f", (Var("v"), Var("w")))
        outer = App("f", (inner, Var("v")))
        env = {"v": fs("x1"), "w": fs("x3")}
        by_parts = alg.apply("f", [eval_term(alg, inner, env), env["v"]])
        assert eval_term(alg, outer, env) == by_parts


class TestHoldsIn:
    def test_reflexive_equation_everywhere(self, four_point_structure):
        eq = Equation(Var("x"), Var("x"))
        assert holds_in(ComplexAlgebra(four_point_structure), eq).holds

    def test_commutativity_of_max_graph(self):
        s = interval_structure(1)
        eq = Equation(App("join", (Var("v"), Var("w"))), App("join", (Var("w"), Var("v"))))
        assert holds_in(ComplexAlgebra(s), eq).holds

    def test_commutativity_fails_in_worked_example(self, four_point_structure):
        alg = ComplexAlgebra(four_point_structure)
        eq = Equation(App("f", (Var("v"), Var("w"))), App("f", (Var("w"), Var("v"))))
        check = holds_in(alg, eq)
        assert not check.holds
        lhs = eval_term(alg, eq.lhs, check.witness)
        rhs = eval_term(alg, eq.rhs, check.witness)
        assert lhs != rhs

    def test_witness_is_deterministic(self, four_point_structure):
        alg = ComplexAlgebra(four_point_structure)
        eq = Equation(App("f", (Var("v"), Var("w"))), App("f", (Var("w"), Var("v"))))
        assert holds_in(alg, eq).witness == holds_in(alg, eq).witness

    def test_capacity_error(self, four_point_structure, wedge_lattice):
        alg = ConvolutionAlgebra(wedge_lattice, four_point_structure)
        three_vars = Equation(
            App("f", (App("f", (Var("v"), Var("w"))), Var("u"))),
            App("f", (Var("v"), App("f", (Var("w"), Var("u"))))),
        )
        with pytest.raises(CapacityError):
            holds_in(alg, three_vars, max_assignments=10**6)

    def test_capacity_skip_builds_no_elements(self, monkeypatch):
        # 4^8 = 65,536 maps fit the element bound; their pairs do not
        import convalg.terms
        from convalg import RelationalStructure, Signature

        def refuse(*args, **kwargs):
            raise AssertionError("a capacity skip must not enumerate maps")

        monkeypatch.setattr(convalg.terms, "enumerate_maps", refuse)
        carrier = tuple(f"x{i}" for i in range(8))
        s = RelationalStructure(carrier, Signature((("f", 2),)), {"f": {("x0", "x1", "x2")}})
        comm = Equation(App("f", (Var("v"), Var("w"))), App("f", (Var("w"), Var("v"))))
        with pytest.raises(CapacityError, match="^4294967296 assignments exceed the bound 1000000$"):
            holds_in(ConvolutionAlgebra(chain_lattice(3), s), comm)

        def wide(size):
            return RelationalStructure(tuple(f"x{i}" for i in range(size)), s.signature, s.relations)

        # the element bound is checked first, with the enumerator's message:
        # 4^10 maps and 2^20 subsets are just past it
        with pytest.raises(CapacityError, match="^1048576 maps exceed the bound 1000000$"):
            holds_in(ConvolutionAlgebra(chain_lattice(3), wide(10)), comm)
        with pytest.raises(CapacityError, match="^1048576 subsets exceed the bound 1000000$"):
            holds_in(ComplexAlgebra(wide(20)), comm)

    def test_general_path_matches_brute_force(self):
        # Two-variable equations over an arity-3 symbol: the n^3 table entries
        # cost more than the scan, so these take the eval_term route. h is
        # symmetric in its first two slots, so the first equation holds over every lattice; the
        # second fails at v = {} and w = {a}, so also over every lattice.
        from convalg import RelationalStructure, Signature, all_subsets, conv_op, enumerate_maps
        from convalg import rel_image

        carrier = ("a", "b")
        rel = {("a", "a", "a", "b"), ("b", "a", "b", "a"), ("a", "b", "b", "a")}
        s = RelationalStructure(carrier, Signature((("h", 3),)), {"h": rel})
        v, w = Var("v"), Var("w")
        sides = {
            Equation(App("h", (v, w, w)), App("h", (w, v, w))): lambda h, a, b: (h(a, b, b), h(b, a, b)),
            Equation(App("h", (v, v, w)), w): lambda h, a, b: (h(a, a, b), b),
        }
        els = ("0", "a", "b", "c", "1")
        below = {("0", x) for x in els} | {(x, "1") for x in els} | {("a", "b")}
        n5 = FiniteLattice(els, lambda a, b: a == b or (a, b) in below)
        chain = chain_lattice(2)
        cases = [
            (ComplexAlgebra(s), all_subsets(carrier), lambda *a: rel_image(s, "h", list(a))),
            (ConvolutionAlgebra(chain, s), list(enumerate_maps(chain, carrier)),
             lambda *a: conv_op(chain, s, "h", list(a))),
            (ConvolutionAlgebra(n5, s), list(enumerate_maps(n5, carrier)),
             lambda *a: conv_op(n5, s, "h", list(a))),
        ]
        # chain:2 takes the two-valued route, N5 the literal scan
        assert cases[1][0].two_valued is not None and cases[2][0].two_valued is None
        for algebra, elements, h in cases:
            for eq, side in sides.items():
                failures = [{"v": a, "w": b} for a in elements for b in elements
                            if side(h, a, b)[0] != side(h, a, b)[1]]
                check = holds_in(algebra, eq)
                assert check.holds == (not failures)
                if algebra.two_valued is not None:
                    # the first failure among the crisp maps, in enumeration order
                    crisp = {algebra.lattice.bottom_code, algebra.lattice.top_code}
                    failures = [f for f in failures if all(set(m.codes) <= crisp for m in f.values())]
                assert check.witness == (failures[0] if failures else None)

    def test_arity_three_table_matches_brute_force(self):
        # Three variables over four elements: 64 assignments of two applies
        # each cost more than h's 64 table entries, so h is tabulated, its
        # entry for positions (i, j, k) at 16i + 4j + k.
        from convalg import RelationalStructure, Signature, all_subsets, conv_op, enumerate_maps
        from convalg import rel_image

        carrier = ("a", "b")
        rel = {("a", "a", "a", "b"), ("b", "a", "b", "a"), ("a", "b", "b", "a")}
        s = RelationalStructure(carrier, Signature((("h", 3),)), {"h": rel})
        v, w, u = Var("v"), Var("w"), Var("u")
        # h is symmetric in its first two slots but not in its last two
        sides = {
            Equation(App("h", (v, w, u)), App("h", (w, v, u))): lambda h, a, b, c: (h(a, b, c), h(b, a, c)),
            Equation(App("h", (v, w, u)), App("h", (v, u, w))): lambda h, a, b, c: (h(a, b, c), h(a, c, b)),
        }
        two = chain_lattice(1)
        cases = [
            (lambda: ComplexAlgebra(s), all_subsets(carrier), lambda *a: rel_image(s, "h", list(a))),
            (lambda: ConvolutionAlgebra(two, s), list(enumerate_maps(two, carrier)),
             lambda *a: conv_op(two, s, "h", list(a))),
        ]
        for make_algebra, elements, h in cases:
            verdicts = []
            for eq, side in sides.items():
                algebra = make_algebra()
                check = holds_in(algebra, eq)
                keys = [algebra.element_key(e) for e in elements]
                table = algebra.tables["h"]
                assert len(table) == 64
                for i, j, k in product(range(4), repeat=3):
                    out = h(elements[i], elements[j], elements[k])
                    assert table[16 * i + 4 * j + k] == keys.index(algebra.element_key(out))
                # names in order u, v, w, each running over the elements in order
                failures = [{"u": c, "v": a, "w": b} for c in elements for a in elements
                            for b in elements if side(h, a, b, c)[0] != side(h, a, b, c)[1]]
                assert check.holds == (not failures)
                assert check.witness == (failures[0] if failures else None)
                verdicts.append(check.holds)
            assert verdicts == [True, False]

    def test_negative_assignment_bound_rejected(self, four_point_structure):
        comm = Equation(App("f", (Var("v"), Var("w"))), App("f", (Var("w"), Var("v"))))
        with pytest.raises(ValueError, match="max_assignments"):
            holds_in(ComplexAlgebra(four_point_structure), comm, max_assignments=-1)

    def test_table_built_once_per_algebra(self, four_point_structure):
        class Counting(ComplexAlgebra):
            calls = 0

            def apply(self, name, args):
                self.calls += 1
                return super().apply(name, args)

        comm = Equation(App("f", (Var("v"), Var("w"))), App("f", (Var("w"), Var("v"))))
        algebra = Counting(four_point_structure)
        holds_in(algebra, comm)
        assert algebra.calls == 16 * 16
        holds_in(algebra, comm)
        assert algebra.calls == 16 * 16
        assert algebra.table("f") is algebra.tables["f"]

    @pytest.mark.parametrize("holds", [True, False])
    def test_closed_equation_builds_no_table(self, monkeypatch, holds):
        # one assignment costs 5 applies, one per distinct subterm, against 273
        # table entries (256 for f, 16 for g, 1 for c) in the two-valued algebra
        from convalg import RelationalStructure, Signature

        applied = []
        apply = ConvolutionAlgebra.apply

        def counting(self, name, args):
            applied.append(len(self.lattice.elements))
            return apply(self, name, args)

        monkeypatch.setattr(ConvolutionAlgebra, "apply", counting)
        c = App("c", ())
        eq = Equation(App("f", (c, App("g", (c,)))), App("g", (App("f", (c, c)),)))
        rels = {"c": {("x1",)}, "g": {("x1", "x2")}, "f": {("x1", "x2", "x3"), ("x1", "x1", "x4")}}
        if holds:
            rels = {name: () for name in rels}
        s = RelationalStructure(("x1", "x2", "x3", "x4"), Signature((("c", 0), ("g", 1), ("f", 2))), rels)
        algebra = ConvolutionAlgebra(chain_lattice(3), s)
        assert holds_in(algebra, eq).holds == holds
        assert algebra.two_valued.tables == {} and algebra.tables == {}
        # 5 in 2^X, then 8 over chain:3, one per App node, to certify a failure
        assert applied.count(2) == 5
        assert applied.count(4) == (0 if holds else 8)

    def test_scan_never_calls_eval_term(self, monkeypatch, four_point_structure):
        # a closed equation on the apply path, commutativity on the table path
        import convalg.terms
        from convalg import RelationalStructure, Signature

        def refuse(*args):
            raise AssertionError("the scan must not share eval_term with its oracle")

        monkeypatch.setattr(convalg.terms, "eval_term", refuse)
        c, v, w = App("c", ()), Var("v"), Var("w")
        closed = Equation(App("f", (c, App("g", (c,)))), App("g", (App("f", (c, c)),)))
        comm = Equation(App("f", (v, w)), App("f", (w, v)))
        sig = Signature((("c", 0), ("g", 1), ("f", 2)))
        rels = {"c": {("x1",)}, "g": {("x1", "x2"), ("x2", "x1")}, "f": {("x1", "x1", "x2")}}
        s = RelationalStructure(("x1", "x2"), sig, rels)
        algebra = ComplexAlgebra(s)
        assert not holds_in(algebra, closed).holds and algebra.tables == {}
        algebra = ComplexAlgebra(four_point_structure)
        assert not holds_in(algebra, comm).holds and set(algebra.tables) == {"f"}

    def test_leaves_no_cyclic_garbage(self, four_point_structure, wedge_lattice):
        sig = four_point_structure.signature
        eqs = random_equations(sig, 12, seed=5, max_depth=2, max_vars=2)
        gc.collect()
        gc.disable()
        try:
            for algebra in (ComplexAlgebra(four_point_structure),
                            ConvolutionAlgebra(wedge_lattice, four_point_structure)):
                for eq in eqs:
                    holds_in(algebra, eq)
            same_equations_report(wedge_lattice, four_point_structure, eqs)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_reduced_route_applies_only_on_two_valued_maps(
        self, monkeypatch, four_point_structure, wedge_lattice
    ):
        # over the wedge, equations are decided among the 16 two-valued maps;
        # a failing one adds one evaluation of each side on the wedge
        applied = []
        apply = ConvolutionAlgebra.apply

        def counting(self, name, args):
            applied.append(len(self.lattice.elements))
            return apply(self, name, args)

        monkeypatch.setattr(ConvolutionAlgebra, "apply", counting)
        v, w = Var("v"), Var("w")
        holding = Equation(App("f", (v, App("f", (v, w)))), App("f", (v, App("f", (w, v)))))
        failing = Equation(App("f", (v, w)), App("f", (w, v)))
        algebra = ConvolutionAlgebra(wedge_lattice, four_point_structure)
        assert holds_in(algebra, holding).holds
        assert len(applied) == 16 * 16 and set(applied) == {2}
        check = holds_in(algebra, failing)
        assert not check.holds
        assert len(applied) == 16 * 16 + 2 and applied[-2:] == [5, 5]
        assert {m.lattice for m in check.witness.values()} == {wedge_lattice}

    def test_two_valued_algebras_share_one_chain(self, four_point_structure, wedge_lattice):
        # one two-element chain serves every reduction, so its tables are built
        # once; a lifted witness is still over L
        lattices = [chain_lattice(2), chain_lattice(3), wedge_lattice]
        chains = [ConvolutionAlgebra(lat, s).two_valued.lattice
                  for lat in lattices for s in (four_point_structure, interval_structure(1))]
        assert all(chain is chains[0] for chain in chains)
        assert chains[0] == chain_lattice(1)
        v, w = Var("v"), Var("w")
        failing = Equation(App("f", (v, w)), App("f", (w, v)))
        for lat in lattices:
            check = holds_in(ConvolutionAlgebra(lat, four_point_structure), failing)
            assert not check.holds
            assert all(m.lattice is lat for m in check.witness.values())


class TestTwoValuedAgreement:
    def test_agreement_for_two_element_lattice(self, four_point_structure):
        two = chain_lattice(1)
        conv = ConvolutionAlgebra(two, four_point_structure)
        comp = ComplexAlgebra(four_point_structure)
        eqs = random_equations(four_point_structure.signature, 25, seed=9)
        for eq in eqs:
            assert holds_in(conv, eq).holds == holds_in(comp, eq).holds


class TestSameEquationsReport:
    def test_interval_structure_suite(self, wedge_lattice):
        s = interval_structure(1)
        eqs = random_equations(s.signature, 10, seed=1)
        eqs.append(
            Equation(App("join", (Var("v"), Var("w"))), App("join", (Var("w"), Var("v"))))
        )
        report = same_equations_report(wedge_lattice, s, eqs)
        assert report.ok
        assert report.compared == len(eqs)
        assert report.skipped == 0

    def test_laws_checked_once_per_lattice(self, monkeypatch, four_point_structure):
        import convalg.lattice

        checked = []
        check = convalg.lattice.check_heyting_laws

        def counting(lat):
            checked.append(lat)
            return check(lat)

        monkeypatch.setattr(convalg.lattice, "check_heyting_laws", counting)
        lat = chain_lattice(2)
        for _ in range(3):
            assert same_equations_report(lat, four_point_structure, []).ok
        assert checked == [lat]
        assert lat.heyting_report == check(lat)

    def test_non_heyting_lattice_rejected_every_time(self, four_point_structure):
        els = ("0", "p", "q", "r", "1")
        below = {("0", x) for x in els} | {(x, "1") for x in els}
        m3 = FiniteLattice(els, lambda a, b: a == b or (a, b) in below)
        for _ in range(2):
            with pytest.raises(ValueError, match="^lattice is not Heyting: distributivity fails$"):
                same_equations_report(m3, four_point_structure, [])

    def test_trivial_lattice_rejected(self, four_point_structure):
        one = open_set_heyting(make_topology([], []))
        with pytest.raises(ValueError):
            same_equations_report(one, four_point_structure, [])

    def test_negative_assignment_bound_rejected(self, wedge_lattice, four_point_structure):
        with pytest.raises(ValueError, match="max_assignments"):
            same_equations_report(wedge_lattice, four_point_structure, [], max_assignments=-1)

    def test_capacity_skips_are_reported(self, wedge_lattice, four_point_structure):
        assoc = Equation(
            App("f", (App("f", (Var("v"), Var("w"))), Var("u"))),
            App("f", (Var("v"), App("f", (Var("w"), Var("u"))))),
        )
        report = same_equations_report(wedge_lattice, four_point_structure, [assoc])
        outcome = report.outcomes[0]
        assert outcome.conv_holds is None
        assert outcome.complex_holds is False
        assert report.skipped == 1
        assert report.ok

    def test_a_forced_disagreement_is_reported(self, monkeypatch, four_point_structure):
        # holds with f's arguments in order, fails with them reversed
        w, v = Var("w"), Var("v")
        fvw = App("f", (v, w))
        eq = Equation(App("f", (App("f", (w, w)), fvw)), App("f", (w, fvw)))
        two = chain_lattice(1)
        assert same_equations_report(two, four_point_structure, [eq]).ok
        apply = ComplexAlgebra.apply
        monkeypatch.setattr(ComplexAlgebra, "apply", lambda self, name, args: apply(
            self, name, list(args)[::-1]))
        report = same_equations_report(two, four_point_structure, [eq])
        assert not report.ok and report.disagreements == 1 and report.compared == 1
        outcome = report.outcomes[0]
        assert outcome.conv_holds is True and outcome.complex_holds is False
        assert outcome.agree is False


class TestRandomEquations:
    def test_deterministic_for_seed(self, four_point_structure):
        sig = four_point_structure.signature
        assert random_equations(sig, 10, seed=4) == random_equations(sig, 10, seed=4)
        assert random_equations(sig, 10, seed=4) != random_equations(sig, 10, seed=5)

    def test_draw_order_pinned(self):
        sig = interval_structure(1).signature
        assert [format_equation(eq) for eq in random_equations(sig, 3, seed=13, max_depth=2)] == [
            "(join (join w w) u) = (meet u u)",
            "w = (meet (join v (zero)) u)",
            "v = (join u w)",
        ]

    def test_leaves_no_cyclic_garbage(self, four_point_structure):
        sig = four_point_structure.signature
        gc.collect()
        gc.disable()
        try:
            for seed in range(10):
                random_equations(sig, 20, seed=seed)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_respects_bounds(self):
        sig = interval_structure(1).signature
        for eq in random_equations(sig, 50, seed=7, max_depth=3, max_vars=3):
            assert len(set(term_variables(eq.lhs)) | set(term_variables(eq.rhs))) <= 3

            def depth(t):
                if isinstance(t, Var) or not t.args:
                    return 0
                return 1 + max(depth(a) for a in t.args)

            assert depth(eq.lhs) <= 3 and depth(eq.rhs) <= 3

    def test_format_round_trip_through_parser(self):
        from convalg.formats import parse_equation

        sig = interval_structure(1).signature
        for eq in random_equations(sig, 20, seed=3):
            assert parse_equation(format_equation(eq), sig) == eq


def node_count(term):
    return 1 if isinstance(term, Var) else 1 + sum(node_count(a) for a in term.args)


class TestCompiledProgram:
    """Each ``Equation`` compiles its straight-line program once, on first
    use, and every algebra that decides it reads that one program."""

    @pytest.fixture
    def compiled(self, monkeypatch):
        """Every term ``_slot`` visits; one compile visits each node of both sides once."""
        visited = []
        slot = convalg.terms._slot

        def counting(term, slots, steps):
            visited.append(term)
            return slot(term, slots, steps)

        monkeypatch.setattr(convalg.terms, "_slot", counting)
        return visited

    @pytest.mark.parametrize("lattice", [chain_lattice(3), chain_lattice(1)],
                             ids=["chain:3", "chain:1"])
    def test_report_compiles_each_equation_once(self, compiled, four_point_structure, lattice):
        # chain:3 descends to the two-valued algebra and certifies its
        # failures crisply; chain:1 decides every equation where it stands
        v, w = Var("v"), Var("w")
        holding = Equation(App("f", (v, App("f", (v, w)))), App("f", (v, App("f", (w, v)))))
        eqs = [holding] + [eq for eq in random_equations(
            four_point_structure.signature, 12, seed=3, max_vars=2) if eq.lhs != eq.rhs]
        report = same_equations_report(lattice, four_point_structure, eqs)
        assert report.ok and report.compared == len(eqs)
        assert {o.conv_holds for o in report.outcomes} == {True, False}
        assert len(compiled) == sum(node_count(eq.lhs) + node_count(eq.rhs) for eq in eqs)
        compiled.clear()
        again = same_equations_report(lattice, four_point_structure, eqs)
        assert compiled == [] and again == report

    def test_identical_sides_compile_nothing(self, compiled, four_point_structure):
        eq = Equation(App("f", (Var("v"), Var("w"))), App("f", (Var("v"), Var("w"))))
        assert holds_in(ComplexAlgebra(four_point_structure), eq).holds
        assert compiled == [] and "program" not in vars(eq)

    def test_program_is_no_field(self):
        eq = Equation(App("f", (Var("w"), Var("v"))), Var("v"))
        before = repr(eq), hash(eq), dataclasses.fields(eq)
        assert eq.program == (("v", "w"), (("f", (1, 0)),), 2, 0)
        assert (repr(eq), hash(eq), dataclasses.fields(eq)) == before
        assert [f.name for f in dataclasses.fields(eq)] == ["lhs", "rhs"]
        assert eq == Equation(eq.lhs, eq.rhs) and "program" not in repr(eq)
        with pytest.raises(dataclasses.FrozenInstanceError):
            eq.lhs = Var("v")

    def test_equal_equations_share_verdicts(self, four_point_structure):
        v, w = Var("v"), Var("w")
        for make in (lambda: Equation(App("f", (v, w)), App("f", (w, v))),
                     lambda: Equation(App("f", (App("f", (v, v)), v)), App("f", (v, v)))):
            a, b = make(), make()
            assert a == b and a is not b and a.program is not b.program
            assert a.program == b.program
            for algebra in (ComplexAlgebra(four_point_structure),
                            ConvolutionAlgebra(chain_lattice(2), four_point_structure)):
                assert holds_in(algebra, a) == holds_in(algebra, b)


class TestNaturality:
    def test_disjoint_union_and_relabelling(self):
        assert naturality_mismatches(8) == (930, 0)
