import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from convalg import (
    LatticeMap,
    RelationalStructure,
    Signature,
    StepFunction,
    chain_lattice,
    format_equation,
    interval_structure,
    make_topology,
    open_set_heyting,
    random_equations,
    random_step,
    t2_constants,
    t2_neg,
)
from convalg.formats import (
    MAX_TERM_DEPTH,
    ParseError,
    format_element,
    format_map,
    format_step_function,
    parse_equation,
    parse_equations,
    parse_lattice_map,
    parse_step_function,
    parse_structure,
    parse_subset,
    parse_topology,
)
from convalg.terms import App, Equation, Var
from helpers import count_fraction_calls

WEDGE_TOPOLOGY = """\
# three points, three generators
points: a b c
open: b
open: a b
open: b c
"""

FOUR_POINT_STRUCTURE = """\
carrier: x1 x2 x3 x4
relation f arity 2
x1 x1 x1
x2 x2 x3
x1 x3 x4
x3 x2 x4
"""

# Point, carrier and symbol names: any whitespace-free token without `#`.
LABELS = ("a", "x1", "t_2", "p-3", "ω")


@st.composite
def topology_texts(draw):
    """A topology on at most 5 points and a file listing every open, in any order."""
    points = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=5, unique=True))
    topo = make_topology(points, draw(st.lists(st.frozensets(st.sampled_from(points)), max_size=4)))
    opens = draw(st.permutations(sorted(topo.opens, key=sorted)))
    lines = ["# generated", "points: " + " ".join(draw(st.permutations(points)))]
    lines += ["open: " + " ".join(sorted(o)) for o in opens]
    return topo, "\n".join(lines) + "\n"


@st.composite
def structure_texts(draw):
    """A structure with up to three relations of arity at most 2, and its file."""
    carrier = tuple(draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=4, unique=True)))
    names = draw(st.lists(st.sampled_from(("f", "g", "rel_2", "ψ")), max_size=3, unique=True))
    symbols = tuple((name, draw(st.integers(min_value=0, max_value=2))) for name in names)
    relations = {
        name: draw(st.frozensets(st.tuples(*[st.sampled_from(carrier)] * (n + 1)), max_size=6))
        for name, n in symbols
    }
    lines = ["carrier: " + " ".join(carrier)]
    for name, n in symbols:
        lines.append(f"relation {name} arity {n}")
        lines += [" ".join(t) for t in draw(st.permutations(sorted(relations[name])))]
    return RelationalStructure(carrier, Signature(symbols), relations), "\n".join(lines) + "\n"


class TestTopologyFormat:
    def test_round_trip(self, wedge_topology):
        assert parse_topology(WEDGE_TOPOLOGY) == wedge_topology

    @given(topology_texts())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_generated(self, case):
        topo, text = case
        assert parse_topology(text) == topo

    def test_closure_applied(self):
        t = parse_topology("points: a b\nopen: a\nopen: b\n")
        assert len(t.opens) == 4

    def test_empty_open_line_is_empty_generator(self):
        t = parse_topology("points: a\nopen:\n")
        assert t.opens == {frozenset(), frozenset({"a"})}

    def test_unknown_point_names_line(self):
        with pytest.raises(ParseError) as err:
            parse_topology("points: a\nopen: z\n", path="topo.txt")
        assert "topo.txt:2" in str(err.value)

    def test_missing_points_line(self):
        with pytest.raises(ParseError):
            parse_topology("open: a\n")

    def test_repeated_point_names_line(self):
        with pytest.raises(ParseError, match=r"^topo.txt:2: duplicate points \['a'\]$"):
            parse_topology("# base\npoints: a a b\nopen: a\n", path="topo.txt")


class TestStructureFormat:
    def test_round_trip(self, four_point_structure):
        assert parse_structure(FOUR_POINT_STRUCTURE) == four_point_structure

    @given(structure_texts())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_generated(self, case):
        structure, text = case
        assert parse_structure(text) == structure

    def test_tuple_length_checked(self):
        bad = "carrier: a b\nrelation f arity 2\na b\n"
        with pytest.raises(ParseError) as err:
            parse_structure(bad, path="s.txt")
        assert "s.txt:3" in str(err.value)

    def test_unknown_element_checked(self):
        bad = "carrier: a b\nrelation f arity 1\na z\n"
        with pytest.raises(ParseError):
            parse_structure(bad)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_structure("carrier: a\nrelation f 2\n")

    def test_element_that_starts_with_relation(self):
        text = "carrier: relationA b\nrelation f arity 1\nrelationA b\n"
        assert parse_structure(text).relations["f"] == {("relationA", "b")}

    def test_repeated_carrier_element_names_line(self):
        text = "\ncarrier: x y x y z\nrelation f arity 1\nx y\n"
        with pytest.raises(ParseError, match=r"^s.txt:2: duplicate carrier elements \['x', 'y'\]$"):
            parse_structure(text, path="s.txt")


class TestMapFormat:
    def test_open_set_values(self, wedge_lattice):
        text = "p -> {a b}\nq -> {}\n"
        m = parse_lattice_map(text, ("p", "q"), wedge_lattice)
        assert m.values == {"p": frozenset({"a", "b"}), "q": frozenset()}
        assert format_map(m) == "p -> {a b}\nq -> {}"

    def test_chain_values(self):
        lat = chain_lattice(4)
        m = parse_lattice_map("x -> 3/4\ny -> 1\n", ("x", "y"), lat)
        assert m.values == {"x": F(3, 4), "y": F(1)}

    def test_missing_entry(self, wedge_lattice):
        with pytest.raises(ParseError):
            parse_lattice_map("p -> {}\n", ("p", "q"), wedge_lattice)

    def test_value_not_in_lattice(self, wedge_lattice):
        with pytest.raises(ParseError) as err:
            parse_lattice_map("p -> {a}\n", ("p",), wedge_lattice, path="m.txt")
        assert "m.txt:1" in str(err.value)

    def test_subset_literals(self):
        assert parse_subset("{x1 x3}") == frozenset({"x1", "x3"})
        assert parse_subset("{}") == frozenset()
        assert format_element(frozenset({"x3", "x1"})) == "{x1 x3}"
        with pytest.raises(ParseError):
            parse_subset("x1 x3")


@st.composite
def canonical_step_functions(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    f = random_step(rng, max_denominator=draw(st.integers(min_value=2, max_value=30)))
    if draw(st.booleans()):
        return f
    # the same breakpoints with every value zero: canonical form is the zero function
    pieces = len(f.breakpoints)
    return StepFunction(f.breakpoints, [F(0)] * pieces, [F(0)] * (pieces - 1))


class TestStepFunctionFormat:
    @given(canonical_step_functions())
    @settings(max_examples=150, deadline=None)
    def test_round_trip(self, f):
        assert StepFunction(f.breakpoints, f.point_values, f.interval_values) == f
        assert parse_step_function(format_step_function(f)) == f

    def test_pieces_with_defaults(self):
        f = parse_step_function("point 1/3 -> 1\ninterval (1/3,2/3) -> 1/2\n")
        assert f(F(1, 3)) == 1
        assert f(F(1, 2)) == F(1, 2)
        assert f(F(5, 6)) == 0
        assert f(0) == 0

    def test_constants_round_trip(self):
        z, o = t2_constants()
        assert parse_step_function(format_step_function(z)) == z
        assert parse_step_function(format_step_function(o)) == o

    def test_spanning_interval_splits(self):
        f = parse_step_function("interval (0,2/3) -> 1/2\npoint 1/3 -> 1\n")
        assert f(F(1, 6)) == F(1, 2)
        assert f(F(1, 3)) == 1
        assert f(F(1, 2)) == F(1, 2)

    def test_breakpoint_inside_a_declared_interval_takes_its_value(self):
        # the second line adds the breakpoint 1/2 strictly inside (0,1), with no point line
        f = parse_step_function("interval (0,1) -> 1/2\ninterval (1/2,1) -> 1/2\n")
        assert f(F(1, 2)) == F(1, 2)
        assert f == parse_step_function("interval (0,1) -> 1/2\n")
        assert format_step_function(t2_neg(f)) == "interval (0,1) -> 1/2"
        # an end of every interval around it keeps the default 0
        g = parse_step_function("interval (0,1/2) -> 1/2\ninterval (1/2,1) -> 1/2\n")
        assert (g(F(1, 4)), g(F(1, 2)), g(F(3, 4))) == (F(1, 2), 0, F(1, 2))

    def test_parsing_compares_and_hashes_no_fractions(self, monkeypatch):
        # a 43-line file like the cli benchmark's 26-piece ones: where the parser compared
        # and hashed its Fractions, this one made 267 ordering comparisons, 88 __eq__ and
        # 195 __hash__ calls
        rng = random.Random(7)
        bps = [0, *sorted({F(rng.randint(1, 59), 60) for _ in range(26)}), 1]
        value = lambda: F(rng.randint(0, 12), 12)  # noqa: E731
        lines = [f"point {b} -> {value()}" for b in bps]
        lines += [f"interval ({a},{b}) -> {value()}" for a, b in zip(bps, bps[1:])]
        calls = count_fraction_calls(monkeypatch)
        f = parse_step_function("\n".join(lines))
        assert calls == Counter()
        assert f.bps[0] == 0 and len(f.bps) > 20

    def test_conflicting_intervals(self):
        text = "interval (0,1) -> 1/2\ninterval (0,1/2) -> 1/3\n"
        with pytest.raises(ParseError):
            parse_step_function(text)

    def test_first_conflict_reported_at_lowest_covering_line(self):
        text = "interval (1/2,1) -> 1/3\ninterval (0,1/4) -> 1\ninterval (0,1) -> 1/2\n"
        with pytest.raises(ParseError) as info:
            parse_step_function(text, path="f.txt")
        assert str(info.value) == "f.txt:2: conflicting values on (0,1/4)"

    def test_bad_interval_spec(self):
        with pytest.raises(ParseError):
            parse_step_function("interval 0,1 -> 1/2\n")
        with pytest.raises(ParseError):
            parse_step_function("point 3/2 -> 1\n")


class TestEquationFormat:
    def test_parse_commutativity(self, four_point_structure):
        eq = parse_equation("(f v w) = (f w v)", four_point_structure.signature)
        assert eq == Equation(
            App("f", (Var("v"), Var("w"))), App("f", (Var("w"), Var("v")))
        )

    def test_nullary_symbols(self):
        sig = interval_structure(1).signature
        eq = parse_equation("(neg (zero)) = (one)", sig)
        assert eq == Equation(App("neg", (App("zero", ()),)), App("one", ()))
        bare = parse_equation("(join v zero) = v", sig)
        assert bare == Equation(App("join", (Var("v"), App("zero", ()))), Var("v"))

    def test_applied_variable_rejected(self, four_point_structure):
        with pytest.raises(ParseError):
            parse_equation("(g v w) = v", four_point_structure.signature)

    def test_arity_respected(self, four_point_structure):
        with pytest.raises(ParseError):
            parse_equation("(f v) = v", four_point_structure.signature)

    def test_nesting_depth_bounded(self, four_point_structure):
        sig = four_point_structure.signature

        def nested(depth):
            return "(f " * depth + "v" + " w)" * depth + " = v"

        eq = parse_equation(nested(MAX_TERM_DEPTH), sig)
        assert eq.rhs == Var("v")
        with pytest.raises(ParseError, match="^eqs.txt:7: term nested deeper"):
            parse_equation(nested(MAX_TERM_DEPTH + 1), sig, 7, "eqs.txt")

    def test_equations_file_with_comments(self, four_point_structure):
        text = "# suite\n(f v w) = (f w v)\n(f v v) = v\n"
        eqs = parse_equations(text, four_point_structure.signature)
        assert len(eqs) == 2


class TestElementFormatting:
    def test_frozenset_sorted(self):
        assert format_element(frozenset({"b", "a"})) == "{a b}"

    def test_fraction_plain(self):
        assert format_element(F(3, 4)) == "3/4"
        assert format_element(F(0)) == "0"


# point and carrier labels: any token free of whitespace, braces, `#` and `->`
NAMES = st.text("abxyz01_.", min_size=1, max_size=5)


@st.composite
def lattice_maps(draw):
    """A map over a chain or a small open-set lattice, on distinct named points."""
    if draw(st.booleans()):
        lattice = chain_lattice(draw(st.integers(min_value=1, max_value=8)))
    else:
        gens = draw(st.lists(st.frozensets(st.sampled_from("abcd")), max_size=4))
        lattice = open_set_heyting(make_topology("abcd", gens))
    carrier = tuple(draw(st.lists(NAMES, unique=True, max_size=5)))
    codes = draw(
        st.lists(
            st.integers(min_value=0, max_value=len(lattice.elements) - 1),
            min_size=len(carrier),
            max_size=len(carrier),
        )
    )
    return LatticeMap(carrier, lattice, tuple(codes))


@st.composite
def signatures(draw):
    suffixes = draw(st.lists(NAMES, unique=True, min_size=1, max_size=4))
    names = [f"op{s}" for s in suffixes]
    return Signature(tuple((n, draw(st.integers(min_value=0, max_value=3))) for n in names))


class TestRoundTrips:
    @given(lattice_maps())
    @settings(max_examples=150, deadline=None)
    def test_map(self, m):
        assert parse_lattice_map(format_map(m), m.carrier, m.lattice) == m

    @given(st.frozensets(NAMES, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_subset(self, s):
        assert parse_subset(format_element(s)) == s

    @given(signatures(), st.integers(min_value=0, max_value=10**6), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_random_equations(self, signature, seed, depth):
        for eq in random_equations(signature, 5, seed=seed, max_depth=depth):
            assert parse_equation(format_equation(eq), signature) == eq
