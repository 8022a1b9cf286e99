"""The position-coded convolution and relational image against literal references.

``literal_conv`` and ``literal_image`` restate the definitions directly
over lattice elements and relation tuples: a join over the tuples ending
at x of the meets of the argument values, and the last coordinates of
the tuples whose entries lie in the argument subsets. They share no code
with the compiled relations or the meet and join tables.
``literal_grid_conv`` restates the type-2 grid convolution the same way:
for each output point, a supremum over every argument tuple related to
it. It is the reference of ``grid_conv_oracle``, which makes one pass
over the argument pairs on int value numerators.
The ``literal_pointwise_*`` functions apply the lattice's own ``join``,
``meet``, ``impl`` and ``neg`` value by value; they are the references of
the code-space pointwise operations, which read position tables.
``literal_check_heyting_laws`` is the law checker as it was written
before it read masks: every quantifier a loop over elements, every
question a fresh ``leq``, ``meet`` or ``impl`` call. The mask checker
must return the same report, failure detail and check count included.
``literal_fiberwise_rel_image`` and ``literal_per_fiber_rel_image`` are
the two étale image routes as they were written over frozensets, before
subobjects stored masks; they take and return section dicts (fiber label
to open set), and the per-fiber one reads ``literal_image``.
``literal_holds`` decides an equation over L^X by brute force: every
assignment from ``enumerate_maps``, both sides by ``eval_term``. It is the
reference of ``holds_in``, which decides equations over a distributive
lattice of more than two elements in the two-valued algebra;
``fiber_positions`` reads a map's fibers over the join-irreducibles, by
which the per-entry tables must reduce to the two-valued ones.
``literal_make_topology``, ``literal_validate``, ``literal_impl`` and
``literal_enumerate_topologies`` are the finite-topology scans as they
were written before ``FiniteTopology.least_opens``: a fixpoint of
pairwise unions and intersections, |opens|² of them per validation, a
scan of every open per implication, and a validation of every family
of proper nonempty subsets.
"""

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from convalg import (
    App,
    ComplexAlgebra,
    ConstantRelationalEtale,
    ConvolutionAlgebra,
    Equation,
    FiniteLattice,
    FiniteTopology,
    GridFunction,
    LatticeMap,
    RelationalStructure,
    Signature,
    Var,
    all_subsets,
    chain_lattice,
    conv_op,
    enumerate_maps,
    enumerate_topologies,
    eval_term,
    fiberwise_rel_image,
    format_equation,
    grid_conv_oracle,
    holds_in,
    make_topology,
    open_set_heyting,
    per_fiber_rel_image,
    phi,
    pointwise_impl,
    pointwise_join,
    pointwise_meet,
    pointwise_neg,
    random_equations,
    random_map,
    rel_image,
)
from convalg.convolution import count_maps
from convalg.lattice import (
    MAX_LAW_CHECKS,
    MAX_OPENS,
    CapacityError,
    ChainLattice,
    LawFailure,
    LawReport,
    OpenSetLattice,
    _bounded,
    check_heyting_laws,
    law_check_count,
)

SIG = Signature((("c", 0), ("g", 1), ("f", 2), ("h", 3)))


def literal_conv(lattice, structure, name, args):
    n = structure.signature.arity(name)
    values = {}
    for x in structure.carrier:
        meets = [
            lattice.meet_all([args[i].values[t[i]] for i in range(n)])
            for t in structure.relations[name]
            if t[-1] == x
        ]
        values[x] = lattice.join_all(meets)
    return values


def literal_image(structure, name, args):
    n = structure.signature.arity(name)
    return frozenset(
        t[-1] for t in structure.relations[name] if all(t[i] in args[i] for i in range(n))
    )


def random_structure(rng, size):
    carrier = tuple(f"x{i}" for i in range(size))
    relations = {}
    for name, arity in SIG.symbols:
        space = list(product(carrier, repeat=arity + 1))
        relations[name] = rng.sample(space, rng.randint(0, len(space)))
    return RelationalStructure(carrier, SIG, relations)


def n5():
    """The non-distributive pentagon 0 < a < b < 1, 0 < c < 1."""
    els = ("0", "a", "b", "c", "1")
    below = {("0", x) for x in els} | {(x, "1") for x in els} | {("a", "b")}
    return FiniteLattice(els, lambda a, b: a == b or (a, b) in below)


def lattices():
    out = [open_set_heyting(t) for k in range(4) for t in enumerate_topologies(range(k))]
    out += [chain_lattice(n) for n in range(1, 5)]
    out.append(n5())
    return out


LATTICES = lattices()
DISCRETE_3 = max(LATTICES, key=lambda lat: len(lat.elements))


@pytest.mark.parametrize("lattice", LATTICES, ids=repr)
def test_conv_op_matches_literal_convolution(lattice):
    rng = random.Random(len(lattice.elements))
    for size in (1, 2, 3):
        s = random_structure(rng, size)
        for name, arity in SIG.symbols:
            for _ in range(6):
                args = [random_map(rng, lattice, s.carrier) for _ in range(arity)]
                result = conv_op(lattice, s, name, args)
                assert result.values == literal_conv(lattice, s, name, args)
                # canonical elements, and codes that name them
                assert result.codes == tuple(lattice.index[result.values[x]] for x in s.carrier)
                for x, code in zip(s.carrier, result.codes):
                    assert result.values[x] is lattice.elements[code]


def test_conv_op_exhaustive_on_small_instances(wedge_lattice):
    # arities 0 to 2: the general fold and the binary pair loop, on chains,
    # the wedge's open sets and both non-distributive five-element lattices
    rng = random.Random(5)
    for lattice in (chain_lattice(1), chain_lattice(2), n5(), m3(), wedge_lattice):
        s = random_structure(rng, 2)
        maps = list(enumerate_maps(lattice, s.carrier))
        for name, arity in SIG.symbols[:3]:
            for args in product(maps, repeat=arity):
                assert conv_op(lattice, s, name, list(args)).values == literal_conv(
                    lattice, s, name, args
                )


def test_rel_image_matches_literal_image():
    rng = random.Random(9)
    for size in range(4):
        for _ in range(4):
            s = random_structure(rng, size)
            subsets = all_subsets(s.carrier)
            for name, arity in SIG.symbols:
                if arity <= 2:
                    tuples = product(subsets, repeat=arity)
                else:
                    tuples = [[rng.choice(subsets) for _ in range(3)] for _ in range(40)]
                for args in tuples:
                    assert rel_image(s, name, list(args)) == literal_image(s, name, args)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 6), st.integers(0, 2**32 - 1))
def test_rel_image_matches_literal_image_on_wider_carriers(size, seed):
    # up to 18 argument slots, so the slot masks span several carrier widths
    rng = random.Random(seed)
    s = random_structure(rng, size)
    for name, arity in SIG.symbols:
        for _ in range(8):
            args = [frozenset(x for x in s.carrier if rng.random() < 0.6) for _ in range(arity)]
            assert rel_image(s, name, args) == literal_image(s, name, args)


def literal_fiberwise_rel_image(rel_etale, name, args):
    n = rel_etale.structure.signature.arity(name)
    fibers, full = tuple(rel_etale.structure.carrier), rel_etale.base.points
    sections = {}
    for x in fibers:
        out = frozenset()
        for t in rel_etale.structure.relations[name]:
            if t[-1] != x:
                continue
            piece = full
            for i in range(n):
                piece = piece & args[i][t[i]]
                if not piece:
                    break
            out = out | piece
        sections[x] = out
    return sections


def literal_per_fiber_rel_image(rel_etale, name, args):
    fibers = tuple(rel_etale.structure.carrier)
    hit = {x: set() for x in fibers}
    for y in sorted(rel_etale.base.points):
        fiber_args = [frozenset(x for x in fibers if y in a[x]) for a in args]
        for x in literal_image(rel_etale.structure, name, fiber_args):
            hit[x].add(y)
    return {x: frozenset(ys) for x, ys in hit.items()}


def assert_etale_routes_agree(lattice, structure, name, args):
    """Mask routes, frozenset oracles and the convolution give one section dict."""
    rel_etale = ConstantRelationalEtale(structure, lattice.topology)
    want = literal_conv(lattice, structure, name, args)
    sections = [a.values for a in args]
    subs = [phi(lattice, a) for a in args]
    assert [sub.sections for sub in subs] == sections
    sect = fiberwise_rel_image(rel_etale, name, subs)
    fiber = per_fiber_rel_image(rel_etale, name, subs)
    conv = phi(lattice, conv_op(lattice, structure, name, args))
    assert sect.sections == fiber.sections == conv.sections == want
    assert literal_fiberwise_rel_image(rel_etale, name, sections) == want
    assert literal_per_fiber_rel_image(rel_etale, name, sections) == want
    assert sect == fiber == conv


def etale_structures(rng):
    """Carriers of 1-3 elements with random relations of arities 0-3, and
    the same carriers with every relation empty."""
    out = [random_structure(rng, size) for size in (1, 2, 3)]
    for size in (1, 2, 3):
        carrier = tuple(f"x{i}" for i in range(size))
        out.append(RelationalStructure(carrier, SIG, {name: () for name in SIG.names}))
    return out


SMALL_TOPOLOGIES = [t for k in range(4) for t in enumerate_topologies([f"y{i}" for i in range(k)])]


@pytest.mark.parametrize(
    "topology", SMALL_TOPOLOGIES, ids=lambda t: f"{len(t.points)}pt-{len(t.opens)}opens"
)
def test_etale_routes_match_literal_oracles(topology):
    lattice = open_set_heyting(topology)
    rng = random.Random(len(topology.opens))
    for s in etale_structures(rng):
        extremes = [
            [LatticeMap(s.carrier, lattice, (code,) * len(s.carrier))] * 3
            for code in (lattice.bottom_code, lattice.top_code)
        ]
        for name, arity in SIG.symbols:
            for args in extremes + [
                [random_map(rng, lattice, s.carrier) for _ in range(3)] for _ in range(10)
            ]:
                assert_etale_routes_agree(lattice, s, name, args[:arity])


@st.composite
def larger_topologies(draw):
    """Topologies on 5-6 points, closed by make_topology from random
    generators (enumerate_topologies stops at 4 points)."""
    points = tuple(f"y{i}" for i in range(draw(st.integers(5, 6))))
    generators = draw(st.lists(st.frozensets(st.sampled_from(points)), min_size=2, max_size=7))
    return make_topology(points, generators)


@settings(max_examples=40, deadline=None)
@given(larger_topologies(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_etale_routes_match_literal_oracles_on_larger_topologies(topology, size, seed):
    lattice = open_set_heyting(topology)
    rng = random.Random(seed)
    s = random_structure(rng, size)
    for name, arity in SIG.symbols:
        for _ in range(6):
            args = [random_map(rng, lattice, s.carrier) for _ in range(arity)]
            assert_etale_routes_agree(lattice, s, name, args)


def assert_stalks_transpose_sections(lattice, maps):
    """``stalks[y]`` has bit i set exactly when the y-th sorted base point lies
    in the section over the i-th fiber label."""
    for alpha in maps:
        sub = phi(lattice, alpha)
        sections = sub.sections
        literal = tuple(
            sum(1 << i for i, x in enumerate(sub.parent.fibers) if y in sections[x])
            for y in sorted(lattice.topology.points)
        )
        assert sub.stalks == literal


@pytest.mark.parametrize(
    "topology", SMALL_TOPOLOGIES, ids=lambda t: f"{len(t.points)}pt-{len(t.opens)}opens"
)
def test_stalks_match_literal_transposition(topology):
    lattice = open_set_heyting(topology)
    for size in (0, 1, 2):
        carrier = tuple(f"x{i}" for i in range(size))
        assert_stalks_transpose_sections(lattice, enumerate_maps(lattice, carrier))


@settings(max_examples=40, deadline=None)
@given(larger_topologies(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_stalks_match_literal_transposition_on_larger_topologies(topology, size, seed):
    lattice = open_set_heyting(topology)
    rng = random.Random(seed)
    carrier = tuple(f"x{i}" for i in range(size))
    assert_stalks_transpose_sections(lattice, [random_map(rng, lattice, carrier) for _ in range(8)])


@pytest.mark.parametrize("lattice", [chain_lattice(1), chain_lattice(3), n5(), DISCRETE_3], ids=repr)
def test_keys_are_positions_in_enumeration_order(lattice):
    carrier = ("p", "q", "r")
    maps = list(enumerate_maps(lattice, carrier))
    keys = [m.codes for m in maps]
    assert len(set(keys)) == len(maps)
    assert keys == list(product(range(len(lattice.elements)), repeat=len(carrier)))
    values = [tuple(m.values[x] for x in carrier) for m in maps]
    assert values == list(product(lattice.elements, repeat=len(carrier)))


@pytest.mark.parametrize("lattice", LATTICES, ids=repr)
def test_enumeration_order_and_count(lattice):
    for carrier in ((), ("p",), ("p", "q")):
        maps = list(enumerate_maps(lattice, carrier))
        assert len(maps) == count_maps(lattice, carrier) == len(lattice.elements) ** len(carrier)
        assert [tuple(m.values.values()) for m in maps] == list(
            product(lattice.elements, repeat=len(carrier))
        )


def literal_pointwise_join(a, b):
    lat = a.lattice
    return LatticeMap.from_values(
        a.carrier, lat, {x: lat.join(a.values[x], b.values[x]) for x in a.carrier}
    )


def literal_pointwise_meet(a, b):
    lat = a.lattice
    return LatticeMap.from_values(
        a.carrier, lat, {x: lat.meet(a.values[x], b.values[x]) for x in a.carrier}
    )


def literal_pointwise_impl(a, b):
    lat = a.lattice
    return LatticeMap.from_values(
        a.carrier, lat, {x: lat.impl(a.values[x], b.values[x]) for x in a.carrier}
    )


def literal_pointwise_neg(a):
    lat = a.lattice
    return LatticeMap.from_values(a.carrier, lat, {x: lat.neg(a.values[x]) for x in a.carrier})


HEYTING = [open_set_heyting(t) for k in range(4) for t in enumerate_topologies(range(k))]
HEYTING += [chain_lattice(n) for n in range(1, 5)]


@pytest.mark.parametrize("lattice", HEYTING, ids=repr)
def test_pointwise_ops_match_literal_references(lattice):
    maps = list(enumerate_maps(lattice, ("p", "q")))
    for a in maps:
        assert pointwise_neg(a) == literal_pointwise_neg(a)
        for b in maps:
            assert pointwise_join(a, b) == literal_pointwise_join(a, b)
            assert pointwise_meet(a, b) == literal_pointwise_meet(a, b)
            assert pointwise_impl(a, b) == literal_pointwise_impl(a, b)


def test_key_of_constructed_map_matches_enumerated_map():
    lattice = n5()
    built = LatticeMap.from_values(("p", "q"), lattice, {"p": "b", "q": "c"})
    enumerated = [m for m in enumerate_maps(lattice, ("p", "q")) if m.codes == built.codes]
    assert enumerated == [built]


def count_applies(algebra, equation):
    calls = []
    apply = algebra.apply

    def counting(name, args):
        calls.append(name)
        return apply(name, args)

    algebra.apply = counting
    holds_in(algebra, equation)
    return len(calls)


def test_table_scan_makes_one_apply_per_entry():
    """Mirror of the benchmark self-test: on the 4-element algebras a
    commutativity check tabulates f with exactly 16 apply calls."""
    s = RelationalStructure(
        ("p", "q"), Signature((("f", 2),)), {"f": {("p", "q", "q"), ("q", "q", "p")}}
    )
    v, w = Var("v"), Var("w")
    eq = Equation(App("f", (v, w)), App("f", (w, v)))
    for algebra in (ConvolutionAlgebra(chain_lattice(1), s), ComplexAlgebra(s)):
        assert len(algebra.elements()) == 4
        assert count_applies(algebra, eq) == 16


def literal_grid_conv(n, op, *args):
    """For each output x, the max over all argument tuples related to x."""
    values = []
    if op == "neg":
        (a,) = args
        for x in range(n + 1):
            candidates = [a.values[y] for y in range(n + 1) if n - y == x]
            values.append(max(candidates, default=Fraction(0)))
        return GridFunction(n, tuple(values))
    a, b = args
    combine = max if op == "join" else min
    for x in range(n + 1):
        candidates = [
            min(a.values[y], b.values[z])
            for y in range(n + 1)
            for z in range(n + 1)
            if combine(y, z) == x
        ]
        values.append(max(candidates, default=Fraction(0)))
    return GridFunction(n, tuple(values))


def random_grid_function(rng, n):
    """Values drawn from thirds, so repeats are common; one in five is all zero."""
    if rng.randrange(5) == 0:
        return GridFunction(n, (Fraction(0),) * (n + 1))
    return GridFunction(n, tuple(Fraction(rng.randint(0, 3), 3) for _ in range(n + 1)))


# Mixed denominators, with int 0 and 1 beside Fraction(0) and Fraction(1).
MIXED = [0, 1, *(Fraction(k, d) for d in (3, 12, 60) for k in range(d + 1))]
SIXTIETHS = [Fraction(k, 60) for k in range(61)]
# Value pools for the two arguments, each pair also tried swapped: shared
# mixed values; disjoint value sets, every value of one argument below every
# value of the other; and disjoint value sets that interleave.
VALUE_POOLS = [
    (MIXED, MIXED),
    (SIXTIETHS[:30], SIXTIETHS[30:]),
    (SIXTIETHS[::2], SIXTIETHS[1::2]),
]


@pytest.mark.parametrize("n", [*range(1, 13), 16, 32, 48])
def test_grid_conv_oracle_matches_literal_scan(n):
    rng = random.Random(100 + n)
    pairs = [
        (random_grid_function(rng, n), random_grid_function(rng, n))
        for _ in range(15 if n <= 12 else 3)
    ]
    for pool_a, pool_b in VALUE_POOLS:
        a = GridFunction(n, tuple(rng.choice(pool_a) for _ in range(n + 1)))
        b = GridFunction(n, tuple(rng.choice(pool_b) for _ in range(n + 1)))
        pairs += [(a, b), (b, a)]
    for a, b in pairs:
        for op in ("join", "meet"):
            assert grid_conv_oracle(n, op, a, b) == literal_grid_conv(n, op, a, b)
        assert grid_conv_oracle(n, "neg", a) == literal_grid_conv(n, "neg", a)
    zero = GridFunction(n, (Fraction(0),) * (n + 1))
    for op in ("join", "meet"):
        assert grid_conv_oracle(n, op, zero, zero) == literal_grid_conv(n, op, zero, zero) == zero


def literal_check_heyting_laws(lat, max_subset_size=2):
    """Exhaustively verify the lattice, distributivity and adjunction laws.

    Subset-quantified laws (least upper bounds, greatest lower bounds,
    the infinite distributive law) are checked over all subsets of size
    up to ``max_subset_size`` plus the full element set; order, bound,
    and adjunction checks are exhaustive over elements. Returns a report
    carrying the first counterexample instead of raising. Raises
    CapacityError before checking anything when the planned check count
    exceeds ``MAX_LAW_CHECKS``.
    """
    if max_subset_size < 0:
        raise ValueError(f"max_subset_size must be nonnegative, got {max_subset_size}")
    els = lat.elements
    planned = law_check_count(len(els), max_subset_size)
    if planned > MAX_LAW_CHECKS:
        raise CapacityError(f"{planned} law checks exceed the bound {MAX_LAW_CHECKS}")
    checks = 0

    def fail(law, detail):
        return LawReport(False, checks, LawFailure(law, detail))

    for a in els:
        checks += 1
        if not lat.leq(a, a):
            return fail("order", f"not reflexive at {a!r}")
    for a, b in product(els, repeat=2):
        checks += 1
        if a != b and lat.leq(a, b) and lat.leq(b, a):
            return fail("order", f"not antisymmetric at {a!r}, {b!r}")
    for a, b, c in product(els, repeat=3):
        checks += 1
        if lat.leq(a, b) and lat.leq(b, c) and not lat.leq(a, c):
            return fail("order", f"not transitive at {a!r}, {b!r}, {c!r}")

    for a in els:
        checks += 1
        if not lat.leq(lat.bottom, a) or not lat.leq(a, lat.top):
            return fail("bounds", f"{a!r} not between bottom and top")
    checks += 2
    if lat.join_all(()) != lat.bottom:
        return fail("bounds", "empty join is not bottom")
    if lat.meet_all(()) != lat.top:
        return fail("bounds", "empty meet is not top")

    subsets = []
    for size in range(1, max_subset_size + 1):
        subsets.extend(combinations(els, size))
    subsets.append(els)

    for s in subsets:
        j = lat.join_all(s)
        m = lat.meet_all(s)
        checks += 1
        if not all(lat.leq(x, j) for x in s):
            return fail("lub", f"join of {s!r} is not an upper bound")
        for u in els:
            checks += 1
            if all(lat.leq(x, u) for x in s) and not lat.leq(j, u):
                return fail("lub", f"join of {s!r} is not least (witness {u!r})")
        checks += 1
        if not all(lat.leq(m, x) for x in s):
            return fail("glb", f"meet of {s!r} is not a lower bound")
        for u in els:
            checks += 1
            if all(lat.leq(u, x) for x in s) and not lat.leq(u, m):
                return fail("glb", f"meet of {s!r} is not greatest (witness {u!r})")

    for a, s in product(els, subsets):
        checks += 1
        lhs = lat.meet(a, lat.join_all(s))
        rhs = lat.join_all([lat.meet(a, x) for x in s])
        if lhs != rhs:
            return fail("distributivity", f"{a!r} meet join{s!r}: {lhs!r} != {rhs!r}")

    for a, b in product(els, repeat=2):
        c = lat.impl(a, b)
        checks += 1
        if c not in lat.index:
            return fail("adjunction", f"impl({a!r}, {b!r}) left the lattice")
        for w in els:
            checks += 1
            if lat.leq(lat.meet(w, a), b) != lat.leq(w, c):
                return fail("adjunction", f"w={w!r}, a={a!r}, b={b!r}, impl={c!r}")

    return LawReport(True, checks, None)


def law_outcome(checker, lat, size):
    """The report, or the type and message of what the checker raised."""
    try:
        return checker(lat, max_subset_size=size)
    except (ValueError, CapacityError) as e:
        return type(e), str(e)


def assert_same_laws(lat):
    # at the lattice's own size the full set is checked twice: as a subset of that
    # size and as the full set every check appends
    for size in (*range(4), len(lat.elements)):
        expected = law_outcome(literal_check_heyting_laws, lat, size)
        assert law_outcome(check_heyting_laws, lat, size) == expected


def m3():
    """The non-distributive diamond 0 < p, q, r < 1."""
    els = ("0", "p", "q", "r", "1")
    below = {("0", x) for x in els} | {(x, "1") for x in els}
    return FiniteLattice(els, lambda a, b: a == b or (a, b) in below)


LAW_LATTICES = [open_set_heyting(t) for k in range(4) for t in enumerate_topologies(range(k))]
LAW_LATTICES += [chain_lattice(n) for n in range(1, 14)] + [m3(), n5()]


@pytest.mark.parametrize("lattice", LAW_LATTICES, ids=repr)
def test_law_checker_matches_literal_checker(lattice):
    assert_same_laws(lattice)


def chain_order(below=(), drop=()):
    """The chain 0 < 1 < 2 < 3 < 4 as an explicit relation, edited by pairs."""
    rel = ({(a, b) for a in range(5) for b in range(5) if a <= b} | set(below)) - set(drop)
    return FiniteLattice(range(5), lambda a, b: (a, b) in rel)


class BrokenChain(FiniteLattice):
    """The chain 0 < 1 < 2 < 3 < 4 with one operation answering wrongly.

    ``wrong`` names the operation, ``at`` the arguments (a tuple for
    ``join_all``/``meet_all``, a pair for ``meet``/``impl``), ``value``
    the answer given there. Values outside the chain are allowed.
    """

    def __init__(self, wrong, at, value):
        self.wrong, self.at, self.value = wrong, at, value
        super().__init__(range(5), lambda a, b: a <= b)

    def _answer(self, op, args, right):
        return self.value if (op, tuple(args)) == (self.wrong, self.at) else right

    def join_all(self, items):
        items = tuple(items)
        return self._answer("join_all", items, max(items, default=0))

    def meet_all(self, items):
        items = tuple(items)
        return self._answer("meet_all", items, min(items, default=4))

    def meet(self, a, b):
        return self._answer("meet", (a, b), min(a, b))

    def impl(self, a, b):
        return self._answer("impl", (a, b), 4 if a <= b else b)


class FloorChain(BrokenChain):
    """A BrokenChain ordered by floors, so a wrong answer between an element
    and the next passes as that element: a join outside the chain can pass
    the least-upper-bound laws and reach the distributive law."""

    def leq(self, a, b):
        return a // 1 <= b // 1


def shifted_bounds(bottom, top):
    lat = FiniteLattice(range(1, 4), lambda a, b: a <= b)
    lat.bottom, lat.top = bottom, top
    return lat


BROKEN = {
    "not reflexive": (FiniteLattice(range(4), lambda a, b: a < b or a == b != 2), "order"),
    "not antisymmetric": (chain_order(below={(3, 1)}), "order"),
    "not transitive": (chain_order(drop={(1, 3)}), "order"),
    "a bound": (shifted_bounds(2, 3), "bounds"),
    "empty join": (shifted_bounds(0, 3), "bounds"),
    "empty meet": (shifted_bounds(1, 4), "bounds"),
    "lub not upper": (BrokenChain("join_all", (1, 3), 2), "lub"),
    "lub not least": (BrokenChain("join_all", (0, 2), 3), "lub"),
    "lub outside, not least": (BrokenChain("join_all", (1, 2), Fraction(5, 2)), "lub"),
    "glb not lower": (BrokenChain("meet_all", (1, 3), 2), "glb"),
    "glb not greatest": (BrokenChain("meet_all", (2, 4), 1), "glb"),
    "glb outside, not greatest": (BrokenChain("meet_all", (2, 3), Fraction(3, 2)), "glb"),
    "distributivity": (n5(), "distributivity"),
    "meet outside, distributivity": (BrokenChain("meet", (1, 3), Fraction(1, 2)), "distributivity"),
    "join outside, distributivity": (
        FloorChain("join_all", (1, 2), Fraction(5, 2)), "distributivity"
    ),
    "meet outside, adjunction": (BrokenChain("meet", (3, 2), Fraction(5, 2)), "adjunction"),
    "impl leaves the lattice": (BrokenChain("impl", (3, 1), 7), "adjunction"),
    "adjunction mismatch": (BrokenChain("impl", (3, 1), 2), "adjunction"),
}


class FreshChain(ChainLattice):
    """chain:n whose answers are fresh objects, equal to its elements but none of them."""

    def join_all(self, items):
        return Fraction(super().join_all(items))

    def meet_all(self, items):
        return Fraction(super().meet_all(items))

    def meet(self, a, b):
        return Fraction(super().meet(a, b))

    def impl(self, a, b):
        return Fraction(super().impl(a, b))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_law_checker_matches_literal_checker_on_fresh_answers(n):
    lat = FreshChain(n)
    a = lat.elements[-1]
    assert lat.meet(a, a) == a and lat.meet(a, a) is not a and lat.impl(a, a) is not a
    assert_same_laws(lat)


@pytest.mark.parametrize("name", BROKEN)
def test_law_checker_matches_literal_checker_on_broken_lattices(name):
    lat, law = BROKEN[name]
    assert literal_check_heyting_laws(lat, max_subset_size=3).failure.law == law
    assert_same_laws(lat)


@st.composite
def perturbed_orders(draw):
    """An order on 2-5 points, a chain or a Boolean square under a top,
    with a few pairs added or removed, mostly between inner points, and
    relabelled so the bounds need not come first. Removing a pair at a
    bound can leave no least or greatest element; then nothing is built."""
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        rel = {(a, b) for a in range(n) for b in range(n) if a <= b}
    else:
        rel = {(a, b) for a in range(n) for b in range(n) if a & b == a or b == n - 1}
    rel ^= draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=1))
    if n > 2:
        inner = st.tuples(st.integers(1, n - 2), st.integers(1, n - 2))
        rel ^= draw(st.sets(inner, max_size=4))
    label = draw(st.permutations(range(n)))
    rel = {(label[a], label[b]) for a, b in rel}
    try:
        return FiniteLattice(range(n), lambda a, b: (a, b) in rel)
    except ValueError:  # no least or no greatest element
        return None


@settings(max_examples=300, deadline=None)
@given(perturbed_orders())
def test_law_checker_matches_literal_checker_on_perturbed_orders(lat):
    assume(lat is not None)
    assert_same_laws(lat)


def chain_product(m, n):
    """The product of the chains 0 < ... < m-1 and 0 < ... < n-1, by its order."""
    els = list(product(range(m), range(n)))
    return FiniteLattice(els, lambda a, b: a[0] <= b[0] and a[1] <= b[1])


DISTRIBUTIVE = [open_set_heyting(t) for t in SMALL_TOPOLOGIES]
DISTRIBUTIVE += [chain_lattice(n) for n in range(1, 5)] + [chain_product(2, 2), chain_product(2, 3)]
KERNEL_LATTICES = DISTRIBUTIVE + [n5(), m3()]
# maps per algebra above which a carrier size is left out: a table costs one
# conv_op per entry, (|L|^|X|)^2 of them, and the literal scan one eval_term
# per side for each of the (|L|^|X|)^2 assignments of a two-variable equation
MAX_REFERENCE_MAPS = 125


def fiber_positions(lattice, maps, k):
    """Fiber k of each map, the carrier elements valued above the k-th
    join-irreducible, as a position in the two-valued enumeration."""
    masks = lattice.birkhoff_masks
    return [reduce(lambda acc, c: 2 * acc + (masks[c] >> k & 1), m.codes, 0) for m in maps]


def assert_fiber_maps_carry_tables(lattice, structure):
    """Over a distributive lattice, each fiber map sends every per-entry table
    to the two-valued table: convolution acts fiber by fiber, which is why
    ``holds_in`` may decide equations in the two-valued algebra."""
    conv = ConvolutionAlgebra(lattice, structure)
    distributive = lattice.birkhoff_masks is not None
    assert (conv.two_valued is not None) == (distributive and len(lattice.elements) > 2)
    if not distributive:
        return
    two = ConvolutionAlgebra(chain_lattice(1), structure)
    maps = conv.elements()
    m = len(two.elements())
    for k in range(lattice.birkhoff_masks[lattice.top_code].bit_length()):
        fiber = fiber_positions(lattice, maps, k)
        for name, arity in structure.signature.symbols:
            # an arity-3 table of a 125-map algebra is about 2 million conv_op calls
            if arity > 2:
                continue
            table, fibers = conv.table(name), two.table(name)
            # entry for positions (i1, ..., ik) at i1 n^(k-1) + ... + ik
            lifted = [fibers[reduce(lambda acc, i: acc * m + fiber[i], args, 0)]
                      for args in product(range(len(maps)), repeat=arity)]
            assert [fiber[e] for e in table] == lifted, name


@pytest.mark.parametrize("lattice", KERNEL_LATTICES, ids=repr)
def test_lifted_tables_match_per_entry_tables(lattice):
    """Arities 0-2 on carriers of 1-3 elements, random and all-empty relations;
    N5 and M3 have no fibers and keep the literal scan."""
    rng = random.Random(len(lattice.elements))
    for s in etale_structures(rng):
        if len(lattice.elements) ** len(s.carrier) <= MAX_REFERENCE_MAPS:
            assert_fiber_maps_carry_tables(lattice, s)


@st.composite
def small_topologies(draw):
    """Topologies on 3-4 points, closed by make_topology from random generators."""
    points = range(draw(st.integers(3, 4)))
    opens = st.frozensets(st.sampled_from(points), min_size=1, max_size=len(points) - 1)
    generators = draw(st.lists(opens, min_size=2, max_size=6))
    return make_topology(points, generators)


@settings(max_examples=60, deadline=None)
@given(small_topologies(), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_lifted_tables_match_per_entry_tables_on_random_topologies(topology, size, seed):
    lattice = open_set_heyting(topology)
    assume(len(lattice.elements) ** size <= MAX_REFERENCE_MAPS)
    assert_fiber_maps_carry_tables(lattice, random_structure(random.Random(seed), size))


def literal_holds(algebra, equation):
    """The equation decided over every assignment from ``enumerate_maps``, both
    sides by ``eval_term``; no ``holds_in``, no tables, no two-valued algebra."""
    names = equation.variables()
    maps = list(enumerate_maps(algebra.lattice, algebra.structure.carrier))
    for combo in product(maps, repeat=len(names)):
        env = dict(zip(names, combo))
        if eval_term(algebra, equation.lhs, env) != eval_term(algebra, equation.rhs, env):
            return False
    return True


_c, _v, _w = App("c", ()), Var("v"), Var("w")
SCAN_EQUATIONS = [
    Equation(App("g", (_c,)), _c),
    Equation(App("f", (_c, App("g", (_c,)))), App("g", (App("f", (_c, _c)),))),
    Equation(App("f", (_v, _w)), App("f", (_w, _v))),
    Equation(App("f", (App("g", (_v,)), App("g", (_v,)))), App("g", (_v,))),
]
# In DISTRIBUTIVITY both sides are v(p) ∧ (w(q) ∨ w(r)) = (v(p) ∧ w(q)) ∨ (v(p) ∧ w(r))
# at p and bottom elsewhere, so the equation holds exactly over distributive lattices.
DISTRIBUTIVE_LAW = Equation(App("f", (_v, App("g", (_w,)))), App("h", (_v, _w, _w)))
DISTRIBUTIVITY = RelationalStructure(("p", "q", "r"), SIG, {
    "c": (),
    "g": {("q", "p"), ("r", "p")},
    "f": {("p", "p", "p")},
    "h": {("p", "q", "q", "p"), ("p", "r", "r", "p")},
})


def assert_holds_in_matches_literal_scan(lattice, structure, eqs):
    """The same verdict, and every witness of a failure fails in L^X itself."""
    algebra = ConvolutionAlgebra(lattice, structure)
    for eq in eqs:
        check = holds_in(algebra, eq)
        assert check.holds == literal_holds(algebra, eq), format_equation(eq)
        if not check.holds:
            env = check.witness
            assert {m.lattice for m in env.values()} <= {lattice}
            assert eval_term(algebra, eq.lhs, env) != eval_term(algebra, eq.rhs, env)


@pytest.mark.parametrize("lattice", KERNEL_LATTICES, ids=repr)
def test_holds_in_matches_literal_scan(lattice):
    """Equations of 0 to 2 variables on random and all-empty relations, and
    the distributive law, which N5 and M3 fail although 2 satisfies it."""
    rng = random.Random(len(lattice.elements))
    for i, s in enumerate(etale_structures(rng)):
        if len(lattice.elements) ** len(s.carrier) <= MAX_REFERENCE_MAPS:
            eqs = SCAN_EQUATIONS + random_equations(SIG, 4, seed=i, max_depth=1, max_vars=2)
            assert_holds_in_matches_literal_scan(lattice, s, eqs)
    if len(lattice.elements) ** 3 <= MAX_REFERENCE_MAPS:
        assert_holds_in_matches_literal_scan(lattice, DISTRIBUTIVITY, [DISTRIBUTIVE_LAW])
        distributive = lattice.birkhoff_masks is not None
        assert holds_in(ConvolutionAlgebra(lattice, DISTRIBUTIVITY), DISTRIBUTIVE_LAW).holds == distributive


@settings(max_examples=60, deadline=None)
@given(small_topologies(), st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_holds_in_matches_literal_scan_on_random_topologies(topology, size, seed):
    lattice = open_set_heyting(topology)
    assume(len(lattice.elements) ** size <= MAX_REFERENCE_MAPS)
    eqs = SCAN_EQUATIONS + random_equations(SIG, 4, seed=seed, max_depth=1, max_vars=2)
    assert_holds_in_matches_literal_scan(lattice, random_structure(random.Random(seed), size), eqs)


def test_holds_in_matches_literal_scan_on_four_point_structure(wedge_lattice, four_point_structure):
    """The worked example's structure, 81 to 625 maps, past the kernel
    lattices' three-element carriers: every equation of criterion 4's random
    suite with at most 10^4 assignments, 19 over chain:2 and 3 each over
    chain:3 and the wedge."""
    suite = random_equations(four_point_structure.signature, 20, seed=2024)
    scanned = 0
    for lattice in (chain_lattice(2), chain_lattice(3), wedge_lattice):
        size = len(lattice.elements) ** len(four_point_structure.carrier)
        eqs = [eq for eq in suite if size ** len(eq.variables()) <= 10**4]
        assert_holds_in_matches_literal_scan(lattice, four_point_structure, eqs)
        scanned += len(eqs)
    assert scanned == 25


def app_subterms(term):
    """The distinct App subterms: one apply each per assignment of the scan."""
    if isinstance(term, Var):
        return set()
    return {term}.union(*[app_subterms(a) for a in term.args])


def assert_scan_paths_agree(make_algebra, eqs):
    """``holds_in`` on a fresh algebra, which builds a table only when the
    scan would cost more, against the same algebra once every table the
    equation names is built: the same verdict and the same witness. A fresh
    literal algebra makes at most min(pending, total × distinct App
    subterms) applies. Returns how many failures the fresh algebra found
    by evaluation."""
    evaluated_failures = 0
    for eq in eqs:
        algebra = make_algebra()
        scan = algebra.two_valued or algebra
        apps = app_subterms(eq.lhs) | app_subterms(eq.rhs)
        ops = {app.op for app in apps}
        arity = scan.signature.arity
        n = scan.size()
        bound = min(n ** len(eq.variables()) * len(apps), sum(n ** arity(op) for op in ops))
        fresh = holds_in(algebra, eq)
        if not fresh.holds and not all(op in scan.tables for op in ops):
            evaluated_failures += 1
        for op in ops:
            scan.table(op)
        tabled = holds_in(algebra, eq)
        assert (tabled.holds, tabled.witness) == (fresh.holds, fresh.witness), format_equation(eq)
        if algebra.two_valued is None:
            assert count_applies(make_algebra(), eq) <= bound, format_equation(eq)
            assert count_applies(algebra, eq) == 0, format_equation(eq)
    return evaluated_failures


@pytest.mark.parametrize("lattice", [None, chain_lattice(1), n5(), chain_lattice(3)], ids=repr)
def test_eval_path_matches_table_path(lattice):
    """Equations of 0 to 2 variables, closed ones among them, in the powerset
    algebra, the literal map algebras over 2 and N5, and the reduced route
    over chain:3; N5 on three points (125 maps) is left to the literal scan tests."""
    rng = random.Random(7)
    evaluated_failures = 0
    for i, s in enumerate(etale_structures(rng)):
        if lattice is None:
            make_algebra = lambda: ComplexAlgebra(s)
        elif len(lattice.elements) ** len(s.carrier) <= 64:
            make_algebra = lambda: ConvolutionAlgebra(lattice, s)
        else:
            continue
        eqs = SCAN_EQUATIONS + random_equations(SIG, 8, seed=i, max_depth=2, max_vars=2)
        evaluated_failures += assert_scan_paths_agree(make_algebra, eqs)
    assert evaluated_failures > 0


def minimal_neighbourhoods(topology):
    """The smallest open around each point; distinct ones are the join-irreducible opens."""
    return {frozenset.intersection(*[u for u in topology.opens if p in u]) for p in topology.points}


@pytest.mark.parametrize("lattice", KERNEL_LATTICES, ids=repr)
def test_birkhoff_masks(lattice):
    masks = lattice.birkhoff_masks
    if lattice in (n5(), m3()):
        assert masks is None
        return
    els = lattice.elements
    assert masks is not None and len(set(masks)) == len(masks) == len(els)
    for (i, a), (j, b) in product(enumerate(els), repeat=2):
        assert masks[lattice.index[lattice.meet(a, b)]] == masks[i] & masks[j]
        assert masks[lattice.index[lattice.join(a, b)]] == masks[i] | masks[j]
    width = masks[lattice.top_code].bit_length()
    if isinstance(lattice, OpenSetLattice):
        assert width == len(minimal_neighbourhoods(lattice.topology))
    elif isinstance(lattice, ChainLattice):
        assert width == len(lattice.elements) - 1
    assert masks[lattice.bottom_code] == 0 and masks[lattice.top_code] == (1 << width) - 1


def literal_make_topology(points, generators=()):
    """``make_topology`` as it was written before least opens, returning the family:
    pairwise unions and intersections until nothing changes."""
    pts = frozenset(points)
    opens = {frozenset(), pts}
    for g in generators:
        g = frozenset(g)
        unknown = g - pts
        if unknown:
            raise ValueError(f"generator mentions unknown points: {sorted(unknown)}")
        opens.add(g)
    while True:
        _bounded(len(opens), "opens", MAX_OPENS)
        new = {c for a, b in combinations(opens, 2) for c in (a | b, a & b)} - opens
        if not new:
            break
        opens |= new
    return frozenset(opens)


def literal_validate(points, opens):
    """``FiniteTopology.__post_init__`` as it was written before least opens:
    |opens|² unions and intersections."""
    for a in opens:
        if not a <= points:
            raise ValueError(f"open set {sorted(a)} is not a subset of the points")
    if frozenset() not in opens:
        raise ValueError("the empty set must be open")
    if points not in opens:
        raise ValueError("the full point set must be open")
    for a, b in product(opens, repeat=2):
        if a | b not in opens:
            raise ValueError("opens are not closed under union")
        if a & b not in opens:
            raise ValueError("opens are not closed under intersection")


def literal_impl(opens, a, b):
    """``FiniteTopology.impl`` as it was written before least opens: a scan of every open."""
    out = frozenset()
    for w in opens:
        if w & a <= b:
            out = out | w
    return out


def literal_enumerate_topologies(points):
    """``enumerate_topologies`` as it was written before least opens, yielding families:
    all 2^(2^n - 2) families of proper nonempty subsets, each validated by
    ``literal_validate``."""
    pts = tuple(sorted(set(points)))
    full = frozenset(pts)
    subsets = [frozenset(c) for r in range(len(pts) + 1) for c in combinations(pts, r)]
    middles = [s for s in subsets if s and s != full]
    for mask in range(1 << len(middles)):
        family = {frozenset(), full}
        for i, s in enumerate(middles):
            if mask >> i & 1:
                family.add(s)
        try:
            literal_validate(full, frozenset(family))
        except ValueError:  # not closed under union and intersection
            continue
        yield frozenset(family)


@pytest.mark.parametrize("n", range(4))
def test_validation_matches_pairwise_literal_validation(n):
    """Every family of subsets of n points is accepted by both or refused by both; a
    closure failure names a law the family breaks (the literal one's choice between
    them follows set order), any other failure the literal message."""
    points = frozenset(range(n))
    subsets = [frozenset(c) for r in range(n + 1) for c in combinations(range(n), r)]
    for mask in range(1 << len(subsets)):
        family = frozenset(s for i, s in enumerate(subsets) if mask >> i & 1)
        outcomes = []
        for check in (lambda: FiniteTopology(points, family), lambda: literal_validate(points, family)):
            try:
                check()
                outcomes.append(None)
            except ValueError as e:
                outcomes.append(str(e))
        new, old = outcomes
        if new is None or old is None or "closed" not in old:
            assert new == old
        else:
            law = new.rpartition(" ")[2]
            op = frozenset.union if law == "union" else frozenset.intersection
            assert any(op(a, b) not in family for a, b in product(family, repeat=2)), new


@pytest.mark.parametrize("n", range(5))
def test_enumeration_and_impl_match_literal_scans(n):
    topologies = list(enumerate_topologies(range(n)))
    assert [t.opens for t in topologies] == list(literal_enumerate_topologies(range(n)))
    for t in topologies:
        for a, b in product(t.opens, repeat=2):
            assert t.impl(a, b) == literal_impl(t.opens, a, b)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_make_topology_and_impl_match_literal_scans_on_larger_spaces(n):
    rng = random.Random(n)
    points = [f"y{i}" for i in range(n)]
    for _ in range(20):
        gens = [frozenset(rng.sample(points, rng.randint(1, n))) for _ in range(rng.randint(0, 8))]
        t = make_topology(points, gens)
        assert t.opens == literal_make_topology(points, gens)
        opens = sorted(t.opens, key=sorted)
        for _ in range(100):
            a, b = rng.choice(opens), rng.choice(opens)
            assert t.impl(a, b) == literal_impl(t.opens, a, b)
