"""The position-coded convolution and relational image against literal references.

``literal_conv`` and ``literal_image`` restate the definitions directly
over lattice elements and relation tuples: a join over the tuples ending
at x of the meets of the argument values, and the last coordinates of
the tuples whose entries lie in the argument subsets. They share no code
with the compiled relations or the meet and join tables.
``literal_grid_conv`` restates the type-2 grid convolution the same way:
for each output point, a supremum over every argument tuple related to
it. It is the reference of the single-pass ``grid_conv_oracle``.
The ``literal_pointwise_*`` functions apply the lattice's own ``join``,
``meet``, ``impl`` and ``neg`` value by value; they are the references of
the code-space pointwise operations, which read position tables.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from convalg import (
    App,
    ComplexAlgebra,
    ConvolutionAlgebra,
    Equation,
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
    grid_conv_oracle,
    holds_in,
    lattice_from_order,
    open_set_heyting,
    pointwise_impl,
    pointwise_join,
    pointwise_meet,
    pointwise_neg,
    random_map,
    rel_image,
)
from convalg.convolution import count_maps

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
    return lattice_from_order(els, below)


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
                assert result.key() == tuple(lattice.index[result.values[x]] for x in s.carrier)
                for x, code in zip(s.carrier, result.key()):
                    assert result.values[x] is lattice.elements[code]


def test_conv_op_exhaustive_on_small_instances():
    rng = random.Random(5)
    for lattice in (chain_lattice(1), chain_lattice(2), n5()):
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


@pytest.mark.parametrize("lattice", [chain_lattice(1), chain_lattice(3), n5(), DISCRETE_3], ids=repr)
def test_keys_are_positions_in_enumeration_order(lattice):
    carrier = ("p", "q", "r")
    maps = list(enumerate_maps(lattice, carrier))
    keys = [m.key() for m in maps]
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
    enumerated = [m for m in enumerate_maps(lattice, ("p", "q")) if m.key() == built.key()]
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


@pytest.mark.parametrize("n", range(1, 13))
def test_grid_conv_oracle_matches_literal_scan(n):
    rng = random.Random(100 + n)
    for _ in range(15):
        a, b = random_grid_function(rng, n), random_grid_function(rng, n)
        for op in ("join", "meet"):
            assert grid_conv_oracle(n, op, a, b) == literal_grid_conv(n, op, a, b)
        assert grid_conv_oracle(n, "neg", a) == literal_grid_conv(n, "neg", a)
    zero = GridFunction(n, (Fraction(0),) * (n + 1))
    for op in ("join", "meet"):
        assert grid_conv_oracle(n, op, zero, zero) == literal_grid_conv(n, op, zero, zero) == zero
