"""Lattice-valued maps on a relational structure and their convolution operations.

Each (n+1)-ary relation induces an n-ary operation on maps from the
carrier into a complete lattice: the value at x is the join over
relation tuples ending in x of the meets of the argument values. With
the empty meet equal to top and the empty join equal to bottom, nullary
relations come out as crisp characteristic maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product


class CapacityError(Exception):
    """An enumeration would exceed the configured bound."""


@dataclass(frozen=True)
class LatticeMap:
    """A total map from a structure carrier into a lattice.

    Construction checks that every carrier element gets a lattice
    element and records the codes of the values: their positions in the
    lattice's element order, in carrier order.
    """

    carrier: tuple
    lattice: object
    values: dict

    def __post_init__(self):
        values = dict(self.values)
        object.__setattr__(self, "values", values)
        if values.keys() != set(self.carrier):
            raise ValueError("map must assign a value to every carrier element")
        index = self.lattice.index
        try:
            codes = tuple([index[values[x]] for x in self.carrier])
        except KeyError as e:
            raise ValueError(f"{e.args[0]!r} is not an element of the lattice") from None
        object.__setattr__(self, "_codes", codes)

    def __call__(self, x):
        return self.values[x]

    def key(self):
        """Hashable identity over one lattice and carrier: the codes."""
        return self._codes


def _check_compatible(a, b):
    if tuple(a.carrier) != tuple(b.carrier):
        raise ValueError("maps have different carriers")
    if a.lattice is not b.lattice and a.lattice != b.lattice:
        raise ValueError("maps live over different lattices")


def conv_op(lattice, structure, name, args):
    """Apply the named relation of the structure as an operation on maps.

    The value at x is the join, over the relation tuples ending in x, of
    the meets of the argument values at the tuple entries. It is computed
    in positions: the structure's compiled relation indexes the
    concatenated argument codes, and the lattice's meet and join tables
    combine them.
    """
    n, groups = structure.compiled(name)
    if len(args) != n:
        raise ValueError(f"{name} expects {n} arguments, got {len(args)}")
    carrier = tuple(structure.carrier)
    for a in args:
        if a.carrier is not carrier and tuple(a.carrier) != carrier:
            raise ValueError("argument carrier does not match the structure")
        if a.lattice is not lattice and a.lattice != lattice:
            raise ValueError("argument lattice mismatch")
    meet, join = lattice.meet_table, lattice.join_table
    bottom, top = lattice.bottom_code, lattice.top_code
    codes = [c for a in args for c in a._codes]
    els = lattice.elements
    values = {}
    for x, group in zip(carrier, groups):
        acc = bottom
        for t in group:
            m = top
            for k in t:
                m = meet[m][codes[k]]
            acc = join[acc][m]
        values[x] = els[acc]
    return LatticeMap(carrier, lattice, values)


def pointwise_join(a, b):
    _check_compatible(a, b)
    lat = a.lattice
    return LatticeMap(a.carrier, lat, {x: lat.join(a.values[x], b.values[x]) for x in a.carrier})


def pointwise_meet(a, b):
    _check_compatible(a, b)
    lat = a.lattice
    return LatticeMap(a.carrier, lat, {x: lat.meet(a.values[x], b.values[x]) for x in a.carrier})


def pointwise_impl(a, b):
    _check_compatible(a, b)
    lat = a.lattice
    return LatticeMap(a.carrier, lat, {x: lat.impl(a.values[x], b.values[x]) for x in a.carrier})


def pointwise_neg(a):
    lat = a.lattice
    return LatticeMap(a.carrier, lat, {x: lat.neg(a.values[x]) for x in a.carrier})


def constant_map(carrier, lattice, value):
    return LatticeMap(tuple(carrier), lattice, {x: value for x in carrier})


def bottom_map(carrier, lattice):
    return constant_map(carrier, lattice, lattice.bottom)


def top_map(carrier, lattice):
    return constant_map(carrier, lattice, lattice.top)


def map_leq(a, b):
    """Pointwise order on maps."""
    _check_compatible(a, b)
    return all(a.lattice.leq(a.values[x], b.values[x]) for x in a.carrier)


def enumerate_maps(lattice, carrier, max_maps=10**6):
    """Yield every map from the carrier into the lattice, exactly once.

    The order is the lexicographic product of the lattice's canonical
    element order over the carrier order, so enumeration is
    deterministic. Raises CapacityError when the count would exceed
    ``max_maps``.
    """
    carrier = tuple(carrier)
    count_maps(lattice, carrier, max_maps)
    for combo in product(lattice.elements, repeat=len(carrier)):
        yield LatticeMap(carrier, lattice, dict(zip(carrier, combo)))


def count_maps(lattice, carrier, max_maps=10**6):
    """Number of maps from the carrier into the lattice; raises
    CapacityError when it exceeds ``max_maps``."""
    total = len(lattice.elements) ** len(carrier)
    if total > max_maps:
        raise CapacityError(f"{total} maps exceed the bound {max_maps}")
    return total


def random_map(rng, lattice, carrier):
    """Uniformly random map, driven by the caller's rng for determinism."""
    return LatticeMap(tuple(carrier), lattice, {x: rng.choice(lattice.elements) for x in carrier})
