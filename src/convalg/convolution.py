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

from .lattice import _bounded

# Largest enumeration: maps, subsets, argument tuples, grid pairs or slots, graph tuples.
MAX_MAPS = 10**6


def _compare_routes(cases):
    """Compare the two routes of each ``(lhs, rhs, detail)`` in ``cases`` until one differs.
    Returns how many were compared, up to and including the first mismatch, and its
    ``detail()``, or None; ``detail`` is called only on that mismatch."""
    checks = 0
    for checks, (lhs, rhs, detail) in enumerate(cases, 1):
        if lhs != rhs:
            return checks, detail()
    return checks, None


@dataclass(frozen=True, init=False)
class LatticeMap:
    """A total map from a structure carrier into a lattice, stored as codes.

    ``codes[i]`` is the position in ``lattice.elements`` of the value at
    ``carrier[i]``. Construction checks that there is one int code per
    carrier element and that each names an element. ``values`` derives
    lattice elements on demand; use :meth:`from_values` to build a map
    from element values.
    """

    carrier: tuple
    lattice: object
    codes: tuple

    def __init__(self, carrier, lattice, codes):
        # one dict update instead of a frozen __setattr__ per field
        self.__dict__.update(carrier=carrier, lattice=lattice, codes=codes)
        self.__post_init__()

    def __post_init__(self):
        codes, size = self.codes, len(self.lattice.elements)
        if type(codes) is not tuple or len(codes) != len(self.carrier):
            raise ValueError("codes must be a tuple with one entry per carrier element")
        for c in codes:
            if type(c) is not int or not 0 <= c < size:
                raise ValueError(f"code {c!r} is not a position in a lattice of {size} elements")

    @classmethod
    def from_values(cls, carrier, lattice, values):
        """The map sending each carrier element x to the lattice element ``values[x]``."""
        carrier, values = tuple(carrier), dict(values)
        if values.keys() != set(carrier):
            raise ValueError("map must assign a value to every carrier element")
        index = lattice.index
        try:
            codes = tuple([index[values[x]] for x in carrier])
        except KeyError as e:
            raise ValueError(f"{e.args[0]!r} is not an element of the lattice") from None
        return cls(carrier, lattice, codes)

    @property
    def values(self):
        """A fresh dict from carrier elements to lattice elements."""
        els = self.lattice.elements
        return {x: els[c] for x, c in zip(self.carrier, self.codes)}


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
    combine them. A binary relation's tuples are read as pairs, since
    meet with top is the identity.
    """
    n, groups = structure.compiled(name)
    if len(args) != n:
        raise ValueError(f"{name} expects {n} arguments, got {len(args)}")
    carrier, codes = structure.carrier, ()
    for a in args:
        if a.carrier is not carrier and tuple(a.carrier) != carrier:
            raise ValueError("argument carrier does not match the structure")
        if a.lattice is not lattice and a.lattice != lattice:
            raise ValueError("argument lattice mismatch")
        codes += a.codes
    meet, join = lattice.meet_table, lattice.join_table
    bottom, top = lattice.bottom_code, lattice.top_code
    out = []
    for group in groups:
        acc = bottom
        if n == 2:
            for p, q in group:
                acc = join[acc][meet[codes[p]][codes[q]]]
        else:
            for t in group:
                m = top
                for k in t:
                    m = meet[m][codes[k]]
                acc = join[acc][m]
        out.append(acc)
    return LatticeMap(carrier, lattice, tuple(out))


def _combine(table, a, b):
    _check_compatible(a, b)
    return LatticeMap(a.carrier, a.lattice, tuple([table[i][j] for i, j in zip(a.codes, b.codes)]))


def pointwise_join(a, b):
    return _combine(a.lattice.join_table, a, b)


def pointwise_meet(a, b):
    return _combine(a.lattice.meet_table, a, b)


def pointwise_impl(a, b):
    return _combine(a.lattice.impl_table, a, b)


def pointwise_neg(a):
    lat = a.lattice
    bottom, impl = lat.bottom_code, lat.impl_table
    return LatticeMap(a.carrier, lat, tuple([impl[i][bottom] for i in a.codes]))


def enumerate_maps(lattice, carrier):
    """Yield every map from the carrier into the lattice, exactly once.

    The order is the lexicographic product of the lattice's canonical
    element order over the carrier order, so enumeration is
    deterministic. Raises CapacityError when the count would exceed
    ``MAX_MAPS``.
    """
    carrier = tuple(carrier)
    count_maps(lattice, carrier)
    for codes in product(range(len(lattice.elements)), repeat=len(carrier)):
        yield LatticeMap(carrier, lattice, codes)


def count_maps(lattice, carrier):
    """Number of maps from the carrier into the lattice; raises
    CapacityError when it exceeds ``MAX_MAPS``."""
    return _bounded(len(lattice.elements) ** len(carrier), "maps", MAX_MAPS)


def random_map(rng, lattice, carrier):
    """Uniformly random map, driven by the caller's rng for determinism;
    the draws are those of ``rng.choice(lattice.elements)`` per element."""
    positions = range(len(lattice.elements))
    return LatticeMap(tuple(carrier), lattice, tuple([rng.choice(positions) for _ in carrier]))
