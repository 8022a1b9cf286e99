"""Relational structures of arbitrary finite type.

An n-ary operation is encoded as its graph, an (n+1)-ary relation with
arguments first and result last. Relations are arbitrary tuple sets and
need not be functional; constants are unary relations, possibly empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .convolution import MAX_MAPS
from .lattice import _bounded, _count


class _SymbolTable(dict):
    """Symbol -> what is kept for it; looking up an unknown symbol raises ValueError."""

    def __missing__(self, name):
        raise ValueError(f"unknown symbol {name!r}")


@dataclass(frozen=True)
class Signature:
    """Ordered operation symbols with their arities."""

    symbols: tuple

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple((name, arity) for name, arity in self.symbols))
        arities = _SymbolTable(self.symbols)
        if len(arities) != len(self.symbols):
            raise ValueError("duplicate symbol names")
        for name, arity in self.symbols:
            _count(arity, f"arity of {name}", 0)
        object.__setattr__(self, "names", tuple(arities))
        object.__setattr__(self, "_arities", arities)

    def arity(self, name):
        return self._arities[name]


@dataclass(frozen=True)
class RelationalStructure:
    """A finite carrier with one relation per signature symbol. Construction refuses a
    tuple of the wrong length or with an element outside the carrier."""

    carrier: tuple
    signature: Signature
    relations: dict = field(compare=True)

    def __post_init__(self):
        object.__setattr__(self, "carrier", tuple(self.carrier))
        if len(set(self.carrier)) != len(self.carrier):
            raise ValueError("duplicate carrier elements")
        if set(self.relations) != set(self.signature.names):
            raise ValueError("relations must cover exactly the signature symbols")
        carrier, normalized = set(self.carrier), {}
        for name, n in self.signature.symbols:
            rel = normalized[name] = frozenset(tuple(t) for t in self.relations[name])
            bad = [t for t in rel if len(t) != n + 1 or not carrier.issuperset(t)]
            if bad:
                try:  # the first in sorted order, or by repr where entries do not compare
                    t = min(bad)
                except TypeError:
                    t = min(bad, key=repr)
                if len(t) != n + 1:
                    raise ValueError(f"{name}: tuple {t!r} has length {len(t)}, expected {n + 1}")
                entry = next(e for e in t if e not in carrier)
                raise ValueError(f"{name}: tuple {t!r} mentions unknown element {entry!r}")
        object.__setattr__(self, "relations", normalized)

    def __hash__(self):
        return hash((self.carrier, self.signature, frozenset(self.relations.items())))

    # Derived views, cached on the instance outside the dataclass fields so
    # that equality, hashing and repr see only the carrier, signature and
    # relations.

    @cached_property
    def carrier_bits(self):
        """Carrier element -> ``1 << position``."""
        return {x: 1 << p for p, x in enumerate(self.carrier)}

    @cached_property
    def subset_mask(self):
        """Subset (a frozenset) -> its :attr:`carrier_bits` mask, remembered for up to
        ``1 << 12`` subsets. An element outside the carrier raises ValueError and
        leaves nothing remembered."""
        bits = self.carrier_bits

        def encode(subset):
            try:
                return sum(map(bits.__getitem__, subset))
            except KeyError:
                raise ValueError(f"subset {sorted(subset)} is not contained in the carrier") from None

        return lru_cache(1 << 12)(encode)

    @cached_property
    def mask_subset(self):
        """:attr:`carrier_bits` mask -> its frozenset, remembered for up to ``1 << 12`` masks."""
        items = tuple(self.carrier_bits.items())
        return lru_cache(1 << 12)(lambda mask: frozenset([x for x, b in items if mask & b]))

    @cached_property
    def _slot_views(self):
        """Symbol -> its ``(compiled, slot_masks)`` views, every relation's in one pass."""
        index, views = {x: i for i, x in enumerate(self.carrier)}, _SymbolTable()
        for name, arity in self.signature.symbols:
            groups = [[] for _ in self.carrier]
            for t in self.relations[name]:
                slots = tuple(i * len(self.carrier) + index[x] for i, x in enumerate(t[:-1]))
                groups[index[t[-1]]].append(slots)
            groups = tuple(tuple(sorted(g)) for g in groups)
            masks = tuple(tuple(sum(1 << k for k in t) for t in g) for g in groups)
            views[name] = (arity, groups), (arity, masks)
        return views

    def compiled(self, name):
        """Relation ``name`` in argument slots: ``(arity, groups)``.

        Argument i at carrier position p is slot ``i * len(carrier) + p``,
        so the concatenated per-argument sequences of a call answer every
        entry lookup with one index. ``groups[r]`` holds, sorted, the
        argument slots of every tuple whose result is the carrier element
        at position r. Raises ValueError for an unknown symbol.
        """
        return self._slot_views[name][0]

    def slot_masks(self, name):
        """:meth:`compiled` with each tuple's argument slots as one int bitmask."""
        return self._slot_views[name][1]


def interval_structure(n):
    """The n-step discretization of the unit-interval algebra as a relational structure.

    Carrier is the chain 0, 1/n, ..., 1; the relations are the graphs of
    min, max and x -> 1 - x, plus the endpoint constants as unary
    relations. The type is 2, 2, 1, 0, 0. Raises CapacityError, building
    nothing, when a binary graph's (n + 1)**2 tuples exceed ``MAX_MAPS``.
    """
    _bounded((_count(n, "chain size", 1) + 1) ** 2, "tuples per binary relation", MAX_MAPS)
    elems = tuple(Fraction(k, n) for k in range(n + 1))
    sig = Signature((("meet", 2), ("join", 2), ("neg", 1), ("zero", 0), ("one", 0)))
    relations = {
        "meet": frozenset([(x, y, min(x, y)) for x in elems for y in elems]),
        "join": frozenset([(x, y, max(x, y)) for x in elems for y in elems]),
        "neg": frozenset([(x, 1 - x) for x in elems]),
        "zero": frozenset({(Fraction(0),)}),
        "one": frozenset({(Fraction(1),)}),
    }
    return RelationalStructure(elems, sig, relations)
