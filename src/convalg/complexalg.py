"""Powerset algebra of a relational structure, with operations by relational image.

Over the two-element lattice the convolution operations agree with
relational image under the characteristic-function bijection;
``characteristic_iso`` verifies that correspondence instance by
instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product

from .convolution import MAX_MAPS, LatticeMap, _compare_routes, conv_op
from .lattice import _bounded, _count, chain_lattice

# one two-element chain for characteristic_iso and two_valued: its tables are built once
_TWO = chain_lattice(1)


def image_mask(groups, inside):
    """Relational image over masks: bit r is set when some tuple mask in ``groups[r]``
    (``RelationalStructure.slot_masks``) lies inside the slot mask ``inside``."""
    out = 0
    for r, group in enumerate(groups):
        for t in group:
            if t & inside == t:
                out |= 1 << r
                break
    return out


def rel_image(structure, name, args):
    """Relational image: last coordinates of relation tuples whose argument
    entries come from the given subsets. Nullary relations return their
    own elements as a subset. Subsets and masks convert through the
    structure's bounded memo, ``subset_mask`` and ``mask_subset``."""
    n, groups = structure.slot_masks(name)
    if len(args) != n:
        raise ValueError(f"{name} expects {n} arguments, got {len(args)}")
    mask, width, inside = structure.subset_mask, len(structure.carrier), 0
    for i, a in enumerate(args):
        inside |= mask(frozenset(a)) << i * width
    return structure.mask_subset(image_mask(groups, inside))


def all_subsets(carrier):
    """Every subset of the carrier, ordered by size then lexicographically."""
    carrier = tuple(carrier)
    return [
        frozenset(c) for r in range(len(carrier) + 1) for c in combinations(carrier, r)
    ]


def count_subsets(carrier):
    """Number of subsets of the carrier; raises CapacityError when it
    exceeds ``MAX_MAPS``."""
    return _bounded(2 ** len(carrier), "subsets", MAX_MAPS)


def char_map(two, carrier, subset):
    """Characteristic map of a subset: top on it, bottom off it. Over the two-element
    lattice it is the bijection that :func:`subset_from_map` inverts."""
    subset, top, bottom = frozenset(subset), two.top_code, two.bottom_code
    return LatticeMap(tuple(carrier), two, tuple([top if x in subset else bottom for x in carrier]))


def subset_from_map(m):
    """Inverse of ``char_map``: the set of points with value top."""
    top = m.lattice.top_code
    return frozenset(x for x, c in zip(m.carrier, m.codes) if c == top)


@dataclass
class IsoCheckReport:
    ok: bool
    mode: str
    checked: int
    failure: str | None

    def __str__(self):
        if self.ok:
            return f"{self.mode} check passed ({self.checked} argument tuples)"
        return f"failed after {self.checked} tuples: {self.failure}"


def characteristic_iso(structure, exhaustive=None, trials=200, seed=0):
    """Verify that relational image matches two-element convolution.

    For each relation, argument subsets are mapped through the
    characteristic bijection and pushed through both code paths; the
    results must coincide exactly. Carriers of up to 3 elements default
    to an exhaustive scan over argument tuples, larger ones to a seeded
    random sample; ``exhaustive`` overrides the choice. Raises
    CapacityError, building nothing, above ``MAX_MAPS`` subsets or, when
    exhaustive, above ``MAX_MAPS`` argument tuples for one relation.
    """
    _count(trials, "trials", 0)
    carrier, sig = tuple(structure.carrier), structure.signature
    if exhaustive is None:
        exhaustive = len(carrier) <= 3
    widest = max(map(sig.arity, sig.names), default=0) if exhaustive else 0
    _bounded(count_subsets(carrier) ** widest, "argument tuples", MAX_MAPS)
    subsets = all_subsets(carrier) if exhaustive else None
    rng = random.Random(seed)

    def draw():
        """A random subset: bit i of one ``getrandbits`` selects ``carrier[i]``."""
        bits = rng.getrandbits(len(carrier))
        return frozenset([x for i, x in enumerate(carrier) if bits >> i & 1])

    def cases():
        for name, n in sig.symbols:
            if exhaustive:
                tuples = product(subsets, repeat=n)
            else:
                tuples = (tuple(draw() for _ in range(n)) for _ in range(trials))
            for args in tuples:
                image = rel_image(structure, name, args)
                maps = [char_map(_TWO, carrier, a) for a in args]
                conv = subset_from_map(conv_op(_TWO, structure, name, maps))
                yield image, conv, lambda: (
                    f"{name}{tuple(sorted(a) for a in args)}: "
                    f"image {sorted(image)} vs convolution {sorted(conv)}"
                )

    checked, failure = _compare_routes(cases())
    mode = "exhaustive" if exhaustive else "sampled"
    return IsoCheckReport(failure is None, mode, checked, failure)
