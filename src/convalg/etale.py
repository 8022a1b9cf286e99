"""Constant bundles over a finite base space and their open subobjects.

A subobject of the constant bundle X x Y is stored in canonical form as
one open of Y per fiber label, each a bitmask over the sorted points.
Relations lift to constant subobjects of powers without materializing
the product space: the image of a lifted relation is computed either
sectionwise (union of intersections over relation tuples) or point by
point over the base (relational image of the fiber memberships). Both
routes exist on purpose; agreeing with the convolution operation under
the section correspondence is the isomorphism this module verifies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from operator import and_, getitem, or_

from .complexalg import image_mask
from .convolution import (
    LatticeMap,
    _compare_routes,
    conv_op,
    pointwise_impl,
    pointwise_join,
    pointwise_meet,
    pointwise_neg,
    random_map,
)
from .lattice import FiniteTopology, OpenSetLattice, _count, make_topology, open_set_heyting
from .relstruct import RelationalStructure, Signature, _SymbolTable


@dataclass(frozen=True)
class ConstantEtale:
    """The constant bundle with the given fiber labels over a finite base."""

    fibers: tuple
    base: FiniteTopology

    @cached_property
    def _subobject(self):
        """Masks tuple -> its checked :class:`EtaleSubobject` over this bundle, for up to
        ``1 << 12`` tuples of ints; masks that fail the check raise and are not remembered."""
        return lru_cache(1 << 12)(partial(EtaleSubobject, self))


@dataclass(frozen=True)
class EtaleSubobject:
    """An open subobject of a constant bundle: ``masks[i]`` is the open cross-section over
    ``parent.fibers[i]`` as its ``FiniteTopology.mask_of`` mask, so equality is mask
    equality. ``sections`` derives the opens on demand; :func:`phi` builds a subobject from
    a lattice-valued map.
    ``stalks`` is the transposed view, built on first use and kept out of the fields."""

    parent: ConstantEtale
    masks: tuple

    def __post_init__(self):
        masks, open_of = self.masks, self.parent.base.open_of
        if type(masks) is not tuple or len(masks) != len(self.parent.fibers):
            raise ValueError("masks must be a tuple with one entry per fiber label")
        for m in masks:
            if type(m) is not int or m not in open_of:
                raise ValueError(f"mask {m!r} does not name an open set")

    @property
    def sections(self):
        """A fresh dict from fiber labels to their cross-sections as open sets."""
        return dict(zip(self.parent.fibers, map(self.parent.base.open_of.get, self.masks)))

    @cached_property
    def stalks(self):
        """``stalks[y]`` masks the fiber positions whose section contains the y-th of
        ``sorted(parent.base.points)``."""
        return tuple(_transpose(self.masks, len(self.parent.base.points)))


def empty_subobject(parent):
    return parent._subobject((0,) * len(parent.fibers))


@dataclass(frozen=True)
class ConstantRelationalEtale:
    """A relational structure lifted over a base: carrier becomes the fiber
    set and each relation becomes the constant subobject of the matching
    power."""

    structure: object
    base: FiniteTopology

    @cached_property
    def etale(self):
        return _bundle(tuple(self.structure.carrier), self.base)

    @cached_property
    def _plans(self):
        """Symbol -> its :meth:`plan`, each relation's built on first use."""
        structure, etale = self.structure, self.etale
        index = {x: i for i, x in enumerate(etale.fibers)}

        def plan(name):
            n, masks = structure.slot_masks(name)
            tuples = tuple(tuple(map(index.__getitem__, t)) for t in structure.relations[name])
            return n, etale, tuples, lru_cache(1 << 12)(partial(image_mask, masks))

        return _SymbolTable(plan)

    def plan(self, name):
        """``(arity, etale, tuples, image)`` of relation ``name``; ValueError for an unknown
        one. ``tuples``: its tuples in fiber positions, from ``structure.relations``; ``image``:
        :func:`image_mask` on ``slot_masks(name)[1]``, bounded memo."""
        return self._plans[name]


def _bundle(carrier, base):
    """The constant bundle of ``carrier`` over ``base``: one object per carrier and base
    object, kept in ``base.bundles``, so that bundle checks are mostly identity tests. The
    carrier a bundle holds is found by identity; an equal one, by hashing, only on a miss."""
    bundles = base.bundles
    if (parent := bundles.get(id(carrier))) is None or parent.fibers is not carrier:
        if (parent := bundles.get(carrier)) is None:
            parent = bundles[carrier] = bundles[id(carrier)] = ConstantEtale(carrier, base)
    return parent


def phi(lattice, alpha):
    """Section form of a lattice-valued map: the subobject whose
    cross-section at x is alpha(x), one ``lattice.open_masks`` lookup per code."""
    if not isinstance(lattice, OpenSetLattice):
        raise ValueError("phi requires an open-set lattice")
    if alpha.lattice is not lattice and alpha.lattice != lattice:
        raise ValueError("map does not live over the given lattice")
    parent, masks = _bundle(tuple(alpha.carrier), lattice.topology), lattice.open_masks
    return parent._subobject(tuple([masks[c] for c in alpha.codes]))


def _checked_plan(rel_etale, name, args):
    """The plan of ``name``, once each argument is checked to live over its bundle."""
    n, parent, tuples, image = rel_etale.plan(name)
    if len(args) != n:
        raise ValueError(f"{name} expects {n} arguments, got {len(args)}")
    for a in args:
        if a.parent is not parent and a.parent != parent:
            raise ValueError("argument subobject lives over a different bundle")
    return n, parent, tuples, image


def fiberwise_rel_image(rel_etale, name, args):
    """Image of a lifted relation, computed sectionwise: the cross-section at x is the union
    (OR of masks), over relation tuples ending in x, of the intersections (AND) of the argument
    sections at the tuple entries, read in the plan's fiber positions, not through ``compiled``."""
    n, parent, tuples, _ = _checked_plan(rel_etale, name, args)
    masks, out = [a.masks for a in args], [0] * len(parent.fibers)
    if n == 2:
        m0, m1 = masks
        for p, q, r in tuples:
            out[r] |= m0[p] & m1[q]
    else:
        full = parent.base.mask_of[parent.base.points]
        for t in tuples:  # map stops at the n argument entries
            out[t[-1]] |= reduce(and_, map(getitem, masks, t), full)
    return parent._subobject(tuple(out))


def per_fiber_rel_image(rel_etale, name, args):
    """Image of a lifted relation, computed fiber by fiber over the base.

    At base point y, ``stalks[y]`` of argument i fills slots ``i * |X|`` onward of one
    slot mask, and :func:`image_mask` gives the result's fiber there, remembered per slot mask
    by the plan, since slot masks recur across argument tuples. The hit masks are transposed
    into sections, which must be open; no image code is shared with the other route.
    """
    n, parent, _, image = _checked_plan(rel_etale, name, args)
    size = len(parent.fibers)
    inside = args[0].stalks if args else [0] * len(parent.base.points)
    for i in range(1, n):
        inside = [m | s << i * size for m, s in zip(inside, args[i].stalks)]
    return parent._subobject(tuple(_transpose(map(image, inside), size)))


def _transpose(masks, width):
    """Bit-matrix transpose: bit i of entry j is bit j of ``masks[i]``."""
    out = [0] * width
    for i, m in enumerate(masks):
        while m:
            out[(m & -m).bit_length() - 1] |= 1 << i
            m &= m - 1
    return out


def _check_same_parent(a, b):
    if a.parent != b.parent:
        raise ValueError("subobjects live over different bundles")


def sub_union(a, b):
    _check_same_parent(a, b)
    return a.parent._subobject(tuple([p | q for p, q in zip(a.masks, b.masks)]))


def sub_intersection(a, b):
    _check_same_parent(a, b)
    return a.parent._subobject(tuple([p & q for p, q in zip(a.masks, b.masks)]))


def sub_impl(a, b):
    """Heyting implication per fiber: the union of the open masks w with w & p <= q."""
    _check_same_parent(a, b)
    opens = a.parent.base.open_of
    masks = [reduce(or_, [w for w in opens if not w & p & ~q], 0) for p, q in zip(a.masks, b.masks)]
    return a.parent._subobject(tuple(masks))


def sub_neg(a):
    return sub_impl(a, empty_subobject(a.parent))


def _format_maps(maps):
    return "; ".join(
        ", ".join(f"{x}->{{{' '.join(str(p) for p in sorted(v))}}}" for x, v in m.values.items())
        for m in maps
    )


@dataclass
class IsoTrialReport:
    ok: bool
    trials: int
    checks: int
    counterexample: str | None

    def __str__(self):
        if self.ok:
            return f"isomorphism held on {self.checks} checks over {self.trials} trials"
        return f"counterexample after {self.checks} checks: {self.counterexample}"


def verify_main_iso(lattice, structure, topology, trials=100, seed=0):
    """Randomized check that the section correspondence is an isomorphism.

    Per trial and per relation, random maps are pushed through the
    convolution operation and through the sectionwise relational image
    of the lifted relation; the section forms must agree exactly. The
    correspondence is also checked against the pointwise lattice
    operations. Deterministic for a fixed seed; zero trials pass vacuously.
    """
    _count(trials, "trials", 0)
    if not isinstance(lattice, OpenSetLattice) or lattice.topology != topology:
        raise ValueError("lattice must be the open-set algebra of the given topology")
    carrier, sig = tuple(structure.carrier), structure.signature
    rel_etale = ConstantRelationalEtale(structure, topology)
    rng = random.Random(seed)

    def cases():
        for trial in range(trials):
            for name, n in sig.symbols:
                args = [random_map(rng, lattice, carrier) for _ in range(n)]
                lhs = phi(lattice, conv_op(lattice, structure, name, args))
                rhs = fiberwise_rel_image(rel_etale, name, [phi(lattice, a) for a in args])
                yield lhs, rhs, lambda: f"trial {trial}, relation {name}, args {_format_maps(args)}"
            alpha, beta = random_map(rng, lattice, carrier), random_map(rng, lattice, carrier)
            pa, pb = phi(lattice, alpha), phi(lattice, beta)
            for lhs, rhs, label in [
                (phi(lattice, pointwise_join(alpha, beta)), sub_union(pa, pb), "join"),
                (phi(lattice, pointwise_meet(alpha, beta)), sub_intersection(pa, pb), "meet"),
                (phi(lattice, pointwise_impl(alpha, beta)), sub_impl(pa, pb), "impl"),
                (phi(lattice, pointwise_neg(alpha)), sub_neg(pa), "neg"),
            ]:
                yield lhs, rhs, lambda: (
                    f"trial {trial}, pointwise {label}, args {_format_maps((alpha, beta))}"
                )

    checks, counterexample = _compare_routes(cases())
    return IsoTrialReport(counterexample is None, trials, checks, counterexample)


def worked_example():
    """The four-point structure and the thirds data over a discrete 3-point base."""
    topology = make_topology(("t1", "t2", "t3"), [{"t1"}, {"t2"}, {"t3"}])
    lattice = open_set_heyting(topology)
    carrier = ("x1", "x2", "x3", "x4")
    f = {("x1", "x1", "x1"), ("x2", "x2", "x3"), ("x1", "x3", "x4"), ("x3", "x2", "x4")}
    structure = RelationalStructure(carrier, Signature((("f", 2),)), {"f": f})
    fs = frozenset
    thirds = {  # x: (alpha1(x), alpha2(x))
        "x1": (fs({"t1", "t2"}), fs({"t2", "t3"})),
        "x2": (fs({"t1", "t2"}), fs({"t3"})),
        "x3": (fs({"t2", "t3"}), fs({"t1"})),
        "x4": (fs({"t1", "t2", "t3"}), fs({"t1", "t2"})),
    }
    alphas = tuple(
        LatticeMap.from_values(carrier, lattice, {x: v[i] for x, v in thirds.items()})
        for i in (0, 1)
    )
    return topology, lattice, structure, alphas
