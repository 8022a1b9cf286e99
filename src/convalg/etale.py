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
from functools import cached_property, reduce
from operator import or_

from .complexalg import image_mask
from .convolution import (
    LatticeMap,
    conv_op,
    pointwise_impl,
    pointwise_join,
    pointwise_meet,
    pointwise_neg,
    random_map,
)
from .lattice import FiniteTopology, OpenSetLattice, make_topology, open_set_heyting
from .relstruct import RelationalStructure, Signature


@dataclass(frozen=True)
class ConstantEtale:
    """The constant bundle with the given fiber labels over a finite base."""

    fibers: tuple
    base: FiniteTopology


@dataclass(frozen=True)
class EtaleSubobject:
    """An open subobject of a constant bundle: ``masks[i]`` is the open cross-section over
    ``parent.fibers[i]`` as its ``FiniteTopology.mask_of`` mask, so equality is mask
    equality. ``sections`` derives the opens on demand; :meth:`from_sections` takes them."""

    parent: ConstantEtale
    masks: tuple

    def __post_init__(self):
        masks, open_of = self.masks, self.parent.base.open_of
        if type(masks) is not tuple or len(masks) != len(self.parent.fibers):
            raise ValueError("masks must be a tuple with one entry per fiber label")
        for m in masks:
            if type(m) is not int or m not in open_of:
                raise ValueError(f"mask {m!r} does not name an open set")

    @classmethod
    def from_sections(cls, parent, sections):
        """The subobject whose cross-section at x is the open ``sections[x]``."""
        sections, base = dict(sections), parent.base
        if set(sections) != set(parent.fibers):
            raise ValueError("sections must cover every fiber label")
        for x, a in sections.items():
            if a not in base.opens:
                raise ValueError(f"section at {x!r} is not an open set: {sorted(a)}")
        return cls(parent, tuple([base.mask_of[frozenset(sections[x])] for x in parent.fibers]))

    @property
    def sections(self):
        """A fresh dict from fiber labels to their cross-sections as open sets."""
        return dict(zip(self.parent.fibers, map(self.parent.base.open_of.get, self.masks)))


def whole_subobject(parent):
    return EtaleSubobject(parent, (parent.base.mask_of[parent.base.points],) * len(parent.fibers))


def empty_subobject(parent):
    return EtaleSubobject(parent, (0,) * len(parent.fibers))


@dataclass(frozen=True)
class ConstantRelationalEtale:
    """A relational structure lifted over a base: carrier becomes the fiber
    set and each relation becomes the constant subobject of the matching
    power."""

    structure: object
    base: FiniteTopology

    @cached_property
    def etale(self):
        return ConstantEtale(tuple(self.structure.carrier), self.base)


def phi(lattice, alpha):
    """Section form of a lattice-valued map: the subobject whose
    cross-section at x is alpha(x)."""
    if not isinstance(lattice, OpenSetLattice):
        raise ValueError("phi requires an open-set lattice")
    if alpha.lattice is not lattice and alpha.lattice != lattice:
        raise ValueError("map does not live over the given lattice")
    parent = ConstantEtale(tuple(alpha.carrier), lattice.topology)
    els, mask_of = lattice.elements, lattice.topology.mask_of
    return EtaleSubobject(parent, tuple([mask_of[els[c]] for c in alpha.codes]))


def phi_inverse(lattice, sub):
    """Map form of a subobject: inverse of :func:`phi`."""
    if not isinstance(lattice, OpenSetLattice):
        raise ValueError("phi_inverse requires an open-set lattice")
    if sub.parent.base != lattice.topology:
        raise ValueError("subobject base does not match the lattice's topology")
    return LatticeMap.from_values(sub.parent.fibers, lattice, sub.sections)


def _check_args(rel_etale, name, args):
    n = rel_etale.structure.signature.arity(name)
    if len(args) != n:
        raise ValueError(f"{name} expects {n} arguments, got {len(args)}")
    parent = rel_etale.etale
    for a in args:
        if a.parent is not parent and a.parent != parent:
            raise ValueError("argument subobject lives over a different bundle")
    return n, parent


def fiberwise_rel_image(rel_etale, name, args):
    """Image of a lifted relation, computed sectionwise: the cross-section at x
    is the union (OR of masks), over relation tuples ending in x, of the
    intersections (AND) of the argument sections at the tuple entries."""
    n, parent = _check_args(rel_etale, name, args)
    position, masks = {x: i for i, x in enumerate(parent.fibers)}, [a.masks for a in args]
    full, out = parent.base.mask_of[parent.base.points], [0] * len(parent.fibers)
    for t in rel_etale.structure.relations[name]:
        piece = full
        for i in range(n):
            piece &= masks[i][position[t[i]]]
        out[position[t[-1]]] |= piece
    return EtaleSubobject(parent, tuple(out))


def per_fiber_rel_image(rel_etale, name, args):
    """Image of a lifted relation, computed fiber by fiber over the base.

    At each base point the arguments restrict to subsets of the fibers, held
    as one slot mask; :func:`image_mask` gives the result's fiber there. The
    reassembled sections must be open; no image code is shared with the other route.
    """
    n, parent = _check_args(rel_etale, name, args)
    groups = rel_etale.structure.slot_masks(name)[1]
    inside = _transpose([m for a in args for m in a.masks], len(parent.base.points))
    hits = [image_mask(groups, m) for m in inside]
    return EtaleSubobject(parent, tuple(_transpose(hits, len(parent.fibers))))


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
    return EtaleSubobject(a.parent, tuple([p | q for p, q in zip(a.masks, b.masks)]))


def sub_intersection(a, b):
    _check_same_parent(a, b)
    return EtaleSubobject(a.parent, tuple([p & q for p, q in zip(a.masks, b.masks)]))


def sub_impl(a, b):
    """Heyting implication per fiber: the union of the open masks w with w & p <= q."""
    _check_same_parent(a, b)
    opens = a.parent.base.open_of
    masks = [reduce(or_, [w for w in opens if not w & p & ~q], 0) for p, q in zip(a.masks, b.masks)]
    return EtaleSubobject(a.parent, tuple(masks))


def sub_neg(a):
    return sub_impl(a, empty_subobject(a.parent))


def sub_leq(a, b):
    _check_same_parent(a, b)
    return all(p & q == p for p, q in zip(a.masks, b.masks))


def _format_map(m):
    return ", ".join(
        f"{x}->{{{' '.join(str(p) for p in sorted(v))}}}" for x, v in m.values.items()
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
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if not isinstance(lattice, OpenSetLattice) or lattice.topology != topology:
        raise ValueError("lattice must be the open-set algebra of the given topology")
    carrier = tuple(structure.carrier)
    rel_etale = ConstantRelationalEtale(structure, topology)
    rng = random.Random(seed)
    checks = 0
    for trial in range(trials):
        for name in structure.signature.names:
            n = structure.signature.arity(name)
            args = [random_map(rng, lattice, carrier) for _ in range(n)]
            lhs = phi(lattice, conv_op(lattice, structure, name, args))
            rhs = fiberwise_rel_image(rel_etale, name, [phi(lattice, a) for a in args])
            checks += 1
            if lhs != rhs:
                detail = f"trial {trial}, relation {name}, args " + "; ".join(
                    _format_map(a) for a in args
                )
                return IsoTrialReport(False, trials, checks, detail)
        alpha = random_map(rng, lattice, carrier)
        beta = random_map(rng, lattice, carrier)
        pa, pb = phi(lattice, alpha), phi(lattice, beta)
        pairs = [
            (phi(lattice, pointwise_join(alpha, beta)), sub_union(pa, pb), "join"),
            (phi(lattice, pointwise_meet(alpha, beta)), sub_intersection(pa, pb), "meet"),
            (phi(lattice, pointwise_impl(alpha, beta)), sub_impl(pa, pb), "impl"),
            (phi(lattice, pointwise_neg(alpha)), sub_neg(pa), "neg"),
        ]
        for lhs, rhs, label in pairs:
            checks += 1
            if lhs != rhs:
                detail = f"trial {trial}, pointwise {label}, args " + "; ".join(
                    _format_map(a) for a in (alpha, beta)
                )
                return IsoTrialReport(False, trials, checks, detail)
    return IsoTrialReport(True, trials, checks, None)


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
