"""Constant bundles over a finite base space and their open subobjects.

A subobject of the constant bundle X x Y is stored in canonical form as
an indexed family of opens of Y, one cross-section per fiber label.
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

from .complexalg import rel_image
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
    """An open subobject of a constant bundle, as a family of cross-sections.

    ``sections[x]`` is the open subset of the base cut out over fiber
    label x; every section must be open, which makes equality of
    subobjects plain dictionary equality.
    """

    parent: ConstantEtale
    sections: dict

    def __post_init__(self):
        object.__setattr__(self, "sections", dict(self.sections))
        if set(self.sections) != set(self.parent.fibers):
            raise ValueError("sections must cover every fiber label")
        for x, a in self.sections.items():
            if a not in self.parent.base.opens:
                raise ValueError(f"section at {x!r} is not an open set: {sorted(a)}")


def whole_subobject(parent):
    return EtaleSubobject(parent, {x: parent.base.points for x in parent.fibers})


def empty_subobject(parent):
    return EtaleSubobject(parent, {x: frozenset() for x in parent.fibers})


@dataclass(frozen=True)
class ConstantRelationalEtale:
    """A relational structure lifted over a base: carrier becomes the fiber
    set and each relation becomes the constant subobject of the matching
    power."""

    structure: object
    base: FiniteTopology

    @property
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
    return EtaleSubobject(parent, alpha.values)


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
        if a.parent != parent:
            raise ValueError("argument subobject lives over a different bundle")
    return n, parent


def fiberwise_rel_image(rel_etale, name, args):
    """Image of a lifted relation, computed sectionwise.

    The cross-section at x is the union, over relation tuples ending in
    x, of the intersections of the argument sections at the tuple
    entries; nullary relations give the whole base or the empty set.
    """
    n, parent = _check_args(rel_etale, name, args)
    full = parent.base.points
    sections = {}
    for x in parent.fibers:
        out = frozenset()
        for t in rel_etale.structure.relations[name]:
            if t[-1] != x:
                continue
            piece = full
            for i in range(n):
                piece = piece & args[i].sections[t[i]]
                if not piece:
                    break
            out = out | piece
        sections[x] = out
    return EtaleSubobject(parent, sections)


def per_fiber_rel_image(rel_etale, name, args):
    """Image of a lifted relation, computed fiber by fiber over the base.

    At every base point the argument subobjects restrict to plain
    subsets of the fiber set; their relational image gives the fiber of
    the result, and the fibers are reassembled into cross-sections. The
    reassembled sections are open (subobject construction would fail
    otherwise), so this is a genuinely independent route to the same
    subobject as :func:`fiberwise_rel_image`.
    """
    n, parent = _check_args(rel_etale, name, args)
    hit = {x: set() for x in parent.fibers}
    for y in sorted(parent.base.points):
        fiber_args = [
            frozenset(x for x in parent.fibers if y in a.sections[x]) for a in args
        ]
        for x in rel_image(rel_etale.structure, name, fiber_args):
            hit[x].add(y)
    return EtaleSubobject(parent, {x: frozenset(ys) for x, ys in hit.items()})


def _check_same_parent(a, b):
    if a.parent != b.parent:
        raise ValueError("subobjects live over different bundles")


def sub_union(a, b):
    _check_same_parent(a, b)
    return EtaleSubobject(a.parent, {x: a.sections[x] | b.sections[x] for x in a.parent.fibers})


def sub_intersection(a, b):
    _check_same_parent(a, b)
    return EtaleSubobject(a.parent, {x: a.sections[x] & b.sections[x] for x in a.parent.fibers})


def sub_impl(a, b):
    _check_same_parent(a, b)
    base = a.parent.base
    return EtaleSubobject(
        a.parent, {x: base.impl(a.sections[x], b.sections[x]) for x in a.parent.fibers}
    )


def sub_neg(a):
    base = a.parent.base
    return EtaleSubobject(
        a.parent, {x: base.impl(a.sections[x], frozenset()) for x in a.parent.fibers}
    )


def sub_leq(a, b):
    _check_same_parent(a, b)
    return all(a.sections[x] <= b.sections[x] for x in a.parent.fibers)


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
