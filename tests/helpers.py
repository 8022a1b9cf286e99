"""Small builders shared by several test modules."""

import random
from itertools import product

import convalg.complexalg
import convalg.convolution
import convalg.etale
from convalg import (
    CapacityError,
    ComplexAlgebra,
    ConstantRelationalEtale,
    ConvolutionAlgebra,
    EtaleSubobject,
    LatticeMap,
    RelationalStructure,
    Signature,
    chain_lattice,
    holds_in,
    make_topology,
    open_set_heyting,
    phi,
    random_equations,
    random_map,
    random_step,
    t2_join,
    t2_meet,
    t2_neg,
)


def graph(carrier, op, arity):
    """The graph of ``op`` on ``carrier``: every argument tuple followed by its result."""
    return frozenset(args + (op(*args),) for args in product(carrier, repeat=arity))


def de_morgan_mismatches(rng, pairs):
    """How many of the two De Morgan laws between the type-2 closed forms fail, summed
    over ``pairs`` pairs of :func:`random_step` draws; no oracle is involved."""
    count = 0
    for _ in range(pairs):
        a, b = random_step(rng), random_step(rng)
        count += t2_neg(t2_join(a, b)) != t2_meet(t2_neg(a), t2_neg(b))
        count += t2_neg(t2_meet(a, b)) != t2_join(t2_neg(a), t2_neg(b))
    return count


# A signature with a constant, a binary relation (g) and a ternary one (f).
NATURAL_SIG = Signature((("c", 0), ("g", 1), ("f", 2)))
NATURAL_ALGEBRAS = {
    "complex": ComplexAlgebra,
    "chain:1": lambda s: ConvolutionAlgebra(chain_lattice(1), s),
    "chain:2": lambda s: ConvolutionAlgebra(chain_lattice(2), s),
}


def natural_structure(rng, carrier, density=(0.3, 0.15, 0.02)):
    return RelationalStructure(carrier, NATURAL_SIG, {
        name: {t for t in product(carrier, repeat=k + 1) if rng.random() < p}
        for (name, k), p in zip(NATURAL_SIG.symbols, density)
    })


def disjoint_union(s, t):
    """X ⊔ X′ for carriers with no common label."""
    return RelationalStructure(s.carrier + t.carrier, s.signature, {
        name: s.relations[name] | t.relations[name] for name in s.signature.names
    })


def transported(s, to, carrier):
    """``s`` carried along the bijection ``to`` onto ``carrier``, listed in that order."""
    return RelationalStructure(tuple(carrier), s.signature, {
        name: {tuple(to[x] for x in t) for t in rel} for name, rel in s.relations.items()
    })


def relabelling(rng, s):
    """``s`` carried to fresh labels by a random bijection, its carrier listed
    in another random order, and that bijection."""
    fresh = [f"r{i}" for i in range(len(s.carrier))]
    rng.shuffle(fresh)
    to = dict(zip(s.carrier, fresh))
    rng.shuffle(fresh)
    return transported(s, to, fresh), to


def naturality_mismatches(instances, kinds=tuple(NATURAL_ALGEBRAS), seed=11):
    """(checks, mismatches) of two relations of ``holds_in`` over seeded
    five-point structures X and two-point X′: the algebra of X ⊔ X′ is the
    product of those of X and X′, so an equation holds there exactly when it
    holds in both; and a relabelling of X, with its carrier in another order,
    is an isomorphism. Closed equations, of which random sparse structures
    satisfy many but not all, come with as many in up to two variables.
    Sides over the assignment bound are not checked."""
    rng = random.Random(seed)
    checks = mismatches = 0
    for _ in range(instances):
        x = natural_structure(rng, tuple(f"a{i}" for i in range(5)))
        x2 = natural_structure(rng, ("b0", "b1"))
        structures = (x, x2, disjoint_union(x, x2), relabelling(rng, x)[0])
        eqs = [eq for k in (0, 2) for eq in random_equations(
            NATURAL_SIG, 10, seed=rng.randrange(2**32), max_depth=2, max_vars=k)]
        for kind in kinds:
            algebras = [NATURAL_ALGEBRAS[kind](s) for s in structures]
            for eq in eqs:
                verdicts = []
                for algebra in algebras:
                    try:
                        verdicts.append(holds_in(algebra, eq).holds)
                    except CapacityError:
                        verdicts.append(None)
                here, there, union, renamed = verdicts
                for parts, whole in (((here, there), union), ((here,), renamed)):
                    if None not in parts and whole is not None:
                        checks += 1
                        mismatches += all(parts) != whole
    return checks, mismatches


# The base of the étale routes: opens {}, {t1}, {t2}, {t1 t2}, {t1 t2 t3}.
NATURAL_BASE = make_topology(("t1", "t2", "t3"), [{"t1"}, {"t2"}])
ROUTES = ("conv_op", "rel_image", "fiberwise_rel_image", "per_fiber_rel_image")


MORPHISMS = ("relabelling", "fold", "inclusion")


def route_naturality_mismatches(instances, seed=13, morphisms=MORPHISMS):
    """{route: (checks, mismatches)} for ``conv_op``, ``rel_image`` and both
    étale image routes under bounded morphisms h : Y → X, for seeded
    five-point structures S: the inverse of a relabelling of S, with Y's
    carrier in another order; the fold S ⊔ S → S; and the inclusion
    S → S ⊔ S′ into a disjoint union with a seeded two-point S′. Preimage
    along h is a homomorphism of complex algebras, and precomposition with h
    one of convolution algebras and of subobjects of constant bundles
    (Jónsson–Tarski; Goldblatt 1989): each route on Y, applied to pulled-back
    arguments, gives the pullback of its result on X. For the inclusion the
    pullback is the restriction to S, so the route on S ⊔ S′, restricted to
    S, is the route on S applied to the restricted arguments. Arguments are
    drawn on X. Maps go over chain:2 and over the opens of ``NATURAL_BASE``,
    the étale's base. ``morphisms`` picks among ``MORPHISMS``. Each route is
    looked up in its module at call time, so a seeded bug patched there is
    seen."""
    rng = random.Random(seed)
    chain, opens = chain_lattice(2), open_set_heyting(NATURAL_BASE)
    counts = {route: [0, 0] for route in ROUTES}

    def tally(route, there, pulled_here):
        counts[route][0] += 1
        counts[route][1] += there != pulled_here

    for _ in range(instances):
        s = natural_structure(rng, tuple(f"a{i}" for i in range(5)))
        renamed, to = relabelling(rng, s)
        twin = {a: a + "'" for a in s.carrier}
        identity = {a: a for a in s.carrier}
        candidates = {  # (Y, X, h)
            "relabelling": (renamed, s, {b: a for a, b in to.items()}),
            "fold": (disjoint_union(s, transported(s, twin, twin.values())), s,
                     {**identity, **{b: a for a, b in twin.items()}}),
            "inclusion": (s, disjoint_union(s, natural_structure(rng, ("b0", "b1"))), identity),
        }
        for y, x, h in map(candidates.get, morphisms):
            index = {a: i for i, a in enumerate(x.carrier)}
            at = [index[h[b]] for b in y.carrier]
            etale_x, etale_y = (ConstantRelationalEtale(z, NATURAL_BASE) for z in (x, y))
            pull_map = lambda m: LatticeMap(y.carrier, m.lattice, tuple(m.codes[i] for i in at))
            pull_set = lambda t: frozenset(b for b in y.carrier if h[b] in t)
            pull_sub = lambda t: EtaleSubobject(etale_y.etale, tuple(t.masks[i] for i in at))
            for name, n in NATURAL_SIG.symbols:
                maps = [[random_map(rng, lat, x.carrier) for _ in range(n)]
                        for lat in (chain, opens)]
                subsets = [frozenset(a for a in x.carrier if rng.random() < 0.5) for _ in range(n)]
                subs = [phi(opens, m) for m in maps[1]]
                conv = convalg.convolution.conv_op
                for lat, alphas in zip((chain, opens), maps):
                    tally("conv_op", conv(lat, y, name, [*map(pull_map, alphas)]),
                          pull_map(conv(lat, x, name, alphas)))
                image = convalg.complexalg.rel_image
                tally("rel_image", image(y, name, [*map(pull_set, subsets)]),
                      pull_set(image(x, name, subsets)))
                for route in ROUTES[2:]:
                    f = getattr(convalg.etale, route)
                    tally(route, f(etale_y, name, [*map(pull_sub, subs)]),
                          pull_sub(f(etale_x, name, subs)))
    return {route: tuple(c) for route, c in counts.items()}


FRAME_ROUTES = ("conv_op", "fiberwise_rel_image", "per_fiber_rel_image")


def frame_naturality_mismatches(instances, seed=17):
    """{route: (checks, mismatches)} for ``conv_op`` and both étale image routes
    under the frame maps O(Y) → O(S), V ↦ V ∩ S, for seeded three- and four-point
    bases Y and five-point structures X. S is each base point y, where the map is
    the stalk at y, O(Y) → O({y}) ≅ 2, and each least open U_y, where it is the
    restriction to an open subspace: inverse image along the inclusion S → Y. A
    frame map preserves finite meets and all joins, so composing each argument with
    it commutes with ``conv_op``; the étale routes unite intersections of sections,
    so restricting every section to S commutes with them. Each route is looked up
    in its module at call time, so a seeded bug patched there is seen."""
    rng = random.Random(seed)
    counts = {route: [0, 0] for route in FRAME_ROUTES}

    def tally(route, there, restricted_here):
        counts[route][0] += 1
        counts[route][1] += there != restricted_here

    for _ in range(instances):
        points = [f"t{i}" for i in range(rng.randint(3, 4))]
        gens = [rng.sample(points, rng.randint(1, len(points) - 1)) for _ in range(3)]
        base = make_topology(points, gens)
        # denser than the other relations' draws, so joins meet incomparable opens
        x = natural_structure(rng, tuple(f"a{i}" for i in range(5)), density=(0.3, 0.5, 0.1))
        lattice, etale_x = open_set_heyting(base), ConstantRelationalEtale(x, base)
        parts = dict.fromkeys([frozenset({p}) for p in points] + list(base.least_opens.values()))
        subspaces = []
        for part in parts:
            sub = make_topology(part, [v & part for v in base.opens])
            subspaces.append((part, open_set_heyting(sub), ConstantRelationalEtale(x, sub)))
        for name, n in NATURAL_SIG.symbols:
            maps = [random_map(rng, lattice, x.carrier) for _ in range(n)]
            subs = [phi(lattice, m) for m in maps]
            conv = convalg.convolution.conv_op
            routes = [getattr(convalg.etale, route) for route in FRAME_ROUTES[1:]]
            here = [conv(lattice, x, name, maps)] + [f(etale_x, name, subs) for f in routes]
            for part, lat, etale_s in subspaces:
                to_map = lambda m: LatticeMap.from_values(
                    x.carrier, lat, {a: v & part for a, v in m.values.items()})
                to_sub = lambda s: EtaleSubobject(etale_s.etale, tuple(
                    lat.topology.mask_of[v & part] for v in s.sections.values()))
                tally("conv_op", conv(lat, x, name, [*map(to_map, maps)]), to_map(here[0]))
                for route, f, result in zip(FRAME_ROUTES[1:], routes, here[1:]):
                    tally(route, f(etale_s, name, [*map(to_sub, subs)]), to_sub(result))
    return {route: tuple(c) for route, c in counts.items()}
