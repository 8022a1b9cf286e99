"""Small builders shared by several test modules."""

import random
from itertools import product

from convalg import (
    CapacityError,
    ComplexAlgebra,
    ConvolutionAlgebra,
    RelationalStructure,
    Signature,
    chain_lattice,
    holds_in,
    random_equations,
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


def relabelled(rng, s):
    """``s`` carried to fresh labels by a random bijection, its carrier listed
    in another random order."""
    fresh = [f"r{i}" for i in range(len(s.carrier))]
    rng.shuffle(fresh)
    to = dict(zip(s.carrier, fresh))
    rng.shuffle(fresh)
    return RelationalStructure(tuple(fresh), s.signature, {
        name: {tuple(to[x] for x in t) for t in rel} for name, rel in s.relations.items()
    })


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
        structures = (x, x2, disjoint_union(x, x2), relabelled(rng, x))
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
