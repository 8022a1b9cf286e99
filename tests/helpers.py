"""Small builders shared by several test modules."""

from itertools import product

from convalg import random_step, t2_join, t2_meet, t2_neg


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
