"""Small builders shared by several test modules."""

from itertools import product


def graph(carrier, op, arity):
    """The graph of ``op`` on ``carrier``: every argument tuple followed by its result."""
    return frozenset(args + (op(*args),) for args in product(carrier, repeat=arity))
