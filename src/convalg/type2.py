"""Exact convolution operations on piecewise-constant unit-interval functions.

The carrier is the fragment of self-maps of [0, 1] that are constant
between finitely many rational breakpoints, with an independent value at
every breakpoint; single-point spikes matter, so a breakpoint's value is
not tied to its neighbouring intervals. The fragment is closed under all
three operations and everything here is exact rational arithmetic, on
int numerators over each function's least common denominator: equal
functions have equal fields, and ``Fraction``s appear only where pieces
enter or leave. The closed forms rest on one fact about chains: y join
z = x forces one of y, z to equal x and the other to lie below (dually
for meet), which turns the defining suprema into running envelopes, so
each closed form is one merge of breakpoint lists. They are checked
against :func:`grid_conv_oracle`, a literal brute-force convolution that
shares no envelope or merge code with them and visits each of the
(n + 1)**2 argument pairs of an n-grid once; :func:`crosscheck` refuses
grids whose pair count exceeds ``MAX_MAPS``.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

from .convolution import MAX_MAPS, _compare_routes
from .lattice import _bounded, _count


def _decoded(field):
    """Accessor for the numerator field ``field`` as Fractions over ``den``."""
    return property(lambda self: tuple([Fraction(v, self.den) for v in getattr(self, field)]))


@dataclass(frozen=True, init=False)
class StepFunction:
    """Piecewise-constant function on [0, 1] with rational breakpoints.

    ``point_values[i]`` is the value at ``breakpoints[i]``;
    ``interval_values[i]`` is the value on the open interval between
    breakpoints i and i+1. 0 and 1 are always breakpoints. The fields
    hold them as numerators ``bps``, ``pvs`` and ``ivs`` over ``den``.
    The constructor takes ``int`` (not ``bool``) or ``Fraction`` pieces
    and merges every interior breakpoint whose point value equals both
    neighbouring interval values; calling refuses the same kinds of
    argument that the constructor refuses as pieces.
    """

    den: int
    bps: tuple
    pvs: tuple
    ivs: tuple

    def __init__(self, breakpoints, point_values, interval_values):
        if len(point_values) != len(breakpoints) or len(interval_values) != len(breakpoints) - 1:
            raise ValueError("value tuples do not match the breakpoint count")
        den, bps, pvs, ivs = _encode(breakpoints, point_values, interval_values)
        if bps[0] != 0 or bps[-1] != den:
            raise ValueError("0 and 1 must be breakpoints")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        self.__dict__.update(vars(_step(den, bps, pvs, ivs)))

    breakpoints, point_values, interval_values = map(_decoded, ("bps", "pvs", "ivs"))

    def __call__(self, x):
        k = _exact(x) * self.den
        i = bisect_right(self.bps, k) - 1
        return Fraction(self.pvs[i] if self.bps[i] == k else self.ivs[i], self.den)


def _exact(v):
    """``v``, or ValueError unless it is an int (not a bool) or a Fraction in [0, 1]."""
    if type(v) is bool or not isinstance(v, (int, Fraction)):
        raise ValueError(f"value {v!r} is not an int or a Fraction")
    # Normalized numerator and denominator: no Fraction comparison.
    if not 0 <= v.numerator <= v.denominator:
        raise ValueError(f"value {v} outside [0, 1]")
    return v


def _encode(*groups):
    """Check that every value is an exact rational in [0, 1]; return den and numerator lists."""
    values = [_exact(v) for vs in groups for v in vs]
    den = lcm(*[v.denominator for v in values])
    return den, *[[v.numerator * (den // v.denominator) for v in vs] for vs in groups]


def _lowest(cls, den, **groups):
    """A cls built unchecked from den and numerator groups over it, divided by their gcd."""
    g = gcd(den, *[v for vs in groups.values() for v in vs])
    obj = object.__new__(cls)
    fields = {k: tuple(vs if g == 1 else [v // g for v in vs]) for k, vs in groups.items()}
    obj.__dict__.update(fields, den=den // g)
    return obj


def _step(den, bps, pvs, ivs):
    """Canonical step function with these numerators over den, built unchecked."""
    last = len(bps) - 1
    keep = [0, *[i for i in range(1, last) if not ivs[i - 1] == pvs[i] == ivs[i]], last]
    if len(keep) <= last:
        bps, pvs = [bps[i] for i in keep], [pvs[i] for i in keep]
        ivs = [ivs[i - 1] for i in keep[1:]]
    return _lowest(StepFunction, den, bps=bps, pvs=pvs, ivs=ivs)


_CONSTANTS = StepFunction((0, 1), (1, 0), (0,)), StepFunction((0, 1), (0, 1), (0,))


def t2_constants():
    """The two distinguished elements, built once: the unit spikes at 0 and at 1."""
    return _CONSTANTS


def _pieces(f):
    """f's point and interval numerators interleaved, in order from 0."""
    pieces = [None] * (2 * len(f.bps) - 1)
    pieces[::2], pieces[1::2] = f.pvs, f.ivs
    return pieces


def _running_max(pieces, backward):
    """Running maximum of pieces, taken in order from 0 or, backward, from 1."""
    if backward:
        return list(accumulate(pieces[::-1], max))[::-1]
    return list(accumulate(pieces, max))


def _envelope(f, backward):
    run = _running_max(_pieces(f), backward)
    return _step(f.den, f.bps, run[::2], run[1::2])


def sup_left(f):
    """Running-maximum envelope from the left: value at x is max of f on [0, x]."""
    return _envelope(f, backward=False)


def sup_right(f):
    """Running-maximum envelope from the right: value at x is max of f on [x, 1]."""
    return _envelope(f, backward=True)


def _convolve(a, b, backward):
    """max(a min env(b), env(a) min b), env the running maximum from 0 or,
    backward, from 1, in one merge of the breakpoint lists, both
    arguments' numerators scaled to their common denominator, unless it is
    their own. As env(f) >= f, the term led by the larger piece is the
    maximum: two int comparisons per merged piece, with no builtin call."""
    den = lcm(a.den, b.den)
    ka, kb = den // a.den, den // b.den
    fb, fv, gb, gv = a.bps, _pieces(a), b.bps, _pieces(b)
    if ka > 1:
        fb, fv = [v * ka for v in fb], [v * ka for v in fv]
    if kb > 1:
        gb, gv = [v * kb for v in gb], [v * kb for v in gv]
    fe, ge = _running_max(fv, backward), _running_max(gv, backward)
    last = len(fb) - 1
    bps, vals = [], []
    i = j = 0
    while True:
        x, y = fb[i], gb[j]
        at_f, at_g = x <= y, y <= x
        bps.append(x if at_f else y)
        # An input without a breakpoint here contributes the open interval around it.
        p, q = 2 * i - (not at_f), 2 * j - (not at_g)
        u, v = fv[p], gv[q]
        vals.append((u if u < ge[q] else ge[q]) if u >= v else (v if v < fe[p] else fe[p]))
        i += at_f
        j += at_g
        # Both lists end at 1, so f runs out exactly when g does.
        if i > last:
            break
        p, q = 2 * i - 1, 2 * j - 1
        u, v = fv[p], gv[q]
        vals.append((u if u < ge[q] else ge[q]) if u >= v else (v if v < fe[p] else fe[p]))
    return _step(den, bps, vals[::2], vals[1::2])


def t2_join(a, b):
    """Convolution join: x maps to the supremum of min(a(y), b(z)) over
    pairs with max(y, z) = x.

    On a chain the constraint splits into y = x with z below, or z = x
    with y below, giving max(a(x) min supL(b)(x), supL(a)(x) min b(x))
    with supL the left envelope.
    """
    return _convolve(a, b, backward=False)


def t2_meet(a, b):
    """Convolution meet, dual to :func:`t2_join` with right envelopes."""
    return _convolve(a, b, backward=True)


def t2_neg(a):
    """Convolution negation.

    The underlying unary relation x -> 1 - x is a bijection, so the
    defining supremum collapses to the single term a(1 - x) and the
    result is the reflection of a. Non-bijective unary relations do not
    collapse this way; those go through the generic convolution
    machinery in the convolution module instead.
    """
    return _step(a.den, [a.den - b for b in reversed(a.bps)], a.pvs[::-1], a.ivs[::-1])


@dataclass(frozen=True, init=False)
class GridFunction:
    """A function on the chain 0, 1/n, ..., 1 with exact rational values,
    held as numerators ``nums`` over their least common denominator ``den``."""

    size: int
    den: int
    nums: tuple

    def __init__(self, size, values):
        if len(values) != _count(size, "grid size", 1) + 1:
            raise ValueError("value count must be size + 1")
        self.__dict__.update(vars(_grid(size, *_encode(values))))

    values = _decoded("nums")


def _grid(size, den, nums):
    """A GridFunction built unchecked; every caller has checked ``size``."""
    g = _lowest(GridFunction, den, nums=nums)
    g.__dict__["size"] = size
    return g


def grid_conv_oracle(n, op, *args):
    """Literal brute-force convolution on the chain 0, 1/n, ..., 1.

    Independent of every closed form in this module: it visits each
    argument tuple once ((n + 1)**2 pairs for join and meet), finds the
    output point the defining relation sends it to, and raises the value
    there to the meet of the arguments when that is larger. Every output
    point thus ends at the supremum over the tuples related to it. This
    is the oracle the closed forms are validated against. Join and meet
    compare the arguments' numerators over their common denominator.
    """
    _count(n, "grid size", 1)
    for g in args:
        if g.size != n:
            raise ValueError("grid size mismatch")
    if op in ("join", "meet"):
        if len(args) != 2:
            raise ValueError(f"{op} takes two arguments")
        a, b = args
        den = lcm(a.den, b.den)
        va = [v * (den // a.den) for v in a.nums]
        vb = [v * (den // b.den) for v in b.nums]
        join = op == "join"
        best = [0] * (n + 1)
        for y, ay in enumerate(va):
            for z, bz in enumerate(vb):
                x = (y if y > z else z) if join else (y if y < z else z)
                v = ay if ay < bz else bz
                if v > best[x]:
                    best[x] = v
        return _grid(n, den, best)
    if op == "neg":
        if len(args) != 1:
            raise ValueError("neg takes one argument")
        (a,) = args
        values = [0] * (n + 1)
        for y, ay in enumerate(a.nums):
            x = n - y
            if ay > values[x]:
                values[x] = ay
        return _grid(n, a.den, values)
    raise ValueError(f"unknown operation {op!r}")


def sample_to_grid(f, n):
    """Restriction of a step function to the n-grid.

    Every breakpoint of f must lie on the grid; otherwise the
    restriction would lose pieces and grid comparisons would be
    meaningless. Grid slots are filled straight from the pieces: a
    breakpoint's value at its own slot and its interval's value at the
    slots up to the next breakpoint. Raises CapacityError, filling
    nothing, when the n + 1 slots exceed ``MAX_MAPS``.
    """
    _bounded(_count(n, "grid size", 1) + 1, "grid slots", MAX_MAPS)
    for b in f.bps:
        if b * n % f.den:
            raise ValueError(f"breakpoint {Fraction(b, f.den)} is not a multiple of 1/{n}")
    slots = [b * n // f.den for b in f.bps]
    values = []
    for k, nxt, p, v in zip(slots, slots[1:], f.pvs, f.ivs):
        values.append(p)
        values.extend([v] * (nxt - k - 1))
    values.append(f.pvs[-1])
    return _grid(n, f.den, values)


def random_grid_step(rng, n, value_denominator=12, max_interior=4):
    """Random canonical step function with breakpoints on the n-grid.

    Pieces between adjacent grid points get an interval value no larger
    than one of its endpoint values; otherwise that value would be
    invisible to grid sampling and restriction would not commute with
    the convolutions. Pieces spanning several grid cells expose their
    value at interior grid points, so theirs is unconstrained.
    """
    _count(n, "grid size", 1)
    d = _count(value_denominator, "value_denominator", 1)
    den = lcm(n, d)
    _count(max_interior, "max_interior", 0)
    count = rng.randint(0, min(n - 1, max_interior))
    bps = [k * (den // n) for k in (0, *sorted(rng.sample(range(1, n), count)), n)]
    pvs = [rng.randint(0, d) * (den // d) for _ in bps]
    ivs = [rng.randint(0, d) * (den // d) for _ in bps[1:]]
    cells = zip(bps, bps[1:], pvs, pvs[1:], ivs)
    ivs = [min(v, max(p, q)) if b - a == den // n else v for a, b, p, q, v in cells]
    return _step(den, bps, pvs, ivs)


def random_step(rng, max_denominator=16, max_interior=4):
    """Random canonical step function with arbitrary rational breakpoints."""
    _count(max_interior, "max_interior", 0)
    if _count(max_denominator, "max_denominator", 1) < 2 and max_interior:
        raise ValueError("max_denominator must be at least 2 when max_interior is positive")
    draws = []
    for _ in range(rng.randint(0, max_interior)):
        d = rng.randint(2, max_denominator)
        draws.append((rng.randint(1, d - 1), d))
    d = max_denominator
    den = lcm(d, *[e for _, e in draws])
    # A set of numerators over den drops repeats such as 1/2 and 2/4.
    bps = [0, *sorted({k * (den // e) for k, e in draws}), den]
    pvs = [rng.randint(0, d) * (den // d) for _ in bps]
    ivs = [rng.randint(0, d) * (den // d) for _ in bps[:-1]]
    return _step(den, bps, pvs, ivs)


@dataclass
class CrosscheckReport:
    ok: bool
    grid: int
    trials: int
    checks: int
    failure: str | None

    def __str__(self):
        if self.ok:
            return f"closed forms match the oracle on {self.checks} checks (grid {self.grid})"
        return f"oracle mismatch: {self.failure}"


def crosscheck(n, trials, seed=0):
    """Compare the closed forms with the brute-force oracle on random pairs.

    Equality is exact; a single mismatch is a bug in one of the two
    routes. Deterministic for a fixed seed. Raises CapacityError when
    the oracle's (n + 1)**2 argument pairs exceed ``MAX_MAPS``.
    """
    _count(n, "grid size", 1)
    _count(trials, "trials", 0)
    _bounded((n + 1) ** 2, f"argument pairs of grid {n}", MAX_MAPS)
    rng = random.Random(seed)

    def cases():
        for trial in range(trials):
            a, b = random_grid_step(rng, n), random_grid_step(rng, n)
            ga, gb = sample_to_grid(a, n), sample_to_grid(b, n)
            for label, closed, oracle in [
                ("join", sample_to_grid(t2_join(a, b), n), grid_conv_oracle(n, "join", ga, gb)),
                ("meet", sample_to_grid(t2_meet(a, b), n), grid_conv_oracle(n, "meet", ga, gb)),
                ("neg", sample_to_grid(t2_neg(a), n), grid_conv_oracle(n, "neg", ga)),
            ]:
                yield closed, oracle, lambda: (
                    f"trial {trial}, {label}: closed {closed.values} vs oracle {oracle.values}"
                )

    checks, failure = _compare_routes(cases())
    return CrosscheckReport(failure is None, n, trials, checks, failure)
