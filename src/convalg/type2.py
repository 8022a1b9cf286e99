"""Exact convolution operations on piecewise-constant unit-interval functions.

The carrier is the fragment of self-maps of [0, 1] that are constant
between finitely many rational breakpoints, with an independent value at
every breakpoint; single-point spikes matter, so a breakpoint's value is
not tied to its neighbouring intervals. The fragment is closed under all
three operations and everything here is exact rational arithmetic.

The closed forms rest on one fact about chains: y join z = x forces one
of y, z to equal x and the other to lie below (dually for meet), which
turns the defining suprema into running envelopes, so each closed form
is one merge of breakpoint lists; join and meet merge the int numerators
of their pieces over the arguments' common denominator, which is exact,
and reuse the input pieces. The closed forms are cross-validated against
:func:`grid_conv_oracle`, a literal brute-force convolution on finite
grids that shares no code with them and visits each of the (n + 1)**2
argument pairs of an n-grid once, comparing value ranks;
:func:`crosscheck` refuses grids whose pair count exceeds
:data:`MAX_GRID_PAIRS`. Every :class:`StepFunction` is canonical with
``int`` or ``Fraction`` pieces: the constructor and
:meth:`StepFunction.make` check the pieces once where they enter, and the
operations build their results from such pieces and check nothing again.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm

from .convolution import CapacityError

_ZERO = Fraction(0)
_ONE = Fraction(1)

MAX_GRID_PAIRS = 10**6


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function on [0, 1] with rational breakpoints.

    ``point_values[i]`` is the value at ``breakpoints[i]``;
    ``interval_values[i]`` is the value on the open interval between
    breakpoints i and i+1. 0 and 1 are always breakpoints, and every
    piece is an ``int`` (not a ``bool``) or a ``Fraction``. The
    constructor accepts only canonical form, with no interior breakpoint
    whose point value equals both neighbouring interval values; use
    :meth:`make` to normalize.
    """

    breakpoints: tuple
    point_values: tuple
    interval_values: tuple

    def __post_init__(self):
        bps, pvs, ivs = self.breakpoints, self.point_values, self.interval_values
        _check_pieces(bps, pvs, ivs)
        if any(ivs[i - 1] == pvs[i] == ivs[i] for i in range(1, len(bps) - 1)):
            raise ValueError("redundant interior breakpoint; use StepFunction.make")

    @classmethod
    def make(cls, breakpoints, point_values, interval_values):
        """Build in canonical form, merging redundant interior breakpoints."""
        bps, pvs, ivs = _fractions(breakpoints), _fractions(point_values), _fractions(interval_values)
        _check_pieces(bps, pvs, ivs)
        return _canonical(bps, pvs, ivs)

    def __call__(self, x):
        x = Fraction(x)
        if not (_ZERO <= x <= _ONE):
            raise ValueError(f"argument {x} outside [0, 1]")
        i = bisect_right(self.breakpoints, x) - 1
        if self.breakpoints[i] == x:
            return self.point_values[i]
        return self.interval_values[i]

    def sup(self):
        return max(max(self.point_values), max(self.interval_values, default=_ZERO))


def _check_values(values):
    """Every value must be an exact rational in [0, 1]."""
    for v in values:
        if type(v) is bool or not isinstance(v, (int, Fraction)):
            raise ValueError(f"value {v!r} is not an int or a Fraction")
        # Normalized numerator and denominator: no Fraction comparison.
        if not 0 <= v.numerator <= v.denominator:
            raise ValueError(f"value {v} outside [0, 1]")


def _check_pieces(bps, pvs, ivs):
    if len(pvs) != len(bps) or len(ivs) != len(bps) - 1:
        raise ValueError("value tuples do not match the breakpoint count")
    _check_values((*bps, *pvs, *ivs))
    if bps[0] != _ZERO or bps[-1] != _ONE:
        raise ValueError("0 and 1 must be breakpoints")
    for a, b in zip(bps, bps[1:]):
        if not a < b:
            raise ValueError("breakpoints must be strictly increasing")


def _fractions(values):
    return tuple([v if isinstance(v, Fraction) else Fraction(v) for v in values])


def _canonical(bps, pvs, ivs, decode=None):
    """Canonical form of validated pieces, built without checking them again.
    With ``decode``, the values are int codes and the result holds their values."""
    last = len(bps) - 1
    keep = [0, *(i for i in range(1, last) if not ivs[i - 1] == pvs[i] == ivs[i]), last]
    # From lists: tuple() of a generator guesses its size and resizes.
    bps, pvs, ivs = [bps[i] for i in keep], [pvs[i] for i in keep], [ivs[i - 1] for i in keep[1:]]
    if decode is not None:
        pvs, ivs = [decode[c] for c in pvs], [decode[c] for c in ivs]
    f = object.__new__(StepFunction)
    f.__dict__.update(breakpoints=tuple(bps), point_values=tuple(pvs), interval_values=tuple(ivs))
    return f


def t2_constants():
    """The two distinguished elements: the unit spikes at 0 and at 1."""
    ends, zero = (_ZERO, _ONE), (_ZERO,)
    return StepFunction(ends, (_ONE, _ZERO), zero), StepFunction(ends, (_ZERO, _ONE), zero)


def _pieces(f):
    """f's point and interval values interleaved, in order from 0."""
    pieces = [None] * (2 * len(f.breakpoints) - 1)
    pieces[::2], pieces[1::2] = f.point_values, f.interval_values
    return pieces


def _running_max(pieces, backward):
    """Running maximum of pieces, taken in order from 0 or, backward, from 1."""
    if backward:
        return list(accumulate(pieces[::-1], max))[::-1]
    return list(accumulate(pieces, max))


def _envelope(f, backward):
    run = _running_max(_pieces(f), backward)
    return _canonical(f.breakpoints, run[::2], run[1::2])


def sup_left(f):
    """Running-maximum envelope from the left: value at x is max of f on [0, x]."""
    return _envelope(f, backward=False)


def sup_right(f):
    """Running-maximum envelope from the right: value at x is max of f on [x, 1]."""
    return _envelope(f, backward=True)


def _convolve(a, b, backward):
    """max(a min env(b), env(a) min b), env the running maximum from 0 or,
    backward, from 1, in one merge of the breakpoint lists. Pieces become
    numerators over the common denominator, an exact order embedding, so
    only ints are compared; the result holds the inputs' own pieces."""
    fbo, gbo, fpo, gpo = pieces = a.breakpoints, b.breakpoints, _pieces(a), _pieces(b)
    d = lcm(*{v.denominator for vs in pieces for v in vs})
    fb, gb, fv, gv = [[v.numerator * (d // v.denominator) for v in vs] for vs in pieces]
    decode = dict(zip(fv, fpo)) | dict(zip(gv, gpo))
    fe, ge = _running_max(fv, backward), _running_max(gv, backward)
    last = len(fb) - 1
    bps, vals = [], []
    i = j = 0
    while True:
        x, y = fb[i], gb[j]
        at_f, at_g = x <= y, y <= x
        bps.append(fbo[i] if at_f else gbo[j])
        # An input without a breakpoint here contributes the open interval around it.
        p, q = 2 * i - (not at_f), 2 * j - (not at_g)
        vals.append(max(min(fv[p], ge[q]), min(fe[p], gv[q])))
        i += at_f
        j += at_g
        # Both lists end at 1, so f runs out exactly when g does.
        if i > last:
            break
        p, q = 2 * i - 1, 2 * j - 1
        vals.append(max(min(fv[p], ge[q]), min(fe[p], gv[q])))
    return _canonical(bps, vals[::2], vals[1::2], decode)


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
    bps = [1 - b for b in reversed(a.breakpoints)]
    return _canonical(bps, a.point_values[::-1], a.interval_values[::-1])


@dataclass(frozen=True)
class GridFunction:
    """A function on the chain 0, 1/n, ..., 1 with exact rational values."""

    size: int
    values: tuple

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("grid size must be a positive integer")
        if len(self.values) != self.size + 1:
            raise ValueError("value count must be size + 1")
        _check_values(self.values)

    def __call__(self, x):
        k = Fraction(x) * self.size
        if k.denominator != 1 or not (0 <= k <= self.size):
            raise ValueError(f"{x} is not a grid point")
        return self.values[int(k)]


def grid_conv_oracle(n, op, *args):
    """Literal brute-force convolution on the chain 0, 1/n, ..., 1.

    Independent of every closed form in this module: it visits each
    argument tuple once ((n + 1)**2 pairs for join and meet), finds the
    output point the defining relation sends it to, and raises the value
    there to the meet of the arguments when that is larger. Every output
    point thus ends at the supremum over the tuples related to it. This
    is the oracle the closed forms are validated against. Join and meet
    compare each value's rank among the values that occur (0 included):
    min and max commute with that order embedding, so this is exact.
    """
    for g in args:
        if g.size != n:
            raise ValueError("grid size mismatch")
    if op in ("join", "meet"):
        if len(args) != 2:
            raise ValueError(f"{op} takes two arguments")
        a, b = args
        levels = sorted({_ZERO, *a.values, *b.values})
        rank = {v: r for r, v in enumerate(levels)}
        ra = [rank[v] for v in a.values]
        rb = [rank[v] for v in b.values]
        join = op == "join"
        best = [0] * (n + 1)
        for y, ay in enumerate(ra):
            for z, bz in enumerate(rb):
                x = (y if y > z else z) if join else (y if y < z else z)
                v = ay if ay < bz else bz
                if v > best[x]:
                    best[x] = v
        return GridFunction(n, tuple(levels[r] for r in best))
    if op == "neg":
        if len(args) != 1:
            raise ValueError("neg takes one argument")
        (a,) = args
        values = [_ZERO] * (n + 1)
        for y, ay in enumerate(a.values):
            x = n - y
            if ay > values[x]:
                values[x] = ay
        return GridFunction(n, tuple(values))
    raise ValueError(f"unknown operation {op!r}")


def sample_to_grid(f, n):
    """Restriction of a step function to the n-grid.

    Every breakpoint of f must lie on the grid; otherwise the
    restriction would lose pieces and grid comparisons would be
    meaningless. Grid slots are filled straight from the pieces: a
    breakpoint's value at its own slot and its interval's value at the
    slots up to the next breakpoint.
    """
    slots = []
    for b in f.breakpoints:
        k = b * n
        if k.denominator != 1:
            raise ValueError(f"breakpoint {b} is not a multiple of 1/{n}")
        slots.append(k.numerator)
    values = []
    for k, nxt, p, v in zip(slots, slots[1:], f.point_values, f.interval_values):
        values.append(p)
        values.extend([v] * (nxt - k - 1))
    values.append(f.point_values[-1])
    return GridFunction(n, tuple(values))


def step_from_grid(g):
    """Embed a grid function as a step function with grid-attained suprema.

    Every grid point becomes a breakpoint and each unit interval takes
    the smaller neighbouring point value, so the continuous envelopes of
    the result agree with the discrete envelopes of g on the grid.
    """
    n = g.size
    bps = tuple(Fraction(k, n) for k in range(n + 1))
    ivs = tuple(min(g.values[k], g.values[k + 1]) for k in range(n))
    return StepFunction.make(bps, g.values, ivs)


def random_grid_step(rng, n, value_denominator=12, max_interior=4):
    """Random canonical step function with breakpoints on the n-grid.

    Pieces between adjacent grid points get an interval value no larger
    than one of its endpoint values; otherwise that value would be
    invisible to grid sampling and restriction would not commute with
    the convolutions. Pieces spanning several grid cells expose their
    value at interior grid points, so theirs is unconstrained.
    """
    count = rng.randint(0, min(n - 1, max_interior))
    interior = sorted(rng.sample(range(1, n), count))
    bps = [_ZERO] + [Fraction(k, n) for k in interior] + [_ONE]

    def val():
        return Fraction(rng.randint(0, value_denominator), value_denominator)

    pvs = [val() for _ in bps]
    ivs = []
    for i in range(len(bps) - 1):
        v = val()
        if bps[i + 1] - bps[i] == Fraction(1, n):
            v = min(v, max(pvs[i], pvs[i + 1]))
        ivs.append(v)
    return StepFunction.make(tuple(bps), tuple(pvs), tuple(ivs))


def random_step(rng, max_denominator=16, max_interior=4):
    """Random canonical step function with arbitrary rational breakpoints."""
    interior = set()
    for _ in range(rng.randint(0, max_interior)):
        d = rng.randint(2, max_denominator)
        k = rng.randint(1, d - 1)
        interior.add(Fraction(k, d))
    bps = [_ZERO] + sorted(interior) + [_ONE]
    d = max_denominator

    def val():
        return Fraction(rng.randint(0, d), d)

    pvs = [val() for _ in bps]
    ivs = [val() for _ in bps[:-1]]
    return StepFunction.make(tuple(bps), tuple(pvs), tuple(ivs))


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
    the oracle's (n + 1)**2 argument pairs exceed :data:`MAX_GRID_PAIRS`.
    """
    if n < 1 or trials < 0:
        raise ValueError(f"need a grid size n >= 1 and trials >= 0, got n={n}, trials={trials}")
    if (n + 1) ** 2 > MAX_GRID_PAIRS:
        raise CapacityError(
            f"grid {n} has {(n + 1) ** 2} argument pairs, above the bound {MAX_GRID_PAIRS}"
        )
    rng = random.Random(seed)
    checks = 0
    for trial in range(trials):
        a = random_grid_step(rng, n)
        b = random_grid_step(rng, n)
        ga, gb = sample_to_grid(a, n), sample_to_grid(b, n)
        cases = [
            ("join", sample_to_grid(t2_join(a, b), n), grid_conv_oracle(n, "join", ga, gb)),
            ("meet", sample_to_grid(t2_meet(a, b), n), grid_conv_oracle(n, "meet", ga, gb)),
            ("neg", sample_to_grid(t2_neg(a), n), grid_conv_oracle(n, "neg", ga)),
        ]
        for label, closed, oracle in cases:
            checks += 1
            if closed != oracle:
                detail = (
                    f"trial {trial}, {label}: closed {closed.values} vs oracle {oracle.values}"
                )
                return CrosscheckReport(False, n, trials, checks, detail)
    return CrosscheckReport(True, n, trials, checks, None)
