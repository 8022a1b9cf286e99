"""Finite lattices and complete Heyting algebras.

Two concrete families carry all the semantics in this package: open-set
lattices of finite topological spaces, and finite chains of exact
rationals. A generic order-presented form also exists so the law checker
can be pointed at lattices that fail to be Heyting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain, combinations, compress, count, product
from math import comb
from operator import ne

# Planned checks above which check_heyting_laws refuses to start.
MAX_LAW_CHECKS = 10**7
# Opens above which make_topology stops joining (256 opens exceed MAX_LAW_CHECKS).
MAX_OPENS = 2**8


class CapacityError(Exception):
    """An enumeration would exceed the configured bound."""


def _bounded(count, what, bound):
    """``count``, or CapacityError when it exceeds ``bound``: every enumeration's guard."""
    if count > bound:
        raise CapacityError(f"{count} {what} exceed the bound {bound}")
    return count


def _count(value, what, least):
    """``value``, or ValueError unless it is an int (not a bool) of at least ``least``,
    which is 0 or 1: every size and count argument's check."""
    if type(value) is not int or value < least:
        kind = "a nonnegative int" if least == 0 else "a positive integer"
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    return value


@dataclass(frozen=True)
class FiniteTopology:
    """A finite point set together with its family of open sets.

    The family must contain the empty set and the full point set and be
    closed under union and intersection; construction fails otherwise.
    Every open is the union of the ``least_opens`` of its points, by
    Alexandrov's correspondence. Use :func:`make_topology` to close a
    generator family.
    """

    points: frozenset
    opens: frozenset

    def __post_init__(self):
        for a in self.opens:
            if not a <= self.points:
                raise ValueError(f"open set {sorted(a)} is not a subset of the points")
        if frozenset() not in self.opens:
            raise ValueError("the empty set must be open")
        if self.points not in self.opens:
            raise ValueError("the full point set must be open")
        # every open is a union of least opens, so unions with them close the family
        for u in self.least_opens.values():
            if u not in self.opens:
                raise ValueError("opens are not closed under intersection")
            if any(a | u not in self.opens for a in self.opens):
                raise ValueError("opens are not closed under union")

    @cached_property
    def least_opens(self):
        """Point -> the intersection of the opens that contain it, in sorted point order."""
        return {p: self.points.intersection(*[a for a in self.opens if p in a])
                for p in sorted(self.points)}

    def impl(self, a, b):
        """Heyting implication of opens: the union of the least opens W with W & a <= b,
        which is the set of their points, as W holds the least open of each of its points."""
        return frozenset([p for p, w in self.least_opens.items() if w & a <= b])

    @cached_property
    def mask_of(self):
        """Open -> its mask, with bit k for the k-th of ``sorted(points)``; built on first use."""
        bit = {p: 1 << k for k, p in enumerate(sorted(self.points))}
        return {a: sum(bit[p] for p in a) for a in self.opens}

    @cached_property
    def open_of(self):
        """Mask -> the open it names; only the masks of opens are keys."""
        return {m: a for a, m in self.mask_of.items()}

    @cached_property
    def bundles(self):
        """Carrier tuple, or id of the one a bundle holds, -> its ``etale.ConstantEtale``."""
        return {}


def make_topology(points, generators=()):
    """Smallest topology on ``points`` containing every generator.

    A point's least open is the intersection of the generators that
    contain it. From the empty and the full point set, the opens are
    built by joining in one least open at a time, in sorted point order.
    Idempotent on the opens of a topology. Raises CapacityError at the
    first step whose family passes ``MAX_OPENS``.
    """
    pts, gens = frozenset(points), [frozenset(g) for g in generators]
    for g in gens:
        if unknown := g - pts:
            raise ValueError(f"generator mentions unknown points: {sorted(unknown)}")
    opens = {frozenset(), pts}
    for p in sorted(pts):
        least = pts.intersection(*[g for g in gens if p in g])
        opens |= {a | least for a in opens}
        _bounded(len(opens), "opens", MAX_OPENS)
    return FiniteTopology(pts, frozenset(opens))


def enumerate_topologies(points):
    """Yield every topology on the given point set, in a fixed order.

    Each is built once, from its least opens (Alexandrov): a choice of an open U_p around
    each point p, transitive in that U_p holds U_q for each q in U_p. They are keyed by
    bit i for the i-th proper nonempty subset (by size, then lexicographically) among the
    opens. At most four points; repeated labels name one point.
    """
    pts = tuple(sorted(set(points)))
    if len(pts) > 4:
        raise ValueError("topology enumeration is exponential; at most 4 points")
    subsets = [frozenset(c) for r in range(len(pts) + 1) for c in combinations(pts, r)]
    bit = {s: 1 << i for i, s in enumerate(subsets[1:-1])}
    found = []
    for choice in product(*[[s for s in subsets if p in s] for p in pts]):
        if all(choice[pts.index(q)] <= u for u in choice for q in u):  # transitive
            found.append(make_topology(pts, choice))
    yield from sorted(found, key=lambda t: sum(bit.get(a, 0) for a in t.opens))


class FiniteLattice:
    """A finite lattice presented by its elements and order relation.

    ``elements`` fixes the canonical enumeration order used everywhere
    for deterministic output. Joins and meets of arbitrary finite
    subsets are computed by bound enumeration; the empty join is the
    bottom element and the empty meet is the top. ``impl`` is the
    candidate relative pseudo-complement ``join{w : w meet a <= b}``;
    whether it actually satisfies the adjunction is decided by
    :func:`check_heyting_laws`, so raw non-Heyting lattices may be built
    for negative testing.

    For the convolution layer every element is also a position: its
    index in ``elements``. ``index`` maps elements to positions and also
    answers membership. ``meet_table``/``join_table`` hold the binary
    operations over positions, with ``bottom_code`` and ``top_code`` as
    their units; they are built on first use from the lattice's own
    ``meet`` and ``join``, so an order that is not a lattice can still be
    constructed; it fails only when a table is asked for.

    Two lattices are equal when they have the same elements in the same
    canonical order and the same order relation.
    """

    def __init__(self, elements, leq):
        self.elements = tuple(elements)
        if not self.elements:
            raise ValueError("a lattice needs at least one element")
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("duplicate lattice elements")
        self._leq = leq
        self.bottom = self.join_all(())
        self.top = self.meet_all(())

    def leq(self, a, b):
        return self._leq(a, b)

    def join_all(self, items):
        """Least upper bound of a finite collection; bottom when empty."""
        items = tuple(items)
        uppers = [u for u in self.elements if all(self._leq(x, u) for x in items)]
        for u in uppers:
            if all(self._leq(u, v) for v in uppers):
                return u
        raise ValueError(f"no least upper bound for {items!r}")

    def meet_all(self, items):
        """Greatest lower bound of a finite collection; top when empty."""
        items = tuple(items)
        lowers = [u for u in self.elements if all(self._leq(u, x) for x in items)]
        for u in lowers:
            if all(self._leq(v, u) for v in lowers):
                return u
        raise ValueError(f"no greatest lower bound for {items!r}")

    def join(self, a, b):
        return self.join_all((a, b))

    def meet(self, a, b):
        return self.meet_all((a, b))

    def impl(self, a, b):
        return self.join_all([w for w in self.elements if self._leq(self.meet(w, a), b)])

    def neg(self, a):
        return self.impl(a, self.bottom)

    @cached_property
    def bottom_code(self):
        return self.index[self.bottom]

    @cached_property
    def top_code(self):
        return self.index[self.top]

    @cached_property
    def meet_table(self):
        """``meet_table[i][j]`` is the position of the meet of elements i and j."""
        return self._position_table(self.meet)

    @cached_property
    def join_table(self):
        """``join_table[i][j]`` is the position of the join of elements i and j."""
        return self._position_table(self.join)

    @cached_property
    def impl_table(self):
        """``impl_table[i][j]`` is the position of the implication i -> j."""
        return self._position_table(self.impl)

    def _position_table(self, op):
        def position(a, b):
            c = op(a, b)
            if c not in self.index:
                raise ValueError(f"{op.__name__}({a!r}, {b!r}) = {c!r} left the lattice")
            return self.index[c]

        return tuple(tuple(position(a, b) for b in self.elements) for a in self.elements)

    @cached_property
    def _order(self):
        return tuple(_up_sets(self.elements, self.leq))

    @cached_property
    def birkhoff_masks(self):
        """Each position's down-set over the join-irreducibles (bit k for the k-th), or
        None unless these masks turn meet into AND and join into OR, which by Birkhoff's
        representation theorem holds exactly when the lattice is distributive."""
        up, meet, join, bottom = self._order, self.meet_table, self.join_table, self.bottom_code
        below = [[i for i, u in enumerate(up) if i != j and u >> j & 1] for j in range(len(up))]
        # j is irreducible unless it is the join of the positions strictly below it
        irr = [j for j, b in enumerate(below) if reduce(lambda a, i: join[a][i], b, bottom) != j]
        masks = [sum(1 << k for k, j in enumerate(irr) if up[j] >> i & 1) for i in range(len(up))]
        lawful = not masks[bottom] and masks[self.top_code] == (1 << len(irr)) - 1 and all(
            masks[meet[a][b]] == ma & mb and masks[join[a][b]] == ma | mb
            for (a, ma), (b, mb) in product(enumerate(masks), repeat=2)
        )
        return tuple(masks) if lawful else None

    @cached_property
    def heyting_report(self):
        """:func:`check_heyting_laws` with its default arguments, run once per lattice."""
        return check_heyting_laws(self)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, FiniteLattice)
            and self.elements == other.elements
            and self._order == other._order
        )

    def __hash__(self):
        return hash((self.elements, self._order))

    def __repr__(self):
        return f"{type(self).__name__}({len(self.elements)} elements)"


def _up_sets(elements, leq):
    """The order over positions: bit j of entry i is set when elements[i] <= elements[j]."""
    return [sum(1 << j for j, b in enumerate(elements) if leq(a, b)) for a in elements]


class OpenSetLattice(FiniteLattice):
    """Heyting algebra of the opens of a finite topological space.

    Join is union, meet is intersection, implication of A and B is the union of the
    least opens W with W & A <= B (``FiniteTopology.impl``), and negation is
    implication into the empty set, i.e. the interior of the complement.
    """

    def __init__(self, topology):
        self.topology = topology
        ordered = sorted(topology.opens, key=lambda a: (len(a), tuple(sorted(a))))
        super().__init__(ordered, lambda a, b: a <= b)

    @cached_property
    def open_masks(self):
        """``open_masks[c]`` is the ``topology.mask_of`` mask of ``elements[c]``."""
        return tuple(map(self.topology.mask_of.__getitem__, self.elements))

    def join_all(self, items):
        out = frozenset()
        for a in items:
            out = out | a
        return out

    def meet_all(self, items):
        out = self.topology.points
        for a in items:
            out = out & a
        return out

    def join(self, a, b):
        return a | b

    def meet(self, a, b):
        return a & b

    def impl(self, a, b):
        return self.topology.impl(a, b)


def open_set_heyting(topology):
    """The complete Heyting algebra of open sets of a finite topology."""
    return OpenSetLattice(topology)


class ChainLattice(FiniteLattice):
    """Heyting algebra on the chain 0 < 1/n < ... < 1 of exact rationals, answered on the
    ranks k of its own elements, found by identity; any other value is compared exactly.

    ``negation`` is the order-reversing involution k/n -> (n-k)/n carried
    by the chain itself; it is unrelated to the Heyting pseudo-complement.
    """

    def __init__(self, n):
        els = tuple(Fraction(k, n) for k in range(_count(n, "chain size", 1) + 1))
        self._rank = {id(e): k for k, e in enumerate(els)}  # live elements: a hit is e itself
        super().__init__(els, lambda a, b: a <= b)

    def _extreme(self, items, pick, empty):
        """``pick`` (max or min) of ``items`` by rank, or by value unless each is an element."""
        if None in (ranks := [*map(self._rank.get, map(id, items := tuple(items)))]):
            return pick(items, default=self.elements[empty])
        return self.elements[pick(ranks, default=empty)]

    def leq(self, a, b):
        i, j = self._rank.get(id(a)), self._rank.get(id(b))
        return a <= b if i is None or j is None else i <= j

    def join_all(self, items):
        return self._extreme(items, max, 0)

    def meet_all(self, items):
        return self._extreme(items, min, -1)

    def join(self, a, b):
        return a if self.leq(b, a) else b

    def meet(self, a, b):
        return a if self.leq(a, b) else b

    def impl(self, a, b):
        return self.top if self.leq(a, b) else b

    def negation(self, x):
        if x not in self.index:
            raise ValueError(f"{x} is not on the chain")
        return 1 - x


def chain_lattice(n):
    """The chain 0 < 1/n < ... < 1 as a Heyting algebra."""
    return ChainLattice(n)


@dataclass(frozen=True)
class LawFailure:
    law: str
    detail: str


@dataclass(frozen=True)
class LawReport:
    ok: bool
    checks: int
    failure: LawFailure | None

    def __str__(self):
        if self.ok:
            return f"all laws hold ({self.checks} checks)"
        return f"{self.failure.law} failed after {self.checks} checks: {self.failure.detail}"


def law_check_count(n, max_subset_size):
    """Checks :func:`check_heyting_laws` makes on a lawful n-element lattice."""
    subsets = 1 + sum(comb(n, k) for k in range(1, min(max_subset_size, n) + 1))
    return 2 * n**3 + 2 * n**2 + 2 * n + 2 + subsets * (3 * n + 2)


def check_heyting_laws(lat, max_subset_size=2):
    """Exhaustively verify the lattice, distributivity and adjunction laws.

    Subset-quantified laws (least upper bounds, greatest lower bounds,
    the infinite distributive law) are checked over all subsets of size
    up to ``max_subset_size`` plus the full element set; order, bound,
    and adjunction checks are exhaustive over elements. Returns a report
    carrying the first counterexample instead of raising. Raises
    CapacityError before checking anything when the planned check count
    exceeds ``MAX_LAW_CHECKS``. Asks n^2 ``leq``, ``meet`` and ``impl``
    questions each and each ``join_all`` once: a checked subset's join
    also answers the distributive law's right-hand side over that subset.
    Every scan over elements is a mask test whose lowest bit is the first
    witness. An answer that is one of ``elements`` is placed by identity,
    any other by equality; answers outside ``elements`` go to ``leq``.
    The distributive law is one sweep that stops only where a right-hand
    side is unknown, a join lies outside ``elements`` or the sides differ.
    """
    _count(max_subset_size, "max_subset_size", 0)
    els = lat.elements
    n, full = len(els), (1 << len(els)) - 1
    _bounded(law_check_count(n, max_subset_size), "law checks", MAX_LAW_CHECKS)
    checks = 0

    def fail(law, detail):
        return LawReport(False, checks, LawFailure(law, detail))

    def scan(bad):  # count a scan stopping at bad's lowest bit; that bit, or -1 if none
        nonlocal checks
        k = (bad & -bad).bit_length() - 1
        checks += k + 1 if bad else n
        return k

    up = _up_sets(els, lat.leq)
    down = [sum(1 << i for i, u in enumerate(up) if u >> j & 1) for j in range(n)]
    by_id, index = {id(e): i for i, e in enumerate(els)}, lat.index
    outside, vals = {}, list(els)

    def element(v):  # v's position in els, by identity before equality; None outside els
        p = by_id.get(id(v))  # a live object's id is its own, so a hit is v itself
        return index.get(v) if p is None else p

    def code(v):  # v's position in vals, which appends each new value outside els
        p = by_id.get(id(v))
        if p is None and (p := index.get(v)) is None and (p := outside.get(v)) is None:
            p = outside[v] = len(vals)
            vals.append(v)
            up.append(sum(1 << k for k, u in enumerate(els) if lat.leq(v, u)))
            down.append(sum(1 << k for k, u in enumerate(els) if lat.leq(u, v)))
        return p

    if (k := scan(sum(1 << i for i in range(n) if not up[i] >> i & 1))) >= 0:
        return fail("order", f"not reflexive at {els[k]!r}")
    for i in range(n):
        if (k := scan(up[i] & down[i] & ~(1 << i))) >= 0:
            return fail("order", f"not antisymmetric at {els[i]!r}, {els[k]!r}")
    masks = [up[j] & ~u if u >> j & 1 else 0 for u in up for j in range(n)]
    checks += n * (t := next(compress(count(), masks), n * n))
    if t < n * n:
        (i, j), k = divmod(t, n), scan(masks[t])
        return fail("order", f"not transitive at {els[i]!r}, {els[j]!r}, {els[k]!r}")

    if (k := scan(full & ~(up[code(lat.bottom)] & down[code(lat.top)]))) >= 0:
        return fail("bounds", f"{els[k]!r} not between bottom and top")
    checks += 2
    if lat.join_all(()) != lat.bottom:
        return fail("bounds", "empty join is not bottom")
    if lat.meet_all(()) != lat.top:
        return fail("bounds", "empty meet is not top")

    # the checked subsets' positions by size; the full set is a group of its own
    sizes = range(1, min(max_subset_size, n) + 1)
    groups = [list(combinations(range(n), k)) for k in sizes] + [[tuple(range(n))]]
    positions = [ps for g in groups for ps in g]
    subsets = [tuple(map(els.__getitem__, ps)) for ps in positions]
    joins, bit = [], [1 << p for p in range(n)]
    for ps, s in zip(positions, subsets):
        j, m = code(lat.join_all(s)), code(lat.meet_all(s))
        joins.append(j)
        members, uppers, lowers = sum(map(bit.__getitem__, ps)), full, full
        for p in ps:
            uppers, lowers = uppers & up[p], lowers & down[p]
        checks += 1
        if members & ~down[j]:
            return fail("lub", f"join of {s!r} is not an upper bound")
        if bad := uppers & ~up[j]:
            return fail("lub", f"join of {s!r} is not least (witness {els[scan(bad)]!r})")
        checks += n + 1
        if members & ~up[m]:
            return fail("glb", f"meet of {s!r} is not a lower bound")
        if bad := lowers & ~down[m]:
            return fail("glb", f"meet of {s!r} is not greatest (witness {els[scan(bad)]!r})")
        checks += n

    meet = [[code(lat.meet(a, b)) for b in els] for a in els]
    # join of the meets, by their positions; each checked subset's join is known
    rhs_of = dict(zip(positions, joins))
    # one lazy sweep over t = i * last + u for a = els[i] and the u-th subset, its keys
    # one zip per group of positions; -1 marks a join outside els, met with a in turn
    cols, last, pad = [list(zip(*g)) for g in groups], len(positions), [-1] * (len(vals) - n)
    lhs = chain.from_iterable(map((row + pad).__getitem__, joins) for row in meet)
    keys = (zip(*[map(row.__getitem__, c) for c in g]) for row in meet for g in cols)
    # a key asked at its first position is known when the sweep looks it up again
    for t in compress(count(), map(ne, lhs, map(rhs_of.get, chain.from_iterable(keys)))):
        i, u = divmod(t, last)
        row, j, key = meet[i], joins[u], tuple(map(meet[i].__getitem__, positions[u]))
        left = row[j] if j < n else code(lat.meet(els[i], vals[j]))
        if (right := rhs_of.get(key)) is None:
            right = rhs_of[key] = code(lat.join_all([vals[p] for p in key]))
        if left != right:
            checks += t + 1
            detail = f"{els[i]!r} meet join{subsets[u]!r}: {vals[left]!r} != {vals[right]!r}"
            return fail("distributivity", detail)
    checks += n * last

    # the w with (w meet a) <= els[j]: bit w is character j of the reversed binary
    # string of up[meet[w][i]], so with those laid out w = n - 1 first, every n-th from j
    bits = [format(u, f"0{n}b")[::-1] for u in up]
    for i, a in enumerate(els):
        below = "".join([bits[row[i]] for row in reversed(meet)])
        for j, b in enumerate(els):
            c = lat.impl(a, b)
            checks += 1
            if (p := element(c)) is None:
                return fail("adjunction", f"impl({a!r}, {b!r}) left the lattice")
            if bad := int(below[j::n], 2) ^ down[p]:
                return fail("adjunction", f"w={els[scan(bad)]!r}, a={a!r}, b={b!r}, impl={c!r}")
            checks += n

    return LawReport(True, checks, None)
