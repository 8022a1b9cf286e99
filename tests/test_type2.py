import copy
import dataclasses
import pickle
import random
import re
import weakref
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from convalg import (
    CapacityError,
    FiniteLattice,
    GridFunction,
    StepFunction,
    chain_lattice,
    conv_op,
    crosscheck,
    grid_conv_oracle,
    interval_structure,
    random_grid_step,
    random_step,
    sample_to_grid,
    sup_left,
    sup_right,
    t2_constants,
    t2_join,
    t2_meet,
    t2_neg,
)
from convalg.convolution import MAX_MAPS, LatticeMap
from convalg.formats import format_step_function, parse_step_function
from convalg.type2 import _LIVE
from helpers import de_morgan_mismatches


def step_from_grid(g):
    """Embed a grid function as a step function with grid-attained suprema: every grid point
    is a breakpoint and each unit interval takes the smaller neighbouring point value, so the
    continuous envelopes of the result agree with the discrete envelopes of g on the grid."""
    vs = g.values
    bps = [F(k, g.size) for k in range(g.size + 1)]
    return StepFunction(bps, vs, [min(a, b) for a, b in zip(vs, vs[1:])])


@st.composite
def step_functions(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    return random_step(rng, max_denominator=10, max_interior=3)


class TestConstants:
    def test_zero_spike_values(self):
        z, o = t2_constants()
        assert z(0) == 1
        assert z(F(1, 2)) == 0
        assert z(1) == 0
        assert o(1) == 1
        assert o(0) == 0

    def test_negation_swaps_constants(self):
        z, o = t2_constants()
        assert t2_neg(z) == o
        assert t2_neg(o) == z


class TestUnitLaws:
    @given(step_functions())
    @settings(max_examples=60, deadline=None)
    def test_zero_spike_is_join_unit(self, alpha):
        z, _ = t2_constants()
        assert t2_join(z, alpha) == alpha
        assert t2_join(alpha, z) == alpha

    @given(step_functions())
    @settings(max_examples=60, deadline=None)
    def test_one_spike_is_meet_unit(self, alpha):
        _, o = t2_constants()
        assert t2_meet(o, alpha) == alpha
        assert t2_meet(alpha, o) == alpha

    @given(step_functions())
    @settings(max_examples=60, deadline=None)
    def test_negation_involutive(self, alpha):
        assert t2_neg(t2_neg(alpha)) == alpha

    def test_one_spike_join_collapses(self):
        rng = random.Random(2)
        _, o = t2_constants()
        for _ in range(20):
            beta = random_step(rng)
            top = max(*beta.point_values, *beta.interval_values)
            expected = StepFunction((F(0), F(1)), (F(0), top), (F(0),))
            assert t2_join(o, beta) == expected


class TestEnvelopes:
    @given(step_functions())
    @settings(max_examples=60, deadline=None)
    def test_sup_left_idempotent_and_extensive(self, f):
        env = sup_left(f)
        assert sup_left(env) == env
        for x in list(f.breakpoints) + [F(1, 97), F(13, 31)]:
            assert f(x) <= env(x)

    @given(step_functions())
    @settings(max_examples=60, deadline=None)
    def test_sup_right_idempotent_and_extensive(self, f):
        env = sup_right(f)
        assert sup_right(env) == env
        for x in list(f.breakpoints) + [F(1, 97), F(13, 31)]:
            assert f(x) <= env(x)

    def test_envelopes_are_monotone(self):
        rng = random.Random(8)
        for _ in range(30):
            f = random_step(rng)
            grid = [F(k, 24) for k in range(25)]
            left = [sup_left(f)(x) for x in grid]
            assert all(a <= b for a, b in zip(left, left[1:]))
            right = [sup_right(f)(x) for x in grid]
            assert all(a >= b for a, b in zip(right, right[1:]))


class TestGridExamples:
    def test_two_grid_join_meet(self):
        a = GridFunction(2, (F(1, 2), F(1), F(0)))
        b = GridFunction(2, (F(0), F(1, 2), F(1)))
        assert grid_conv_oracle(2, "join", a, b).values == (F(0), F(1, 2), F(1))
        assert grid_conv_oracle(2, "meet", a, b).values == (F(1, 2), F(1), F(0))
        sa, sb = step_from_grid(a), step_from_grid(b)
        assert sample_to_grid(t2_join(sa, sb), 2) == grid_conv_oracle(2, "join", a, b)
        assert sample_to_grid(t2_meet(sa, sb), 2) == grid_conv_oracle(2, "meet", a, b)

    def test_neg_reflects_thirds(self):
        lower_third = StepFunction(
            (F(0), F(1, 3), F(1)), (F(1), F(0), F(0)), (F(1), F(0))
        )
        upper_third = t2_neg(lower_third)
        assert upper_third == StepFunction(
            (F(0), F(2, 3), F(1)), (F(0), F(0), F(1)), (F(0), F(1))
        )
        sampled = sample_to_grid(upper_third, 3)
        assert sampled == grid_conv_oracle(3, "neg", sample_to_grid(lower_third, 3))

    def test_oracle_join_unit(self):
        rng = random.Random(4)
        z, _ = t2_constants()
        gz = sample_to_grid(z, 6)
        g = sample_to_grid(random_grid_step(rng, 6), 6)
        assert grid_conv_oracle(6, "join", gz, g) == g

    def test_oracle_neg_is_reflection(self):
        rng = random.Random(5)
        g = sample_to_grid(random_grid_step(rng, 6), 6)
        out = grid_conv_oracle(6, "neg", g)
        assert out.values == tuple(reversed(g.values))


def join_on_third_call():
    """A wrong ``t2_meet`` for crosscheck: right except on its third call, where it joins."""
    calls = []

    def meet(a, b):
        calls.append(None)
        return (t2_join if len(calls) == 3 else t2_meet)(a, b)

    return meet


class TestClosedFormVsOracle:
    @pytest.mark.parametrize("n", [4, 8])
    def test_seeded_crosscheck(self, n):
        report = crosscheck(n, 40, seed=n)
        assert report.ok
        assert report.checks == 120

    @pytest.mark.parametrize(
        "n,trials", [(0, 1), (-3, 1), (4, -1), (True, True), (4, True), (4, 2.0), (2.0, 1)]
    )
    def test_bad_counts_rejected(self, n, trials):
        # n is checked first; the cases with the good n = 4 fail on trials
        with pytest.raises(ValueError, match="trials" if n == 4 else "grid size"):
            crosscheck(n, trials)

    def test_failure_report(self, monkeypatch):
        monkeypatch.setattr("convalg.type2.t2_meet", join_on_third_call())
        report = crosscheck(4, 10, seed=0)
        detail = (
            "trial 2, meet: closed (Fraction(1, 12), Fraction(1, 2), Fraction(1, 2), "
            "Fraction(1, 2), Fraction(2, 3)) vs oracle (Fraction(7, 12), Fraction(1, 2), "
            "Fraction(1, 2), Fraction(7, 12), Fraction(2, 3))"
        )
        assert (report.ok, report.grid, report.trials, report.checks, report.failure) == (
            False, 4, 10, 8, detail
        )
        assert str(report) == f"oracle mismatch: {detail}"

    def test_grid_above_pair_bound_rejected_before_any_trial(self, monkeypatch):
        assert (999 + 1) ** 2 <= MAX_MAPS < (1000 + 1) ** 2
        assert crosscheck(999, 0).ok
        calls = []
        monkeypatch.setattr("convalg.type2.random_grid_step", lambda *a: calls.append(a))
        for n in (1000, 5000):
            with pytest.raises(CapacityError, match="argument pairs"):
                crosscheck(n, 3)
        assert calls == []

    def test_oracle_agrees_with_convolution_module(self):
        # two independent code paths over the same relational data
        n = 8
        lat = chain_lattice(n)
        s = interval_structure(n)
        rng = random.Random(42)
        for _ in range(50):
            ga = sample_to_grid(random_grid_step(rng, n, value_denominator=n), n)
            gb = sample_to_grid(random_grid_step(rng, n, value_denominator=n), n)
            ma = LatticeMap.from_values(s.carrier, lat, {F(k, n): ga.values[k] for k in range(n + 1)})
            mb = LatticeMap.from_values(s.carrier, lat, {F(k, n): gb.values[k] for k in range(n + 1)})
            for op, args, margs in (
                ("join", (ga, gb), [ma, mb]),
                ("meet", (ga, gb), [ma, mb]),
                ("neg", (ga,), [ma]),
            ):
                oracle = grid_conv_oracle(n, op, *args)
                conv = conv_op(lat, s, op, margs)
                assert tuple(conv.values[F(k, n)] for k in range(n + 1)) == oracle.values

    @pytest.mark.parametrize("n", [4, 6, 8, 12])
    def test_oracle_is_convolution_over_the_chain_of_occurring_values(self, n):
        """On the n-grid each type-2 operation is the convolution operation of
        ``interval_structure(n)`` over the chain of the values that occur."""
        s = interval_structure(n)
        grid = [F(k, n) for k in range(n + 1)]
        rng = random.Random(0)
        for _ in range(20):
            ga, gb = (sample_to_grid(random_grid_step(rng, n), n) for _ in "ab")
            lat = FiniteLattice(sorted({F(0), F(1), *ga.values, *gb.values}), lambda a, b: a <= b)
            ma, mb = (LatticeMap.from_values(grid, lat, dict(zip(grid, g.values))) for g in (ga, gb))
            for op, args, margs in (
                ("join", (ga, gb), [ma, mb]),
                ("meet", (ga, gb), [ma, mb]),
                ("neg", (ga,), [ma]),
            ):
                conv = conv_op(lat, s, op, margs)
                assert tuple(conv.values[x] for x in grid) == grid_conv_oracle(n, op, *args).values

    def test_de_morgan_interchange(self):
        assert de_morgan_mismatches(random.Random(13), 40) == 0
        assert de_morgan_mismatches(random.Random(7), 300) == 0

    def test_de_morgan_on_grids_via_oracle(self):
        n = 6
        rng = random.Random(19)
        for _ in range(25):
            ga = sample_to_grid(random_grid_step(rng, n), n)
            gb = sample_to_grid(random_grid_step(rng, n), n)
            neg_join = grid_conv_oracle(n, "neg", grid_conv_oracle(n, "join", ga, gb))
            meet_negs = grid_conv_oracle(
                n, "meet", grid_conv_oracle(n, "neg", ga), grid_conv_oracle(n, "neg", gb)
            )
            assert neg_join == meet_negs
            assert grid_conv_oracle(n, "join", ga, gb) == grid_conv_oracle(n, "join", gb, ga)
            assert grid_conv_oracle(n, "join", ga, ga) == ga
            assert grid_conv_oracle(n, "meet", ga, ga) == ga

    def test_commutative_and_idempotent(self):
        rng = random.Random(14)
        for _ in range(30):
            a = random_step(rng)
            b = random_step(rng)
            assert t2_join(a, b) == t2_join(b, a)
            assert t2_meet(a, b) == t2_meet(b, a)
            assert t2_join(a, a) == a
            assert t2_meet(a, a) == a


def midpoint_zip_with(op, f, g):
    """Reference combination: evaluate both inputs at every refined
    breakpoint and at the midpoint of every refined interval."""
    bps = sorted(set(f.breakpoints) | set(g.breakpoints))
    pvs = [op(f(b), g(b)) for b in bps]
    ivs = [op(f((a + b) / 2), g((a + b) / 2)) for a, b in zip(bps, bps[1:])]
    return StepFunction(tuple(bps), tuple(pvs), tuple(ivs))


def midpoint_join(a, b):
    term1 = midpoint_zip_with(min, a, sup_left(b))
    term2 = midpoint_zip_with(min, sup_left(a), b)
    return midpoint_zip_with(max, term1, term2)


def midpoint_meet(a, b):
    term1 = midpoint_zip_with(min, a, sup_right(b))
    term2 = midpoint_zip_with(min, sup_right(a), b)
    return midpoint_zip_with(max, term1, term2)


class TestMergeAgainstMidpointSampling:
    def check(self, a, b):
        assert t2_join(a, b) == midpoint_join(a, b)
        assert t2_meet(a, b) == midpoint_meet(a, b)

    def test_unrelated_denominators(self):
        rng = random.Random(21)
        for _ in range(60):
            self.check(random_step(rng, max_denominator=16), random_step(rng, max_denominator=17))
        for _ in range(30):
            # interior breakpoints on the 16-grid and the 27-grid never coincide
            self.check(random_grid_step(rng, 16), random_grid_step(rng, 27))

    def test_identical_breakpoint_lists(self):
        rng = random.Random(22)
        same = 0
        for _ in range(80):
            a = random_step(rng)
            b = StepFunction(
                a.breakpoints,
                [F(rng.randint(0, 4), 4) for _ in a.point_values],
                [F(rng.randint(0, 4), 4) for _ in a.interval_values],
            )
            same += b.breakpoints == a.breakpoints
            self.check(a, b)
            self.check(a, a)
        assert same >= 40

    def test_constants_on_either_side(self):
        rng = random.Random(23)
        for _ in range(30):
            a = random_step(rng)
            for c in t2_constants():
                self.check(a, c)
                self.check(c, a)
        for c in t2_constants():
            for d in t2_constants():
                self.check(c, d)


# Value pools with unrelated denominators; int 0 and 1 sit beside Fraction(0) and Fraction(1).
VALUE_POOLS = (
    tuple(F(k, 3) for k in range(4)),
    tuple(F(k, 7) for k in range(8)),
    tuple(F(k, 12) for k in range(13)),
    tuple(F(k, 60) for k in range(61)),
    (0, 1, F(0), F(1)),
)
DIVISORS_OF_60 = (2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60)


def mixed_pieces(rng, max_interior=5):
    """Canonical pieces whose breakpoints have denominators dividing 60,
    with values drawn from VALUE_POOLS, ints and Fractions unconverted."""
    dens = rng.choices(DIVISORS_OF_60, k=rng.randint(0, max_interior))
    bps = [0, *sorted({F(rng.randint(1, d - 1), d) for d in dens}), 1]
    pvs = [rng.choice(rng.choice(VALUE_POOLS)) for _ in bps]
    ivs = [rng.choice(rng.choice(VALUE_POOLS)) for _ in bps[1:]]
    last = len(bps) - 1
    keep = [0, *(i for i in range(1, last) if not ivs[i - 1] == pvs[i] == ivs[i]), last]
    return (
        tuple(bps[i] for i in keep),
        tuple(pvs[i] for i in keep),
        tuple(ivs[i - 1] for i in keep[1:]),
    )


def mixed_step(rng, max_interior=5):
    """The step function of :func:`mixed_pieces`, built by the constructor."""
    return StepFunction(*mixed_pieces(rng, max_interior))


def envelope_at(f, y, left):
    """Max of f on [0, y] (left) or on [y, 1], from its values at y, at the
    breakpoints there and at one point inside each interval meeting it."""
    bps = f.breakpoints
    xs = [y, *(b for b in bps if (b <= y if left else b >= y))]
    for a, b in zip(bps, bps[1:]):
        lo, hi = (a, min(b, y)) if left else (max(a, y), b)
        if lo < hi:
            xs.append((lo + hi) / 2)
    return max(f(x) for x in xs)


class TestArbitraryBreakpointsVsOracle:
    def test_closed_forms_match_oracle_on_double_lcm_grid(self):
        # Breakpoint denominators divide 60, so the 120-grid has a sample
        # inside every piece of the inputs and of the results.
        n = 120
        assert (n + 1) ** 2 <= MAX_MAPS
        rng = random.Random(60)
        mixed_denominators = int_pieces = 0
        for _ in range(100):
            pieces = mixed_pieces(rng)
            a, b = StepFunction(*pieces), mixed_step(rng)
            ga, gb = sample_to_grid(a, n), sample_to_grid(b, n)
            assert sample_to_grid(t2_join(a, b), n) == grid_conv_oracle(n, "join", ga, gb)
            assert sample_to_grid(t2_meet(a, b), n) == grid_conv_oracle(n, "meet", ga, gb)
            assert sample_to_grid(t2_neg(a), n) == grid_conv_oracle(n, "neg", ga)
            mixed_denominators += len({x.denominator for x in a.breakpoints + b.breakpoints}) > 2
            # ints handed to the constructor stay exercised
            int_pieces += any(type(v) is int for v in pieces[1] + pieces[2])
        assert mixed_denominators >= 50 and int_pieces >= 20

    def test_closed_forms_match_oracle_on_each_pairs_own_grid(self):
        # Each pair gets the grid of twice its breakpoints' common
        # denominator, which has a sample inside every piece of the inputs
        # and of the results.
        rng = random.Random(2018)
        for _ in range(50):
            a, b = random_step(rng, max_denominator=6), random_step(rng, max_denominator=6)
            n = 2 * lcm(*(x.denominator for x in a.breakpoints + b.breakpoints))
            ga, gb = sample_to_grid(a, n), sample_to_grid(b, n)
            assert sample_to_grid(t2_join(a, b), n) == grid_conv_oracle(n, "join", ga, gb)
            assert sample_to_grid(t2_meet(a, b), n) == grid_conv_oracle(n, "meet", ga, gb)
            assert sample_to_grid(t2_neg(a), n) == grid_conv_oracle(n, "neg", ga)

    def test_join_and_meet_compare_no_fractions(self, monkeypatch):
        rng = random.Random(61)
        pairs = [(random_step(rng, max_denominator=17), mixed_step(rng)) for _ in range(30)]
        pairs += [(c, mixed_step(rng)) for c in t2_constants() for _ in range(5)]
        expected = [(midpoint_join(a, b), midpoint_meet(a, b)) for a, b in pairs]
        reflected = [
            StepFunction(
                [1 - x for x in reversed(a.breakpoints)],
                a.point_values[::-1],
                a.interval_values[::-1],
            )
            for a, _ in pairs
        ]
        # Denominators of mixed_step breakpoints divide 60.
        grid_pairs, n = [(mixed_step(rng), mixed_step(rng)) for _ in range(8)], 60

        def refuse(*args):
            raise AssertionError("a Fraction was compared or hashed")

        with monkeypatch.context() as m:
            for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__hash__"):
                m.setattr(F, name, refuse)
            results = [(t2_join(a, b), t2_meet(a, b)) for a, b in pairs]
            negs = [t2_neg(a) for a, _ in pairs]
            envelopes = [(sup_left(a), sup_right(b)) for a, b in pairs]
            for a, b in grid_pairs:
                ga, gb = sample_to_grid(a, n), sample_to_grid(b, n)
                assert sample_to_grid(t2_join(a, b), n) == grid_conv_oracle(n, "join", ga, gb)
                assert sample_to_grid(t2_meet(a, b), n) == grid_conv_oracle(n, "meet", ga, gb)
                assert sample_to_grid(t2_neg(a), n) == grid_conv_oracle(n, "neg", ga)
            report = crosscheck(16, 1)
        assert results == expected
        assert negs == reflected
        for (a, b), (left, right) in zip(pairs, envelopes):
            for y in left.breakpoints + right.breakpoints + (F(1, 97), F(13, 31)):
                assert left(y) == envelope_at(a, y, left=True)
                assert right(y) == envelope_at(b, y, left=False)
        assert report.ok and report.checks == 3

    def test_join_and_meet_keep_input_breakpoints(self):
        # The merge takes its breakpoints from the arguments' breakpoint
        # lists, never from their values (here F(1) == 1 and F(1, 3)).
        a = StepFunction((0, 1), (0, F(1)), (0,))
        b = StepFunction((F(0), F(1, 2), F(1)), (1, 1, F(1)), (F(1, 3), 0))
        rng = random.Random(62)
        cases = [(a, a), (a, b), (b, a), (b, b)]
        cases += [(random_step(rng), mixed_step(rng)) for _ in range(20)]
        for x, y in cases:
            for r in (t2_join(x, y), t2_meet(x, y)):
                assert set(r.breakpoints) <= set(x.breakpoints + y.breakpoints)
                pieces = r.breakpoints + r.point_values + r.interval_values
                assert all(type(v) is F for v in pieces)
                assert type(r(F(1, 3))) is F
                assert type(max(*r.point_values, *r.interval_values)) is F


class TestSampling:
    def test_matches_pointwise_evaluation(self):
        rng = random.Random(24)
        for n in (1, 2, 3, 7, 16, 48):
            for _ in range(15):
                f = random_grid_step(rng, n)
                g = step_from_grid(sample_to_grid(random_grid_step(rng, n), n))
                for h in (f, g):
                    assert sample_to_grid(h, n).values == tuple(h(F(k, n)) for k in range(n + 1))
            # a coarser step function sampled on a refining grid
            assert sample_to_grid(f, 2 * n).values == tuple(
                f(F(k, 2 * n)) for k in range(2 * n + 1)
            )

    def test_zero_spike_on_grid(self):
        z, _ = t2_constants()
        assert sample_to_grid(z, 4).values == (F(1), F(0), F(0), F(0), F(0))

    def test_constant_function(self):
        c = StepFunction((F(0), F(1)), (F(2, 5), F(2, 5)), (F(2, 5),))
        assert sample_to_grid(c, 3).values == (F(2, 5),) * 4

    def test_thirds_on_six_grid(self):
        lower_third = StepFunction(
            (F(0), F(1, 3), F(1)), (F(1), F(0), F(0)), (F(1), F(0))
        )
        assert sample_to_grid(lower_third, 6).values == (F(1), F(1), F(0), F(0), F(0), F(0), F(0))

    def test_off_grid_breakpoint_rejected(self):
        lower_third = StepFunction(
            (F(0), F(1, 3), F(1)), (F(1), F(0), F(0)), (F(1), F(0))
        )
        with pytest.raises(ValueError):
            sample_to_grid(lower_third, 4)


class TestRepresentation:
    def test_make_merges_redundant_breakpoints(self):
        f = StepFunction(
            (F(0), F(1, 2), F(1)), (F(1, 3), F(1, 4), F(1)), (F(1, 4), F(1, 4))
        )
        assert f.breakpoints == (F(0), F(1))
        assert f.interval_values == (F(1, 4),)
        merged = StepFunction((0, F(1, 2), 1), (0, 0, 0), (0, 0))
        assert merged == StepFunction((0, 1), (0, 0), (0,))

    def test_float_pieces_rejected(self):
        with pytest.raises(ValueError, match="Fraction"):
            StepFunction((0, 0.5, 1), (0, 0, 0), (0, F(1, 2)))
        with pytest.raises(ValueError, match="Fraction"):
            StepFunction((0, 1), (0, 0.5), (0,))
        with pytest.raises(ValueError, match="Fraction"):
            StepFunction((0, 1), (0, 0), (0.25,))
        with pytest.raises(ValueError, match="Fraction"):
            GridFunction(2, (F(0), 0.5, F(1)))
        # the inexact input never reaches an operation: 1 - 0.1 would be the float 0.9
        with pytest.raises(ValueError, match="Fraction"):
            t2_neg(StepFunction((0, 0.1, 1), (0, 0, 0), (0, F(1, 2))))

    def test_int_pieces_accepted(self):
        z, o = t2_constants()
        assert StepFunction((0, 1), (1, 0), (0,)) == z
        assert t2_neg(StepFunction((0, 1), (1, 0), (0,))) == o
        assert GridFunction(1, (0, 1)) == GridFunction(1, (F(0), F(1)))

    def test_value_check_on_every_numeric_type(self):
        class Sub(F):
            pass

        for v in (0, 1, F(0), F(1), F(1, 2), Sub(1, 2)):
            GridFunction(1, (v, v))
            StepFunction((0, 1), (v, v), (v,))
        for v in (-1, 2, F(-1, 2), F(3, 2), Sub(3, 2), Sub(-1, 2), 0.5, "1", True, False):
            with pytest.raises(ValueError):
                GridFunction(1, (v, v))
            with pytest.raises(ValueError):
                StepFunction((0, 1), (v, v), (v,))

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            StepFunction((F(0), F(1)), (F(0), F(2)), (F(0),))
        with pytest.raises(ValueError):
            StepFunction((F(0), F(1, 2)), (F(0), F(0)), (F(0),))
        with pytest.raises(ValueError):
            StepFunction((F(0), F(1, 2), F(1, 2), F(1)), (F(0),) * 4, (F(0),) * 3)

    def test_make_validates_raw_pieces(self):
        zeros4, zeros3 = (F(0),) * 4, (F(0),) * 3
        bad = [
            # breakpoints out of order or repeated: a merge would drop both
            # interior ones and leave a valid function
            ((0, F(1, 2), F(1, 3), 1), zeros4, zeros3),
            ((0, F(1, 2), F(1, 2), 1), zeros4, zeros3),
            # breakpoints not running from 0 to 1
            ((F(-1, 2), 0, 1), (0, 0, 0), (0, 0)),
            ((0, F(1, 2)), (0, 0), (0,)),
            # wrong tuple lengths
            ((0, 1), (0,), (0,)),
            ((0, 1), (0, 0), (0, 0)),
            ((0, F(1, 2), 1), zeros4, (0, 0)),
            # values outside [0, 1]
            ((0, 1), (0, 2), (0,)),
            ((0, 1), (0, 0), (F(-1, 3),)),
            ((0, F(1, 2), 1), (0, F(5, 4), 0), (0, 0)),
        ]
        for pieces in bad:
            with pytest.raises(ValueError):
                StepFunction(*pieces)

    def test_operation_outputs_pass_full_validation(self):
        rng = random.Random(31)
        for k in range(80):
            a = random_step(rng, max_denominator=(3, 16)[k % 2])
            b = random_grid_step(rng, 12) if k % 3 else random_step(rng, max_denominator=4)
            outputs = [t2_join(a, b), t2_meet(a, b), t2_neg(a), sup_left(a), sup_right(b)]
            for r in outputs:
                rebuilt = StepFunction(r.breakpoints, r.point_values, r.interval_values)
                assert rebuilt == r
                pieces = r.breakpoints + r.point_values + r.interval_values
                assert all(type(v) is F for v in pieces)

    def test_evaluation_outside_domain(self):
        z, _ = t2_constants()
        with pytest.raises(ValueError):
            z(F(3, 2))

    @pytest.mark.parametrize("x", [0.1, True, False, "1"], ids=repr)
    def test_evaluation_refuses_inexact_arguments(self, x):
        # 0.1 is 3602879701896397/36028797018963968, just off the breakpoint 1/10
        f = StepFunction((0, F(1, 10), 1), (0, 1, 0), (0, 0))
        assert f(F(1, 10)) == 1 and f(1) == f(F(1)) == 0
        message = rf"^value {re.escape(repr(x))} is not an int or a Fraction$"
        with pytest.raises(ValueError, match=message):
            f(x)

    def test_grid_function_validation(self):
        with pytest.raises(ValueError):
            GridFunction(2, (F(0), F(1)))
        for size, values in [(0, (F(0),)), (2.0, (0, F(1, 2), 1)), (True, (0, 1))]:
            with pytest.raises(ValueError, match="grid size must be a positive integer"):
                GridFunction(size, values)
        with pytest.raises(ValueError):
            GridFunction(2, (F(0), F(3, 2), F(1)))

    def test_sampling_past_the_slot_bound_is_refused(self):
        with pytest.raises(CapacityError, match=f"^{MAX_MAPS + 1} grid slots exceed the bound"):
            sample_to_grid(t2_constants()[0], MAX_MAPS)

    def test_oracle_input_validation(self):
        g2 = GridFunction(2, (F(0), F(1, 2), F(1)))
        g3 = GridFunction(3, (F(0), F(0), F(1), F(1)))
        with pytest.raises(ValueError):
            grid_conv_oracle(2, "join", g2, g3)
        with pytest.raises(ValueError):
            grid_conv_oracle(2, "flip", g2)

    @pytest.mark.parametrize(
        "op,count,message",
        [("join", 1, "^join takes two arguments$"), ("neg", 2, "^neg takes one argument$")],
    )
    def test_oracle_argument_count(self, op, count, message):
        g = GridFunction(2, (F(0), F(1, 2), F(1)))
        with pytest.raises(ValueError, match=message):
            grid_conv_oracle(2, op, *[g] * count)


def numerators(f):
    if isinstance(f, GridFunction):
        return (f.den, *f.nums)
    return (f.den, *f.bps, *f.pvs, *f.ivs)


class TestEncoding:
    """Every function is int numerators over its least common denominator."""

    def assert_lowest(self, f):
        assert all(type(v) is int for v in numerators(f))
        assert f.den >= 1 and gcd(*numerators(f)) == 1

    def test_every_result_in_lowest_terms(self):
        rng = random.Random(71)
        n = 60
        built = [*t2_constants(), GridFunction(2, (F(1, 2), F(1, 4), 0))]
        for k in range(60):
            a, b = mixed_step(rng), mixed_step(rng)
            c = random_step(rng, max_denominator=(4, 17, 60)[k % 3])
            g = random_grid_step(rng, 12, value_denominator=(3, 12, 8)[k % 3])
            flat = b.interval_values[:1] * (len(a.breakpoints) - 1)
            made = StepFunction(a.breakpoints, a.point_values, flat)
            ga, gb = sample_to_grid(a, n), sample_to_grid(b, n)
            built += [a, b, c, g, made, step_from_grid(sample_to_grid(g, 12))]
            built += [t2_join(a, b), t2_meet(a, c), t2_join(c, g), t2_neg(a), t2_neg(c)]
            built += [sup_left(a), sup_right(b), sup_left(c), sup_right(g)]
            built += [ga, gb, sample_to_grid(g, 24), GridFunction(n, ga.values)]
            built += [grid_conv_oracle(n, op, ga, gb) for op in ("join", "meet")]
            built.append(grid_conv_oracle(n, "neg", ga))
        for f in built:
            self.assert_lowest(f)
        # A result that drops the pieces needing a factor of den has a smaller den.
        halves = StepFunction((0, F(1, 2), 1), (0, F(1, 2), 0), (F(1, 6), F(1, 3)))
        assert sup_left(halves).den == 6 and t2_meet(halves, t2_constants()[1]) == halves
        assert sample_to_grid(halves, 2).den == 2
        top = StepFunction((0, F(1, 6), 1), (1, 1, 1), (F(1, 3), 1))
        assert sup_left(top).den == 1 and sup_left(top).bps == (0, 1)

    def test_int_and_fraction_pieces_give_equal_fields(self):
        rng = random.Random(72)
        for _ in range(100):
            pieces = mixed_pieces(rng)
            as_ints = StepFunction(*pieces)
            as_fractions = StepFunction(*[[F(v) for v in vs] for vs in pieces])
            assert vars(as_ints) == vars(as_fractions)
            assert hash(as_ints) == hash(as_fractions)
            rebuilt = [StepFunction(r.breakpoints, r.point_values, r.interval_values)
                       for r in (t2_join(as_ints, as_fractions), t2_neg(as_fractions))]
            assert rebuilt == [t2_join(as_ints, as_fractions), t2_neg(as_fractions)]
            assert hash(rebuilt[0]) == hash(t2_join(as_fractions, as_ints))
        for g, h in (
            (GridFunction(1, (0, 1)), GridFunction(1, (F(0), F(1)))),
            (GridFunction(2, (0, F(1, 2), 1)), GridFunction(2, (F(0), F(2, 4), F(1)))),
        ):
            assert vars(g) == vars(h) and hash(g) == hash(h)

    @pytest.mark.parametrize("n", [0, -2])
    def test_sample_to_grid_rejects_nonpositive_grid(self, n):
        z, _ = t2_constants()
        for f in (z, StepFunction((0, F(1, 2), 1), (0, 1, 0), (0, 0))):
            with pytest.raises(ValueError):
                sample_to_grid(f, n)


class TestInterning:
    """Equal step functions are one live object, held only weakly by the intern table, and
    each object decodes its Fraction views once."""

    def test_equal_results_are_one_object(self):
        zero, one = t2_constants()
        rng = random.Random(81)
        for alpha in [random_step(rng, 60, 24) for _ in range(30)] + [mixed_step(rng)] * 5:
            assert t2_join(zero, alpha) is alpha
            assert t2_join(alpha, zero) is alpha
            assert t2_meet(one, alpha) is alpha
            assert t2_neg(t2_neg(alpha)) is alpha
            assert sup_left(sup_left(alpha)) is sup_left(alpha)

    def test_constructor_and_operations_give_one_object(self):
        rng = random.Random(82)
        for _ in range(50):
            a, b = mixed_step(rng), random_step(rng)
            for r in (t2_join(a, b), t2_meet(a, b), t2_neg(b), sup_right(a)):
                made = StepFunction(r.breakpoints, r.point_values, r.interval_values)
                assert made == r and hash(made) == hash(r) and made is r
                assert parse_step_function(format_step_function(r)) is r
                # a redundant breakpoint merges away before the lookup
                assert StepFunction(*split_at_midpoint(r)) is r

    def test_dropped_function_leaves_the_table(self):
        f = StepFunction((0, F(1, 7919), 1), (0, F(1, 3), 1), (F(2, 5), F(1, 9)))
        key = f.den, f.bps, f.pvs, f.ivs
        assert _LIVE[key] is f and f.breakpoints[1] == F(1, 7919)
        dead = weakref.ref(f)
        del f
        assert dead() is None and key not in _LIVE

    def test_no_strong_cache_keeps_a_function(self):
        # every builder: the constructor, the parser, both generators, the closed forms and
        # the envelopes; with the Fraction views decoded, and no gc.collect()
        rng, before, refs = random.Random(83), len(_LIVE), []
        for _ in range(40):
            a, b = random_step(rng, 17, 6), random_grid_step(rng, 12)
            made = StepFunction(a.breakpoints, a.point_values, [F(1, 97)] * (len(a.bps) - 1))
            parsed = parse_step_function(format_step_function(b) + "\npoint 1/89 -> 1/83\n")
            for f in (a, b, made, parsed, t2_join(a, b), t2_meet(a, parsed), t2_neg(made),
                      sup_left(a), sup_right(b)):
                f.breakpoints, f.point_values, f.interval_values
                refs.append(weakref.ref(f))
        del a, b, made, parsed, f
        assert all(r() is None or r() in t2_constants() for r in refs)
        assert len(_LIVE) == before

    def test_views_decoded_once_and_out_of_identity(self):
        f = StepFunction((0, F(1, 3), 1), (F(1, 2), 0, 1), (F(1, 4), F(2, 3)))
        # the same fields, built past the intern table
        twin = object.__new__(StepFunction)
        twin.__dict__.update(den=f.den, bps=f.bps, pvs=f.pvs, ivs=f.ivs)
        before = repr(f), hash(f)
        views = f.breakpoints, f.point_values, f.interval_values
        assert views == ((0, F(1, 3), 1), (F(1, 2), 0, 1), (F(1, 4), F(2, 3)))
        assert (f.breakpoints, f.point_values, f.interval_values) == views
        assert all(v is w for v, w in zip(views, (f.breakpoints, f.point_values, f.interval_values)))
        assert [field.name for field in dataclasses.fields(f)] == ["den", "bps", "pvs", "ivs"]
        assert (repr(f), hash(f)) == before == (repr(twin), hash(twin))
        assert f == twin and "breakpoints" not in vars(twin)
        g = GridFunction(2, (F(1, 2), 0, 1))
        assert g.values is g.values and g.values == (F(1, 2), 0, 1)
        assert [field.name for field in dataclasses.fields(g)] == ["size", "den", "nums"]

    def test_copies_and_pickles_are_the_live_object(self):
        f = random_step(random.Random(84))
        f.breakpoints
        assert copy.copy(f) is f and copy.deepcopy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f


def split_at_midpoint(f):
    """``f``'s pieces with a redundant breakpoint inside its first interval."""
    bps, pvs, ivs = f.breakpoints, f.point_values, f.interval_values
    mid = (bps[0] + bps[1]) / 2
    return (bps[0], mid, *bps[1:]), (pvs[0], ivs[0], *pvs[1:]), (ivs[0], *ivs)


def reference_random_grid_step(rng, n, value_denominator=12, max_interior=4):
    """The generator as it drew Fractions: the draws the integer one must repeat."""
    count = rng.randint(0, min(n - 1, max_interior))
    interior = sorted(rng.sample(range(1, n), count))
    bps = [F(0)] + [F(k, n) for k in interior] + [F(1)]

    def val():
        return F(rng.randint(0, value_denominator), value_denominator)

    pvs = [val() for _ in bps]
    ivs = []
    for i in range(len(bps) - 1):
        v = val()
        if bps[i + 1] - bps[i] == F(1, n):
            v = min(v, max(pvs[i], pvs[i + 1]))
        ivs.append(v)
    return StepFunction(tuple(bps), tuple(pvs), tuple(ivs))


def reference_random_step(rng, max_denominator=16, max_interior=4):
    """The generator as it drew Fractions: the draws the integer one must repeat."""
    interior = set()
    for _ in range(rng.randint(0, max_interior)):
        d = rng.randint(2, max_denominator)
        k = rng.randint(1, d - 1)
        interior.add(F(k, d))
    bps = [F(0)] + sorted(interior) + [F(1)]
    d = max_denominator

    def val():
        return F(rng.randint(0, d), d)

    pvs = [val() for _ in bps]
    ivs = [val() for _ in bps[:-1]]
    return StepFunction(tuple(bps), tuple(pvs), tuple(ivs))


class TestGeneratorsKeepTheirDraws:
    """Seeded benchmark jobs and digests depend on each generator's rng calls."""

    @pytest.mark.parametrize(
        "max_denominator,max_interior", [(16, 4), (2, 3), (10, 3), (17, 8), (60, 24)]
    )
    def test_random_step(self, max_denominator, max_interior):
        for seed in range(300):
            rng, ref = random.Random(seed), random.Random(seed)
            f = random_step(rng, max_denominator, max_interior)
            assert f == reference_random_step(ref, max_denominator, max_interior)
            assert vars(f) == vars(StepFunction(f.breakpoints, f.point_values, f.interval_values))
            assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("n,value_denominator,max_interior", [
        (1, 12, 4), (8, 12, 4), (16, 12, 4), (48, 12, 4), (6, 3, 10), (27, 7, 4), (12, 8, 2),
    ])
    def test_random_grid_step(self, n, value_denominator, max_interior):
        for seed in range(300):
            rng, ref = random.Random(seed), random.Random(seed)
            f = random_grid_step(rng, n, value_denominator, max_interior)
            assert f == reference_random_grid_step(ref, n, value_denominator, max_interior)
            assert rng.getstate() == ref.getstate()
