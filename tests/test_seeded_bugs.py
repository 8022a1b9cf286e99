"""Seeded bugs: one per side of a comparison, each of which must turn the
reports that compare that side false and make the commands that print them
exit 1 with nothing on stderr. An equations report that refuses its lattice
as not Heyting, or whose crisp certificate fails, counts as false.

Each bug is patched where its callers look the function up, so the other
side of the comparison stays correct. Every check is first run without the
bug, so that a flip is the bug's doing.
"""

import random
import sys
import tempfile
import weakref
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest

import convalg.cli
import convalg.complexalg
import convalg.convolution
import convalg.etale
import convalg.terms
import convalg.type2
from convalg import (
    App,
    ComplexAlgebra,
    Equation,
    LatticeMap,
    Var,
    chain_lattice,
    characteristic_iso,
    check_heyting_laws,
    crosscheck,
    same_equations_report,
    verify_main_iso,
)
from convalg.cli import main
from convalg.etale import ConstantEtale, EtaleSubobject, sub_impl, worked_example
from convalg.formats import parse_equations, parse_structure
from convalg.lattice import ChainLattice, FiniteTopology, OpenSetLattice
from helpers import (
    de_morgan_mismatches,
    frame_naturality_mismatches,
    naturality_mismatches,
    route_naturality_mismatches,
)

TOPOLOGY, LATTICE, STRUCTURE, _ = worked_example()
W, V = Var("w"), Var("v")
FVW = App("f", (V, W))


def asymmetric():
    """Holds with f's arguments in order, fails with them reversed. A new
    object each time: an equation compiles its program once, so one compiled
    before a bug is seeded would hide a bug in the compiler."""
    return Equation(App("f", (App("f", (W, W)), FVW)), App("f", (W, FVW)))


# c = {x1}, g(x1) = x2 and f(x2, x1) = x1: both sides of CLOSED are empty,
# but with f's arguments reversed the left one is {x1}
CLOSED_STRUCTURE = """\
carrier: x1 x2
relation c arity 0
x1
relation g arity 1
x1 x2
relation f arity 2
x2 x1 x1
"""
CLOSED = "(f (c) (g (c))) = (g (f (c) (c)))\n"

# the worked example as files: its structure and its discrete base on three points
WORKED_STRUCTURE = """\
carrier: x1 x2 x3 x4
relation f arity 2
x1 x1 x1
x2 x2 x3
x1 x3 x4
x3 x2 x4
"""
DISCRETE_TOPOLOGY = "points: t1 t2 t3\nopen: t1\nopen: t2\nopen: t3\n"


def cli_passes(capsys, argv):
    status = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert status in (0, 1)
    return status == 0


def equations_pass(lattice, equations):
    """``same_equations_report(...).ok``; False where the report refuses the lattice
    as not Heyting or its crisp certificate fails. Other errors propagate."""
    try:
        return same_equations_report(lattice, STRUCTURE, equations).ok
    except ValueError as e:
        assert str(e).startswith("lattice is not Heyting")
    except RuntimeError as e:
        assert "holds at the crisp lift" in str(e)
    return False


def cli_passes_on_files(capsys, texts, argv):
    """``cli_passes`` on ``argv`` with each ``{name}`` in it replaced by the path of a
    file that holds ``texts[name]``."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp, name) for name in texts}
        for name, text in texts.items():
            paths[name].write_text(text, encoding="utf-8")
        return cli_passes(capsys, [a.format(**paths) for a in argv])


def closed_equation_passes(capsys, cli):
    """CLOSED over chain:1, by ``same_equations_report`` or by ``equations check``."""
    if not cli:
        structure = parse_structure(CLOSED_STRUCTURE)
        eqs = parse_equations(CLOSED, structure.signature)
        return same_equations_report(chain_lattice(1), structure, eqs).ok
    return cli_passes_on_files(
        capsys,
        {"structure": CLOSED_STRUCTURE, "eqs": CLOSED},
        ["equations", "check", "--lattice", "chain:1", "--structure", "{structure}",
         "--eqs", "{eqs}"],
    )


def fresh_iso_report():
    """``verify_main_iso`` on the worked example, its topology and lattice built here:
    ``least_opens`` and ``impl_table`` are cached per object, so the module's own
    would keep answers from before a bug."""
    topology, lattice, structure, _ = worked_example()
    return verify_main_iso(lattice, structure, topology, trials=20)


def topology_file_passes(capsys):
    """``lattice check`` on a file of the discrete topology on three points."""
    return cli_passes_on_files(
        capsys, {"topology": DISCRETE_TOPOLOGY}, ["lattice", "check", "--lattice", "{topology}"]
    )


def etale_verify_iso_passes(capsys):
    """``etale verify-iso`` on files of the worked example's structure and base."""
    return cli_passes_on_files(
        capsys,
        {"structure": WORKED_STRUCTURE, "topology": DISCRETE_TOPOLOGY},
        ["etale", "verify-iso", "--structure", "{structure}", "--topology", "{topology}",
         "--trials", "20"],
    )


# Each check returns True when the comparison passed.
CHECKS = {
    "verify_main_iso": lambda capsys: verify_main_iso(
        LATTICE, STRUCTURE, TOPOLOGY, trials=20
    ).ok,
    "verify_main_iso on a fresh topology": lambda capsys: fresh_iso_report().ok,
    "etale verify-iso": etale_verify_iso_passes,
    "characteristic_iso": lambda capsys: characteristic_iso(STRUCTURE).ok,
    "same_equations_report": lambda capsys: same_equations_report(
        chain_lattice(1), STRUCTURE, [asymmetric()]
    ).ok,
    "paper-demo": lambda capsys: cli_passes(capsys, ["paper-demo"]),
    "crosscheck": lambda capsys: crosscheck(4, 10).ok,
    "type2 crosscheck": lambda capsys: cli_passes(
        capsys, ["type2", "crosscheck", "--n", "4", "--trials", "10"]
    ),
    "crosscheck on grid 16": lambda capsys: crosscheck(16, 20, seed=3).ok,
    "type2 De Morgan": lambda capsys: de_morgan_mismatches(random.Random(7), 300) == 0,
    "check_heyting_laws": lambda capsys: check_heyting_laws(chain_lattice(3)).ok,
    "lattice check": lambda capsys: cli_passes(
        capsys, ["lattice", "check", "--lattice", "chain:3"]
    ),
    "lattice check on a topology file": topology_file_passes,
    "same_equations_report over chain:3": lambda capsys: equations_pass(
        chain_lattice(3), [asymmetric()]
    ),
    # fails in the two-valued algebra, so its witness is lifted and certified
    "crisp certificate": lambda capsys: equations_pass(chain_lattice(3), [Equation(FVW, V)]),
    "holds_in naturality": lambda capsys: naturality_mismatches(8, kinds=("complex",))[1] == 0,
    **{
        f"{route} naturality": lambda capsys, route=route: (
            route_naturality_mismatches(10)[route][1] == 0
        )
        for route in ("conv_op", "rel_image", "fiberwise_rel_image", "per_fiber_rel_image")
    },
    **{
        f"{route} frame naturality": lambda capsys, route=route: (
            frame_naturality_mismatches(10)[route][1] == 0
        )
        for route in ("conv_op", "fiberwise_rel_image", "per_fiber_rel_image")
    },
    # one assignment of 4 applies against 21 table entries: the untabled scan
    "same_equations_report on a closed equation": lambda capsys: closed_equation_passes(
        capsys, cli=False
    ),
    "equations check on a closed equation": lambda capsys: closed_equation_passes(
        capsys, cli=True
    ),
}


def reversed_arguments(f):
    """``f`` with its last argument, the operation's argument list, reversed."""
    return lambda *call: f(*call[:-1], call[-1][::-1])


def last_group_ignored(f):
    return lambda groups, inside: f(groups[:-1], inside)


def join_and_meet_swapped(f):
    swap = {"join": "meet", "meet": "join"}
    return lambda n, op, *args: f(n, swap.get(op, op), *args)


def answering(value, *at):
    """Wraps a lattice method to answer ``value`` at the arguments ``at``."""
    return lambda f: lambda self, *args: value if args == at else f(self, *args)


def ranks_reversed(init):
    """``ChainLattice.__init__`` whose rank map ranks the chain's elements top first."""
    def init_reversed(self, n):
        init(self, n)
        self._rank = {i: n - k for i, k in self._rank.items()}

    return init_reversed


def binary_tables_transposed(f):
    def table(self, name):
        entries = f(self, name)
        if self.signature.arity(name) != 2:
            return entries
        n = isqrt(len(entries))
        return [entries[j * n + i] for i in range(n) for j in range(n)]

    return table


def lifted_to_bottom(f):
    return lambda lattice, carrier, subset: f(lattice, carrier, ())


def forward_only(f):
    return lambda pieces, backward: f(pieces, False)


def other_direction(f):
    return lambda a, b, backward: f(a, b, not backward)


def last_point_dropped(f):
    return lambda structure, name, args: f(structure, name, args) - {structure.carrier[-1]}


def last_point_at_bottom(f):
    def conv_op(lattice, structure, name, args):
        alpha = f(lattice, structure, name, args)
        return LatticeMap(alpha.carrier, lattice, alpha.codes[:-1] + (lattice.bottom_code,))

    return conv_op


def last_fiber_emptied(f):
    """``f``, which returns a subobject, with that subobject's last fiber emptied."""
    def emptied(*call):
        sub = f(*call)
        return sub.parent._subobject(sub.masks[:-1] + (0,))

    return emptied


class KeyWithoutIntervalValues(weakref.WeakValueDictionary):
    """A step-function intern table that leaves ``ivs`` out of each key: a function that
    differs from a live one only in its interval values comes back as the live one."""

    def get(self, key, default=None):
        return super().get(key[:3], default)

    def __setitem__(self, key, value):
        super().__setitem__(key[:3], value)


def last_least_open_dropped(prop):
    """``least_opens`` without the last sorted point's entry, recomputed on each use."""
    return property(lambda self: dict(list(prop.func(self).items())[:-1]))


def joined_by_larger_position(prop):
    """A join table that answers the later of two positions: right on a chain only."""
    return property(lambda self: tuple(
        tuple(max(i, j) for j in range(len(self.elements))) for i in range(len(self.elements))
    ))


def cut_to_first_least_open(f):
    """An image route that cuts every section to the least open of the base's first
    sorted point: still open, so each subobject check passes, but not local."""
    def image(rel_etale, name, args):
        sub = f(rel_etale, name, args)
        base = sub.parent.base
        cut = base.mask_of[next(iter(base.least_opens.values()))]
        return sub.parent._subobject(tuple(m & cut for m in sub.masks))

    return image


def compiled_reversed(f):
    """``_slot`` compiling each application with its arguments reversed."""
    return lambda term, slots, steps: f(
        term if isinstance(term, Var) else App(term.op, term.args[::-1]), slots, steps
    )


def reversed_on_untabled_scan(f):
    """``apply`` with its arguments reversed where ``holds_in`` calls it itself,
    on its untabled scan; ``table`` and ``eval_term`` stay correct."""
    def apply(self, name, args):
        return f(self, name, args[::-1] if sys._getframe(1).f_code.co_name == "holds_in" else args)

    return apply


# bug: (the (module, name) bindings it replaces, the wrapper that seeds it,
# the checks that must fail)
BUGS = {
    "conv_op reads its arguments reversed": (
        [(convalg.etale, "conv_op"), (convalg.complexalg, "conv_op"), (convalg.terms, "conv_op")],
        reversed_arguments,
        ["verify_main_iso", "characteristic_iso", "same_equations_report"],
    ),
    "rel_image reads its arguments reversed": (
        [(convalg.complexalg, "rel_image"), (convalg.terms, "rel_image")],
        reversed_arguments,
        ["characteristic_iso", "same_equations_report"],
    ),
    "image_mask ignores its last group": (
        [(convalg.complexalg, "image_mask"), (convalg.etale, "image_mask")],
        last_group_ignored,
        ["characteristic_iso", "paper-demo"],
    ),
    "per_fiber_rel_image reads its arguments reversed": (
        [(convalg.cli, "per_fiber_rel_image")],
        reversed_arguments,
        ["paper-demo"],
    ),
    "fiberwise_rel_image reads its arguments reversed": (
        [(convalg.etale, "fiberwise_rel_image"), (convalg.cli, "fiberwise_rel_image")],
        reversed_arguments,
        ["verify_main_iso", "paper-demo"],
    ),
    "grid_conv_oracle swaps join and meet": (
        [(convalg.type2, "grid_conv_oracle")],
        join_and_meet_swapped,
        ["crosscheck", "type2 crosscheck"],
    ),
    "ChainLattice.meet leaves the chain at (1/3, 1)": (
        [(ChainLattice, "meet")],
        answering(Fraction(1, 6), Fraction(1, 3), Fraction(1)),
        ["check_heyting_laws", "lattice check", "same_equations_report over chain:3"],
    ),
    "ChainLattice.impl answers 0 at (2/3, 1/3)": (
        [(ChainLattice, "impl")],
        answering(Fraction(0), Fraction(2, 3), Fraction(1, 3)),
        ["check_heyting_laws", "lattice check", "same_equations_report over chain:3"],
    ),
    # bottom and top stay the chain's first and last elements, which the reversed
    # ranks order the other way round
    "ChainLattice ranks its elements in reverse": (
        [(ChainLattice, "__init__")],
        ranks_reversed,
        ["check_heyting_laws", "lattice check", "same_equations_report over chain:3"],
    ),
    "ComplexAlgebra.table transposes binary tables": (
        [(ComplexAlgebra, "table")],
        binary_tables_transposed,
        ["same_equations_report"],
    ),
    "_running_max ignores backward": (
        [(convalg.type2, "_running_max")],
        forward_only,
        ["crosscheck", "crosscheck on grid 16", "type2 crosscheck", "type2 De Morgan"],
    ),
    # Join becomes meet and meet join, so both De Morgan laws still hold:
    # this cannot flip "type2 De Morgan".
    "_convolve runs every merge in the other direction": (
        [(convalg.type2, "_convolve")],
        other_direction,
        ["crosscheck", "crosscheck on grid 16", "type2 crosscheck"],
    ),
    "char_map lifts every witness to bottom": (
        [(convalg.terms, "char_map")],
        lifted_to_bottom,
        ["crisp certificate"],
    ),
    # In X ⊔ X′ the last point is one of X′, in X one of X, and a
    # relabelling moves it: the algebra of X ⊔ X′ is no longer the product.
    # The fold X ⊔ X → X sends the last point and one other to X's last.
    "rel_image never reaches the carrier's last point": (
        [(convalg.terms, "rel_image"), (convalg.complexalg, "rel_image")],
        last_point_dropped,
        ["holds_in naturality", "rel_image naturality"],
    ),
    "conv_op leaves the carrier's last point at bottom": (
        [(convalg.convolution, "conv_op")],
        last_point_at_bottom,
        ["conv_op naturality"],
    ),
    "fiberwise_rel_image leaves the last fiber empty": (
        [(convalg.etale, "fiberwise_rel_image")],
        last_fiber_emptied,
        ["fiberwise_rel_image naturality"],
    ),
    "per_fiber_rel_image leaves the last fiber empty": (
        [(convalg.etale, "per_fiber_rel_image")],
        last_fiber_emptied,
        ["per_fiber_rel_image naturality"],
    ),
    # The base's implication misses the last point, while sub_impl, which scans
    # every open mask, stays right: the iso's pointwise impl check disagrees.
    "FiniteTopology.least_opens drops the last sorted point's least open": (
        [(FiniteTopology, "least_opens")],
        last_least_open_dropped,
        ["verify_main_iso on a fresh topology", "lattice check on a topology file"],
    ),
    # Frame maps preserve meets and joins, so the rows above that empty a
    # point or a fiber commute with them; a join read from the position order
    # is lattice-specific, and the stalks at base points, O(Y) → 2, see it.
    "OpenSetLattice.join_table joins by the larger position": (
        [(OpenSetLattice, "join_table")],
        joined_by_larger_position,
        ["conv_op frame naturality"],
    ),
    # Both sides of a bounded-morphism relation share the base, so the cut commutes
    # with them; restricting the base to a stalk or least open moves its first point.
    "étale routes cut each section to the first point's least open": (
        [(convalg.etale, "fiberwise_rel_image"), (convalg.etale, "per_fiber_rel_image")],
        cut_to_first_least_open,
        ["fiberwise_rel_image frame naturality", "per_fiber_rel_image frame naturality"],
    ),
    # A new, empty table, so that the functions built before the bug stay out of it.
    "the step-function intern table keys without interval values": (
        [(convalg.type2, "_LIVE")],
        lambda table: KeyWithoutIntervalValues(),
        ["crosscheck", "crosscheck on grid 16", "type2 crosscheck", "type2 De Morgan"],
    ),
    # The étale sides of verify_main_iso's impl and neg checks; sub_neg calls
    # sub_impl, so the first row breaks both and the second neg alone.
    "sub_impl leaves the last fiber empty": (
        [(convalg.etale, "sub_impl")],
        last_fiber_emptied,
        ["verify_main_iso", "etale verify-iso"],
    ),
    "sub_neg leaves the last fiber empty": (
        [(convalg.etale, "sub_neg")],
        last_fiber_emptied,
        ["verify_main_iso", "etale verify-iso"],
    ),
    # Both sides of every iso check go through phi. The pointwise join and meet
    # commute with emptying a fiber; the relation's image and impl do not.
    # paper-demo does not see it: x4, the last fiber, is never an argument of f.
    "phi leaves the last fiber empty": (
        [(convalg.etale, "phi"), (convalg.cli, "phi")],
        last_fiber_emptied,
        ["verify_main_iso", "etale verify-iso"],
    ),
    # Both algebras read the one compiled program, so this cannot flip
    # "same_equations_report" over chain:1: maps and subsets agree on the
    # mirrored equation. Over chain:3 the crisp certificate, by eval_term,
    # refutes the two-valued counterexample; literal_holds in
    # tests/test_oracle.py, also by eval_term, catches it as well.
    "_slot compiles each application's arguments reversed": (
        [(convalg.terms, "_slot")],
        compiled_reversed,
        ["same_equations_report over chain:3"],
    ),
    "ComplexAlgebra.apply reads its arguments reversed on the untabled scan": (
        [(ComplexAlgebra, "apply")],
        reversed_on_untabled_scan,
        ["same_equations_report on a closed equation", "equations check on a closed equation"],
    ),
}


@pytest.mark.parametrize("bug", sorted(BUGS))
def test_seeded_bug_fails_its_checks(monkeypatch, capsys, bug):
    bindings, seed, checks = BUGS[bug]
    assert all(CHECKS[name](capsys) for name in checks)
    for module, name in bindings:
        monkeypatch.setattr(module, name, seed(getattr(module, name)))
    assert [name for name in checks if CHECKS[name](capsys)] == []


@pytest.mark.parametrize(
    "bug, law",
    [
        ("ChainLattice.meet leaves the chain at (1/3, 1)", "distributivity"),
        ("ChainLattice.impl answers 0 at (2/3, 1/3)", "adjunction"),
        ("ChainLattice ranks its elements in reverse", "bounds"),
    ],
)
def test_seeded_lattice_bug_fails_its_law(monkeypatch, bug, law):
    bindings, seed, _ = BUGS[bug]
    for cls, name in bindings:
        monkeypatch.setattr(cls, name, seed(getattr(cls, name)))
    assert check_heyting_laws(chain_lattice(3)).failure.law == law


@pytest.mark.parametrize("bug, route", [
    ("conv_op leaves the carrier's last point at bottom", "conv_op"),
    ("rel_image never reaches the carrier's last point", "rel_image"),
    ("fiberwise_rel_image leaves the last fiber empty", "fiberwise_rel_image"),
    ("per_fiber_rel_image leaves the last fiber empty", "per_fiber_rel_image"),
])
def test_last_point_rows_break_the_inclusion_alone(monkeypatch, bug, route):
    # X ⊔ X′ lists X′ last, so the route there keeps X's last point, which it drops on X
    bindings, seed, _ = BUGS[bug]
    assert route_naturality_mismatches(10, morphisms=("inclusion",))[route][1] == 0
    for module, name in bindings:
        monkeypatch.setattr(module, name, seed(getattr(module, name)))
    assert route_naturality_mismatches(10, morphisms=("inclusion",))[route][1] > 0


def test_cut_routes_pass_the_bounded_morphism_relations(monkeypatch):
    # the cut is the same on both sides of a bounded morphism, which keeps the base
    bindings, seed, _ = BUGS["étale routes cut each section to the first point's least open"]
    for module, name in bindings:
        monkeypatch.setattr(module, name, seed(getattr(module, name)))
    counts = route_naturality_mismatches(10)
    assert counts["fiberwise_rel_image"][1] == counts["per_fiber_rel_image"][1] == 0


def test_least_opens_bug_is_a_pointwise_impl_counterexample_that_spares_sub_impl(monkeypatch):
    bindings, seed, _ = BUGS["FiniteTopology.least_opens drops the last sorted point's least open"]
    for cls, name in bindings:
        monkeypatch.setattr(cls, name, seed(getattr(cls, name)))
    assert "pointwise impl" in fresh_iso_report().counterexample
    topology = worked_example()[0]
    # one fiber per pair of opens: sub_impl against the scan of every open
    pairs = [(a, b) for a in topology.opens for b in topology.opens]
    parent, mask = ConstantEtale(tuple(range(len(pairs))), topology), topology.mask_of
    got = sub_impl(EtaleSubobject(parent, tuple(mask[a] for a, _ in pairs)),
                   EtaleSubobject(parent, tuple(mask[b] for _, b in pairs)))
    want = [frozenset().union(*[w for w in topology.opens if w & a <= b]) for a, b in pairs]
    assert got.masks == tuple(mask[w] for w in want)
    assert any(topology.impl(a, b) != w for (a, b), w in zip(pairs, want))
