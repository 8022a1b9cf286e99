"""Seeded bugs: one per side of a comparison, each of which must turn the
reports that compare that side false and make the commands that print them
exit 1 with nothing on stderr. An equations report that refuses its lattice
as not Heyting, or whose crisp certificate fails, counts as false.

Each bug is patched where its callers look the function up, so the other
side of the comparison stays correct. Every check is first run without the
bug, so that a flip is the bug's doing.
"""

import random
from fractions import Fraction
from math import isqrt

import pytest

import convalg.cli
import convalg.complexalg
import convalg.etale
import convalg.terms
import convalg.type2
from convalg import (
    App,
    ComplexAlgebra,
    Equation,
    Var,
    chain_lattice,
    characteristic_iso,
    check_heyting_laws,
    crosscheck,
    same_equations_report,
    verify_main_iso,
)
from convalg.cli import main
from convalg.etale import worked_example
from convalg.lattice import ChainLattice
from helpers import de_morgan_mismatches

TOPOLOGY, LATTICE, STRUCTURE, _ = worked_example()
# holds with f's arguments in order, fails with them reversed
W, V = Var("w"), Var("v")
FVW = App("f", (V, W))
ASYMMETRIC = Equation(App("f", (App("f", (W, W)), FVW)), App("f", (W, FVW)))


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


# Each check returns True when the comparison passed.
CHECKS = {
    "verify_main_iso": lambda capsys: verify_main_iso(
        LATTICE, STRUCTURE, TOPOLOGY, trials=20
    ).ok,
    "characteristic_iso": lambda capsys: characteristic_iso(STRUCTURE).ok,
    "same_equations_report": lambda capsys: same_equations_report(
        chain_lattice(1), STRUCTURE, [ASYMMETRIC]
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
    "same_equations_report over chain:3": lambda capsys: equations_pass(
        chain_lattice(3), [ASYMMETRIC]
    ),
    # fails in the two-valued algebra, so its witness is lifted and certified
    "crisp certificate": lambda capsys: equations_pass(chain_lattice(3), [Equation(FVW, V)]),
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
    "char_map lifts every witness to bottom": (
        [(convalg.terms, "char_map")],
        lifted_to_bottom,
        ["crisp certificate"],
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
    ],
)
def test_seeded_lattice_bug_fails_its_law(monkeypatch, bug, law):
    bindings, seed, _ = BUGS[bug]
    for cls, name in bindings:
        monkeypatch.setattr(cls, name, seed(getattr(cls, name)))
    assert check_heyting_laws(chain_lattice(3)).failure.law == law
