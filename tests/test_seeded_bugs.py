"""Seeded bugs: one per side of a comparison, each of which must turn the
reports that compare that side false and make the commands that print them
exit 1 with nothing on stderr.

Each bug is patched where its callers look the function up, so the other
side of the comparison stays correct. Every check is first run without the
bug, so that a flip is the bug's doing.
"""

import pytest

import convalg.cli
import convalg.complexalg
import convalg.etale
import convalg.terms
import convalg.type2
from convalg import (
    App,
    Equation,
    Var,
    chain_lattice,
    characteristic_iso,
    crosscheck,
    same_equations_report,
    verify_main_iso,
)
from convalg.cli import main
from convalg.etale import worked_example

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
}


def reversed_arguments(f):
    """``f`` with its last argument, the operation's argument list, reversed."""
    return lambda *call: f(*call[:-1], call[-1][::-1])


def last_group_ignored(f):
    return lambda groups, inside: f(groups[:-1], inside)


def join_and_meet_swapped(f):
    swap = {"join": "meet", "meet": "join"}
    return lambda n, op, *args: f(n, swap.get(op, op), *args)


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
}


@pytest.mark.parametrize("bug", sorted(BUGS))
def test_seeded_bug_fails_its_checks(monkeypatch, capsys, bug):
    bindings, seed, checks = BUGS[bug]
    assert all(CHECKS[name](capsys) for name in checks)
    for module, name in bindings:
        monkeypatch.setattr(module, name, seed(getattr(module, name)))
    assert [name for name in checks if CHECKS[name](capsys)] == []
