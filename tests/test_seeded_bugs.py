"""Seeded bugs: one per side of a comparison, each of which must turn the
reports that compare that side false and make the commands that print them
exit 1 with nothing on stderr.

Each bug is patched where its callers look the function up, so the other
side of the comparison stays correct. Every check is first run without the
bug, so that a flip is the bug's doing.
"""

import pytest

import convalg.complexalg
import convalg.etale
import convalg.type2
from convalg import characteristic_iso, crosscheck, verify_main_iso
from convalg.cli import main
from convalg.etale import worked_example

TOPOLOGY, LATTICE, STRUCTURE, _ = worked_example()


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
    "crosscheck": lambda capsys: crosscheck(4, 10).ok,
    "type2 crosscheck": lambda capsys: cli_passes(
        capsys, ["type2", "crosscheck", "--n", "4", "--trials", "10"]
    ),
}


def reversed_arguments(f):
    return lambda lattice, structure, name, args: f(lattice, structure, name, args[::-1])


def join_and_meet_swapped(f):
    swap = {"join": "meet", "meet": "join"}
    return lambda n, op, *args: f(n, swap.get(op, op), *args)


# bug: (the (module, name) bindings it replaces, the wrapper that seeds it,
# the checks that must fail)
BUGS = {
    "conv_op reads its arguments reversed": (
        [(convalg.etale, "conv_op"), (convalg.complexalg, "conv_op")],
        reversed_arguments,
        ["verify_main_iso", "characteristic_iso"],
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
