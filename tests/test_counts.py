"""Every size or count argument of the package refuses a bool, a float and the value
one below its least with a ValueError that names the argument, never a TypeError and
never by building something."""

import random

import pytest

from convalg import (
    App,
    ComplexAlgebra,
    Equation,
    GridFunction,
    RelationalStructure,
    Signature,
    Var,
    chain_lattice,
    characteristic_iso,
    check_heyting_laws,
    crosscheck,
    grid_conv_oracle,
    holds_in,
    interval_structure,
    make_topology,
    open_set_heyting,
    random_equations,
    random_grid_step,
    random_step,
    same_equations_report,
    sample_to_grid,
    t2_constants,
    verify_main_iso,
)

TWO = chain_lattice(1)
POINT = make_topology({"p"})
STRUCTURE = RelationalStructure(("a", "b"), Signature((("g", 1),)), {"g": {("a", "b")}})
EQUATION = Equation(App("g", (Var("v"),)), Var("v"))

# entry point -> (the argument's name in the message, its least value, a call passing v)
ENTRY_POINTS = {
    "chain_lattice": ("chain size", 1, lambda v: chain_lattice(v)),
    "interval_structure": ("chain size", 1, lambda v: interval_structure(v)),
    "Signature": ("arity of g", 0, lambda v: Signature((("g", v),))),
    "check_heyting_laws": ("max_subset_size", 0, lambda v: check_heyting_laws(TWO, v)),
    "characteristic_iso": ("trials", 0, lambda v: characteristic_iso(STRUCTURE, trials=v)),
    "verify_main_iso": (
        "trials", 0, lambda v: verify_main_iso(open_set_heyting(POINT), STRUCTURE, POINT, v)
    ),
    "crosscheck n": ("grid size", 1, lambda v: crosscheck(v, 1)),
    "crosscheck trials": ("trials", 0, lambda v: crosscheck(4, v)),
    "holds_in": ("max_assignments", 0, lambda v: holds_in(ComplexAlgebra(STRUCTURE), EQUATION, v)),
    "same_equations_report": (
        "max_assignments", 0, lambda v: same_equations_report(TWO, STRUCTURE, [EQUATION], v)
    ),
    "GridFunction": ("grid size", 1, lambda v: GridFunction(v, (0, 0, 1))),
    "sample_to_grid": ("grid size", 1, lambda v: sample_to_grid(t2_constants()[0], v)),
    "grid_conv_oracle": (
        "grid size", 1, lambda v: grid_conv_oracle(v, "neg", GridFunction(2, (0, 0, 1)))
    ),
    "random_equations count": ("count", 0, lambda v: random_equations(STRUCTURE.signature, v)),
    "random_equations max_depth": (
        "max_depth", 0, lambda v: random_equations(STRUCTURE.signature, 2, max_depth=v)
    ),
    "random_equations max_vars": (
        "max_vars", 0, lambda v: random_equations(STRUCTURE.signature, 2, max_vars=v)
    ),
    "random_grid_step n": ("grid size", 1, lambda v: random_grid_step(random.Random(0), v)),
    "random_grid_step value_denominator": (
        "value_denominator", 1, lambda v: random_grid_step(random.Random(0), 4, value_denominator=v)
    ),
    "random_grid_step max_interior": (
        "max_interior", 0, lambda v: random_grid_step(random.Random(0), 4, max_interior=v)
    ),
    "random_step max_denominator": (
        "max_denominator", 1, lambda v: random_step(random.Random(0), max_denominator=v)
    ),
    "random_step max_interior": (
        "max_interior", 0, lambda v: random_step(random.Random(0), max_interior=v)
    ),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("bad", ["bool", "float", "below"])
def test_bad_count_names_the_argument(entry, bad):
    what, least, call = ENTRY_POINTS[entry]
    value = {"bool": True, "float": 2.5, "below": least - 1}[bad]
    kind = "a nonnegative int" if least == 0 else "a positive integer"
    with pytest.raises(ValueError, match=f"^{what} must be {kind}, got {value!r}$"):
        call(value)


def test_random_equations_refuses_an_empty_leaf_pool():
    # g is unary: with no variables nothing can end a term
    with pytest.raises(ValueError, match="^no variables and no nullary symbol"):
        random_equations(STRUCTURE.signature, 2, max_vars=0)
    # a constant ends every term, so the pool is not empty without variables
    with_constant = Signature((("g", 1), ("c", 0)))
    assert all(not e.variables() for e in random_equations(with_constant, 5, max_vars=0))


def test_random_step_needs_a_denominator_for_interior_breakpoints():
    # an interior breakpoint k/d needs d >= 2; with none allowed, d = 1 gives a 0/1 function
    with pytest.raises(ValueError, match="^max_denominator must be at least 2 when max_interior"):
        random_step(random.Random(0), max_denominator=1, max_interior=1)
    for seed in range(20):
        f = random_step(random.Random(seed), max_denominator=1, max_interior=0)
        assert (f.den, f.bps) == (1, (0, 1))
