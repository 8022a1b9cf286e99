"""Terms and equations over a signature, with exhaustive satisfaction checking.

Both the map algebra and the powerset algebra of a structure expose the
same type, so one checker decides equations in either and the two
verdicts can be compared. The equation language deliberately contains
only the signature symbols and variables, no lattice connectives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .complexalg import _TWO, all_subsets, char_map, count_subsets, rel_image, subset_from_map
from .convolution import conv_op, count_maps, enumerate_maps
from .lattice import CapacityError, _bounded, _count


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    op: str
    args: tuple


@dataclass(frozen=True)
class Equation:
    lhs: object
    rhs: object

    def variables(self):
        return tuple(sorted(set(term_variables(self.lhs)) | set(term_variables(self.rhs))))

    @cached_property
    def program(self):
        """``(names, steps, lhs slot, rhs slot)``: both sides as one program
        by ``_slot``, compiled once and shared by every algebra."""
        names = self.variables()
        slots, steps = {name: i for i, name in enumerate(names)}, []
        lhs, rhs = _slot(self.lhs, slots, steps), _slot(self.rhs, slots, steps)
        return names, tuple(steps), lhs, rhs


def term_variables(term):
    if isinstance(term, Var):
        return (term.name,)
    return tuple(v for a in term.args for v in term_variables(a))


def format_term(term):
    """Prefix notation; nullary symbols print in application form."""
    if isinstance(term, Var):
        return term.name
    if not term.args:
        return f"({term.op})"
    return "(" + " ".join([term.op] + [format_term(a) for a in term.args]) + ")"


def format_equation(eq):
    return f"{format_term(eq.lhs)} = {format_term(eq.rhs)}"


class _TabledAlgebra:
    """What both algebras share: the structure, element positions and
    operation tables in position space.

    Each algebra defines ``elements``, ``element_key``, ``size`` and
    ``apply`` in its own body: bench/tracer.py wraps ``apply`` and
    ``elements`` from each class's own ``__dict__``.
    """

    two_valued = None  # a smaller algebra with the same equations, if any

    def __init__(self, structure):
        self.structure = structure
        self.tables = {}
        self._elements = None
        self._positions = None

    @property
    def signature(self):
        return self.structure.signature

    def table(self, name):
        """Operation table in position space, built once per algebra with
        one ``apply`` per entry. It is one row-major list: the entry for
        positions (i1, ..., ik) sits at i1 * n**(k-1) + ... + ik, so a
        nullary symbol's table has its one entry at 0."""
        if name in self.tables:
            return self.tables[name]
        els, key = self.elements(), self.element_key
        if self._positions is None:
            self._positions = {key(e): i for i, e in enumerate(els)}
        index = self._positions
        table = [index[key(self.apply(name, args))]
                 for args in product(els, repeat=self.signature.arity(name))]
        self.tables[name] = table
        return table


class ConvolutionAlgebra(_TabledAlgebra):
    """The algebra of lattice-valued maps on a structure, symbols acting by
    convolution.

    Over a distributive lattice L of more than two elements, ``two_valued``
    is the same structure's algebra over the two-element chain: the fibers
    over L's join-irreducibles embed L^X into a power of it and the crisp
    maps embed it into L^X, so both satisfy the same equations.
    """

    def __init__(self, lattice, structure):
        super().__init__(structure)
        self.lattice = lattice

    @cached_property
    def two_valued(self):
        lat = self.lattice
        if len(lat.elements) > 2 and lat.birkhoff_masks is not None:
            return ConvolutionAlgebra(_TWO, self.structure)
        return None

    def apply(self, name, args):
        return conv_op(self.lattice, self.structure, name, args)

    def size(self):
        """Element count; raises CapacityError above ``MAX_MAPS``."""
        return count_maps(self.lattice, self.structure.carrier)

    def elements(self):
        if self._elements is None:
            self._elements = list(enumerate_maps(self.lattice, self.structure.carrier))
        return self._elements

    def element_key(self, el):
        return el.codes


class ComplexAlgebra(_TabledAlgebra):
    """The powerset algebra of a structure, symbols acting by relational image."""

    def apply(self, name, args):
        return rel_image(self.structure, name, args)

    def size(self):
        """Element count; raises CapacityError above ``MAX_MAPS``."""
        return count_subsets(self.structure.carrier)

    def elements(self):
        if self._elements is None:
            self.size()
            self._elements = all_subsets(self.structure.carrier)
        return self._elements

    def element_key(self, el):
        return el


def eval_term(algebra, term, env):
    """Structural term evaluation with an explicit environment."""
    if isinstance(term, Var):
        if term.name not in env:
            raise ValueError(f"unbound variable {term.name}")
        return env[term.name]
    return algebra.apply(term.op, [eval_term(algebra, a, env) for a in term.args])


@dataclass
class EquationCheck:
    holds: bool
    witness: dict | None


def _slot(term, slots, steps):
    """The slot of ``term``'s value; each distinct subterm, keyed by its
    ``(op, arg slots)``, gets the next slot and one step in ``steps``."""
    if isinstance(term, Var):
        return slots[term.name]
    key = (term.op, tuple([_slot(a, slots, steps) for a in term.args]))
    if key not in slots:
        slots[key] = len(slots)
        steps.append(key)
    return slots[key]


def holds_in(algebra, equation, max_assignments=10**6):
    """Exhaustively decide an equation over the algebra.

    Raises CapacityError when the algebra exceeds its element bound or the
    assignment space exceeds ``max_assignments``; both are decided from
    the algebra's own element count, before any element is built. With a
    ``two_valued`` algebra the equation is decided there, and a witness is
    lifted crisply and certified by one evaluation here; otherwise
    assignments run in lexicographic order over the canonical element
    enumeration, both sides run as one program of their distinct
    subterms: ``equation.program``, compiled once per equation and shared
    by every algebra that decides it. The scan reads operation tables only
    when their missing entries number at most the applications it would
    make without them (assignments times distinct subterms); else it
    applies the operations to elements. So a failing equation always yields the same witness.
    Syntactically identical sides agree without enumeration.
    """
    _count(max_assignments, "max_assignments", 0)
    if equation.lhs == equation.rhs:
        return EquationCheck(True, None)
    names, steps, lhs, rhs = equation.program
    n = algebra.size()
    total = _bounded(n ** len(names), "assignments", max_assignments)
    if algebra.two_valued is not None:
        check = holds_in(algebra.two_valued, equation, max_assignments)
        if check.holds:
            return check
        lat = algebra.lattice
        witness = {name: char_map(lat, m.carrier, subset_from_map(m))
                   for name, m in check.witness.items()}
        if eval_term(algebra, equation.lhs, witness) == eval_term(algebra, equation.rhs, witness):
            raise RuntimeError(f"{format_equation(equation)} holds at the crisp lift "
                               f"of its two-valued counterexample over {lat!r}")
        return EquationCheck(False, witness)
    els = algebra.elements()
    # tabulate only when the missing tables, n^arity applies each, cost
    # no more than the scan's len(steps) applies per assignment
    ops = {op for op, _ in steps if op not in algebra.tables}
    if sum(n ** algebra.signature.arity(op) for op in ops) <= total * len(steps):
        program = [(algebra.table(op), args) for op, args in steps]
        for asg in product(range(n), repeat=len(names)):
            vals = list(asg)
            for table, args in program:
                i = 0
                for a in args:
                    i = i * n + vals[a]
                vals.append(table[i])
            if vals[lhs] != vals[rhs]:
                return EquationCheck(False, {name: els[i] for name, i in zip(names, asg)})
        return EquationCheck(True, None)
    for combo in product(els, repeat=len(names)):
        vals = list(combo)
        for op, args in steps:
            vals.append(algebra.apply(op, [vals[a] for a in args]))
        if vals[lhs] != vals[rhs]:
            return EquationCheck(False, dict(zip(names, combo)))
    return EquationCheck(True, None)


@dataclass
class EquationOutcome:
    equation: Equation
    conv_holds: bool | None
    complex_holds: bool | None

    @property
    def agree(self):
        if self.conv_holds is None or self.complex_holds is None:
            return None
        return self.conv_holds == self.complex_holds


@dataclass
class SameEquationsReport:
    outcomes: list
    ok: bool
    compared: int
    disagreements: int
    skipped: int


def same_equations_report(lattice, structure, equations, max_assignments=10**6):
    """Decide each equation in the map algebra and the powerset algebra and
    compare the verdicts.

    A computed disagreement falsifies the package, not the input. Sides
    whose assignment space exceeds the capacity bound are recorded as
    skipped rather than evaluated. Requires a Heyting lattice with at
    least two elements.
    """
    _count(max_assignments, "max_assignments", 0)
    if len(lattice.elements) < 2:
        raise ValueError("requires a lattice with at least two elements")
    law = lattice.heyting_report
    if not law.ok:
        raise ValueError(f"lattice is not Heyting: {law.failure.law} fails")
    algebras = ConvolutionAlgebra(lattice, structure), ComplexAlgebra(structure)
    outcomes = []
    for eq in equations:
        verdicts = [None, None]
        for i, algebra in enumerate(algebras):
            try:
                verdicts[i] = holds_in(algebra, eq, max_assignments).holds
            except CapacityError:
                pass  # this side stays undecided and counts as skipped
        outcomes.append(EquationOutcome(eq, *verdicts))
    compared = sum(o.agree is not None for o in outcomes)
    disagreements = sum(o.agree is False for o in outcomes)
    return SameEquationsReport(
        outcomes, disagreements == 0, compared, disagreements, len(outcomes) - compared
    )


def random_equations(signature, count, seed=0, max_depth=3, max_vars=3):
    """Seeded random equations: bounded depth, bounded variable pool,
    symbols drawn uniformly."""
    _count(count, "count", 0)
    _count(max_depth, "max_depth", 0)
    var_names = ["v", "w", "u", "s", "t"][:_count(max_vars, "max_vars", 0)]
    nullary = [name for name in signature.names if signature.arity(name) == 0]
    if not (leaves := var_names + nullary):
        raise ValueError("no variables and no nullary symbol to draw leaves from")
    rng = random.Random(seed)
    vocab = signature, var_names, nullary, leaves, var_names + list(signature.names)
    return [Equation(_random_term(rng, max_depth, vocab), _random_term(rng, max_depth, vocab))
            for _ in range(count)]


def _random_term(rng, depth, vocab):
    # Not a closure: a recursive closure refers to its own cell, a cycle
    # that keeps rng alive until the collector runs. ``leaves`` and ``nodes``
    # are the draws at depth 0 and above it, built once per call of random_equations.
    signature, var_names, nullary, leaves, nodes = vocab
    if depth == 0:
        choice = rng.choice(leaves)
        if choice in nullary:
            return App(choice, ())
        return Var(choice)
    choice = rng.choice(nodes)
    if choice in var_names:
        return Var(choice)
    arity = signature.arity(choice)
    return App(choice, tuple(_random_term(rng, depth - 1, vocab) for _ in range(arity)))
