#!/usr/bin/env python3
"""Full verification battery over small instances, printed as a summary table.

Covers the same ground as the acceptance suite but as a standalone run:
Heyting laws on every topology with at most three points and on chains,
the section-correspondence isomorphism (randomized, and exhaustive over
both étale image routes for a nullary, a unary and a binary relation on
every topology of three points), the two-valued characteristic isomorphism,
equational agreement between the map and powerset algebras (with each
map-algebra verdict of at most 10**4 assignments compared with a literal
scan of every assignment of maps, both sides by ``eval_term``), and the
step-function oracle crosschecks, on grid-aligned inputs
and on inputs with arbitrary rational breakpoints sampled on the grid of
twice the breakpoints' common denominator.
"""

import argparse
import random
import sys
import time
from itertools import product
from math import lcm

from convalg import (
    ConstantRelationalEtale,
    ConvolutionAlgebra,
    RelationalStructure,
    Signature,
    chain_lattice,
    characteristic_iso,
    check_heyting_laws,
    conv_op,
    crosscheck,
    enumerate_maps,
    enumerate_topologies,
    eval_term,
    fiberwise_rel_image,
    format_equation,
    grid_conv_oracle,
    interval_structure,
    make_topology,
    open_set_heyting,
    per_fiber_rel_image,
    phi,
    random_equations,
    random_step,
    same_equations_report,
    sample_to_grid,
    t2_join,
    t2_meet,
    t2_neg,
    verify_main_iso,
)
from convalg.etale import worked_example


def run(label, fn):
    t0 = time.perf_counter()
    ok, detail = fn()
    status = "ok" if ok else "FAIL"
    print(f"{label:<46} {status:<5} {detail} ({time.perf_counter() - t0:.2f}s)")
    return ok


def heyting_everywhere():
    count = 0
    for n_points in range(4):
        for topo in enumerate_topologies([f"y{i}" for i in range(n_points)]):
            if not check_heyting_laws(open_set_heyting(topo)).ok:
                return False, f"topology {sorted(map(sorted, topo.opens))}"
            count += 1
    for n in range(1, 17):
        if not check_heyting_laws(chain_lattice(n)).ok:
            return False, f"chain {n}"
        count += 1
    return True, f"{count} lattices"


def section_iso():
    topology, lattice, structure, _ = worked_example()
    report = verify_main_iso(lattice, structure, topology, trials=500, seed=0)
    if not report.ok:
        return False, report.counterexample
    checks = report.checks
    small = RelationalStructure(
        ("u", "v"),
        Signature((("f", 2), ("g", 1), ("c", 0))),
        {
            "f": {("u", "u", "u"), ("u", "v", "v"), ("v", "u", "v"), ("v", "v", "v")},
            "g": {("u", "v"), ("v", "v"), ("v", "u")},
            "c": {("v",)},
        },
    )
    for topo in enumerate_topologies(("y0", "y1", "y2")):
        lat = open_set_heyting(topo)
        rel_etale = ConstantRelationalEtale(small, topo)
        maps = list(enumerate_maps(lat, small.carrier))
        for name, arity in small.signature.symbols:
            for args in product(maps, repeat=arity):
                lhs = phi(lat, conv_op(lat, small, name, list(args)))
                subs = [phi(lat, a) for a in args]
                sect = fiberwise_rel_image(rel_etale, name, subs)
                fiber = per_fiber_rel_image(rel_etale, name, subs)
                if not lhs == sect == fiber:
                    return False, f"exhaustive mismatch on {name}"
                checks += 1
    return True, f"{checks} checks"


def characteristic():
    structure = worked_example()[2]
    report = characteristic_iso(structure, exhaustive=True)
    if not report.ok:
        return False, report.failure
    other = characteristic_iso(interval_structure(1))
    return other.ok, f"{report.checked + other.checked} argument tuples"


def literal_holds(algebra, equation):
    """The equation over every assignment of maps, both sides by ``eval_term``."""
    names = equation.variables()
    maps = list(enumerate_maps(algebra.lattice, algebra.structure.carrier))
    for combo in product(maps, repeat=len(names)):
        env = dict(zip(names, combo))
        if eval_term(algebra, equation.lhs, env) != eval_term(algebra, equation.rhs, env):
            return False
    return True


def equations():
    structure = worked_example()[2]
    eqs = random_equations(structure.signature, 20, seed=2024)
    total = compared = scanned = 0
    for lat in (chain_lattice(2), chain_lattice(3), open_set_heyting(
        make_topology({"a", "b", "c"}, [{"b"}, {"a", "b"}, {"b", "c"}])
    )):
        report = same_equations_report(lat, structure, eqs, max_assignments=10**6)
        if not report.ok:
            return False, "disagreement found"
        compared += report.compared
        total += len(eqs)
        conv = ConvolutionAlgebra(lat, structure)
        for out in report.outcomes:
            if conv.size() ** len(out.equation.variables()) <= 10**4:
                if out.conv_holds != literal_holds(conv, out.equation):
                    eq = format_equation(out.equation)
                    return False, f"{eq} over {lat!r} differs from the literal scan"
                scanned += 1
    return True, (f"{compared}/{total} compared, rest capacity-skipped; "
                  f"{scanned} map verdicts match the literal scan")


def type2_oracle():
    checks = 0
    for n in (4, 8, 16):
        report = crosscheck(n, 100, seed=n)
        if not report.ok:
            return False, report.failure
        checks += report.checks
    return True, f"{checks} checks"


def type2_arbitrary_breakpoints():
    rng = random.Random(2018)
    checks = 0
    for _ in range(50):
        a, b = random_step(rng, max_denominator=6), random_step(rng, max_denominator=6)
        # Every piece of a, b and their results has a sample on this grid.
        n = 2 * lcm(*(x.denominator for x in a.breakpoints + b.breakpoints))
        ga, gb = sample_to_grid(a, n), sample_to_grid(b, n)
        for op, closed, args in (
            ("join", t2_join(a, b), (ga, gb)),
            ("meet", t2_meet(a, b), (ga, gb)),
            ("neg", t2_neg(a), (ga,)),
        ):
            if sample_to_grid(closed, n) != grid_conv_oracle(n, op, *args):
                return False, f"{op} differs from the oracle on grid {n}"
            checks += 1
    return True, f"{checks} checks"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.parse_args(argv)
    results = [
        run("heyting laws, all small lattices", heyting_everywhere),
        run("section correspondence isomorphism", section_iso),
        run("two-valued characteristic isomorphism", characteristic),
        run("map vs powerset equational agreement", equations),
        run("step-function closed forms vs grid oracle", type2_oracle),
        run("arbitrary breakpoints vs 2*lcm-grid oracle", type2_arbitrary_breakpoints),
    ]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
