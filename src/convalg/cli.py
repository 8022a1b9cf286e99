"""Batch command-line interface.

Exit status: 0 when all requested checks pass, 1 when a verification
produced a counterexample, 2 on usage or input errors. With --records,
output is line-oriented ``key=value`` pairs and byte-identical across
runs with the same inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .complexalg import rel_image
from .convolution import conv_op
from .etale import (
    ConstantRelationalEtale,
    fiberwise_rel_image,
    per_fiber_rel_image,
    phi,
    verify_main_iso,
    worked_example,
)
from .formats import (
    format_element,
    format_map,
    format_step_function,
    parse_equations,
    parse_lattice_map,
    parse_step_function,
    parse_structure,
    parse_subset,
    parse_topology,
)
from .lattice import MAX_LAW_CHECKS, CapacityError, _bounded, chain_lattice, check_heyting_laws
from .lattice import law_check_count, open_set_heyting
from .terms import format_equation, same_equations_report
from .type2 import crosscheck, t2_join, t2_meet, t2_neg

# Each cmd_* function returns (status, records, text): the exit status, the
# --records form as (key, value) pairs, and the human form. main prints one.


def _read(path):
    return Path(path).read_text(encoding="utf-8")


def _load_lattice(selector):
    """`chain:N` or a topology file path. A chain whose order laws alone
    exceed ``MAX_LAW_CHECKS`` is refused before it is built."""
    if selector.startswith("chain:"):
        try:
            n = int(selector.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad chain size in {selector!r}") from None
        _bounded(law_check_count(n + 1, 0), f"order-law checks of {selector}", MAX_LAW_CHECKS)
        return chain_lattice(n)
    return open_set_heyting(parse_topology(_read(selector), selector))


def _word(value):
    """Output spelling of a value: bools as true/false, an undecided
    verdict (None) as skipped."""
    if value is None:
        return "skipped"
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def cmd_lattice_check(args):
    lat = _load_lattice(args.lattice)
    report = check_heyting_laws(lat, max_subset_size=args.max_subset_size)
    records = [("elements", len(lat.elements)), ("checks", report.checks), ("ok", report.ok)]
    if not report.ok:
        records += [("law", report.failure.law), ("detail", report.failure.detail)]
    return 0 if report.ok else 1, records, f"lattice with {len(lat.elements)} elements: {report}"


def cmd_conv_eval(args):
    structure = parse_structure(_read(args.structure), args.structure)
    lattice = _load_lattice(args.lattice)
    maps = [
        parse_lattice_map(_read(p), structure.carrier, lattice, p) for p in args.arg or []
    ]
    result = conv_op(lattice, structure, args.relation, maps)
    records = [(f"result.{x}", format_element(v)) for x, v in result.values.items()]
    return 0, records, format_map(result)


def cmd_complex_eval(args):
    structure = parse_structure(_read(args.structure), args.structure)
    subsets = [parse_subset(tok) for tok in args.arg or []]
    result = format_element(rel_image(structure, args.relation, subsets))
    return 0, [("result", result)], result


def cmd_etale_verify_iso(args):
    topology = parse_topology(_read(args.topology), args.topology)
    structure = parse_structure(_read(args.structure), args.structure)
    lattice = open_set_heyting(topology)
    report = verify_main_iso(lattice, structure, topology, trials=args.trials, seed=args.seed)
    records = [
        ("seed", args.seed), ("trials", report.trials), ("checks", report.checks), ("ok", report.ok)
    ]
    if not report.ok:
        records.append(("counterexample", report.counterexample))
    return 0 if report.ok else 1, records, str(report)


def cmd_equations_check(args):
    lattice = _load_lattice(args.lattice)
    structure = parse_structure(_read(args.structure), args.structure)
    eqs = parse_equations(_read(args.eqs), structure.signature, args.eqs)
    report = same_equations_report(lattice, structure, eqs, max_assignments=args.max_enum)
    records, lines = [], []
    for i, out in enumerate(report.outcomes):
        text = format_equation(out.equation)
        records += [
            (f"eq.{i}.text", text),
            (f"eq.{i}.conv", out.conv_holds),
            (f"eq.{i}.complex", out.complex_holds),
            (f"eq.{i}.agree", out.agree),
        ]
        lines.append(f"{text}: maps={_word(out.conv_holds)} powerset={_word(out.complex_holds)}")
    records += [
        ("compared", report.compared),
        ("skipped", report.skipped),
        ("disagreements", report.disagreements),
        ("ok", report.ok),
    ]
    lines.append(
        f"compared {report.compared}, skipped {report.skipped}, "
        f"disagreements {report.disagreements}"
    )
    return 0 if report.ok else 1, records, "\n".join(lines)


def cmd_type2_eval(args):
    a = parse_step_function(_read(args.a), args.a)
    if args.op == "neg":
        result = t2_neg(a)
    else:
        if args.b is None:
            raise ValueError(f"{args.op} needs a second operand (-b)")
        b = parse_step_function(_read(args.b), args.b)
        result = t2_join(a, b) if args.op == "join" else t2_meet(a, b)
    text = format_step_function(result)
    return 0, [("op", args.op)] + [("piece", line) for line in text.splitlines()], text


def cmd_type2_crosscheck(args):
    report = crosscheck(args.n, args.trials, seed=args.seed)
    records = [
        ("grid", report.grid),
        ("seed", args.seed),
        ("trials", report.trials),
        ("checks", report.checks),
        ("ok", report.ok),
    ]
    if not report.ok:
        records.append(("counterexample", report.failure))
    return 0 if report.ok else 1, records, str(report)


def cmd_paper_demo(args):
    topology, lattice, structure, (alpha1, alpha2) = worked_example()
    conv = conv_op(lattice, structure, "f", [alpha1, alpha2]).values
    rel_etale = ConstantRelationalEtale(structure, topology)
    sub_args = [phi(lattice, alpha1), phi(lattice, alpha2)]
    fiber = per_fiber_rel_image(rel_etale, "f", sub_args)
    sections = fiberwise_rel_image(rel_etale, "f", sub_args)
    routes = [
        ("conv", "convolution over the open-set lattice", conv),
        ("fiber", "relational image computed fiber by fiber", fiber.sections),
        ("etale", "sectionwise image of the lifted relation", sections.sections),
    ]
    agree = conv == fiber.sections == sections.sections
    records, lines = [], []
    for label, title, values in routes:
        lines.append(f"{title}:")
        for x in structure.carrier:
            records.append((f"{label}.{x}", format_element(values[x])))
            lines.append(f"  {x} -> {format_element(values[x])}")
    records.append(("agree", agree))
    lines.append("all three routes agree" if agree else "ROUTES DISAGREE")
    return 0 if agree else 1, records, "\n".join(lines)


@functools.cache
def _build_parser():
    """The argparse tree, built once per process. Each command stores its
    handler's name and ``main`` looks the handler up when the call runs, so
    a ``cmd_*`` function rebound after the first call is the one that runs."""
    parser = argparse.ArgumentParser(prog="convalg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def group(name, help):
        return sub.add_parser(name, help=help).add_subparsers(dest="action", required=True)

    def command(parent, name, func, **kwargs):
        p = parent.add_parser(name, **kwargs)
        p.add_argument("--records", action="store_true", help="machine-parseable key=value output")
        p.set_defaults(func=func.__name__)
        return p

    p = command(group("lattice", "lattice law checks"), "check", cmd_lattice_check)
    p.add_argument("--lattice", required=True, help="chain:N or a topology file")
    p.add_argument("--max-subset-size", type=int, default=2)

    p = command(group("conv", "convolution operations"), "eval", cmd_conv_eval)
    p.add_argument("--lattice", required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--relation", required=True)
    p.add_argument("--arg", action="append", help="map file, once per argument")

    p = command(group("complex", "relational image on subsets"), "eval", cmd_complex_eval)
    p.add_argument("--structure", required=True)
    p.add_argument("--relation", required=True)
    p.add_argument("--arg", action="append", help="subset literal like '{x1 x2}'")

    p = command(group("etale", "section correspondence checks"), "verify-iso", cmd_etale_verify_iso)
    p.add_argument("--structure", required=True)
    p.add_argument("--topology", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = command(group("equations", "equational cross-checks"), "check", cmd_equations_check)
    p.add_argument("--lattice", required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--eqs", required=True)
    p.add_argument("--max-enum", type=int, default=10**6)

    t2 = group("type2", "step-function operations")
    p = command(t2, "eval", cmd_type2_eval)
    p.add_argument("--op", choices=("join", "meet", "neg"), required=True)
    p.add_argument("-a", required=True, help="step function file")
    p.add_argument("-b", help="second step function file")
    p = command(t2, "crosscheck", cmd_type2_crosscheck)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    command(sub, "paper-demo", cmd_paper_demo, help="run the worked example three ways")
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        status, records, text = globals()[args.func](args)
    except (ValueError, OSError, CapacityError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.records:
        action = getattr(args, "action", None)
        print(f"command={args.command}" + (f".{action}" if action else ""))
        for key, value in records:
            print(f"{key}={_word(value)}")
    elif text:
        print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
