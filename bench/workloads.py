"""Seeded job lists for the four benchmark workloads, and how to run one job.

``build(workload, seed, workdir)`` turns a seed into a fixed list of jobs;
the library sees only the inputs generated here. ``execute(job)`` runs one
job through the public API and returns a :class:`Outcome`: whether the
job's own independent route agreed, how many verdicts it posed and
decided, and a digest of every verdict and output it produced.

Sizes are stratified rather than drawn at random: the seed chooses the
contents of each input (relations, topologies, equations, step
functions, files), while the mix of input sizes is fixed. The per-pass
cost then depends little on the seed, which keeps run-to-run spread low.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path

import convalg
from convalg import cli
from convalg.terms import App, Equation, Var

SIG = convalg.Signature((("c", 0), ("g", 1), ("f", 2)))


@dataclass
class Job:
    kind: str
    args: tuple
    # text that identifies the job's inputs, for the job-list digest
    label: str = ""
    # an untraced run repeats the job only in every n-th pass
    every: int = 1


@dataclass
class Outcome:
    ok: bool
    posed: int
    decided: int
    digest: str


@dataclass
class Folder:
    """Running digest of a job's verdicts and outputs."""

    h: object = field(default_factory=lambda: hashlib.blake2b(digest_size=8))

    def add(self, *parts):
        self.h.update(("\x1f".join(canon(p) for p in parts) + "\x1e").encode())

    def hexdigest(self):
        return self.h.hexdigest()


def canon(value):
    """Order-independent text for the values the library returns."""
    if isinstance(value, (frozenset, set)):
        return "{" + " ".join(sorted(canon(v) for v in value)) + "}"
    if isinstance(value, (tuple, list)):
        return "(" + " ".join(canon(v) for v in value) + ")"
    if isinstance(value, dict):
        return "[" + " ".join(f"{canon(k)}:{canon(v)}" for k, v in sorted(
            value.items(), key=lambda kv: canon(kv[0]))) + "]"
    return str(value)


def interleave(*groups):
    """Spread each group evenly over the job list.

    The machine's speed drifts over seconds, so a group of similar jobs run
    back to back would measure one moment of that drift; spread out, every
    cost level is sampled over the whole pass.
    """
    keyed = sorted(((i + 0.5) / len(g), k, i) for k, g in enumerate(groups) for i in range(len(g)))
    return [groups[k][i] for _, k, i in keyed]


# ---------------------------------------------------------------- inputs


def carrier_of(size):
    return tuple(f"x{i + 1}" for i in range(size))


def random_structure(rng, size, density=0.3, signature=SIG):
    """Structure with a fixed tuple count per relation and seeded contents."""
    carrier = carrier_of(size)
    relations = {}
    for name, arity in signature.symbols:
        space = list(product(carrier, repeat=arity + 1))
        count = max(1, round(density * len(space)))
        relations[name] = frozenset(rng.sample(space, count))
    return convalg.RelationalStructure(carrier, signature, relations)


def topologies_by_size(points):
    """Topologies on the given number of points, grouped by open-set count."""
    out = {}
    for topo in convalg.enumerate_topologies([f"y{i}" for i in range(points)]):
        out.setdefault(len(topo.opens), []).append(topo)
    return out


def random_topology(rng, points, generators):
    pts = [f"y{i}" for i in range(points)]
    gens = [rng.sample(pts, rng.randint(1, points - 1)) for _ in range(generators)]
    return convalg.make_topology(pts, gens)


def equations_with(rng, signature, quotas, max_depth=2):
    """Seeded random equations, filled to a quota per variable count.

    ``quotas`` maps a variable count to how many equations with exactly
    that many distinct variables to keep.
    """
    want = dict(quotas)
    out = []
    while any(want.values()):
        batch = convalg.random_equations(
            signature, 8, seed=rng.randrange(2**32), max_depth=max_depth, max_vars=3
        )
        for eq in batch:
            k = len(eq.variables())
            if want.get(k):
                want[k] -= 1
                out.append(eq)
    return out


def anchor_equations(signature):
    """The equation suite of acceptance criterion 4 for the four-point structure."""
    f = lambda a, b: App("f", (a, b))  # noqa: E731
    v, w, u = Var("v"), Var("w"), Var("u")
    hand = [
        Equation(f(v, w), f(w, v)),
        Equation(f(f(v, w), u), f(v, f(w, u))),
        Equation(f(v, v), v),
        Equation(f(f(v, v), v), f(v, v)),
        Equation(f(v, f(v, v)), f(v, v)),
        Equation(f(f(v, w), f(v, w)), f(v, w)),
        Equation(f(v, w), v),
        Equation(f(v, w), f(v, v)),
        Equation(f(f(v, v), f(w, w)), f(v, w)),
        Equation(f(f(v, w), v), f(v, f(w, v))),
    ]
    return hand + convalg.random_equations(signature, 20, seed=2024)


def four_point_structure():
    return convalg.RelationalStructure(
        carrier_of(4),
        convalg.Signature((("f", 2),)),
        {"f": {("x1", "x1", "x1"), ("x2", "x2", "x3"), ("x1", "x3", "x4"), ("x3", "x2", "x4")}},
    )


# ------------------------------------------------------------- equations

# The job list has three tiers of random triples plus the two anchors of
# acceptance criterion 4, and each tier holds one cost level. With 42 light,
# 48 capacity-bound and 24 heavy jobs, the median job latency falls inside
# the capacity tier and the 90th percentile inside the heavy tier, so
# neither quantile sits on the step between two levels.
#
# Light: (carrier size, lattice) pairs with map algebras of at most 25
# elements; every table is built and every equation decided.
LIGHT = ((2, "chain:1"), (2, "chain:2"), (2, (2, 3)), (2, (3, 4)), (2, (3, 5)), (3, "chain:1"))
# Capacity-bound: map algebras of 256 to 625 elements. Three-variable
# equations exceed the assignment bound on the map side, and closed
# equations are decided by direct evaluation because a table would cost
# more than the scan.
CAPACITY = ((4, "chain:3"), (4, (3, 4)), (3, (3, 8)), (4, (3, 5)))
# Heavy: a 27-element map algebra over exact rationals, fully tabulated.
HEAVY = (3, "chain:2")
ANCHOR_EVERY = 4
_c = App("c", ())
CLOSED = (
    Equation(App("g", (_c,)), _c),
    Equation(App("f", (_c, App("g", (_c,)))), App("g", (App("f", (_c, _c)),))),
)
# Every tabulated job also checks these, so each builds the tables of
# both non-constant symbols and its cost depends little on the seed.
PROBES = (
    Equation(App("f", (Var("v"), Var("w"))), App("f", (Var("w"), Var("v")))),
    Equation(App("g", (App("g", (Var("v"),)),)), Var("v")),
)


def _lattice(rng, spec, topos):
    if isinstance(spec, str):
        return convalg.chain_lattice(int(spec.split(":")[1])), spec
    points, opens = spec
    topo = rng.choice(topos[points][opens])
    return convalg.open_set_heyting(topo), canon(topo.opens)


def _lattice_size(spec):
    return int(spec.split(":")[1]) + 1 if isinstance(spec, str) else spec[1]


def _eq_label(lname, s, eqs):
    return " ".join([lname, canon(s.relations)] + [convalg.format_equation(e) for e in eqs])


def build_equations(rng):
    topos = {2: topologies_by_size(2), 3: topologies_by_size(3)}
    wedge = convalg.open_set_heyting(
        convalg.make_topology({"a", "b", "c"}, [{"b"}, {"a", "b"}, {"b", "c"}])
    )
    fp = four_point_structure()
    suite = anchor_equations(fp.signature)
    # The anchors take about 80% of a whole pass, so they are repeated only
    # in every fourth pass and the other jobs get more samples.
    anchors = [
        Job("equations", (wedge, fp, suite), "anchor wedge x four-point", ANCHOR_EVERY),
        Job("equations", (convalg.chain_lattice(3), fp, suite), "anchor chain:3 x four-point",
            ANCHOR_EVERY),
    ]
    interval = convalg.interval_structure(1)
    light, capacity, heavy = [], [], []

    def tabulated(tier, size, spec, quotas):
        lat, lname = _lattice(rng, spec, topos)
        s = random_structure(rng, size)
        eqs = list(PROBES) + equations_with(rng, s.signature, quotas)
        tier.append(Job("equations", (lat, s, eqs), _eq_label(lname, s, eqs)))

    for _ in range(6):
        for size, spec in LIGHT:
            m = _lattice_size(spec) ** size
            tabulated(light, size, spec, {1: 1, 2: 1, 3: 1} if m <= 9 else {1: 1, 2: 1})
        lat, lname = _lattice(rng, rng.choice(("chain:1", "chain:2", (2, 4))), topos)
        eqs = equations_with(rng, interval.signature, {1: 3, 2: 3})
        light.append(Job("equations", (lat, interval, eqs), _eq_label(lname, interval, eqs)))
    for _ in range(12):
        for size, spec in CAPACITY:
            lat, lname = _lattice(rng, spec, topos)
            s = random_structure(rng, size)
            eqs = equations_with(rng, s.signature, {3: 2}) + list(CLOSED)
            capacity.append(Job("equations", (lat, s, eqs), _eq_label(lname, s, eqs)))
    for _ in range(24):
        tabulated(heavy, *HEAVY, {1: 1, 2: 1})
    return interleave(anchors, light, capacity, heavy)


def run_equations(job, fold):
    lat, s, eqs = job.args
    report = convalg.same_equations_report(lat, s, eqs)
    posed = decided = 0
    for out in report.outcomes:
        fold.add(convalg.format_equation(out.equation), out.conv_holds, out.complex_holds)
        posed += 2
        decided += (out.conv_holds is not None) + (out.complex_holds is not None)
    fold.add(report.ok, report.compared, report.skipped, report.disagreements)
    return report.ok and report.disagreements == 0, posed, decided


# ---------------------------------------------------------------- etale


def build_etale(rng):
    scans, isos, chars = [], [], []
    for points in range(4):
        for topo in convalg.enumerate_topologies([f"y{i}" for i in range(points)]):
            for size in (1, 2):
                s = random_structure(rng, size, density=0.4)
                scans.append(Job("etale_scan", (topo, s), f"{canon(topo.opens)} {canon(s.relations)}"))
    for i in range(20):
        topo = random_topology(rng, 4 + i % 2, 3)
        s = random_structure(rng, 3 + i % 2)
        seed = rng.randrange(2**31)
        isos.append(Job("etale_iso", (topo, s, seed), f"{canon(topo.opens)} {canon(s.relations)} {seed}"))
    for i in range(20):
        s = random_structure(rng, (3, 4, 5)[i % 3])
        seed = rng.randrange(2**31)
        chars.append(Job("etale_char", (s, seed), f"{canon(s.relations)} {seed}"))
    return interleave(scans, isos, chars)


def run_etale_scan(job, fold):
    """Three routes for every relation and argument tuple on one topology."""
    topo, s = job.args
    lat = convalg.open_set_heyting(topo)
    rel_etale = convalg.ConstantRelationalEtale(s, topo)
    maps = list(convalg.enumerate_maps(lat, s.carrier))
    sections = [convalg.phi(lat, m) for m in maps]
    ok = True
    posed = 0
    for name in s.signature.names:
        for idx in product(range(len(maps)), repeat=s.signature.arity(name)):
            conv = convalg.phi(lat, convalg.conv_op(lat, s, name, [maps[i] for i in idx]))
            subs = [sections[i] for i in idx]
            sect = convalg.fiberwise_rel_image(rel_etale, name, subs)
            fiber = convalg.per_fiber_rel_image(rel_etale, name, subs)
            posed += 1
            if not conv == sect == fiber:
                ok = False
            fold.add(name, idx, conv.sections)
    return ok, posed, posed


def run_etale_iso(job, fold):
    topo, s, seed = job.args
    lat = convalg.open_set_heyting(topo)
    report = convalg.verify_main_iso(lat, s, topo, trials=6, seed=seed)
    fold.add(report.ok, report.trials, report.checks, report.counterexample)
    return report.ok, 1, 1


def run_etale_char(job, fold):
    s, seed = job.args
    report = convalg.characteristic_iso(s, trials=100, seed=seed)
    fold.add(report.ok, report.mode, report.checked, report.failure)
    return report.ok, 1, 1


# ----------------------------------------------------------------- type2


def build_type2(rng):
    crosschecks, laws = [], []
    for i in range(80):
        n = (8, 16, 32, 48)[i % 4]
        seed = rng.randrange(2**31)
        crosschecks.append(Job("type2_cross", (n, seed), f"{n} {seed}"))
    # Law checks on 16 to 24 interior breakpoints cost more than a grid-16
    # crosscheck and less than a grid-32 one, so the median job latency
    # falls inside this group of 40.
    while len(laws) < 40:
        alpha = convalg.random_step(rng, max_denominator=60, max_interior=24)
        if len(alpha.breakpoints) - 2 >= 16:
            pieces = alpha.breakpoints + alpha.point_values + alpha.interval_values
            laws.append(Job("type2_laws", (alpha,), canon(pieces)))
    return interleave(crosschecks, laws)


def run_type2_cross(job, fold):
    n, seed = job.args
    report = convalg.crosscheck(n, 1, seed=seed)
    fold.add(report.ok, report.grid, report.checks, report.failure)
    return report.ok, 1, 1


def run_type2_laws(job, fold):
    (alpha,) = job.args
    zero, one = convalg.t2_constants()
    results = [
        convalg.t2_join(zero, alpha),
        convalg.t2_join(alpha, zero),
        convalg.t2_meet(one, alpha),
        convalg.t2_meet(alpha, one),
        convalg.t2_neg(convalg.t2_neg(alpha)),
    ]
    ok = all(r == alpha for r in results)
    for r in results:
        fold.add(r.breakpoints, r.point_values, r.interval_values)
    return ok, len(results), len(results)


# ------------------------------------------------------------------- cli


def _topology_text(topo):
    lines = ["points: " + " ".join(sorted(topo.points))]
    lines += ["open: " + " ".join(sorted(o)) for o in sorted(topo.opens, key=canon) if o]
    return "\n".join(lines) + "\n"


def _structure_text(s):
    lines = ["carrier: " + " ".join(s.carrier)]
    for name, arity in s.signature.symbols:
        lines.append(f"relation {name} arity {arity}")
        lines += [" ".join(t) for t in sorted(s.relations[name])]
    return "\n".join(lines) + "\n"


def _map_text(rng, carrier, lat):
    return "".join(f"{x} -> {canon(rng.choice(lat.elements))}\n" for x in carrier)


def _step_text(rng, pieces):
    bps = sorted({Fraction(rng.randint(1, 59), 60) for _ in range(pieces)})
    bps = [Fraction(0)] + bps + [Fraction(1)]
    val = lambda: Fraction(rng.randint(0, 12), 12)  # noqa: E731
    lines = [f"point {b} -> {val()}" for b in bps]
    lines += [f"interval ({a},{b}) -> {val()}" for a, b in zip(bps, bps[1:])]
    return "\n".join(lines) + "\n"


def _subset_literal(rng, carrier):
    return "{" + " ".join(rng.sample(carrier, rng.randint(0, len(carrier)))) + "}"


# Calls whose expected exit status is 2: bad input, never a traceback.
MALFORMED = (
    ["lattice", "check", "--lattice", "chain:x"],
    ["frobnicate"],
    ["complex", "eval", "--structure", "@missing", "--relation", "f"],
    ["complex", "eval", "--structure", "@bad_structure", "--relation", "f"],
    ["complex", "eval", "--structure", "@s0", "--relation", "h"],
    ["conv", "eval", "--lattice", "@t0", "--structure", "@s0", "--relation", "g", "--arg", "@bad_map"],
    ["equations", "check", "--lattice", "chain:1", "--structure", "@e0", "--eqs", "@bad_eqs"],
    ["type2", "eval", "--op", "neg", "-a", "@bad_step"],
)


def build_cli(rng, workdir):
    """Files for every subcommand, written to ``workdir``, and the call list.

    A file argument is written ``@name`` in the job and resolved to a path
    in ``workdir`` when the job runs.
    """
    files = {}
    topos = [random_topology(rng, 3, 3) for _ in range(4)] + [random_topology(rng, 4, 4) for _ in range(2)]
    for i, t in enumerate(topos):
        files[f"t{i}"] = _topology_text(t)
    structures = [random_structure(rng, 5 + i % 2, density=0.15) for i in range(4)]
    for i, s in enumerate(structures):
        files[f"s{i}"] = _structure_text(s)
    eq_structures = [random_structure(rng, 3) for _ in range(4)]
    for i, s in enumerate(eq_structures):
        files[f"e{i}"] = _structure_text(s)
        eqs = equations_with(rng, s.signature, {1: 3, 2: 6, 3: 3})
        files[f"q{i}"] = "".join(convalg.format_equation(e) + "\n" for e in eqs)
    for i in range(4):
        lat = convalg.open_set_heyting(topos[i])
        for arg in ("a", "b"):
            files[f"m{i}{arg}"] = _map_text(rng, structures[i].carrier, lat)
    for i in range(8):
        files[f"p{i}"] = _step_text(rng, 12 + 2 * i)
    files["bad_structure"] = "carrier: x1 x2\nrelation f arity 2\nx1 x2 x9\n"
    files["bad_map"] = "x1 -> {nowhere}\n"
    files["bad_eqs"] = "(f v w) = (h v)\n"
    files["bad_step"] = "point 3/2 -> 1\n"
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")

    # Each round has two copies of the costliest call, the chain:12 law
    # check, so the 90th percentile of job latency falls inside that group
    # of 24 identical jobs rather than on a step between two costs. Two
    # étale calls of similar cost per round do the same for the median,
    # with two cheap malformed calls per round to centre it among them.
    jobs = []
    for r in range(12):
        i = r % 4
        records = ["--records"] if r % 3 else []
        calls = [
            ["lattice", "check", "--lattice", f"chain:{4 + r % 4}"],
            ["lattice", "check", "--lattice", "chain:12"],
            ["lattice", "check", "--lattice", "chain:12"],
            ["lattice", "check", "--lattice", f"@t{r % 6}"],
            ["conv", "eval", "--lattice", f"@t{i}", "--structure", f"@s{i}", "--relation", "f",
             "--arg", f"@m{i}a", "--arg", f"@m{i}b"],
            ["complex", "eval", "--structure", f"@s{i}", "--relation", "f",
             "--arg", _subset_literal(rng, structures[i].carrier),
             "--arg", _subset_literal(rng, structures[i].carrier)],
            ["etale", "verify-iso", "--structure", f"@e{i}", "--topology", f"@t{i}",
             "--trials", "4", "--seed", str(rng.randrange(1000))],
            ["etale", "verify-iso", "--structure", f"@e{(i + 2) % 4}",
             "--topology", f"@t{(i + 1) % 4}", "--trials", "4", "--seed", str(rng.randrange(1000))],
            ["equations", "check", "--lattice", "chain:1",
             "--structure", f"@e{i}", "--eqs", f"@q{i}", "--max-enum", "100"],
            ["type2", "eval", "--op", ("join", "meet", "neg")[r % 3], "-a", f"@p{r % 8}",
             "-b", f"@p{(r + 3) % 8}"],
            ["type2", "crosscheck", "--n", "8", "--trials", "2", "--seed", str(rng.randrange(1000))],
            ["paper-demo"],
        ]
        for argv in calls:
            jobs.append(Job("cli", (argv + records, 0, workdir), " ".join(argv + records)))
        for k in (r, r + 4):
            argv = MALFORMED[k % len(MALFORMED)]
            jobs.append(Job("cli", (argv, 2, workdir), " ".join(argv)))
    jobs[0].label += " " + canon(sorted(files.items()))
    return jobs


def run_cli(job, fold):
    argv, expected, workdir = job.args
    argv = [str(workdir / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    text = out.getvalue()
    fold.add(status, text)
    if argv[0] == "equations" and status == 0:
        # one verdict per algebra and equation, in either output form
        verdicts = re.findall(r"(?:\.conv|\.complex| maps| powerset)=(\w+)", text)
        return status == expected, len(verdicts), sum(v != "skipped" for v in verdicts)
    return status == expected, 1, 1


# ------------------------------------------------------------- interface

RUNNERS = {
    "equations": run_equations,
    "etale_scan": run_etale_scan,
    "etale_iso": run_etale_iso,
    "etale_char": run_etale_char,
    "type2_cross": run_type2_cross,
    "type2_laws": run_type2_laws,
    "cli": run_cli,
}


def build(workload, seed, workdir):
    """The fixed job list of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "equations":
        return build_equations(rng)
    if workload == "etale":
        return build_etale(rng)
    if workload == "type2":
        return build_type2(rng)
    if workload == "cli":
        Path(workdir).mkdir(parents=True, exist_ok=True)
        return build_cli(rng, Path(workdir))
    raise ValueError(f"unknown workload {workload!r}")


def joblist_digest(jobs):
    h = hashlib.blake2b(digest_size=8)
    for job in jobs:
        h.update(f"{job.kind}|{job.label}\n".encode())
    return h.hexdigest()


def execute(job):
    """Run one job; a raised exception is the caller's to count."""
    fold = Folder()
    ok, posed, decided = RUNNERS[job.kind](job, fold)
    return Outcome(ok, posed, decided, fold.hexdigest())
