"""Acceptance suite: one test per criterion, each printing a pass line.

Everything is exact arithmetic over rationals and finite sets, so every
comparison below is plain equality with zero tolerance; the only stated
tolerances are runtime bounds. Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import time
from itertools import product

from convalg import (
    App,
    ConstantRelationalEtale,
    Equation,
    RelationalStructure,
    Signature,
    Var,
    chain_lattice,
    characteristic_iso,
    check_heyting_laws,
    conv_op,
    crosscheck,
    enumerate_maps,
    enumerate_topologies,
    fiberwise_rel_image,
    interval_structure,
    open_set_heyting,
    per_fiber_rel_image,
    phi,
    random_equations,
    random_step,
    same_equations_report,
    t2_constants,
    t2_join,
    t2_meet,
    t2_neg,
    verify_main_iso,
)
from convalg.cli import main
from convalg.terms import term_variables

from helpers import graph


def _stamp(cid, desc, t0, capsys=None):
    line = f"ACCEPTANCE {cid} {desc}: PASS ({time.perf_counter() - t0:.2f}s)"
    if capsys is not None:
        with capsys.disabled():
            print(line)
    else:
        print(line)


def _small_structures():
    """Carriers of one and two elements with relations of arity 0, 1 and 2,
    covering empty, partial, functional and non-functional cases."""
    sig = Signature((("c", 0), ("g", 1), ("f", 2)))
    one = RelationalStructure(
        ("u",), sig, {"c": {("u",)}, "g": {("u", "u")}, "f": {("u", "u", "u")}}
    )
    one_empty = RelationalStructure(("u",), sig, {"c": set(), "g": set(), "f": set()})
    two_total = RelationalStructure(
        ("u", "v"),
        sig,
        {
            "c": {("u",)},
            "g": {("u", "v"), ("v", "u")},
            "f": {("u", "u", "u"), ("u", "v", "v"), ("v", "u", "v"), ("v", "v", "v")},
        },
    )
    two_partial = RelationalStructure(
        ("u", "v"),
        sig,
        {
            "c": set(),
            "g": {("u", "u")},
            "f": {("u", "u", "u"), ("u", "u", "v"), ("v", "u", "u")},
        },
    )
    two_nonfunctional = RelationalStructure(
        ("u", "v"),
        sig,
        {
            "c": {("v",)},
            "g": {("u", "v"), ("v", "v"), ("v", "u")},
            "f": {("u", "u", "u"), ("u", "v", "v"), ("v", "u", "v"), ("v", "v", "v")},
        },
    )
    return [one, one_empty, two_total, two_partial, two_nonfunctional]


def _hand_equations_single_binary():
    f = lambda a, b: App("f", (a, b))
    v, w, u = Var("v"), Var("w"), Var("u")
    return [
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


def _hand_equations_interval():
    j = lambda a, b: App("join", (a, b))
    m = lambda a, b: App("meet", (a, b))
    n = lambda a: App("neg", (a,))
    zero, one = App("zero", ()), App("one", ())
    v, w, u = Var("v"), Var("w"), Var("u")
    return [
        Equation(j(v, w), j(w, v)),
        Equation(m(v, w), m(w, v)),
        Equation(j(j(v, w), u), j(v, j(w, u))),
        Equation(m(m(v, w), u), m(v, m(w, u))),
        Equation(j(v, v), v),
        Equation(m(v, v), v),
        Equation(n(n(v)), v),
        Equation(n(zero), one),
        Equation(j(v, zero), v),
        Equation(m(v, one), v),
        Equation(m(v, j(v, w)), v),
        Equation(n(j(v, w)), m(n(v), n(w))),
    ]


def test_criterion_1_worked_example_three_routes(capsys):
    t0 = time.perf_counter()
    rc = main(["paper-demo", "--records"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    assert rc == 0
    lines = out.splitlines()
    expected = {"x1": "{t2}", "x2": "{}", "x3": "{}", "x4": "{t1 t3}"}
    for route in ("conv", "fiber", "etale"):
        for x, val in expected.items():
            assert f"{route}.{x}={val}" in lines
    assert "agree=true" in lines
    assert elapsed < 1.0
    _stamp(1, "worked example, three identical routes", t0, capsys)


def test_criterion_2_main_isomorphism(wedge_topology, wedge_lattice, four_point_structure):
    t0 = time.perf_counter()
    report = verify_main_iso(
        wedge_lattice, four_point_structure, wedge_topology, trials=500, seed=0
    )
    assert report.ok
    assert report.trials == 500

    checks = 0
    structures = _small_structures()
    for n_points in range(4):
        points = [f"y{i}" for i in range(n_points)]
        for topo in enumerate_topologies(points):
            lat = open_set_heyting(topo)
            for s in structures:
                rel_etale = ConstantRelationalEtale(s, topo)
                maps = list(enumerate_maps(lat, s.carrier))
                sections = {m.codes: phi(lat, m) for m in maps}
                for name in s.signature.names:
                    arity = s.signature.arity(name)
                    for args in product(maps, repeat=arity):
                        lhs = phi(lat, conv_op(lat, s, name, list(args)))
                        subs = [sections[a.codes] for a in args]
                        assert lhs == fiberwise_rel_image(rel_etale, name, subs)
                        assert lhs == per_fiber_rel_image(rel_etale, name, subs)
                        checks += 1
    assert checks > 30_000
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _stamp(2, f"main isomorphism ({checks} exhaustive checks + 500 trials)", t0)


def test_criterion_3_two_valued_isomorphism(four_point_structure):
    t0 = time.perf_counter()
    group = RelationalStructure(
        ("0", "1", "2"),
        Signature((("add", 2),)),
        {
            "add": graph(("0", "1", "2"), lambda x, y: str((int(x) + int(y)) % 3), 2)
        },
    )
    small = [s for s in _small_structures()] + [interval_structure(1), group]
    total = 0
    for s in small:
        assert len(s.carrier) <= 3
        report = characteristic_iso(s)
        assert report.ok and report.mode == "exhaustive"
        total += report.checked
    # the worked example carrier has four elements; still scanned in full
    report = characteristic_iso(four_point_structure, exhaustive=True)
    assert report.ok and report.checked == 256
    total += report.checked
    _stamp(3, f"powerset vs two-valued convolution ({total} argument tuples)", t0)


def test_criterion_4_same_equations(wedge_lattice, four_point_structure):
    t0 = time.perf_counter()
    lattices = [
        ("open-set-5", wedge_lattice),
        ("chain-2", chain_lattice(2)),
        ("chain-3", chain_lattice(3)),
    ]
    interval = interval_structure(1)
    suites = [
        (
            "four-point",
            four_point_structure,
            _hand_equations_single_binary()
            + random_equations(four_point_structure.signature, 20, seed=2024),
        ),
        (
            "interval",
            interval,
            _hand_equations_interval()
            + random_equations(interval.signature, 20, seed=2024),
        ),
    ]
    big_map_algebras = {("open-set-5", "four-point"), ("chain-3", "four-point")}
    for lat_name, lat in lattices:
        for s_name, s, eqs in suites:
            assert len(eqs) >= 30
            report = same_equations_report(lat, s, eqs, max_assignments=10**6)
            assert report.ok, f"equational agreement violated on {lat_name} x {s_name}"
            assert report.disagreements == 0
            if (lat_name, s_name) in big_map_algebras:
                # capacity-bounded: three-variable scans over these map
                # algebras exceed a million assignments and are skipped;
                # the powerset side always runs
                for out in report.outcomes:
                    if out.agree is None:
                        assert out.complex_holds is not None
                        var_count = len(
                            set(term_variables(out.equation.lhs))
                            | set(term_variables(out.equation.rhs))
                        )
                        assert var_count >= 3
                assert report.compared >= 15
            else:
                assert report.skipped == 0
                assert report.compared == len(eqs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _stamp(4, "map and powerset algebras satisfy the same equations", t0)


def test_criterion_5_closed_forms_vs_oracle():
    t0 = time.perf_counter()
    for n in (4, 8, 16):
        report = crosscheck(n, 100, seed=n)
        assert report.ok, report.failure
        assert report.checks == 300
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _stamp(5, "step-function closed forms match the grid oracle", t0)


def test_criterion_6_unit_and_constant_laws():
    t0 = time.perf_counter()
    import random as _random

    rng = _random.Random(606)
    zero_spike, one_spike = t2_constants()
    assert t2_neg(zero_spike) == one_spike
    assert t2_neg(one_spike) == zero_spike
    for _ in range(100):
        alpha = random_step(rng)
        assert t2_join(zero_spike, alpha) == alpha
        assert t2_join(alpha, zero_spike) == alpha
        assert t2_meet(one_spike, alpha) == alpha
        assert t2_meet(alpha, one_spike) == alpha
        assert t2_neg(t2_neg(alpha)) == alpha
    _stamp(6, "unit and constant laws on 100 random step functions", t0)


def test_criterion_7_heyting_laws_everywhere():
    t0 = time.perf_counter()
    lattices = []
    for n_points in range(4):
        points = [f"y{i}" for i in range(n_points)]
        for topo in enumerate_topologies(points):
            lattices.append(open_set_heyting(topo))
    assert len(lattices) == 1 + 1 + 4 + 29
    for n in range(1, 17):
        lattices.append(chain_lattice(n))
    for lat in lattices:
        report = check_heyting_laws(lat)
        assert report.ok, str(report)
    # the adjunction in its open-set reading, exhaustive per lattice
    for lat in lattices:
        if not hasattr(lat, "topology"):
            continue
        for a in lat.elements:
            for b in lat.elements:
                c = lat.impl(a, b)
                for w in lat.elements:
                    assert (w & a <= b) == (w <= c)
    _stamp(7, f"Heyting laws on {len(lattices)} lattices", t0)


def test_criterion_8_byte_identical_reruns(capsys, tmp_path):
    t0 = time.perf_counter()
    topo = tmp_path / "topology.txt"
    topo.write_text("points: t1 t2 t3\nopen: t1\nopen: t2\nopen: t3\n")
    small_topo = tmp_path / "small.txt"
    small_topo.write_text("points: t1\nopen: t1\n")
    structure = tmp_path / "structure.txt"
    structure.write_text(
        "carrier: x1 x2 x3 x4\nrelation f arity 2\n"
        "x1 x1 x1\nx2 x2 x3\nx1 x3 x4\nx3 x2 x4\n"
    )
    eqs = tmp_path / "eqs.txt"
    eqs.write_text("(f v w) = (f w v)\n(f v v) = v\n")
    commands = [
        [
            "etale", "verify-iso",
            "--structure", str(structure),
            "--topology", str(topo),
            "--trials", "25",
            "--seed", "11",
            "--records",
        ],
        ["type2", "crosscheck", "--n", "8", "--trials", "20", "--seed", "5", "--records"],
        [
            "equations", "check",
            "--lattice", str(small_topo),
            "--structure", str(structure),
            "--eqs", str(eqs),
            "--records",
        ],
        ["lattice", "check", "--lattice", "chain:8", "--records"],
        ["paper-demo", "--records"],
    ]
    for argv in commands:
        rc1 = main(argv)
        first = capsys.readouterr().out.encode()
        rc2 = main(argv)
        second = capsys.readouterr().out.encode()
        assert rc1 == rc2 == 0
        assert first == second
        assert first
    _stamp(8, "byte-identical machine output across reruns", t0, capsys)
