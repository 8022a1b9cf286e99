import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import convalg.etale
import convalg.type2
from convalg import cli
from convalg.cli import _load_lattice, main
from convalg.lattice import CapacityError, ChainLattice

GOLDEN = Path(__file__).parent / "golden" / "cli"

TOPOLOGY = "points: t1 t2 t3\nopen: t1\nopen: t2\nopen: t3\n"
STRUCTURE = """\
carrier: x1 x2 x3 x4
relation f arity 2
x1 x1 x1
x2 x2 x3
x1 x3 x4
x3 x2 x4
"""
MAP_A = "x1 -> {t1 t2}\nx2 -> {t1 t2}\nx3 -> {t2 t3}\nx4 -> {t1 t2 t3}\n"
MAP_B = "x1 -> {t2 t3}\nx2 -> {t3}\nx3 -> {t1}\nx4 -> {t1 t2}\n"
EQUATIONS = "(f v w) = (f w v)\n(f v v) = v\n(f (f v w) u) = (f v (f w u))\n"
STEP_A = "point 0 -> 1\ninterval (0,1/3) -> 1\n"
STEP_B = "point 1/2 -> 1/2\ninterval (1/4,3/4) -> 2/3\n"


@pytest.fixture
def demo_files(tmp_path):
    files = {}
    for name, text in (
        ("topology.txt", TOPOLOGY),
        ("structure.txt", STRUCTURE),
        ("a.txt", MAP_A),
        ("b.txt", MAP_B),
        ("eqs.txt", EQUATIONS),
        ("step_a.txt", STEP_A),
        ("step_b.txt", STEP_B),
    ):
        p = tmp_path / name
        p.write_text(text)
        files[name] = str(p)
    return files


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestPaperDemo:
    def test_record_output(self, capsys):
        rc, out, _ = run(capsys, ["paper-demo", "--records"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "command=paper-demo"
        for route in ("conv", "fiber", "etale"):
            assert f"{route}.x1={{t2}}" in lines
            assert f"{route}.x2={{}}" in lines
            assert f"{route}.x3={{}}" in lines
            assert f"{route}.x4={{t1 t3}}" in lines
        assert lines[-1] == "agree=true"

    def test_human_output(self, capsys):
        rc, out, _ = run(capsys, ["paper-demo"])
        assert rc == 0
        assert out.count("x4 -> {t1 t3}") == 3
        assert "all three routes agree" in out

    @pytest.mark.parametrize("records", [False, True])
    def test_a_wrong_route_exits_1(self, monkeypatch, capsys, records):
        # the per-fiber route with f's arguments reversed
        image = cli.per_fiber_rel_image
        monkeypatch.setattr(cli, "per_fiber_rel_image", lambda rel_etale, name, args: image(
            rel_etale, name, args[::-1]))
        rc, out, err = run(capsys, ["paper-demo"] + ["--records"] * records)
        assert rc == 1 and err == ""
        assert out.splitlines()[-1] == ("agree=false" if records else "ROUTES DISAGREE")


class TestConvEval:
    def test_worked_example(self, capsys, demo_files):
        rc, out, _ = run(
            capsys,
            [
                "conv",
                "eval",
                "--lattice",
                demo_files["topology.txt"],
                "--structure",
                demo_files["structure.txt"],
                "--relation",
                "f",
                "--arg",
                demo_files["a.txt"],
                "--arg",
                demo_files["b.txt"],
            ],
        )
        assert rc == 0
        assert out.splitlines() == [
            "x1 -> {t2}",
            "x2 -> {}",
            "x3 -> {}",
            "x4 -> {t1 t3}",
        ]

    def test_repeated_subset_element_in_a_map_is_input_error(self, capsys, tmp_path, demo_files):
        bad = tmp_path / "dup.txt"
        bad.write_text(MAP_A.replace("x3 -> {t2 t3}", "x3 -> {t2 t3 t2}"))
        argv = ["conv", "eval", "--lattice", demo_files["topology.txt"], "--structure",
                demo_files["structure.txt"], "--relation", "f", "--arg", str(bad), "--arg",
                demo_files["b.txt"]]
        assert run(capsys, argv) == (2, "", f"error: {bad}:3: duplicate subset elements ['t2']\n")


class TestExponentTokens:
    """Exponent notation is a parse error naming the line, refused before ``Fraction``
    would compute 10**1000000."""

    @pytest.mark.parametrize(
        "text,token",
        [
            ("point 0 -> 1\npoint 1e-1000000 -> 1\n", "1e-1000000"),
            ("point 1/2 -> 1\npoint 0 -> 5E-1\n", "5E-1"),
        ],
        ids=["point", "value"],
    )
    def test_step_function_file(self, capsys, tmp_path, text, token):
        f = tmp_path / "f.txt"
        f.write_text(text)
        rc, out, err = run(capsys, ["type2", "eval", "--op", "neg", "-a", str(f)])
        assert (rc, out, err) == (2, "", f"error: {f}:2: bad rational {token!r}\n")

    def test_lattice_map_file(self, capsys, tmp_path, demo_files):
        f = tmp_path / "m.txt"
        f.write_text("x1 -> 0\nx2 -> 1e-1000000\nx3 -> 0\nx4 -> 1\n")
        argv = ["conv", "eval", "--lattice", "chain:2", "--structure", demo_files["structure.txt"],
                "--relation", "f", "--arg", str(f), "--arg", str(f)]
        rc, out, err = run(capsys, argv)
        assert (rc, out, err) == (2, "", f"error: {f}:2: bad lattice value '1e-1000000'\n")


class TestComplexEval:
    def test_image(self, capsys, demo_files):
        rc, out, _ = run(
            capsys,
            [
                "complex",
                "eval",
                "--structure",
                demo_files["structure.txt"],
                "--relation",
                "f",
                "--arg",
                "{x1 x2}",
                "--arg",
                "{x2 x3}",
            ],
        )
        assert rc == 0
        assert out.strip() == "{x3 x4}"

    def test_element_that_starts_with_relation(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("carrier: relationA b\nrelation f arity 1\nrelationA b\n")
        argv = ["complex", "eval", "--structure", str(path), "--relation", "f",
                "--arg", "{relationA}"]
        assert run(capsys, argv)[:2] == (0, "{b}\n")

    def test_repeated_carrier_element_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("carrier: x x\nrelation f arity 1\nx x\n")
        argv = ["complex", "eval", "--structure", str(path), "--relation", "f", "--arg", "{x}"]
        assert run(capsys, argv) == (2, "", f"error: {path}:1: duplicate carrier elements ['x']\n")

    def test_repeated_subset_element_is_input_error(self, capsys, demo_files):
        argv = ["complex", "eval", "--structure", demo_files["structure.txt"], "--relation", "f",
                "--arg", "{x1 x2}", "--arg", "{x3 x1 x3}"]
        assert run(capsys, argv) == (2, "", "error: <input>: duplicate subset elements ['x3']\n")

    @pytest.mark.parametrize("command", ["complex", "conv"])
    def test_unknown_relation_is_input_error(self, capsys, demo_files, command):
        argv = [command, "eval", "--structure", demo_files["structure.txt"], "--relation", "h"]
        if command == "conv":
            argv += ["--lattice", "chain:1"]
        assert run(capsys, argv) == (2, "", "error: unknown symbol 'h'\n")


class TestEtaleVerifyIso:
    def test_pass_and_determinism(self, capsys, demo_files):
        argv = [
            "etale",
            "verify-iso",
            "--structure",
            demo_files["structure.txt"],
            "--topology",
            demo_files["topology.txt"],
            "--trials",
            "50",
            "--seed",
            "7",
            "--records",
        ]
        rc1, out1, _ = run(capsys, argv)
        rc2, out2, _ = run(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2
        assert "ok=true" in out1

    def test_zero_trials_vacuous_pass(self, capsys, demo_files):
        rc, out, _ = run(
            capsys,
            [
                "etale",
                "verify-iso",
                "--structure",
                demo_files["structure.txt"],
                "--topology",
                demo_files["topology.txt"],
                "--trials",
                "0",
            ],
        )
        assert rc == 0


class TestEquationsCheck:
    @pytest.mark.parametrize("records", [False, True])
    def test_forced_disagreement_exits_1(self, monkeypatch, capsys, tmp_path, demo_files, records):
        # the equation holds with f's arguments in order and fails with them reversed
        from convalg.terms import ComplexAlgebra

        apply = ComplexAlgebra.apply
        monkeypatch.setattr(ComplexAlgebra, "apply", lambda self, name, args: apply(
            self, name, list(args)[::-1]))
        eqs = tmp_path / "eqs.txt"
        eqs.write_text("(f (f w w) (f v w)) = (f w (f v w))\n")
        argv = ["equations", "check", "--lattice", "chain:1",
                "--structure", demo_files["structure.txt"], "--eqs", str(eqs)]
        rc, out, err = run(capsys, argv + ["--records"] * records)
        assert rc == 1 and err == ""
        if records:
            assert out.splitlines() == [
                "command=equations.check",
                "eq.0.text=(f (f w w) (f v w)) = (f w (f v w))",
                "eq.0.conv=true", "eq.0.complex=false", "eq.0.agree=false",
                "compared=1", "skipped=0", "disagreements=1", "ok=false",
            ]
        else:
            assert out.splitlines() == [
                "(f (f w w) (f v w)) = (f w (f v w)): maps=true powerset=false",
                "compared 1, skipped 0, disagreements 1",
            ]

    def test_agreeing_suite(self, capsys, tmp_path, demo_files):
        eqs = tmp_path / "eqs.txt"
        eqs.write_text("(f v w) = (f w v)\n(f v v) = v\n")
        small = tmp_path / "small.txt"
        small.write_text("points: t1\nopen: t1\n")
        rc, out, _ = run(
            capsys,
            [
                "equations",
                "check",
                "--lattice",
                str(small),
                "--structure",
                demo_files["structure.txt"],
                "--eqs",
                str(eqs),
                "--records",
            ],
        )
        assert rc == 0
        assert "eq.0.agree=true" in out
        assert "ok=true" in out

    def test_trivial_lattice_is_usage_error(self, capsys, tmp_path, demo_files):
        topo = tmp_path / "point.txt"
        topo.write_text("points:\n")
        eqs = tmp_path / "eqs.txt"
        eqs.write_text("(f v w) = (f w v)\n")
        rc, _, err = run(
            capsys,
            [
                "equations",
                "check",
                "--lattice",
                str(topo),
                "--structure",
                demo_files["structure.txt"],
                "--eqs",
                str(eqs),
            ],
        )
        assert rc == 2
        assert "two elements" in err

    def test_failed_certification_is_not_an_input_error(self, monkeypatch, demo_files):
        # A two-valued counterexample whose lift holds falsifies the package,
        # so it must escape main rather than exit 2 as a usage or input error.
        import convalg.terms
        from convalg import LatticeMap

        def bottom(lat, carrier, subset):
            return LatticeMap(carrier, lat, (lat.bottom_code,) * len(carrier))

        monkeypatch.setattr(convalg.terms, "char_map", bottom)
        argv = ["equations", "check", "--lattice", "chain:2",
                "--structure", demo_files["structure.txt"], "--eqs", demo_files["eqs.txt"]]
        message = r"^\(f v w\) = \(f w v\) holds at the crisp lift of its two-valued counterexample"
        with pytest.raises(RuntimeError, match=message):
            main(argv)


class TestLatticeCheck:
    def test_chain_passes(self, capsys):
        rc, out, _ = run(capsys, ["lattice", "check", "--lattice", "chain:4", "--records"])
        assert rc == 0
        assert "ok=true" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--lattice", "chain:400"],
            ["--lattice", "chain:1000000000000"],
            ["--lattice", "chain:18", "--max-subset-size", "18"],
        ],
        ids=["chain-400", "chain-10^12", "subset-size-18"],
    )
    def test_over_capacity_is_input_error(self, capsys, monkeypatch, argv):
        real = cli.chain_lattice

        def chain_lattice(n):
            # a guard that stopped working must fail here, not allocate 10**12 elements
            assert n <= 400, f"chain:{n} reached the chain constructor"
            return real(n)

        monkeypatch.setattr(cli, "chain_lattice", chain_lattice)
        t0 = time.perf_counter()
        rc, out, err = run(capsys, ["lattice", "check", *argv, "--records"])
        assert time.perf_counter() - t0 < 1.0
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "bound" in err

    def test_subset_size_past_the_lattice_is_capped(self, capsys):
        argv = ["lattice", "check", "--lattice", "chain:3", "--records", "--max-subset-size"]
        rc, expected, _ = run(capsys, [*argv, "4"])
        t0 = time.perf_counter()
        rc_large, out, err = run(capsys, [*argv, "300000"])
        assert time.perf_counter() - t0 < 1.0
        assert (rc, rc_large, err) == (0, 0, "")
        assert out == expected and "checks=394\n" in out

    def test_chain_selector_bound(self):
        # chain:169 is the longest chain whose order laws fit MAX_LAW_CHECKS
        assert len(_load_lattice("chain:169").elements) == 170
        with pytest.raises(CapacityError):
            _load_lattice("chain:170")

    def test_large_topology_file_is_input_error(self, capsys, tmp_path):
        # the discrete topology on 20 points has 2**20 opens
        points = [f"p{i}" for i in range(20)]
        topology = tmp_path / "discrete.txt"
        lines = [f"points: {' '.join(points)}"] + [f"open: {p}" for p in points]
        topology.write_text("\n".join(lines) + "\n")
        t0 = time.perf_counter()
        rc, out, err = run(capsys, ["lattice", "check", "--lattice", str(topology), "--records"])
        assert time.perf_counter() - t0 < 1.0
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "bound" in err

    def test_negative_subset_size_is_usage_error(self, capsys):
        rc, out, err = run(
            capsys, ["lattice", "check", "--lattice", "chain:2", "--max-subset-size", "-5"]
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("error:")

    def test_malformed_file_names_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("points: a\nopen: z\n")
        rc, _, err = run(capsys, ["lattice", "check", "--lattice", str(bad)])
        assert rc == 2
        assert "bad.txt:2" in err

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, ["lattice", "check", "--lattice", str(tmp_path / "no.txt")])
        assert rc == 2

    def test_repeated_point_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "dup.txt"
        bad.write_text("points: a a b\nopen: a\n")
        rc, out, err = run(capsys, ["lattice", "check", "--lattice", str(bad)])
        assert (rc, out) == (2, "")
        assert err == f"error: {bad}:1: duplicate points ['a']\n"

    def test_repeated_point_of_an_open_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "dup.txt"
        bad.write_text("points: a b\nopen: a\nopen: b a b\n")
        rc, out, err = run(capsys, ["lattice", "check", "--lattice", str(bad)])
        assert (rc, out) == (2, "")
        assert err == f"error: {bad}:3: duplicate points ['b']\n"


class TestType2Commands:
    def test_eval_neg(self, capsys, tmp_path):
        f = tmp_path / "f.txt"
        f.write_text("point 0 -> 1\ninterval (0,1/3) -> 1\n")
        rc, out, _ = run(capsys, ["type2", "eval", "--op", "neg", "-a", str(f)])
        assert rc == 0
        assert "point 1 -> 1" in out
        assert "interval (2/3,1) -> 1" in out

    def test_eval_join_requires_b(self, capsys, tmp_path):
        f = tmp_path / "f.txt"
        f.write_text("point 0 -> 1\n")
        rc, _, err = run(capsys, ["type2", "eval", "--op", "join", "-a", str(f)])
        assert rc == 2

    @pytest.mark.parametrize(
        "text",
        ["interval (0,1) -> 2\n", "point 0 -> 1\npoint 1/2 -> -1/3\n"],
        ids=["interval", "point"],
    )
    def test_value_outside_unit_interval_names_line(self, capsys, tmp_path, text):
        f = tmp_path / "f.txt"
        f.write_text(text)
        rc, out, err = run(capsys, ["type2", "eval", "--op", "neg", "-a", str(f)])
        assert rc == 2
        assert out == ""
        line = text.count("\n")
        assert err.startswith(f"error: {f}:{line}: value ") and "outside [0, 1]" in err

    def test_crosscheck_deterministic(self, capsys):
        argv = ["type2", "crosscheck", "--n", "6", "--trials", "10", "--seed", "3", "--records"]
        rc1, out1, _ = run(capsys, argv)
        rc2, out2, _ = run(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2
        assert "ok=true" in out1


class TestCounterexampleExit:
    """A forced mismatch exits 1 with the counterexample on stdout and nothing on stderr."""

    ISO_DETAIL = (
        "trial 2, relation f, args x1->{t2 t3}, x2->{}, x3->{t1 t2 t3}, x4->{t1 t3}; "
        "x1->{t3}, x2->{t1 t3}, x3->{t1}, x4->{t3}"
    )
    CROSSCHECK_DETAIL = (
        "trial 0, meet: closed (Fraction(1, 6), Fraction(2, 3), Fraction(2, 3), Fraction(1, 1), "
        "Fraction(1, 3)) vs oracle (Fraction(2, 3), Fraction(3, 4), Fraction(1, 1), "
        "Fraction(1, 1), Fraction(1, 12))"
    )
    LATTICE_DETAIL = "w=Fraction(1, 3), a=Fraction(1, 1), b=Fraction(1, 1), impl=Fraction(0, 1)"

    @pytest.mark.parametrize("records", [False, True], ids=["human", "records"])
    def test_etale_verify_iso(self, monkeypatch, capsys, demo_files, records):
        route = convalg.etale.fiberwise_rel_image
        monkeypatch.setattr(
            convalg.etale, "fiberwise_rel_image", lambda r, name, args: route(r, name, args[::-1])
        )
        argv = ["etale", "verify-iso", "--structure", demo_files["structure.txt"],
                "--topology", demo_files["topology.txt"], "--trials", "20", "--seed", "0"]
        rc, out, err = run(capsys, argv + ["--records"] * records)
        if records:
            expected = ["command=etale.verify-iso", "seed=0", "trials=20", "checks=11",
                        "ok=false", f"counterexample={self.ISO_DETAIL}"]
        else:
            expected = [f"counterexample after 11 checks: {self.ISO_DETAIL}"]
        assert (rc, out.splitlines(), err) == (1, expected, "")

    @pytest.mark.parametrize("records", [False, True], ids=["human", "records"])
    def test_type2_crosscheck(self, monkeypatch, capsys, records):
        monkeypatch.setattr(convalg.type2, "t2_meet", convalg.type2.t2_join)
        argv = ["type2", "crosscheck", "--n", "4", "--trials", "10", "--seed", "0"]
        rc, out, err = run(capsys, argv + ["--records"] * records)
        if records:
            expected = ["command=type2.crosscheck", "grid=4", "seed=0", "trials=10", "checks=2",
                        "ok=false", f"counterexample={self.CROSSCHECK_DETAIL}"]
        else:
            expected = [f"oracle mismatch: {self.CROSSCHECK_DETAIL}"]
        assert (rc, out.splitlines(), err) == (1, expected, "")

    @pytest.mark.parametrize("records", [False, True], ids=["human", "records"])
    def test_lattice_check(self, monkeypatch, capsys, records):
        impl = ChainLattice.impl
        monkeypatch.setattr(
            ChainLattice, "impl",
            lambda self, a, b: self.bottom if a == b == self.top else impl(self, a, b),
        )
        argv = ["lattice", "check", "--lattice", "chain:3"]
        rc, out, err = run(capsys, argv + ["--records"] * records)
        if records:
            expected = ["command=lattice.check", "elements=4", "checks=322", "ok=false",
                        "law=adjunction", f"detail={self.LATTICE_DETAIL}"]
        else:
            expected = [f"lattice with 4 elements: adjunction failed after 322 checks: "
                        f"{self.LATTICE_DETAIL}"]
        assert (rc, out.splitlines(), err) == (1, expected, "")


# Every subcommand on the demo files; each case runs in both output forms.
# `{name}` stands for the path of a demo file.
GOLDEN_CASES = {
    "lattice-check-chain": ["lattice", "check", "--lattice", "chain:3"],
    "lattice-check-topology": ["lattice", "check", "--lattice", "{topology.txt}"],
    "conv-eval": ["conv", "eval", "--lattice", "{topology.txt}", "--structure",
                  "{structure.txt}", "--relation", "f", "--arg", "{a.txt}", "--arg", "{b.txt}"],
    "complex-eval": ["complex", "eval", "--structure", "{structure.txt}", "--relation", "f",
                     "--arg", "{x1 x2}", "--arg", "{x2 x3}"],
    "etale-verify-iso": ["etale", "verify-iso", "--structure", "{structure.txt}",
                         "--topology", "{topology.txt}", "--trials", "20", "--seed", "7"],
    "equations-check": ["equations", "check", "--lattice", "chain:1",
                        "--structure", "{structure.txt}", "--eqs", "{eqs.txt}"],
    "equations-check-skips": ["equations", "check", "--lattice", "chain:1", "--structure",
                              "{structure.txt}", "--eqs", "{eqs.txt}", "--max-enum", "20"],
    "type2-eval-neg": ["type2", "eval", "--op", "neg", "-a", "{step_a.txt}"],
    "type2-eval-join": ["type2", "eval", "--op", "join", "-a", "{step_a.txt}",
                        "-b", "{step_b.txt}"],
    "type2-crosscheck": ["type2", "crosscheck", "--n", "6", "--trials", "10", "--seed", "3"],
    "paper-demo": ["paper-demo"],
    "bad-chain": ["lattice", "check", "--lattice", "chain:x"],
}


def with_files(argv, files):
    """Replace each `{name}` naming a demo file by that file's path."""
    return [files.get(a[1:-1], a) if a.startswith("{") else a for a in argv]


@pytest.mark.parametrize("records", [False, True], ids=["text", "records"])
@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_output(capsys, demo_files, case, records):
    """Exit status and stdout, byte for byte, as captured in tests/golden/cli."""
    argv = with_files(GOLDEN_CASES[case], demo_files) + (["--records"] if records else [])
    rc, out, _ = run(capsys, argv)
    name = case + (".records" if records else "") + ".txt"
    assert f"exit={rc}\n{out}".encode() == (GOLDEN / name).read_bytes()


# One malformed file per parse check: the command that reads it, `{bad}` standing for
# its path; the file's text; the line the error names (None for a missing line); the message.
READS = {
    "topology": ["lattice", "check", "--lattice", "{bad}"],
    "structure": ["complex", "eval", "--structure", "{bad}", "--relation", "f"],
    "map": ["conv", "eval", "--lattice", "{topology.txt}", "--structure", "{structure.txt}",
            "--relation", "f", "--arg", "{bad}", "--arg", "{b.txt}"],
    "step": ["type2", "eval", "--op", "neg", "-a", "{bad}"],
    "equations": ["equations", "check", "--lattice", "chain:1", "--structure",
                  "{structure.txt}", "--eqs", "{bad}"],
}
PARSE_ERRORS = {
    "duplicate-points-line": ("topology", "points: a\npoints: b\n", 2, "duplicate points line"),
    "unrecognized-line": ("topology", "points: a\nclosed: a\n", 2, "unrecognized line 'closed: a'"),
    "missing-points-line": ("topology", "# no points\n", None, "missing points line"),
    "duplicate-carrier-line": (
        "structure", "carrier: a\ncarrier: b\n", 2, "duplicate carrier line"
    ),
    "bad-arity": ("structure", "carrier: a\nrelation f arity two\n", 2, "bad arity 'two'"),
    "negative-arity": (
        "structure", "carrier: a\nrelation f arity -1\n", 2, "arity must be nonnegative"
    ),
    "duplicate-relation": (
        "structure", "carrier: a\nrelation f arity 0\nrelation f arity 1\n", 3,
        "duplicate relation f",
    ),
    "tuple-outside-block": (
        "structure", "carrier: a\na a\n", 2, "tuple line outside a relation block"
    ),
    "missing-carrier-line": ("structure", "relation f arity 0\n", None, "missing carrier line"),
    "map-without-arrow": ("map", "x1 {t1}\n", 1, "expected `element -> value`"),
    "unknown-carrier-element": ("map", "x9 -> {t1}\n", 1, "unknown carrier element 'x9'"),
    "duplicate-entry": ("map", "x1 -> {t1}\nx1 -> {t2}\n", 2, "duplicate entry for 'x1'"),
    "non-numeric-rational": ("step", "point 0 -> half\n", 1, "bad rational 'half'"),
    "step-without-arrow": (
        "step", "point 0 1\n", 1, "expected `point ... -> v` or `interval ... -> v`"
    ),
    "piece-without-place": ("step", "point -> 1\n", 1, "expected `point X` or `interval (A,B)`"),
    "duplicate-point": ("step", "point 1/2 -> 1\npoint 1/2 -> 0\n", 2, "duplicate point 1/2"),
    "interval-without-comma": (
        "step", "interval (0 1) -> 1\n", 1, "interval must be written (A,B)"
    ),
    "empty-interval": ("step", "interval (1/2,1/4) -> 1\n", 1, "bad interval (1/2,1/4)"),
    "unrecognized-piece": ("step", "segment (0,1) -> 1\n", 1, "unrecognized piece kind 'segment'"),
    "empty-side": ("equations", "v = v\n = v\n", 2, "unexpected end of term"),
    "open-paren-at-end": ("equations", "( = v\n", 1, "unexpected end of term"),
    "paren-after-paren": ("equations", "((f v w) w) = v\n", 1, "expected a symbol after ("),
    "unclosed-application": ("equations", "(f v w w) = v\n", 1, "expected ) closing f"),
    "bare-operation": ("equations", "f = v\n", 1, "symbol 'f' needs arguments"),
    "no-equals": ("equations", "(f v w)\n", 1, "equation needs a top-level ="),
    "trailing-left": ("equations", "v w = v\n", 1, "trailing tokens on left side"),
    "trailing-right": ("equations", "v = v w\n", 1, "trailing tokens on right side"),
}


class TestParseErrors:
    @pytest.mark.parametrize("case", PARSE_ERRORS)
    def test_input_error_names_file_and_line(self, capsys, tmp_path, demo_files, case):
        reads, text, line, message = PARSE_ERRORS[case]
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        rc, out, err = run(capsys, with_files(READS[reads], {**demo_files, "bad": str(bad)}))
        where = str(bad) if line is None else f"{bad}:{line}"
        assert (rc, out, err) == (2, "", f"error: {where}: {message}\n")


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, ["frobnicate"])[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["etale", "verify-iso", "--structure", "{structure.txt}",
             "--topology", "{topology.txt}", "--trials", "-2"],
            ["type2", "crosscheck", "--n", "0"],
            ["type2", "crosscheck", "--trials", "-1"],
            ["equations", "check", "--lattice", "chain:1", "--structure", "{structure.txt}",
             "--eqs", "{eqs.txt}", "--max-enum", "-1"],
        ],
        ids=["negative-trials", "empty-grid", "negative-crosscheck-trials", "negative-max-enum"],
    )
    def test_negative_counts_are_usage_errors(self, capsys, demo_files, argv):
        for records in ([], ["--records"]):
            rc, out, err = run(capsys, with_files(argv, demo_files) + records)
            assert rc == 2
            assert out == ""
            assert err.startswith("error:")

    def test_crosscheck_grid_above_pair_bound_is_usage_error(self, capsys):
        for records in ([], ["--records"]):
            rc, out, err = run(capsys, ["type2", "crosscheck", "--n", "5000"] + records)
            assert rc == 2
            assert out == ""
            assert err.startswith("error:")
            assert "argument pairs" in err

    def test_deeply_nested_equation_is_usage_error(self, capsys, tmp_path, demo_files):
        eqs = tmp_path / "deep.txt"
        eqs.write_text("# deep\n" + "(f " * 3000 + "v" + " w)" * 3000 + " = v\n")
        rc, out, err = run(
            capsys,
            ["equations", "check", "--lattice", "chain:1", "--structure",
             demo_files["structure.txt"], "--eqs", str(eqs)],
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("error:")
        assert "deep.txt:2" in err

    def test_no_command(self, capsys):
        assert run(capsys, [])[0] == 2


# Help and usage errors: exit status, stdout and stderr, byte for byte, at
# COLUMNS=80 so that argparse wraps the same way on every terminal.
USAGE_CASES = {
    "no-arguments": [],
    "help": ["-h"],
    "unknown-command": ["frobnicate"],
    "records-alone": ["--records"],
    "records-before-group": ["--records", "lattice", "check", "--lattice", "chain:2"],
    "help-lattice": ["lattice", "-h"],
    "help-conv": ["conv", "-h"],
    "help-complex": ["complex", "-h"],
    "help-etale": ["etale", "-h"],
    "help-equations": ["equations", "-h"],
    "help-type2": ["type2", "-h"],
    "help-paper-demo": ["paper-demo", "-h"],
    "help-lattice-check": ["lattice", "check", "-h"],
    "help-conv-eval": ["conv", "eval", "-h"],
    "help-complex-eval": ["complex", "eval", "-h"],
    "help-etale-verify-iso": ["etale", "verify-iso", "-h"],
    "help-equations-check": ["equations", "check", "-h"],
    "help-type2-eval": ["type2", "eval", "-h"],
    "help-type2-crosscheck": ["type2", "crosscheck", "-h"],
    "missing-action": ["type2"],
    "missing-required-option": ["lattice", "check"],
    "bad-int": ["lattice", "check", "--lattice", "chain:2", "--max-subset-size", "two"],
    "bad-op-choice": ["type2", "eval", "--op", "frob", "-a", "f.txt"],
    "unknown-action": ["lattice", "frob"],
    "trailing-argument": ["lattice", "check", "--lattice", "chain:2", "extra"],
    "paper-demo-trailing-argument": ["paper-demo", "extra"],
}


@pytest.mark.parametrize("case", sorted(USAGE_CASES))
def test_usage_golden_output(capsys, monkeypatch, case):
    """Exit status, stdout and stderr of help and parse errors, as captured
    in tests/golden/cli/usage-*.txt."""
    monkeypatch.setenv("COLUMNS", "80")
    rc, out, err = run(capsys, list(USAGE_CASES[case]))
    got = f"exit={rc}\n--- stdout\n{out}--- stderr\n{err}"
    assert got.encode() == (GOLDEN / f"usage-{case}.txt").read_bytes()


@pytest.fixture
def added_parsers(monkeypatch):
    """The names passed to every ``add_parser`` call, in order."""
    added = []
    real = argparse._SubParsersAction.add_parser

    def add_parser(self, name, **kwargs):
        added.append(name)
        return real(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", add_parser)
    return added


def test_calls_share_one_tree(capsys, added_parsers):
    """The parser tree is built by the first call and kept for the next."""
    cli._build_parser.cache_clear()
    argv = ["lattice", "check", "--lattice", "chain:2"]
    assert run(capsys, argv)[0] == 0
    built = list(added_parsers)
    assert built[0] == "lattice" and "paper-demo" in built
    assert run(capsys, argv)[0] == 0
    assert added_parsers == built


def test_handlers_are_looked_up_at_call_time(capsys, monkeypatch):
    """A handler rebound after the tree is built is the one that runs."""
    assert run(capsys, ["lattice", "check", "--lattice", "chain:2"])[0] == 0
    monkeypatch.setattr(cli, "cmd_lattice_check", lambda args: (1, [("rebound", True)], "rebound"))
    assert run(capsys, ["lattice", "check", "--lattice", "chain:2"]) == (1, "rebound\n", "")


@pytest.mark.parametrize(
    "case, argv",
    [("help", ["--help"]), ("trailing-argument", USAGE_CASES["trailing-argument"])],
)
def test_entry_point(case, argv):
    """``python -m convalg.cli`` in a fresh interpreter, so that ``main``
    reads ``sys.argv`` and its status reaches ``sys.exit``."""
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "convalg.cli", *argv], capture_output=True, text=True, env=env
    )
    got = f"exit={done.returncode}\n--- stdout\n{done.stdout}--- stderr\n{done.stderr}"
    assert got == (GOLDEN / f"usage-{case}.txt").read_text()
