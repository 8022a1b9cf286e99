"""scripts/verify_all.py imports library functions directly, so run its
battery in-process to keep it working across API changes."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "verify_all.py"


def load_script():
    spec = importlib.util.spec_from_file_location("convalg_verify_all", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_all_passes(capsys):
    assert load_script().main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert all(" ok " in line for line in lines)


def test_failing_stage_fails_the_run(monkeypatch, capsys):
    module = load_script()
    monkeypatch.setattr(module, "characteristic", lambda: (False, "forced failure"))
    assert module.main([]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    failed = [line for line in lines if " ok " not in line]
    assert len(failed) == 1
    assert failed[0].split()[:5] == ["two-valued", "characteristic", "isomorphism", "FAIL", "forced"]
