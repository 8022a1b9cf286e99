"""scripts/verify_all.py imports library functions directly, so run its
battery in-process to keep it working across API changes."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "verify_all.py"


def test_verify_all_passes(capsys):
    spec = importlib.util.spec_from_file_location("convalg_verify_all", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert all(" ok " in line for line in lines)
