"""Every repository path that README.md names exists, so a file deleted or
renamed without a README update fails the suite."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# A path under a top-level directory, or a module path under the package,
# which lives in src/. The look-behind keeps a match from starting inside
# a longer path.
PATH = re.compile(r"(?<![\w./-])(?:scripts|tests|bench|src|convalg)/[\w./*-]*")


def named_paths(text):
    return sorted({m.rstrip("./") for m in PATH.findall(text)})


def missing_paths(text):
    """Named paths that match no file or directory; ``*`` globs."""
    missing = []
    for path in named_paths(text):
        base = ROOT / "src" if path.startswith("convalg/") else ROOT
        if not any(base.glob(path)):
            missing.append(path)
    return missing


def test_readme_names_only_existing_paths():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    assert {"src", "tests/test_acceptance.py", "convalg/cli.py"} <= set(named_paths(text))
    assert missing_paths(text) == []


def test_missing_paths_are_reported():
    text = (
        "Run `tests/test_acceptance.py`, see `convalg/terms.py`, the goldens\n"
        "`tests/golden/cli/usage-*.txt` and src/convalg/. Gone: scripts/verify_all.py,\n"
        "`convalg/verify.py` and bench/none-*.json; not a path: golden/tests/x.\n"
    )
    assert missing_paths(text) == ["bench/none-*.json", "convalg/verify.py", "scripts/verify_all.py"]
