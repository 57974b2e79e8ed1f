import os
import re
import subprocess
import sys
from pathlib import Path

import symrank

ROOT = Path(__file__).resolve().parent.parent


def test_cli_import_loads_no_dataclasses_or_inspect():
    # a fresh interpreter, so that no module another test imported is counted; what
    # the interpreter loaded at start-up (some site set-ups load inspect) is not counted
    code = (
        "import sys; before = set(sys.modules); import symrank.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.stdout == "[]\n"


def test_version_matches_pyproject():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (version,) = re.findall(r'^version = "([^"]+)"$', pyproject, flags=re.MULTILINE)
    assert symrank.__version__ == version
