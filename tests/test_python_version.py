"""Every source file parses as the oldest Python that ``pyproject.toml``
admits (``requires-python``), whichever interpreter runs the tests."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "qrollout").rglob("*.py"),
                *(ROOT / "tests").rglob("*.py")])
OLDEST = tuple(map(int, re.search(
    r'requires-python = ">=(\d+)\.(\d+)"',
    (ROOT / "pyproject.toml").read_text()).groups()))


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_source_parses_as_the_oldest_python(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=OLDEST)
