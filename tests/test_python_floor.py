"""The package parses under the oldest Python that pyproject.toml allows.

`ast.parse(..., feature_version=...)` rejects syntax newer than the
floor, such as `except*` under 3.10.  It checks syntax only: a call to a
library function added after the floor (say, one new in 3.11) parses
fine and is not caught here.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def python_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    return int(found[1]), int(found[2])


def test_package_parses_at_the_python_floor():
    floor = python_floor()
    sources = sorted((ROOT / "src" / "coverlab").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)


def test_feature_version_rejects_newer_syntax():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # new in 3.11
    ast.parse(newer, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=(3, 10))
