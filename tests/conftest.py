import importlib.util
from pathlib import Path

import pytest


@pytest.fixture
def tracing():
    """perfbench/tracing.py, loaded from its file: perfbench is no package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
