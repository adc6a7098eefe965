"""Importing coverlab.cli stays cheap: each coverlab command is a process
of its own that imports the whole package before it does anything.
`dataclasses` alone pulls in `inspect`, `ast`, `dis` and `tokenize`, and
each dataclass execs generated methods, so coverlab's value types are
NamedTuples or small classes instead."""

import ast
import os
import pathlib
import subprocess
import sys

import coverlab


def test_cli_import_adds_neither_dataclasses_nor_inspect():
    src = pathlib.Path(coverlab.__file__).parents[1]
    # only what the import adds counts: a site hook may have loaded either
    probe = ("import sys; before = set(sys.modules); import coverlab.cli; "
             "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def imported_modules(tree: ast.AST) -> set[str]:
    """The top-level names of the absolute imports anywhere under `tree`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_no_module_imports_dataclasses():
    for path in sorted(pathlib.Path(coverlab.__file__).parent.glob("*.py")):
        assert "dataclasses" not in imported_modules(ast.parse(path.read_text())), path.name


def test_guard_sees_every_import_form():
    tree = ast.parse("import dataclasses as dc\n"
                     "from dataclasses import field\n"
                     "import os.path\n"
                     "from . import graph\n"
                     "def f():\n"
                     "    import inspect\n")
    assert imported_modules(tree) == {"dataclasses", "os", "inspect"}


def test_cli_import_builds_no_parser():
    # a parser is built on a command's first call, never at import, so a
    # one-shot process builds exactly one
    src = pathlib.Path(coverlab.__file__).parents[1]
    probe = ("import argparse; built = []; init = argparse.ArgumentParser.__init__\n"
             "def counting(self, *a, **k):\n"
             "    built.append(type(self).__name__); init(self, *a, **k)\n"
             "argparse.ArgumentParser.__init__ = counting\n"
             "import coverlab.cli; print(built)")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
