"""Every hypothesis test runs the same examples on every run: its
`@settings(...)` passes `derandomize=True` and `database=None`, so a test
run neither draws fresh examples nor replays ones an earlier run saved."""

import ast
import pathlib

PINNED = {"derandomize": True, "database": None}


def _decorator_name(node: ast.expr):
    """`given` for `@given(...)`, `@hypothesis.given(...)` or `@given`."""
    func = node.func if isinstance(node, ast.Call) else node
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def given_tests(tree: ast.AST) -> dict[str, bool]:
    """Each `@given` function under `tree`, by name, and whether its
    `@settings` call pins both keywords of PINNED."""
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        decorators = {_decorator_name(d): d for d in node.decorator_list}
        if "given" not in decorators:
            continue
        settings = decorators.get("settings")
        passed = {kw.arg: kw.value for kw in getattr(settings, "keywords", ())}
        found[node.name] = all(
            isinstance(passed.get(arg), ast.Constant) and passed[arg].value is value
            for arg, value in PINNED.items())
    return found


def test_every_given_test_is_derandomized():
    found = {}
    for path in sorted(pathlib.Path(__file__).parent.glob("test_*.py")):
        found.update((f"{path.stem}.{name}", ok)
                     for name, ok in given_tests(ast.parse(path.read_text())).items())
    assert len(found) >= 21
    assert [name for name, ok in found.items() if not ok] == []


def test_guard_sees_unpinned_settings():
    tree = ast.parse("@settings(max_examples=5, derandomize=True, database=None)\n"
                     "@given(st.integers())\n"
                     "def pinned(x): pass\n"
                     "@hypothesis.given(st.integers())\n"
                     "@hypothesis.settings(database=None, derandomize=True)\n"
                     "def pinned_by_module(x): pass\n"
                     "@settings(derandomize=True)\n"
                     "@given(st.integers())\n"
                     "def saved(x): pass\n"
                     "@settings(derandomize=False, database=None)\n"
                     "@given(st.integers())\n"
                     "def random(x): pass\n"
                     "@given(st.integers())\n"
                     "def bare(x): pass\n"
                     "@settings\n"
                     "@given(st.integers())\n"
                     "def uncalled(x): pass\n"
                     "@settings(derandomize=True, database=None)\n"
                     "def no_given(): pass\n")
    assert given_tests(tree) == {"pinned": True, "pinned_by_module": True,
                                 "saved": False, "random": False, "bare": False,
                                 "uncalled": False}
