"""Every module-level private function, class or assigned name in
`src/coverlab` is read somewhere in the package outside its own
definition: by name in its own module, or from another module as an
attribute or a `from` import."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "coverlab"

# read only through getattr(cli, f"_suite_{suite}") by perfbench/pin.py
ALLOWED = {"cli._suite_lemma41", "cli._suite_lemma42", "cli._suite_theorems"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(tree: ast.Module):
    """(name, node) for each module-level private def, class or name
    bound by an assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if _private(name))


def _reads(tree: ast.Module):
    """(name, node, by_name) for each read in `tree`: a loaded name
    (by_name), a loaded attribute or a `from` import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node, True
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node, False
        elif isinstance(node, ast.alias):
            yield node.name, node, False


def unread_private_names(modules: dict[str, str]) -> list[str]:
    """`module.name` for each private module-level name of `modules`
    (module name -> source) that no code in them reads."""
    trees = {mod: ast.parse(src) for mod, src in modules.items()}
    reads: dict[str, list] = {}
    for mod, tree in trees.items():
        for name, node, by_name in _reads(tree):
            if _private(name):
                reads.setdefault(name, []).append((mod, id(node), by_name))
    out = []
    for mod, tree in trees.items():
        for name, definition in _defined(tree):
            inside = {id(n) for n in ast.walk(definition)}
            if not any(node not in inside and (other == mod or not by_name)
                       for other, node, by_name in reads.get(name, ())):
                out.append(f"{mod}.{name}")
    return out


def test_every_private_name_is_read():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert len(modules) >= 12
    assert sorted(unread_private_names(modules)) == sorted(ALLOWED)


def test_guard_sees_unread_private_names():
    modules = {
        "a": "def _used(): pass\n"
             "def _unused(): return _unused()\n"
             "class _Imported: pass\n"
             "_X = 1\n"
             "_Y, _Z = _X, 2\n"
             "_used()\n",
        "b": "from .a import _Imported\n"
             "from . import a\n"
             "_W: int = a._Z\n"
             "def _used(): pass\n",
    }
    assert unread_private_names(modules) == ["a._unused", "a._Y", "b._W", "b._used"]
