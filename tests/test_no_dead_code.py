"""Every module-level name and class member in `src/coverlab` is read
somewhere.

A private function, class or assigned name must be read in the package
outside its own definition: by name in its own module, or from another
module as an attribute or a `from` import.  A public function or class
must be read the same way, or be named by a benchmark script, or be
exported by `coverlab.__all__`.  A class member (a method or property
that is not a dunder, a `NamedTuple` field or a `Record._fields` entry)
must be read outside its own definition, in the package or a benchmark
script, as an attribute or through `getattr` with a constant name."""

import ast
import pathlib
import re

import coverlab

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coverlab"

# read only through getattr(cli, f"_suite_{suite}") by perfbench/pin.py
ALLOWED = {"cli._suite_lemma41", "cli._suite_lemma42", "cli._suite_theorems"}
# library API that README.md documents and nothing in the package calls
PUBLIC_ALLOWED = {"bounds.alpha_value", "bounds.dominating_set_bound",
                  "iso.is_family_free"}
# called by argparse on a parse error
MEMBERS_ALLOWED = {"cli._Parser.error"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(tree: ast.Module, public: bool):
    """(name, node) for each module-level private def, class or name
    bound by an assignment; with `public`, each public def or class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and not public:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names
                    if (not name.startswith("_") if public else _private(name)))


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


def _unread(modules: dict[str, str], public: bool) -> list[str]:
    trees = {mod: ast.parse(src) for mod, src in modules.items()}
    reads: dict[str, list] = {}
    for mod, tree in trees.items():
        for name, node, by_name in _reads(tree):
            reads.setdefault(name, []).append((mod, id(node), by_name))
    out = []
    for mod, tree in trees.items():
        for name, definition in _defined(tree, public):
            inside = {id(n) for n in ast.walk(definition)}
            if not any(node not in inside and (other == mod or not by_name)
                       for other, node, by_name in reads.get(name, ())):
                out.append(f"{mod}.{name}")
    return out


def unread_private_names(modules: dict[str, str]) -> list[str]:
    """`module.name` for each private module-level name of `modules`
    (module name -> source) that no code in them reads."""
    return _unread(modules, public=False)


def unread_public_names(modules: dict[str, str], elsewhere: str,
                        exported: set[str]) -> list[str]:
    """`module.name` for each public module-level def or class of
    `modules` that no code in them reads, no whole word of `elsewhere`
    names and `exported` does not hold."""
    kept = set(re.findall(r"\w+", elsewhere)) | exported
    return [q for q in _unread(modules, public=True)
            if q.split(".", 1)[1] not in kept]


def _members(tree: ast.Module):
    """(class, member, node) for each member of each class in `tree`: a
    method or property whose name is not a dunder, an annotated field of
    a `NamedTuple`, or an entry of a `_fields` tuple."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        named_tuple = any(isinstance(b, ast.Name) and b.id == "NamedTuple"
                          for b in cls.bases)
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield cls.name, node.name, node
            elif isinstance(node, ast.AnnAssign) and named_tuple:
                yield cls.name, node.target.id, node
            elif (isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["_fields"]):
                yield from ((cls.name, f, node) for f in ast.literal_eval(node.value))


def _attribute_reads(tree: ast.Module):
    """(name, node) for each loaded attribute of `tree` and each
    `getattr` call with a constant name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value, node


def unread_members(modules: dict[str, str], readers: list[str]) -> list[str]:
    """`module.Class.member` for each class member of `modules` (module
    name -> source) that no attribute read in them or in the sources
    `readers` names outside the member's own definition."""
    trees = {mod: ast.parse(src) for mod, src in modules.items()}
    # every tree stays alive, so no two read nodes share an id
    everything = [*trees.values(), *map(ast.parse, readers)]
    reads: dict[str, list] = {}
    for tree in everything:
        for name, node in _attribute_reads(tree):
            reads.setdefault(name, []).append(id(node))
    out = []
    for mod, tree in trees.items():
        for cls, name, definition in _members(tree):
            inside = {id(n) for n in ast.walk(definition)}
            if all(node in inside for node in reads.get(name, ())):
                out.append(f"{mod}.{cls}.{name}")
    return out


def _bench_sources() -> list[str]:
    return [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]


def _package():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert len(modules) >= 12
    return modules


def test_every_private_name_is_read():
    assert sorted(unread_private_names(_package())) == sorted(ALLOWED)


def test_every_public_name_is_read_named_or_exported():
    bench = "\n".join(_bench_sources())
    unread = unread_public_names(_package(), bench, set(coverlab.__all__))
    assert sorted(unread) == sorted(PUBLIC_ALLOWED)
    readme = (ROOT / "README.md").read_text()
    for qualified in PUBLIC_ALLOWED:
        assert re.search(rf"\b{qualified.split('.')[1]}\b", readme), qualified


def test_every_class_member_is_read():
    unread = unread_members(_package(), _bench_sources())
    assert sorted(unread) == sorted(MEMBERS_ALLOWED)


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


def test_guard_sees_unread_public_names():
    modules = {
        "a": "def used(): pass\n"
             "def unused(): return unused()\n"
             "class Imported: pass\n"
             "def bench(): pass\n"
             "def benched(): pass\n"
             "def exported(): pass\n"
             "UNCHECKED = 1\n"
             "used()\n",
        "b": "from .a import Imported\n"
             "from . import a\n"
             "def attribute(): pass\n"
             "def used(): pass\n"
             "a.attribute()\n",
    }
    elsewhere = "run(benched_twice); run(a.benched)\n"
    assert unread_public_names(modules, elsewhere, {"exported"}) == [
        "a.unused", "a.bench", "b.used"]


def test_guard_sees_unread_members():
    modules = {
        "a": "from typing import NamedTuple\n"
             "class T(NamedTuple):\n"
             "    used: int\n"
             "    unused: int = 0\n"
             "    def recursive(self): return self.recursive()\n"
             "    def __str__(self): return str(self.used)\n"
             "class R(Record):\n"
             "    _fields = ('kept', 'dropped')\n"
             "    LIMIT = 3\n"
             "    def __eq__(self, o): return [getattr(self, f) for f in self._fields]\n"
             "    @property\n"
             "    def prop(self): return getattr(self, 'kept')\n"
             "    def _helper(self): self.dropped = 1\n"
             "    def benched(self): pass\n",
        "b": "from .a import R\n"
             "def f(r): return r.prop, r._helper()\n",
    }
    readers = ["r.benched()\nr.dropped_twice\n"]
    assert unread_members(modules, readers) == ["a.T.unused", "a.T.recursive",
                                                "a.R.dropped"]
