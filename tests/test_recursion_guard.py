"""No function in coverlab calls itself, outside a short list of
recursions whose depth is bounded: one level per piece or per vertex of
a large input ends in a RecursionError."""

import ast
import pathlib

import coverlab

# module.function[.nested] -> why its depth stays small
BOUNDED_RECURSIONS = {
    "bounds._has_clique_in": "depth at most the Ramsey search order",
    "bounds._good_graph_exists.extend": "depth at most the Ramsey search order",
    "formats._put_json": "depth is the nesting of the CLI's own reports, "
                         "fixed by the code that builds them",
}


def self_calls(tree: ast.AST, prefix: str) -> set[str]:
    """The qualified names of the functions under `tree` whose bodies call
    their own name."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            if not isinstance(node, ast.ClassDef) and any(
                    isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == node.name for call in ast.walk(node)):
                found.add(name)
            found |= self_calls(node, name)
        else:
            found |= self_calls(node, prefix)
    return found


def test_only_bounded_functions_call_themselves():
    found = set()
    for path in sorted(pathlib.Path(coverlab.__file__).parent.glob("*.py")):
        found |= self_calls(ast.parse(path.read_text()), path.stem)
    assert found == set(BOUNDED_RECURSIONS)


def test_guard_sees_nested_self_calls():
    tree = ast.parse("def outer():\n"
                     "    def inner(k):\n"
                     "        return inner(k - 1)\n"
                     "    return inner(3)\n"
                     "def flat(k):\n"
                     "    return flat(k - 1)\n")
    assert self_calls(tree, "m") == {"m.outer.inner", "m.flat"}
