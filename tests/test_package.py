"""The package ships nothing for the tests alone: every public function,
class and method of ``dcvqe`` has a caller in the package or in the
benchmark harness (``perfbench/``). And numpy is its one runtime
dependency: it imports nothing else outside the standard library."""

import ast
import sys
from pathlib import Path

import dcvqe

PACKAGE = Path(dcvqe.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"

# public definitions that may go without a caller, with the reason for each
ALLOWED: dict[str, str] = {}


def parse(paths) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(paths)}


def definitions(tree: ast.Module):
    """(qualified name, node, is a method) of the module's public functions
    and classes and of the public methods of its public classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item, True


def nodes_outside(tree: ast.AST, skip: ast.AST):
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def names_taken_from(module: str, tree: ast.Module, own: bool, skip: ast.AST) -> set[str]:
    """Names of ``module`` that ``tree`` refers to outside ``skip``: any
    name in the module itself, a name imported from it, or an attribute of
    a name bound to the module."""
    imported, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").rsplit(".", 1)[-1]
            if source == module:
                imported |= {a.asname or a.name for a in node.names}
            elif source in ("", "dcvqe"):
                aliases |= {a.asname or a.name for a in node.names if a.name == module}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.name == f"dcvqe.{module}"}
    used = set()
    for node in nodes_outside(tree, skip):
        if isinstance(node, ast.Name) and (own or node.id in imported):
            used.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            used.add(node.attr)
    return used


def uncalled() -> list[str]:
    """Public definitions of the package that no code of the package or of
    ``perfbench/`` refers to, outside the definition itself. A function or
    class counts by its name in its module, a name imported from it or an
    attribute of the module; a method by any attribute of that name."""
    package = parse(PACKAGE.glob("*.py"))
    callers = [*package.values(), *parse(PERFBENCH.glob("*.py")).values()]
    missing = []
    for module, tree in package.items():
        for qualname, node, method in definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if method:
                used = any(isinstance(n, ast.Attribute) and n.attr == name
                           for caller in callers for n in nodes_outside(caller, node))
            else:
                used = any(name in names_taken_from(module, caller, caller is tree, node)
                           for caller in callers)
            if not used and f"{module}.{qualname}" not in ALLOWED:
                missing.append(f"{module}.{qualname}")
    return missing


def test_every_public_definition_has_a_caller_outside_the_tests():
    assert PERFBENCH.is_dir()
    assert uncalled() == []


def imported_modules(tree: ast.Module) -> set[str]:
    """Top-level names of the modules that ``tree`` imports anywhere, in a
    function body too; a relative import counts as ``dcvqe``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add("dcvqe" if node.level else node.module.split(".")[0])
    return names


def test_numpy_is_the_only_dependency_outside_the_standard_library():
    imports = {module: imported_modules(tree)
               for module, tree in parse(PACKAGE.glob("*.py")).items()}
    assert {"numpy", "dcvqe", "dataclasses"} <= imports["losses"]
    allowed = sys.stdlib_module_names | {"numpy", "dcvqe"}
    assert {module: names - allowed for module, names in imports.items()
            if names - allowed} == {}
