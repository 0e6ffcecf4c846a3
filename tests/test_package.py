"""The package ships nothing for the tests alone: every public function,
class and method of ``dcvqe`` has a caller in the package or in the
benchmark harness (``perfbench/``), and each of their parameters with a
default is passed by some call there. And numpy is its one runtime
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


# the parameters with a default that no call passes, by function, with the reason
UNPASSED: dict[str, tuple[set[str], str]] = {
    "cli.main": ({"argv"}, "the tests drive the CLI in process; the console script passes none"),
    "training.fit": ({"start_epoch", "state"}, "train --resume (ROADMAP D9) will pass them"),
}


def defaulted(node: ast.FunctionDef, method: bool):
    """(name, position) of each parameter of ``node`` that has a default;
    the position counts the arguments a call writes, so a method's first
    parameter (``self`` or ``cls``) has none, and a keyword-only
    parameter's is None."""
    args = node.args
    positional = [*args.posonlyargs, *args.args]
    offset = 1 if method else 0
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i - offset
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` passes the parameter ``name`` by keyword, by
    position, or through an unpacked ``*args`` or ``**kwargs``."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(
        isinstance(a, ast.Starred) for a in call.args[:position + 1])


def unpassed() -> list[str]:
    """Parameters with a default, of the package's public functions and
    methods, that no call in the package or in ``perfbench/`` passes. A call
    counts by the name it calls, bare or as an attribute (``module.name``,
    ``obj.method``)."""
    package = parse(PACKAGE.glob("*.py"))
    callers = [*package.values(), *parse(PERFBENCH.glob("*.py")).values()]
    missing = []
    for module, tree in package.items():
        for qualname, node, method in definitions(tree):
            if isinstance(node, ast.ClassDef):
                continue
            name = qualname.rsplit(".", 1)[-1]
            calls = [n for caller in callers for n in nodes_outside(caller, node)
                     if isinstance(n, ast.Call)
                     and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))]
            missing += [f"{module}.{qualname}({param})"
                        for param, position in defaulted(node, method)
                        if not any(passes(c, param, position) for c in calls)]
    return missing


def test_every_optional_parameter_is_passed_outside_the_tests():
    assert sorted(unpassed()) == sorted(f"{function}({param})"
                                        for function, (params, _) in UNPASSED.items()
                                        for param in params)


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
