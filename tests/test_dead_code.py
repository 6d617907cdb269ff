"""Every function, class and method of the package is reached from the
package, and every module-level import of a module is used in it."""

import ast
from pathlib import Path

import lminlab

# Reached from no package code, each for a stated reason.  They go with
# ROADMAP items 3 (the tracer's bindings) and 10 (what only tests reach).
UNREFERENCED = {
    "lambda_min_power": "the benchmark's tracer binds it by name",
    "q_inf_search": "the benchmark's tracer binds it by name",
    "vc_bruteforce": "acceptance criterion 9 tests it (test_criterion_9_vc_bruteforce)",
}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """(qualified name, name) of each top-level function and class of a
    module and each method of its top-level classes, dunders aside: the
    language calls those."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _dunder(item.name):
                    yield f"{node.name}.{item.name}", item.name


def _names(tree):
    """Every name a module's code uses: loads and stores of a name, attribute
    names and from-imported names.  Docstrings and comments do not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_definition_is_named_in_the_package():
    defined, named = [], set()
    for path in sorted(Path(lminlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined += [(f"{path.stem}.{qualified}", name) for qualified, name in _definitions(tree)]
        named.update(_names(tree))
    unreferenced = {name: qualified for qualified, name in defined if name not in named}
    assert sorted(unreferenced) == sorted(UNREFERENCED), unreferenced


def _imported(tree):
    """(bound name, line) of each module-level import of a module, the
    ``__future__`` switches aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted(Path(lminlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in _imported(tree) if name not in loaded]
    assert unused == []
