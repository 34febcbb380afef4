"""Static checks on the package source."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "signedlp"

def _package_trees():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no package source under {PACKAGE}"
    return {
        path.name: ast.parse(path.read_text(), filename=str(path)) for path in sources
    }


def test_no_assert_statements_in_package():
    # certification checks must survive `python -O`, which strips asserts
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in package source: {found}"


def _imports_of(package):
    """Where package source imports the top-level module package."""
    return [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees().items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == package for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.level == 0
            and (node.module or "").split(".")[0] == package)
    ]


def test_no_module_imports_mpmath():
    # periods are float64; the multiprecision reference lives in the tests
    found = _imports_of("mpmath")
    assert not found, f"mpmath imported in package source: {found}"


def test_no_module_imports_numpy():
    # the package runs on the standard library; numpy serves as a reference
    # in the tests only
    found = _imports_of("numpy")
    assert not found, f"numpy imported in package source: {found}"


def _referenced_names(trees):
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return referenced


def test_every_module_function_is_called_in_package():
    # code that only tests call is dead weight: a function must be referenced
    # by name somewhere in the package
    trees = _package_trees()
    defined = {}
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined[node.name] = name
    referenced = _referenced_names(trees)
    uncalled = sorted(f"{defined[fn]}:{fn}" for fn in defined if fn not in referenced)
    assert not uncalled, f"module-level functions no package code calls: {uncalled}"


def test_every_method_is_called_in_package():
    # the same rule for methods and properties (dunder methods are called by
    # the language); a method counts as called when its name is referenced
    trees = _package_trees()
    defined = {}
    for name, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (node.name.startswith("__") and node.name.endswith("__")):
                        defined[f"{cls.name}.{node.name}"] = name
    referenced = _referenced_names(trees)
    uncalled = sorted(
        f"{defined[m]}:{m}" for m in defined if m.split(".")[1] not in referenced
    )
    assert not uncalled, f"methods no package code calls: {uncalled}"
