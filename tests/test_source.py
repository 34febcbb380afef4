"""Static checks on the package source."""

import ast
import pathlib

import pytest

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


def _run_on_import(tree):
    """The nodes of a module that run when it is imported: all but the
    bodies of its functions."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _imports_of(package, nodes=ast.walk):
    """Where package source imports the top-level module package, among the
    nodes of each module tree."""
    return [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees().items()
        for node in nodes(tree)
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


def test_no_module_imports_typing():
    # records are collections.namedtuple subclasses and annotations are not
    # evaluated, so no report loads typing
    found = _imports_of("typing")
    assert not found, f"typing imported in package source: {found}"


def test_only_lambda_element_defines_value_semantics():
    # every record is a namedtuple, whose tuple equality, hash and read-only
    # fields it keeps; only the ring element, which must not be a tuple,
    # defines its own
    dunders = {"__setattr__", "__eq__", "__hash__"}
    found = [
        f"{name}:{cls.name}.{target}"
        for name, tree in _package_trees().items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body
        for target in (
            [node.name] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            else [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)]
        )
        if target in dunders
    ]
    assert sorted(found) == [f"lambda_ring.py:LambdaElement.{d}" for d in sorted(dunders)], found


# the classes that hold more than an immutable record, and why
STATEFUL_CLASSES = {
    "LambdaElement": "a ring element, which must not pick up tuple length, "
                     "indexing or ordering",
    "ManinSymbols": "the points of P^1(Z/NZ) with the index and relation maps "
                    "that one table build reads",
    "SymbolTableBuilder": "a table build, whose __init__ and build perfbench "
                          "traces as separate spans",
}


def test_every_class_is_an_exception_a_record_or_named_stateful():
    # plain data is a collections.namedtuple subclass; an exception derives
    # from Exception through the package's own exceptions
    classes = [
        (name, cls) for name, tree in _package_trees().items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
    ]
    exceptions = {"Exception"}
    for _ in classes:  # each pass adds one more generation of subclasses
        exceptions |= {cls.name for _, cls in classes
                       if any(getattr(base, "id", None) in exceptions for base in cls.bases)}
    found = [
        f"{name}:{cls.name}" for name, cls in classes
        if cls.name not in exceptions and cls.name not in STATEFUL_CLASSES
        and not (len(cls.bases) == 1 and isinstance(cls.bases[0], ast.Call)
                 and getattr(cls.bases[0].func, "id", None) == "namedtuple")
    ]
    assert not found, f"classes that are neither exceptions nor namedtuples: {found}"
    stateful = sorted(cls.name for _, cls in classes if cls.name in STATEFUL_CLASSES)
    assert stateful == sorted(STATEFUL_CLASSES), stateful


@pytest.mark.parametrize("module", ["fractions", "decimal", "csv", "argparse"])
def test_no_module_imports_on_import(module):
    # a report builds and prints on ints and JSON: fractions (which loads
    # decimal) only to render Hecke violations, csv only for CSV input or
    # output, argparse (which loads gettext and locale) only for help and
    # usage errors, each imported inside the function that needs it
    found = _imports_of(module, _run_on_import)
    assert not found, f"{module} imported when package source is imported: {found}"


def test_only_modsym_imports_fractions():
    # a table builds and reads on ints; only modsym.validate_hecke renders
    # its violations as fractions
    found = [site for site in _imports_of("fractions") if not site.startswith("modsym.py:")]
    assert not found, f"fractions imported outside modsym.py: {found}"


def test_only_curves_reaches_the_point_counting_algorithms():
    # one point counter: curves.a_ell chooses its algorithm by ell, so no
    # other module defines, imports or calls a counting algorithm of its own
    algorithms = {"_a_ell_naive", "hasse_candidates", "_traces_killing"}
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees().items() if name != "curves.py"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in algorithms)
        or (isinstance(node, ast.Attribute) and node.attr in algorithms)
        or (isinstance(node, (ast.alias, ast.FunctionDef)) and node.name in algorithms)
    ]
    assert not found, f"point-counting algorithms reached outside curves.py: {found}"


def _callers(tree, callee):
    """The top-level definition of tree around each call of callee by name,
    or "<module>" for a call outside every definition."""
    return [
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and callee in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_one_builder_makes_every_signed_component():
    # plus/minus and sharp/flat differ only in how they reach and grade their
    # top representatives: one function builds every SignedSeries, and in
    # extract.py only that function factors a representative
    trees = _package_trees()
    builders = [f"{name}:{fn}" for name, tree in trees.items()
                for fn in _callers(tree, "SignedSeries")]
    assert builders == ["extract.py:_component"], builders
    assert _callers(trees["extract.py"], "weierstrass") == ["_component"]


def test_only_lambda_ring_makes_lambda_elements():
    # theta elements and every series divided out of them are plain residue
    # lists (Y-vectors); an element in X is made through lambda_ring alone
    # (IwasawaContext.element, x_coefficients), so no other module or test
    # calls the class, and the Y-side modules do not import it
    trees = {**_package_trees(), **{
        f"tests/{path.name}": ast.parse(path.read_text(), filename=str(path))
        for path in sorted(pathlib.Path(__file__).parent.glob("*.py"))}}
    builders = [f"{name}:{fn}" for name, tree in trees.items() if name != "lambda_ring.py"
                for fn in _callers(tree, "LambdaElement")]
    assert not builders, f"LambdaElement built outside lambda_ring.py: {builders}"
    imports = [f"{name}:{node.lineno}" for name in ("theta.py", "extract.py", "pipeline.py")
               for node in ast.walk(trees[name])
               if isinstance(node, ast.ImportFrom)
               and any(alias.name == "LambdaElement" for alias in node.names)]
    assert not imports, f"LambdaElement imported on the Y side: {imports}"


def test_y_side_modules_never_read_the_modulus():
    # theta elements and every quotient of them are exact over Z: p^M enters
    # where lambda_ring.x_coefficients reduces a Y-vector into X, so the
    # modules that hold Y-vectors never read IwasawaContext.modulus
    trees = _package_trees()
    found = [f"{name}:{node.lineno}" for name in ("theta.py", "extract.py", "pipeline.py")
             for node in ast.walk(trees[name])
             if isinstance(node, ast.Attribute) and node.attr == "modulus"]
    assert not found, f"modulus read on the Y side: {found}"


def _referenced_names(trees, attributes_only=False):
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not attributes_only:
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
    # as an attribute, so a local variable of the same name does not count
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
    referenced = _referenced_names(trees, attributes_only=True)
    uncalled = sorted(
        f"{defined[m]}:{m}" for m in defined if m.split(".")[1] not in referenced
    )
    assert not uncalled, f"methods no package code calls: {uncalled}"
