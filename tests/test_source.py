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


MAX_LINE = 99


def test_no_package_line_is_longer_than_the_limit():
    found = [
        f"{path.name}:{number}: {len(line)}"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert not found, f"package lines longer than {MAX_LINE} characters: {found}"


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


def _class_methods_named(names):
    """Where a package class defines a method or assigns a class attribute
    named in names."""
    return [
        f"{name}:{cls.name}.{target}"
        for name, tree in _package_trees().items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body
        for target in (
            [node.name] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            else [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)]
        )
        if target in names
    ]


def test_no_class_defines_value_semantics():
    # every record is a namedtuple, whose tuple equality, hash and read-only
    # fields it keeps, and a polynomial is a plain residue list: no class
    # defines its own
    found = _class_methods_named({"__setattr__", "__eq__", "__hash__"})
    assert not found, f"classes with their own value semantics: {found}"


def test_no_class_defines_arithmetic():
    # the method guard below exempts dunders, which the language calls: an
    # operator only tests reach would pass it, so no class defines one, and
    # arithmetic is module functions on residue lists
    found = _class_methods_named({"__add__", "__sub__", "__mul__", "__neg__", "__truediv__",
                                  "__floordiv__", "__mod__", "__pow__"})
    assert not found, f"classes with arithmetic operators: {found}"


# the classes that hold more than an immutable record, and why
STATEFUL_CLASSES = {
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


def _constructed():
    """{name: [module:line, ...]} of every call in package code to a name
    (a function, or an attribute), outside the class of that name."""
    found = {}
    for module, tree in _package_trees().items():
        stack = [(tree, None)]
        while stack:
            node, inside = stack.pop()
            if isinstance(node, ast.ClassDef):
                inside = node.name
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name != inside:
                    found.setdefault(name, []).append(f"{module}:{node.lineno}")
            stack.extend((child, inside) for child in ast.iter_child_nodes(node))
    return found


# where package code may raise ValueError, and why; anywhere else it would
# re-check a value that every caller already guarantees
VALUE_ERROR_SITES = {
    "__new__": "a record refuses a field value that breaks its invariant: "
               "RunConfig's come from the command line",
    "parse_factored_ideal": "it reads the --fine-char spec, outside input",
    "padic_valuation": "the valuation of 0 is infinite, and its loop would never end",
}


def _raise_sites(exception):
    """module:qualified name of the definition around each raise of the
    exception named exception in package code ("Class.method" in a class)."""
    found = []
    for module, tree in _package_trees().items():
        stack = [(tree, None)]
        while stack:
            node, where = stack.pop()
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name if where is None else f"{where}.{node.name}"
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(raised, "id", None) == exception:
                    found.append(f"{module}:{where}")
            stack.extend((child, where) for child in ast.iter_child_nodes(node))
    return found


def test_value_error_is_raised_only_on_values_a_caller_can_pass():
    # every class's __new__ is a record's (the class test below), all one kind
    kinds = {site: "__new__" if site.endswith(".__new__") else site.partition(":")[2]
             for site in _raise_sites("ValueError")}
    found = sorted(site for site, kind in kinds.items() if kind not in VALUE_ERROR_SITES)
    assert not found, f"ValueError raised outside VALUE_ERROR_SITES: {found}"
    assert set(kinds.values()) == set(VALUE_ERROR_SITES), kinds


def test_every_exception_type_is_raised_in_package():
    # a check raises where it fails, so a retired raise site must not leave
    # its exception type behind: each class in errors.py but the base that
    # callers catch is constructed in package code outside its own definition
    errors = _package_trees()["errors.py"]
    defined = [node.name for node in errors.body if isinstance(node, ast.ClassDef)]
    constructed = _constructed()
    unraised = [name for name in defined[1:] if name not in constructed]
    assert defined[0] == "SignedLPError" and len(defined) > 1
    assert not unraised, f"exception types no package code constructs: {unraised}"


def test_no_package_code_raises_the_base_exception():
    # every stderr line names the specific class of its failure
    found = _constructed().get("SignedLPError", [])
    assert not found, f"the base SignedLPError constructed at {found}"


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
    algorithms = {"_a_small", "_a_ell_naive", "hasse_candidates", "_traces_killing"}
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


def test_retired_ring_element_class_is_named_nowhere():
    # a polynomial in X is a residue list read beside its IwasawaContext, as
    # a Y-vector is: the class that once wrapped one is named in no file
    # under src/ or tests/ (the name is assembled so this file does not
    # hold it either)
    name = ("Lambda" + "Element").encode()
    root = PACKAGE.parents[1]
    found = [str(path.relative_to(root))
             for top in ("src", "tests") for path in sorted((root / top).rglob("*"))
             if path.is_file() and "__pycache__" not in path.parts
             and name in path.read_bytes()]
    assert not found, f"files naming the retired class: {found}"


def test_private_kernel_names_stay_in_lambda_ring():
    # the multiply, the division and the change of basis are lambda_ring's
    # own: no other module names a private module-level name defined there
    # (_mul, _divmod_monic, ...); pack and unpack are public, shared with
    # manin's row reduction
    trees = _package_trees()
    defined = set()
    for node in trees["lambda_ring.py"].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(target.id for target in node.targets if isinstance(target, ast.Name))
    private = {name for name in defined if name.startswith("_")}
    assert {"_mul", "_divmod_monic"} <= private, private
    found = []
    for name, tree in trees.items():
        if name == "lambda_ring.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                used = [node.id]
            elif isinstance(node, ast.Attribute):
                used = [node.attr]
            else:
                continue
            found += [f"{name}:{node.lineno}:{u}" for u in used if u in private]
    assert not found, f"lambda_ring's private names used elsewhere: {found}"


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
