"""Static checks on the package source."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "signedlp"

# module-level functions that nothing in the package calls, each with its reason
UNCALLED_ALLOWED = {
    "verify_conductor": "waits for the conductor check at ingest (ROADMAP item 3)",
    "period_integral_oracle": "quadrature reference for the AGM periods",
    "f_torsion_finite": "module semantics checked by the acceptance suite",
    "ses_char_check": "module semantics checked by the acceptance suite",
}


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


def test_every_module_function_is_called_in_package():
    # code that only tests call is dead weight: a function must be referenced
    # by name somewhere in the package, or be listed above with its reason
    defined, referenced = {}, set()
    for name, tree in _package_trees().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined[node.name] = name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    uncalled = {fn for fn in defined if fn not in referenced}
    unlisted = sorted(f"{defined[fn]}:{fn}" for fn in uncalled - UNCALLED_ALLOWED.keys())
    assert not unlisted, f"module-level functions no package code calls: {unlisted}"
    stale = sorted(set(UNCALLED_ALLOWED) - uncalled)
    assert not stale, f"allowed entries that are gone or now called: {stale}"
