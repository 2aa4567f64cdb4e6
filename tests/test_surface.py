"""No public surface that only tests use.

Scans the package source with ``ast``: every public (no leading
underscore) top-level function or class of a ``crackid`` module must be
referenced somewhere in the package outside its own definition -- by name,
as an attribute, in an import, or in its module's ``__all__``; and every
error class must be raised somewhere in the package.
"""

import ast
from pathlib import Path

import crackid
from crackid import errors

PACKAGE = Path(crackid.__file__).parent

# Public names that only the tests reference, kept on purpose.
ALLOWED_UNREFERENCED = {
    "fem.h1_seminorm",                # error norm of the penalty-consistency tests
    "solvers.recover_multiplier",     # penalty multiplier against the PDAS one
    "geometry.constant_graph",        # flat interfaces of the test meshes
}


def _references(node):
    """Identifiers a syntax tree refers to."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
        elif (isinstance(sub, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in sub.targets)):
            out.update(e.value for e in ast.walk(sub.value)
                       if isinstance(e, ast.Constant) and isinstance(e.value, str))
    return out


def unreferenced_public_names():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    out = set()
    for module, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            used = set()
            for other, other_tree in trees.items():
                parts = other_tree.body if other == module else [other_tree]
                for part in parts:
                    if part is not node:
                        used |= _references(part)
            if node.name not in used:
                out.add("%s.%s" % (module, node.name))
    return out


def test_every_public_name_is_used_by_the_package():
    assert unreferenced_public_names() - ALLOWED_UNREFERENCED == set()


def test_allowlist_is_current():
    assert ALLOWED_UNREFERENCED <= unreferenced_public_names()


def test_every_error_class_is_raised():
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.CrackidError)
               and obj is not errors.CrackidError}
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    assert classes and classes - raised == set()
