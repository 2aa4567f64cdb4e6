"""No public surface that only tests use.

Scans the package source with ``ast``: every public (no leading
underscore) top-level function or class of a ``crackid`` module must be
referenced somewhere in the package outside its own definition -- by name,
as an attribute, in an import, or in its module's ``__all__``; every
public field, method or property of a ``crackid`` class must be read as an
attribute somewhere in the package, the benchmark or the tools outside its
own definition; and every error class must be raised somewhere in the
package.
"""

import ast
from pathlib import Path

import crackid
from crackid import errors

PACKAGE = Path(crackid.__file__).parent
REPO = Path(__file__).resolve().parents[1]
READERS = (PACKAGE, REPO / "perfbench", REPO / "tools")

# kept for ROADMAP item 2's per-step solver trace; the exemption goes with it
UNREAD_MEMBERS_KEPT = {"SolveReport.residual", "SolveReport.active_sizes"}


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
    assert unreferenced_public_names() == set()


def _class_members(tree):
    """(qualified name, defining node) of each public member of each class:
    its annotated fields, the ``self.<name>`` its methods assign, and its
    methods and properties (whose own bodies do not count as readers)."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield "%s.%s" % (cls.name, node.target.id), node
            elif isinstance(node, ast.FunctionDef):
                yield "%s.%s" % (cls.name, node.name), node
                for sub in ast.walk(node):
                    if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                        yield "%s.%s" % (cls.name, sub.attr), sub


def unread_public_members():
    reads = [sub for root in READERS for path in sorted(root.glob("*.py"))
             for sub in ast.walk(ast.parse(path.read_text()))
             if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)]
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _class_members(ast.parse(path.read_text())):
            attr = name.split(".")[1]
            if attr.startswith("_"):
                continue
            own = {id(sub) for sub in ast.walk(node)}
            if not any(r.attr == attr and id(r) not in own for r in reads):
                out.add(name)
    return out


def test_every_public_class_member_is_read():
    assert unread_public_members() == UNREAD_MEMBERS_KEPT


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
