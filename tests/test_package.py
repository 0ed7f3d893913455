"""The package's source: each exported name has a use outside the tests, each top-level definition is reached,
and no module imports a name it never uses.

All three read the source files without running them.  A name that only
tests call belongs beside them, in ``tests/util.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qcorr"
CALLERS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")

# exported, though only tests call them today; kept for the ROADMAP item that will use each
AWAITING_USE = {
    "qubit_oracle": "item 1b's reference rows and item 22's spectral bound",
    "entanglement_lower_bound": "item 21's lower bound beside every value",
}


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names}


def _referenced(node):
    """Every name ``node`` uses in code: each ast.Name and attribute, so docstrings and comments do not count."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _defined(node):
    """The names a top-level statement defines: a function, a class or the plain names a constant is bound to.

    Any other statement (an import, a call, ``D[k] = v``) defines none, and counts as module-level code.
    """
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return set()
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def package_definitions():
    """Every top-level function, class and constant of src/qcorr, except dunder names such as ``__version__``."""
    return {name for path in PACKAGE.glob("*.py") for node in ast.parse(path.read_text()).body
            for name in _defined(node) if not name.startswith("__")}


def wrapped_names():
    """The attribute names that perfbench/spans.py's ``WRAPS`` binds, each given there as a string."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    wraps = next(node.value for node in tree.body if isinstance(node, ast.Assign) and _defined(node) == {"WRAPS"})
    return {attribute for _, attribute, _ in ast.literal_eval(wraps)}


def live_names(roots=()):
    """Names reached from ``roots``, the scripts, the benchmark or the package's module-level code.

    A function, class or constant defined at the top of a package module
    counts only as far as something live refers to it, so a helper whose one
    caller is itself unused is unused too, and a definition's use of its own
    name (recursion, a return annotation) does not count.
    """
    live, bodies = set(roots), {}
    for folder in CALLERS:
        for path in folder.rglob("*.py"):
            tree = ast.parse(path.read_text())
            if folder is not PACKAGE:
                live |= _referenced(tree)
                continue
            for node in tree.body:
                for name in (defined := _defined(node)):
                    bodies.setdefault(name, set()).update(_referenced(node) - defined)
                if not defined:
                    live |= _referenced(node)
    pending = list(live)
    while pending:
        for name in bodies.pop(pending.pop(), set()) - live:
            live.add(name)
            pending.append(name)
    return live


def test_every_exported_name_has_a_use_outside_the_tests():
    unused = exported_names() - live_names()
    assert unused == set(AWAITING_USE)


def test_every_top_level_definition_is_reached():
    """Roots beyond the code: the names ``WRAPS`` binds by string (``minimize``, ``_unitary_from_angles``), and AWAITING_USE."""
    assert package_definitions() - live_names(wrapped_names() | set(AWAITING_USE)) == set()


def test_no_package_module_imports_a_name_it_never_uses():
    """Except one whose line says why with a comment that starts ``# unused here``, as the tracer's bindings do."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's surface
            continue
        source = path.read_text()
        tree, lines = ast.parse(source), source.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used and "# unused here" not in lines[alias.lineno - 1]:
                        unused.append(f"{path.name}:{alias.lineno} {name}")
    assert unused == []
