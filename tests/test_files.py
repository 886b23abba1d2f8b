"""Guard: the store, the work queue and the fleet share one filesystem
layer.

Every atomic write, fsync, directory listing and temp file under the
store root goes through :mod:`repro.files`; a module that calls the
primitives itself grows a second durability policy or a listing that
is not race tolerant.  The lease election's ``os.rename`` is not a
write and stays in the work queue.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
LAYER = PACKAGE / "files.py"

#: ``(module, function)`` calls only the layer may make.
PRIMITIVES = {
    ("os", "replace"), ("os", "fsync"), ("os", "scandir"),
    ("tempfile", "mkstemp"),
}
#: Methods only the layer may call, on any object (``Path.glob``,
#: ``Path.iterdir``).
METHODS = {"glob", "iterdir"}


def _uses(tree):
    """``(line, what)`` of every primitive or method use in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if (node.module, alias.name) in PRIMITIVES:
                    yield node.lineno, f"{node.module}.{alias.name}"
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
        ):
            continue
        owner = node.func.value
        module = owner.id if isinstance(owner, ast.Name) else None
        if (module, node.func.attr) in PRIMITIVES:
            yield node.lineno, f"{module}.{node.func.attr}"
        elif node.func.attr in METHODS:
            yield node.lineno, f".{node.func.attr}()"


def test_only_the_files_layer_touches_the_primitives():
    offenders = [
        f"{path.relative_to(PACKAGE)}:{line}: {what}"
        for path in sorted(PACKAGE.rglob("*.py")) if path != LAYER
        for line, what in sorted(_uses(ast.parse(path.read_text())))
    ]
    assert not offenders, (
        "call repro.files instead of the primitive:\n"
        + "\n".join(offenders)
    )


def test_the_guard_sees_the_layer_itself():
    found = {what for _, what in _uses(ast.parse(LAYER.read_text()))}
    assert found == {f"{mod}.{name}" for mod, name in PRIMITIVES}
