"""Every public module-level name in ``ttrally``, and every public method and
property of a public class, has a caller.

A name counts as used when code in ``src/``, ``perfbench/`` or
``tests/test_acceptance.py`` refers to it (a name, an attribute or an
import), outside its own definition. A public function kept only for tests
is a second path beside the one the program runs; a test oracle for it
belongs in ``tests/``, as ``tests/scalar_flight.py`` and
``tests/scalar_positioning.py`` do.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "ttrally"
CALLERS = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
           ROOT / "tests" / "test_acceptance.py"]
# Public names with no caller in the program, each kept for a reason.
ALLOWED = {
    "read_calibration": "the conformal-v1 reader: no command reads what `conformal --out` writes",
}


def _public(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def _public_definitions() -> dict[str, str]:
    """Name -> where it is defined (module, or module.Class) of every public
    module-level def and class and every public method and property of a
    public class."""
    found = {}
    for path in PACKAGE.glob("*.py"):
        for node in filter(_public, ast.parse(path.read_text()).body):
            found[node.name] = path.stem
            if isinstance(node, ast.ClassDef):
                for item in filter(_public, node.body):
                    found[item.name] = f"{path.stem}.{node.name}"
    return found


def _referenced() -> set[str]:
    names = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_name_has_a_caller():
    used = _referenced()
    unused = {f"{module}.{name}" for name, module in _public_definitions().items()
              if name not in used and name not in ALLOWED}
    assert not unused, f"public names with no caller outside the tests: {sorted(unused)}"


def test_the_allowlist_names_only_unused_definitions():
    defined, used = _public_definitions(), _referenced()
    for name in ALLOWED:
        assert name in defined and name not in used, name
