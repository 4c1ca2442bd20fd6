"""Every public module-level name in ``ttrally``, and every public method and
property of a public class, has a caller.

A name counts as used when code in ``src/``, ``perfbench/`` or
``tests/test_acceptance.py`` refers to it (a name, an attribute or an
import), outside its own definition. A public function kept only for tests
is a second path beside the one the program runs; a test oracle for it
belongs in ``tests/``, as ``tests/scalar_flight.py`` and
``tests/scalar_positioning.py`` do.

Every field of a public dataclass likewise needs a read in those files: an
attribute load (``x.field``) or a ``getattr`` with the field's name as a
constant. The check matches names only, not the types they are read on, so
a field shares its reads with every same-named attribute: it missed
``Region.mean`` and ``CoverageReport.n_test``, because ``forecast.mean`` and
``args.n_test`` read those names too, and ``ExchangeSample.crossing_time``,
``.crossing_pos`` and ``.crossing_vel``, because the ``Exchanges`` batch has
columns of those names.
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
# Dataclass fields with no read in the program, each kept for a reason.
ALLOWED_FIELDS = {
    "Region.horizon": "tests/scalar_episode.py, the scalar episode oracle, sorts regions by it",
    "EpisodeResult.contacted": "the contact flag that ROADMAP item 3's per-row report is to read",
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


def _dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _dataclass_fields() -> dict[str, str]:
    """Class.field -> module of every annotated field of a public dataclass."""
    found = {}
    for path in PACKAGE.glob("*.py"):
        for node in filter(_public, ast.parse(path.read_text()).body):
            if isinstance(node, ast.ClassDef) and _dataclass(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        found[f"{node.name}.{item.target.id}"] = path.stem
    return found


def _read() -> set[str]:
    """Every attribute name loaded, or read by getattr with a constant name."""
    names = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                  and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
                names.add(node.args[1].value)
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


def test_every_dataclass_field_is_read():
    read = _read()
    unread = {f"{module}.{field}" for field, module in _dataclass_fields().items()
              if field.split(".")[1] not in read and field not in ALLOWED_FIELDS}
    assert not unread, f"dataclass fields nothing reads: {sorted(unread)}"


def test_the_field_allowlist_names_only_unread_fields():
    fields, read = _dataclass_fields(), _read()
    for field in ALLOWED_FIELDS:
        assert field in fields and field.split(".")[1] not in read, field
