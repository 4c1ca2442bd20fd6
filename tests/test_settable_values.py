"""The number of values a caller of ``ttrally`` can set is pinned.

Every defaulted parameter of a public function or method in
``src/ttrally/*.py`` (``__init__`` included) and every defaulted field of a
public class is a value a caller may change, and a behaviour the tests must
cover for each value. The count may rise only with a CHANGES.md line naming
two existing callers outside the tests that need different values; a value
no caller varies is a constant. When a change retires such options, lower
the pin to the new count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "ttrally"
SETTABLE_VALUES = 62


def _public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def _defaults(function: ast.FunctionDef) -> int:
    args = function.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def _settable_values() -> dict[str, int]:
    """Qualified name -> defaulted parameters or fields, where there are any."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                found[f"{path.stem}.{node.name}"] = _defaults(node)
            elif isinstance(node, ast.ClassDef) and _public(node.name):
                fields = sum(isinstance(item, ast.AnnAssign) and item.value is not None
                             for item in node.body)
                found[f"{path.stem}.{node.name}"] = fields
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        found[f"{path.stem}.{node.name}.{item.name}"] = _defaults(item)
    return {name: n for name, n in found.items() if n}


def test_settable_values_are_pinned():
    values = _settable_values()
    assert sum(values.values()) == SETTABLE_VALUES, values
