"""The number of values a caller of ``ttrally`` can set is pinned.

Every defaulted parameter of a public function or method in
``src/ttrally/*.py`` (``__init__`` included) and every defaulted field of a
public class is a value a caller may change, and a behaviour the tests must
cover for each value. The count may rise only with a CHANGES.md line naming
two existing callers outside the tests that need different values; a value
no caller varies is a constant. When a change retires such options, lower
the pin to the new count.

A required parameter that every call site in the program fills with the
same module-level constant is a value no caller varies too:
``test_no_required_parameter_takes_one_constant`` fails on it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "ttrally"
SETTABLE_VALUES = 62
CALLERS = [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
           ROOT / "tests" / "test_acceptance.py"]
# Required parameters that every call fills with one constant, each kept for a reason.
ONE_CONSTANT = {
    "control.solve_target_pose(table)":
        "tests/test_acceptance.py calls it with four positional arguments",
    "anticipate.split_regions(horizons)":
        "control owns HORIZONS, and anticipate cannot import control",
}


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


def _required(function: ast.FunctionDef) -> list[str]:
    """Names of the required parameters, positional ones first."""
    args = function.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    return (positional[:len(positional) - len(args.defaults)]
            + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is None])


def _module_names(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level: assignments and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        for target in getattr(node, "targets", [getattr(node, "target", None)]):
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _constant(node, module_names: set[str]):
    """The module-level UPPER_CASE name an argument is (``TABLE``, or
    ``synth.TABLE`` of an imported module), else None."""
    if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in module_names:
        name = node.attr
    elif isinstance(node, ast.Name) and node.id in module_names:
        name = node.id
    else:
        return None
    return name if name.isupper() else None


def test_no_required_parameter_takes_one_constant():
    functions = {}  # name -> (module.name, positional parameters, required parameters)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                positional = [a.arg for a in node.args.posonlyargs + node.args.args]
                functions[node.name] = (f"{path.stem}.{node.name}", positional, _required(node))
    # "module.function(parameter)" -> what its calls pass: a constant's name,
    # or None for anything else (a starred or missing argument too).
    passed = {}
    for path in CALLERS:
        tree = ast.parse(path.read_text())
        module_names = _module_names(tree)
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if name in functions:
                qualified, positional, required = functions[name]
                bound = dict(zip(positional, call.args))
                bound.update((k.arg, k.value) for k in call.keywords)
                for parameter in required:
                    value = _constant(bound.get(parameter), module_names)
                    passed.setdefault(f"{qualified}({parameter})", set()).add(value)
    one_constant = {key for key, values in passed.items()
                    if len(values) == 1 and None not in values}
    assert one_constant == set(ONE_CONSTANT)
