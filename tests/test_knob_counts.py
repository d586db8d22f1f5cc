"""Pin the number of settable values: a new knob is a visible edit here.

Settable library values are the defaulted parameters of every function or
method whose name does not start with ``_``, plus the defaulted fields of
every dataclass in ``src/tricomilab``, counted over the source AST.  CLI
keys are the keys of ``cli._SCHEMA``, summed over commands and sections.
"""

import ast
import glob
import os

from tricomilab import cli

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "tricomilab")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def settable_library_values() -> int:
    count = 0
    for path in sorted(glob.glob(os.path.join(PKG, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                count += sum(
                    isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                    for stmt in node.body
                )
    return count


def test_settable_library_values():
    assert settable_library_values() == 34


def test_cli_keys():
    assert sum(len(keys) for sections in cli._SCHEMA.values()
               for keys in sections.values()) == 67
