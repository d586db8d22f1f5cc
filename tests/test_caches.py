"""Pin the caching and import discipline of ``src/tricomilab`` over the source AST.

Every ``functools`` cache is bounded (``lru_cache`` with maxsize <= 4) or a
zero-argument lazy loader (``functools.cache`` on a function of no
arguments), and no module imports a sibling's underscore name.
"""

import ast
import glob
import os

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "tricomilab")


def _modules():
    for path in sorted(glob.glob(os.path.join(PKG, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            yield os.path.basename(path), ast.parse(fh.read())


def _cache_name(dec) -> str | None:
    """'cache' or 'lru_cache' for a functools cache decorator, else None."""
    target = dec.func if isinstance(dec, ast.Call) else dec
    if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) \
            and target.value.id == "functools":
        name = target.attr
    elif isinstance(target, ast.Name):
        name = target.id
    else:
        return None
    return name if name in ("cache", "lru_cache") else None


def _maxsize(dec):
    """The constant maxsize of an lru_cache decorator (128 when left out)."""
    if not isinstance(dec, ast.Call):
        return 128
    args = {kw.arg: kw.value for kw in dec.keywords}
    node = dec.args[0] if dec.args else args.get("maxsize")
    if node is None:
        return 128
    return node.value if isinstance(node, ast.Constant) else "not a constant"


def test_every_cache_is_bounded_or_a_lazy_loader():
    caches = []
    for module, tree in _modules():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                kind = _cache_name(dec)
                if kind is None:
                    continue
                where = f"{module}:{node.name}"
                caches.append(where)
                args = node.args
                n_args = len(args.posonlyargs) + len(args.args) + len(args.kwonlyargs)
                if kind == "cache" or _maxsize(dec) is None:
                    assert n_args == 0 and not args.vararg and not args.kwarg, (
                        f"{where}: an unbounded cache must be a zero-argument loader")
                else:
                    size = _maxsize(dec)
                    assert isinstance(size, int) and size <= 4, f"{where}: maxsize {size}"
    # the guard sees the caches it pins
    assert "testfun.py:_graded_rule" in caches and "specfun.py:_special" in caches


def test_no_module_imports_a_private_sibling_name():
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("tricomilab")):
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, f"{module} imports {private} from {node.module}"
