"""Checks on the library source itself."""

import ast
import glob
import importlib
import importlib.util
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src", "colorlie")


def test_no_assert_statements():
    # `python -O` strips asserts: a broken invariant must raise
    # InvariantError instead
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_interpreter_state_setters():
    # library code leaves interpreter-global state alone: no
    # sys.setrecursionlimit or other sys.set* call, also not through an
    # alias or a from-import; deep rewriting chains run on explicit stacks
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        names = {a.asname or "sys" for node in ast.walk(tree)
                 if isinstance(node, ast.Import)
                 for a in node.names if a.name == "sys"}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("set")
                    and isinstance(node.value, ast.Name)
                    and node.value.id in names):
                found.append("%s:%d" % (os.path.basename(path), node.lineno))
            if isinstance(node, ast.ImportFrom) and node.module == "sys":
                found += ["%s:%d" % (os.path.basename(path), node.lineno)
                          for a in node.names if a.name.startswith("set")]
    assert found == []


def _builds_too_large(node):
    return isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "TooLarge"
        or getattr(node.func, "attr", None) == "TooLarge")


def test_one_cell_budget():
    # every size refusal is raised by field._require_cells against the one
    # cell budget, and no dimension cut-off is left beside it
    raised, allowed, knobs = set(), set(), []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        name = os.path.basename(path)
        with open(path) as fh:
            text = fh.read()
        if "max_dim" in text:
            knobs.append(name)
        tree = ast.parse(text, path)
        for node in ast.walk(tree):
            where = {"%s:%d:%d" % (name, n.lineno, n.col_offset)
                     for n in ast.walk(node) if _builds_too_large(n)}
            raised |= where
            if (isinstance(node, ast.FunctionDef) and name == "field.py"
                    and node.name == "_require_cells"):
                allowed |= where
    assert len(allowed) == 1
    assert sorted(raised - allowed) == []
    assert knobs == []


def _is_last_axis(node):
    return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
            and node.operand.value == 1)


def test_no_any_over_the_digit_axis():
    # numpy reduces the short trailing digit axis slowly: field's
    # nonzero_digits ORs the digit planes instead
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "any"
                  and any(kw.arg == "axis" and _is_last_axis(kw.value)
                          for kw in node.keywords)]
    assert found == []


def test_benchmark_tracer_layers_resolve():
    # Tracer.install() looks every layer up by name, so renaming one of
    # these functions would break every traced benchmark run
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for layer, (mod, name, _before, _after) in tracer.LAYERS.items():
        obj = importlib.import_module("colorlie." + mod)
        for attr in name.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(layer)
    assert missing == []


_CLI_IMPORTS = """
import sys
from colorlie.cli import cli_main
code = cli_main(sys.argv[1:])
print(code, "numpy.ma" in sys.modules)
"""


def test_sweep_does_not_import_numpy_ma():
    # numpy.ma costs every fresh interpreter some 17 ms and 1.2 MB;
    # np.unique pulls it in lazily (numpy 2.4), so the oracle and the
    # Frobenius Gram matrix avoid it
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    spec = os.path.join(ROOT, "tests", "specs", "gl2.json")
    for argv in (["sweep", spec, "--chi", "zero"], ["frobenius", spec]):
        out = subprocess.run([sys.executable, "-c", _CLI_IMPORTS] + argv,
                             env=env, capture_output=True, text=True,
                             check=True).stdout
        assert out.splitlines()[-1] == "0 False", argv[0]


# numpy functions that import numpy.ma on their first call (numpy 2.4)
_MA_IMPORTERS = {"unique", "setdiff1d", "intersect1d", "union1d",
                 "percentile", "quantile"}


def test_no_numpy_ma_importers():
    found = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        found += ["%s:%d" % (os.path.basename(path), node.lineno)
                  for node in ast.walk(tree)
                  if (isinstance(node, ast.Attribute)
                      and node.attr in _MA_IMPORTERS)
                  or (isinstance(node, ast.ImportFrom)
                      and (node.module or "").startswith("numpy")
                      and any(a.name in _MA_IMPORTERS for a in node.names))]
    assert found == []
