"""Checks on the library source itself."""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "colorlie")


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
