"""Recorded induced modules and closed-route values, compared exactly.

Each case induces modules along one triple and pins, per module, a digest
of its nonzero cells (letter, row, column and digits, in their stored
order), weights, color degrees, heights and basis labels; for a line base
it also pins `f_closed` and the (value, reversal) pair of `f_via_hc` at
the weight.  The recorded values live in tests/pins/induction.json.  When
an output is meant to change, regenerate the file with
``PYTHONPATH=src python tests/test_induction_pins.py`` and review the
diff.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from colorlie.algebra import make_gl
from colorlie.cli import load_spec
from colorlie.envelope import chi_reduce
from colorlie.errors import BadWeight
from colorlie.field import Field
from colorlie.groups import (GradedGroup, super_bicharacter,
                             trivial_bicharacter)
from colorlie.linalg import Mat
from colorlie.repmod import (BaseModule, PCharacter, admissible_lambdas,
                             f_closed, f_via_hc, fp_order, pchar_zero,
                             verma_build)

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins", "induction.json")
F5 = Field(5)


def _spec_file(name, zero):
    bundle = load_spec(os.path.join(HERE, "specs", name))
    A = bundle["algebra"]
    chi = pchar_zero(A) if zero else (bundle["character"] or pchar_zero(A))
    return chi_reduce(A, chi)


def _regss_gl3_f25():
    F = Field(5, 2, [3, 0, 1])
    A = make_gl(trivial_bicharacter(GradedGroup([]), F), {(): 3})
    chi = PCharacter(A, linear={A.index_of("e_11"): F.from_wire([0, 1]),
                                A.index_of("e_22"): F.from_wire([0, 2])})
    return chi_reduce(A, chi)


def _natural_base(spec, trip):
    """The 2-dim natural module of the gl(2) Levi block inside gl(3)."""
    A = spec.algebra
    entries = {"e_12": {(0, 1): 1}, "e_21": {(1, 0): 1},
               "e_11": {(0, 0): 1}, "e_22": {(1, 1): 1},
               "e_33": {}, "e_23": {}, "e_13": {}}
    action = {}
    for name, cells in entries.items():
        m = np.zeros((2, 2), dtype=np.int64)
        for (i, j), c in cells.items():
            m[i, j] = c
        action[A.index_of(name)] = Mat.from_codes(F5, m)
    return BaseModule(spec, trip, action, [(1, 0, 0), (0, 1, 0)],
                      [A.group.zero] * 2, [0, 1])


def _cases():
    """name -> (spec, Levi letter names, fixed Cartan values, natural)."""
    _, eps = super_bicharacter(F5)
    gl22 = make_gl(eps, {(0,): 2, (1,): 2})
    return {
        "sweep_gl2": (_spec_file("gl2.json", True), (), {}, False),
        "sweep_gl11": (_spec_file("gl11.json", True), (), {}, False),
        "sweep_gl21": (_spec_file("gl21.json", True), (), {}, False),
        "sweep_gl2_f25": (_spec_file("gl2_f25.json", False), (), {}, False),
        "sweep_gl3_slice": (_spec_file("gl3_slice.json", False), (), {},
                            False),
        "gl3_f25_regss_slice": (_regss_gl3_f25(), (), {2: 3}, False),
        "gl3_f5_levi_e12": (_spec_file("gl3.json", True), ("e_12",), {},
                            False),
        "gl3_f5_levi_e12_natural": (_spec_file("gl3.json", True), ("e_12",),
                                    {}, True),
        "gl22_f5_fixed": (chi_reduce(gl22, pchar_zero(gl22)), (),
                          {0: 1, 1: 2, 2: 0}, False),
    }


def _digest(M):
    letter, row, col, digits = M.cells
    h = hashlib.sha256()
    for arr in (letter, row, col, digits):
        h.update(np.ascontiguousarray(arr, dtype=np.int64).tobytes())
    h.update(json.dumps([[list(w) for w in M.weights],
                         [list(d) for d in M.degrees],
                         [int(x) for x in M.heights],
                         [[list(a), j] for a, j in M.labels]]).encode())
    return {"dim": M.dim, "cells": len(letter), "sha256": h.hexdigest()}


def _outputs(name):
    spec, levi, fix, natural = _cases()[name]
    A = spec.algebra
    trip = fp_order(A, levi=[A.index_of(n) for n in levi])
    if natural:
        M = verma_build(spec, trip, base=_natural_base(spec, trip),
                        check=False)
        return [_digest(M)]
    out = []
    for lam in admissible_lambdas(spec):
        if any(lam[n] != c for n, c in fix.items()):
            continue
        fh, rev = f_via_hc(spec, trip, lam)
        rec = {"lambda": list(lam), "f_closed": f_closed(spec, trip, lam),
               "f_hc": [fh, rev]}
        try:
            rec.update(_digest(verma_build(spec, trip, weight=lam,
                                           check=False)))
        except BadWeight:
            rec["bad_weight"] = True
        out.append(rec)
    return out


def _recorded():
    with open(PINS) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(_cases()))
def test_induction_pinned(name):
    assert _outputs(name) == _recorded()[name]


if __name__ == "__main__":
    data = {n: _outputs(n) for n in sorted(_cases())}
    with open(PINS, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stderr.write("wrote %s\n" % PINS)
