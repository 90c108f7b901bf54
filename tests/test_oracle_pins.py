"""Recorded outputs of the simplicity oracle, compared exactly.

Each sweep case pins the `sweep_rows` rows with the per-row wall time
``ms`` removed; each randomized `is_simple` case pins the verdict dict of
the seeded randomized branch (``max_enumerate=0``), and each exhaustive
case the default verdict dict, whose not-simple verdicts carry the weight
and witness of the first line that fails to generate the module.  The
simple-quotient case pins the heads of the line algebra's regular module
for two seeds.  The recorded values live in
tests/pins/oracle.json.  When an output is meant to change, regenerate the
file with ``PYTHONPATH=src python tests/test_oracle_pins.py`` and review
the diff.
"""

import json
import os
import sys

import pytest

from colorlie.algebra import ColorAlgebra, make_gl
from colorlie.cli import load_spec
from colorlie.envelope import chi_reduce
from colorlie.field import Field
from colorlie.groups import (Bicharacter, GradedGroup, super_bicharacter,
                             trivial_bicharacter)
from colorlie.repmod import (PCharacter, admissible_lambdas, fp_order,
                             is_simple, pchar_zero, simple_quotient,
                             sweep_rows, verma_build)

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins", "oracle.json")
F5 = Field(5)


def _zero(A):
    return chi_reduce(A, pchar_zero(A))


def _gl(F, n):
    return make_gl(trivial_bicharacter(GradedGroup([]), F), {(): n})


def _glmn(m, n):
    _, eps = super_bicharacter(F5)
    return make_gl(eps, {(0,): m, (1,): n})


def _gl21():
    return _glmn(2, 1)


def _anti_gl3():
    """gl(3) graded by Z/2 x Z/2 with anticommuting off-blocks."""
    one, neg = F5.one, F5.neg(F5.one)
    eps = Bicharacter(GradedGroup([2, 2]), F5, [[one, neg], [neg, one]])
    return make_gl(eps, {(0, 0): 1, (1, 0): 1, (0, 1): 1})


def _regss_gl3_f25():
    F = Field(5, 2, [3, 0, 1])
    A = _gl(F, 3)
    chi = PCharacter(A, linear={A.index_of("e_11"): F.from_wire([0, 1]),
                                A.index_of("e_22"): F.from_wire([0, 2])})
    return chi_reduce(A, chi)


def _slice_spec():
    bundle = load_spec(os.path.join(HERE, "specs", "gl3_slice.json"))
    return _zero(bundle["algebra"])


def _sweep_cases():
    """name -> (spec, triple, sweep_rows keywords)."""
    gl3 = _gl(F5, 3)
    regss = _regss_gl3_f25()
    return {
        "gl2_f5": (_zero(_gl(F5, 2)), None, {}),
        "gl21_f5": (_zero(_gl21()), None, {}),
        "gl3_f5_slice": (_slice_spec(), None, {"fix": {2: 0}}),
        "gl3_f25_regss_slice": (regss, None, {"fix": {2: 3}, "seed": 11}),
        "gl3_f5_levi_e12": (_zero(gl3), [gl3.index_of("e_12")], {}),
        "anti_gl3_f5": (_zero(_anti_gl3()), None, {}),
    }


def _sweep(name):
    spec, levi, kw = _sweep_cases()[name]
    trip = fp_order(spec.algebra, levi=levi or ())
    rows = sweep_rows(spec, trip, **kw)
    for row in rows:
        del row["ms"]
    return rows


def _randomized_cases():
    """name -> (spec, weights); every module is induced along the Borel
    triple and judged with max_enumerate=0, samples=5, seed=3."""
    slice_spec = _slice_spec()
    gl21 = _zero(_gl21())
    return {
        "gl3_f5_slice": (slice_spec, [lam for lam in
                                      admissible_lambdas(slice_spec)
                                      if lam[2] == 0][::4]),
        "gl21_f5": (gl21, admissible_lambdas(gl21)[::9]),
        "gl3_f25_regss": (_regss_gl3_f25(),
                          admissible_lambdas(_regss_gl3_f25())[:2]),
    }


def _randomized(name):
    spec, lams = _randomized_cases()[name]
    trip = fp_order(spec.algebra)
    return [is_simple(verma_build(spec, trip, weight=lam, check=False),
                      max_enumerate=0, samples=5, seed=3) for lam in lams]


def _exhaustive_cases():
    """name -> (spec, weights); every module is induced along the Borel
    triple and judged with the default exhaustive enumeration."""
    gl12, gl31, gl22 = (_zero(_glmn(m, n)) for m, n in ((1, 2), (3, 1),
                                                         (2, 2)))
    anti, gl21 = _zero(_anti_gl3()), _zero(_gl21())
    return {
        "anti_gl3_f5": (anti, admissible_lambdas(anti)[::5]),
        "gl21_f5": (gl21, admissible_lambdas(gl21)[::5]),
        "gl12_f5": (gl12, admissible_lambdas(gl12)[::5]),
        "gl31_f5_fixed": (gl31, [lam for lam in admissible_lambdas(gl31)
                                 if lam[:3] == (1, 2, 0)]),
        "gl22_f5_fixed": (gl22, [(1, 2, 0, 0), (1, 2, 0, 2)]),
        "gl22_f5_e11_zero": (gl22, [(0, 0, 0, 0), (0, 0, 1, 2),
                                    (0, 1, 0, 1)]),
    }


def _exhaustive(name):
    spec, lams = _exhaustive_cases()[name]
    trip = fp_order(spec.algebra)
    return [is_simple(verma_build(spec, trip, weight=lam, check=False))
            for lam in lams]


def _simple_quotients():
    """The heads of the line algebra's regular module at chi(x) = 2, for
    seeds 1 and 2, with each letter's action as codes."""
    A = ColorAlgebra(trivial_bicharacter(GradedGroup([]), F5), ["x"], [()],
                     {}, pmap={0: {}})
    spec = chi_reduce(A, PCharacter(A, linear={0: 2}))
    out = []
    for seed in (1, 2):
        q = simple_quotient(spec, seed=seed)
        out.append({"dim": q["dim"], "degrees": [list(d) for d in
                                                 q["degrees"]],
                    "generator": q["generator"],
                    "action": [[i, q["action"][i].to_codes().tolist()]
                               for i in sorted(q["action"])]})
    return out


def _recorded():
    with open(PINS) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(_sweep_cases()))
def test_sweep_rows_pinned(name):
    assert _sweep(name) == _recorded()["sweep_rows"][name]


@pytest.mark.parametrize("name", sorted(_randomized_cases()))
def test_is_simple_randomized_pinned(name):
    got = _randomized(name)
    assert all(v["method"] == "randomized" for v in got)
    assert got == _recorded()["is_simple_randomized"][name]


@pytest.mark.parametrize("name", sorted(_exhaustive_cases()))
def test_is_simple_exhaustive_pinned(name):
    got = _exhaustive(name)
    assert all(v["method"] == "exhaustive" for v in got)
    assert any(not v["simple"] for v in got)
    assert got == _recorded()["is_simple_exhaustive"][name]


def test_simple_quotient_pinned():
    assert _simple_quotients() == _recorded()["simple_quotient"]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(PINS), exist_ok=True)
    data = {"sweep_rows": {n: _sweep(n) for n in sorted(_sweep_cases())},
            "is_simple_randomized": {n: _randomized(n)
                                     for n in sorted(_randomized_cases())},
            "is_simple_exhaustive": {n: _exhaustive(n)
                                     for n in sorted(_exhaustive_cases())},
            "simple_quotient": _simple_quotients()}
    with open(PINS, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stderr.write("wrote %s\n" % PINS)
