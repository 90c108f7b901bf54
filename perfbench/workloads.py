"""Workload inputs and output checks for the colorlie benchmark.

Each workload turns its seed into a list of jobs.  A job is one `colorlie`
command line over a spec file this module writes, plus what its output must
satisfy.  Nothing here imports colorlie: the field arithmetic needed to pick
admissible weights is done by hand, so the checks stay independent of the
program they check.

F_25 is fixed as F_5[t]/(t^2 - 2).  Frobenius sends t to -t, so the
trace-zero elements are b*t, and lam^5 - lam = (b t)^5 has the five
solutions x + 3b*t, x in F_5.
"""

import json
import os
import random

P = 5
F25_MODULUS = [3, 0, 1]          # t^2 + 3 = t^2 - 2, irreducible over F_5
MINUS_ONE = P - 1
CARTAN = ["e_11", "e_22", "e_33"]

WORKLOADS = ("sweep-gl3-f25-regss", "gram")


def _gl3_f25_regss(bs):
    """gl(3)/F_25 with chi(e_ii) = b_i t; distinct b_i make every root
    functional nonzero on chi, so chi is regular semisimple."""
    return {"field": {"p": P, "k": 2, "modulus": F25_MODULUS},
            "algebra": {"type": "gl", "dims": {"": 3}},
            "character": {"values": [[3 + i, [0, b]]
                                     for i, b in enumerate(bs) if b]}}


def _regss_weight(b, x):
    """The admissible value x + 3b t of a Cartan letter with chi = b t."""
    return [x, (3 * b) % P]


def _pick_regss(rng):
    """chi(e_11), chi(e_22) distinct and nonzero, chi(e_33) = 0, as in the
    gate-5 sweeps; the zero pattern sets the size of the rewrite memo, so it
    stays fixed and the seed moves only the values."""
    return rng.sample(range(1, P), 2) + [0]


def _sweep_job(spec, rows, fixed):
    return {"kind": "sweep", "spec": spec, "argv": ["sweep"],
            "items": rows, "fixed": fixed}


def _gram_job(spec, dim, symmetric):
    return {"kind": "gram", "spec": spec, "argv": ["frobenius"],
            "items": 1, "dim": dim, "symmetric": symmetric}


def _gram_cases():
    """The 625-dimensional reduced algebras of the gl grading grid over
    F_5 (no grading, super, and Z/2 x Z/2 with anticommuting generators)."""
    one, neg = [1], [MINUS_ONE]
    cases = [({}, {"": 2})]
    sup = {"group": {"cyclic_orders": [2]},
           "bicharacter": {"table": [[neg]]}}
    cases += [(sup, {"1": 2}), (sup, {"0": 2})]
    anti = {"group": {"cyclic_orders": [2, 2]},
            "bicharacter": {"table": [[one, neg], [neg, one]]}}
    coords = ["0,0", "1,0", "0,1", "1,1"]
    for i, a in enumerate(coords):
        cases.append((anti, {a: 2}))
        for b in coords[i + 1:]:
            cases.append((anti, {a: 1, b: 1}))
    out = []
    for grading, dims in cases:
        spec = {"field": {"p": P}}
        spec.update(grading)
        spec["algebra"] = {"type": "gl", "dims": dims}
        out.append(spec)
    return out


GRAM_CASES = _gram_cases()


def _gl11_f25():
    return {"field": {"p": P, "k": 2, "modulus": F25_MODULUS},
            "group": {"cyclic_orders": [2]},
            "bicharacter": {"table": [[[MINUS_ONE, 0]]]},
            "algebra": {"type": "gl", "dims": {"0": 1, "1": 1}}}


def _nplus_gl3_f25():
    """n+ of gl(3): [e_12, e_23] = e_13, every p-th power zero."""
    return {"field": {"p": P, "k": 2, "modulus": F25_MODULUS},
            "algebra": {"type": "explicit",
                        "basis": ["e_12", "e_23", "e_13"],
                        "degrees": [[], [], []],
                        "structure": [[0, 1, [[2, [1, 0]]]]],
                        "pmap": [[0, []], [1, []], [2, []]]}}


def build(name, seed):
    """The jobs of one workload pass, from the seed alone."""
    rng = random.Random("%s/%d" % (name, seed))
    if name == "sweep-gl3-f25-regss":
        bs = _pick_regss(rng)
        spec = _gl3_f25_regss(bs)
        h = rng.randrange(3)
        fixed = {CARTAN[h]: _regss_weight(bs[h], rng.randrange(P))}
        spec["sweep"] = {"over": [n for n in CARTAN if n not in fixed],
                         "fix": fixed}
        return [_sweep_job(spec, 25, fixed)]
    if name == "gram":
        return [_gram_job(rng.choice(GRAM_CASES), 625, False),
                _gram_job(_gl11_f25(), 100, False),
                _gram_job(_nplus_gl3_f25(), 125, True)]
    raise KeyError(name)


def write_specs(jobs, workdir):
    """Write each job's spec file and fill in its full argv."""
    for n, job in enumerate(jobs):
        path = os.path.join(workdir, "spec%d.json" % n)
        with open(path, "w") as fh:
            json.dump(job["spec"], fh)
        job["path"] = path
        job["cmd"] = [job["argv"][0], path] + job["argv"][1:]
    return jobs


# -- checks -------------------------------------------------------------------------

def check(job, code, report):
    """Number of the job's items that fail: everything when the command
    failed or its report is malformed, otherwise the rows that break a
    check."""
    if code != 0 or not isinstance(report, dict):
        return job["items"]
    try:
        if job["kind"] == "sweep":
            return _check_sweep(job, report)
        return _check_gram(job, report)
    except (KeyError, TypeError, ValueError, IndexError):
        return job["items"]


def _check_sweep(job, report):
    rows = report["rows"]
    summary = report["summary"]
    if (len(rows) != job["items"] or summary["rows"] != job["items"]
            or summary["disagreements"] != 0):
        return job["items"]
    seen = set()
    bad = 0
    for r in rows:
        lam = tuple(tuple(s) for s in r["lambda"])
        ok = r["agree"] is True and lam not in seen
        seen.add(lam)
        for h, v in job["fixed"].items():
            ok = ok and list(lam[CARTAN.index(h)]) == v
        # chi is regular semisimple: every module is simple
        ok = ok and r["oracle"] == "simple" and any(r["f_closed"])
        bad += not ok
    if summary["simple"] != sum(r["oracle"] == "simple" for r in rows):
        return job["items"]
    return bad


def _check_gram(job, report):
    ok = (report["dimension"] == job["dim"] and report["rank"] == job["dim"]
          and report["nondegenerate"] is True)
    if job["symmetric"]:
        ok = ok and report["color_symmetric"] is True
    return 0 if ok else 1


def self_check():
    """The checks must reject doctored outputs: one `agree: false` row and a
    Gram matrix of rank below its dimension.  Returns a list of problems."""
    problems = []
    sweep = {"kind": "sweep", "items": 2, "fixed": {"e_11": [1]}}
    rows = [{"lambda": [[1], [0], [c]], "f_closed": [c], "f_hc": [c],
             "oracle": "simple", "agree": True}
            for c in (1, 2)]
    good = {"rows": rows, "summary": {"rows": 2, "simple": 2,
                                      "disagreements": 0}}
    if check(sweep, 0, good) != 0:
        problems.append("a clean sweep report fails its check")
    bad = json.loads(json.dumps(good))
    bad["rows"][1]["agree"] = False
    if check(sweep, 0, bad) != 1:
        problems.append("a row with agree: false is not counted as failed")
    bad = json.loads(json.dumps(good))
    bad["rows"][0]["oracle"] = "not-simple"
    bad["summary"]["simple"] = 1
    if check(sweep, 0, bad) != 1:
        problems.append("a not-simple row at regular semisimple chi is not "
                        "counted as failed")
    gram = {"kind": "gram", "items": 1, "dim": 4, "symmetric": True}
    rep = {"dimension": 4, "rank": 4, "nondegenerate": True,
           "color_symmetric": True}
    if check(gram, 0, rep) != 0:
        problems.append("a clean Gram report fails its check")
    if check(gram, 0, dict(rep, rank=3)) != 1:
        problems.append("a rank-deficient Gram matrix is not counted as failed")
    if check(gram, 1, rep) != 1:
        problems.append("a nonzero exit code is not counted as failed")
    return problems
