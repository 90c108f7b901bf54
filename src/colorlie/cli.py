"""JSON spec files in, reports and artifacts out.

A spec file bundles one algebra with everything needed to compute on it::

    {
      "field":       {"p": 5, "k": 1, "modulus": [0, 1]},
      "group":       {"cyclic_orders": []},
      "bicharacter": {"table": [[scalar]]},
      "algebra":     {"type": "gl", "dims": {"": 2}},
      "character":   {"values": [[i, scalar]], "fclasses": []},
      "sweep":       {"over": ["e_11"], "fix": {"e_22": scalar}},
      "options":     {"oracle": true, "seed": 0}
    }

"field" and "algebra" are required; the rest default to the trivial group,
the all-one bicharacter, the zero character, the full weight sweep and
empty options.  A scalar is the little-endian digit list of length k.  gl
"dims" keys are the comma-joined coordinates of a group element ("" for
the trivial group).  An explicit algebra gives the data directly::

    {"type": "explicit", "basis": ["x"], "degrees": [[0]],
     "structure": [[i, j, [[t, scalar]]]], "pmap": [[i, [[t, scalar]]]]}

Unknown keys anywhere in the file are rejected.  Recognized options:
oracle, seed, singular_cutoff, samples, enumerate, levi.

Exit codes: 0 success, 1 a validation or agreement check failed, 2 bad
input, 3 a broken internal invariant (a fault in colorlie, not in the
input).  Errors print one JSON object on stderr carrying the stable machine
code of the exception class.
"""

import argparse
import csv
import json
import sys
from functools import lru_cache

from .algebra import ColorAlgebra, make_gl, standardize_character, validate_algebra
from .envelope import (NormalElement, chi_reduce, frobenius_gram,
                       harish_chandra, uchi_basis)
from .errors import ColorLieError, InvariantError, NotStandard, SpecError
from .field import Field, _require_cells
from .groups import Bicharacter, GradedGroup, trivial_bicharacter
from .repmod import (PCharacter, PowerClass, fp_order, is_simple, pchar_zero,
                     root_datum, sweep_rows, verma_build)

_TOP_KEYS = {"field", "group", "bicharacter", "algebra", "character",
             "sweep", "options"}
_OPTION_KEYS = {"oracle", "seed", "singular_cutoff", "samples", "enumerate",
                "levi"}


# -- spec-file ingestion ----------------------------------------------------------

def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _reject_unknown(section, allowed, where):
    if not isinstance(section, dict):
        raise SpecError("%s must be a JSON object" % where)
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise SpecError("unknown %s key(s): %s" % (where, ", ".join(unknown)))


def _group_key(group, key):
    coords = () if key == "" else tuple(int(x) for x in key.split(","))
    return group.element(coords)


def _terms(F, pairs, where):
    out = {}
    for entry in pairs:
        if len(entry) != 2:
            raise SpecError("%s entries are [index, scalar] pairs" % where)
        i, s = entry
        out[int(i)] = F.from_wire(s)
    return out


def _character(algebra, section):
    _reject_unknown(section, {"values", "fclasses"}, "character")
    F = algebra.F
    linear = _terms(F, section.get("values", []), "character values")
    classes = []
    for fc in section.get("fclasses", []):
        _reject_unknown(fc, {"degree", "xi", "c", "s"}, "fclasses")
        classes.append(PowerClass(algebra.group.element(tuple(fc["degree"])),
                                  int(fc["xi"]),
                                  _terms(F, fc["c"], "class functional"),
                                  int(fc["s"])))
    return PCharacter(algebra, linear=linear, fclasses=classes)


def load_spec(path, strict=True):
    """Parse a spec file into live objects.

    With strict=True (every subcommand except `validate`) a bicharacter or
    explicit-algebra axiom violation is an input error; `validate` loads
    non-strictly and reports the violations itself.
    """
    data = _load_json(path)
    _reject_unknown(data, _TOP_KEYS, "spec file")
    for key in ("field", "algebra"):
        if key not in data:
            raise SpecError("spec file needs a %r section" % key)

    fsec = data["field"]
    _reject_unknown(fsec, {"p", "k", "modulus"}, "field")
    F = Field(int(fsec["p"]), int(fsec.get("k", 1)), fsec.get("modulus"))

    gsec = data.get("group", {"cyclic_orders": []})
    _reject_unknown(gsec, {"cyclic_orders"}, "group")
    G = GradedGroup([int(n) for n in gsec["cyclic_orders"]])

    bsec = data.get("bicharacter")
    if bsec is None:
        eps = trivial_bicharacter(G, F)
    else:
        _reject_unknown(bsec, {"table"}, "bicharacter")
        table = [[F.from_wire(s) for s in row] for row in bsec["table"]]
        eps = Bicharacter(G, F, table)
    if strict:
        report = eps.validate()
        if report:
            raise SpecError("bicharacter axioms fail: %s" % report[0][-1])

    asec = data["algebra"]
    kind = asec.get("type")
    if kind == "gl":
        _reject_unknown(asec, {"type", "dims"}, "algebra")
        dims = {_group_key(G, key): int(mult)
                for key, mult in asec["dims"].items()}
        A = make_gl(eps, dims)
    elif kind == "explicit":
        _reject_unknown(asec, {"type", "basis", "degrees", "structure",
                               "pmap"}, "algebra")
        structure = {}
        for row in asec.get("structure", []):
            i, j, terms = row
            structure[(int(i), int(j))] = _terms(F, terms, "structure")
        pmap = {int(i): _terms(F, terms, "pmap")
                for i, terms in asec.get("pmap", [])}
        A = ColorAlgebra(eps, list(asec["basis"]),
                         [tuple(int(x) for x in d) for d in asec["degrees"]],
                         structure, pmap=pmap)
        if strict:
            report = validate_algebra(A)
            if report:
                raise SpecError("algebra axioms fail: %s" % report[0][-1])
    else:
        raise SpecError("algebra type must be 'gl' or 'explicit', got %r"
                        % kind)

    options = data.get("options", {})
    _reject_unknown(options, _OPTION_KEYS, "options")
    chi = None
    if "character" in data:
        chi = _character(A, data["character"])
    return {"field": F, "group": G, "eps": eps, "algebra": A,
            "character": chi, "sweep": data.get("sweep"), "options": options}


# -- shared plumbing --------------------------------------------------------------

def _resolve_chi(args, bundle):
    A = bundle["algebra"]
    choice = getattr(args, "chi", None)
    if choice == "zero":
        return pchar_zero(A)
    if choice:
        return _character(A, _load_json(choice))
    return bundle["character"] or pchar_zero(A)


def _resolve_seed(args, options):
    if getattr(args, "seed", None) is not None:
        return args.seed
    return int(options.get("seed", 0))


def _resolve_triple(algebra, options):
    levi = [algebra.index_of(n) if isinstance(n, str) else int(n)
            for n in options.get("levi", [])]
    return fp_order(algebra, levi=levi)


def _parse_lambda(F, text, count):
    parts = text.split(",")
    if len(parts) != count:
        raise SpecError("--lambda needs %d comma-separated scalars, got %d"
                        % (count, len(parts)))
    return tuple(F.from_wire([int(x) for x in part.split(";")])
                 for part in parts)


def _emit(obj, out=None):
    text = json.dumps(obj, indent=2) + "\n"
    sys.stdout.write(text)
    if out:
        with open(out, "w") as fh:
            fh.write(text)


def _fail(code, message, **detail):
    err = {"code": code, "message": message}
    if detail:
        err["detail"] = detail
    sys.stderr.write(json.dumps({"error": err}) + "\n")


# -- subcommands ------------------------------------------------------------------

def _cmd_validate(args):
    bundle = load_spec(args.spec, strict=False)
    report = {
        "bicharacter": bundle["eps"].validate(),
        "algebra": validate_algebra(bundle["algebra"]),
    }
    report["ok"] = not report["bicharacter"] and not report["algebra"]
    _emit(report, args.out)
    return 0 if report["ok"] else 1


def _cmd_basis(args):
    bundle = load_spec(args.spec)
    spec = chi_reduce(bundle["algebra"], _resolve_chi(args, bundle))
    count, it = uchi_basis(spec)
    report = {"dim": count, "caps": list(spec.caps)}
    if bundle["options"].get("enumerate"):
        _require_cells(count * spec.algebra.dim, "the monomial listing")
        report["monomials"] = [list(m) for m in it]
    _emit(report, args.out)
    return 0


def _cmd_hc(args):
    bundle = load_spec(args.spec)
    A = bundle["algebra"]
    spec = chi_reduce(A, _resolve_chi(args, bundle))
    terms = _load_json(args.element)
    if not terms:
        raise SpecError("element file holds no terms")
    u = NormalElement.from_wire(A, terms, spec)
    _emit({"element": u.to_wire(), "gamma": harish_chandra(u).to_wire()},
          args.out)
    return 0


def _cmd_frobenius(args):
    bundle = load_spec(args.spec)
    spec = chi_reduce(bundle["algebra"], _resolve_chi(args, bundle))
    rep = frobenius_gram(spec)
    _emit({"dimension": rep["dimension"], "rank": rep["rank"],
           "nondegenerate": rep["nondegenerate"],
           "color_symmetric": rep["color_symmetric"],
           "tau": list(rep["tau"])}, args.out)
    return 0 if rep["nondegenerate"] else 1


def _cmd_fp_order(args):
    bundle = load_spec(args.spec)
    A = bundle["algebra"]
    trip = _resolve_triple(A, bundle["options"])
    _emit({"levi": [[t, A.names[t]] for t in trip.levi],
           "deltas": [[t, A.names[t]] for t in trip.deltas],
           "roots": [list(r) for r in trip.delta_roots()],
           "certificates": trip.certificates}, args.out)
    return 0


def _cmd_standardize(args):
    bundle = load_spec(args.spec)
    A = bundle["algebra"]
    chi = _resolve_chi(args, bundle)
    if chi.fclasses:
        raise NotStandard("standard form reduction works on linear "
                          "characters")
    std = standardize_character(A, [chi.value(i) for i in range(A.dim)])
    _emit({"chi_s": [[i, A.F.to_wire(c)]
                     for i, c in sorted(std.chi_s.items())],
           "chi_n": [[i, A.F.to_wire(c)]
                     for i, c in sorted(std.chi_n.items())],
           "witness_g": std.witness_g.a.tolist()}, args.out)
    return 0


def _cmd_verma(args):
    bundle = load_spec(args.spec)
    A = bundle["algebra"]
    options = bundle["options"]
    spec = chi_reduce(A, _resolve_chi(args, bundle))
    trip = _resolve_triple(A, options)
    if args.lam is None:
        raise SpecError("verma needs --lambda")
    lam = _parse_lambda(A.F, args.lam, len(root_datum(A).cartan))
    M = verma_build(spec, trip, weight=lam)
    verdict = is_simple(M,
                        max_enumerate=int(options.get("singular_cutoff", 3)),
                        samples=int(options.get("samples", 40)),
                        seed=_resolve_seed(args, options))
    _emit({"module": M.to_wire(), "simple": verdict}, args.out)
    return 0


def _sweep_restriction(section, cnames, F):
    """Cartan positions pinned by the spec file's sweep section."""
    if not section:
        return {}
    _reject_unknown(section, {"over", "fix"}, "sweep")
    pos = {n: t for t, n in enumerate(cnames)}
    fix = section.get("fix", {})
    for n in fix:
        if n not in pos:
            raise SpecError("sweep fixes %r, which is not a Cartan letter"
                            % n)
    over = section.get("over")
    if over is not None:
        for n in over:
            if n not in pos:
                raise SpecError("sweep ranges over %r, which is not a "
                                "Cartan letter" % n)
            if n in fix:
                raise SpecError("sweep both ranges over and fixes %r" % n)
        loose = sorted(set(cnames) - set(over) - set(fix))
        if loose:
            raise SpecError("sweep leaves %s neither ranged nor fixed"
                            % ", ".join(loose))
    return {pos[n]: F.from_wire(s) for n, s in fix.items()}


def _write_sweep_csv(path, cnames, rows):
    def scalar(s):
        return ";".join(str(d) for d in s)

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["lambda_%s" % n for n in cnames]
                   + ["f_closed", "f_hc", "oracle", "agree"])
        for r in rows:
            w.writerow([scalar(s) for s in r["lambda"]]
                       + [scalar(r["f_closed"]), scalar(r["f_hc"]),
                          r["oracle"] or "",
                          "true" if r["agree"] else "false"])


def _cmd_sweep(args):
    bundle = load_spec(args.spec)
    A = bundle["algebra"]
    F = A.F
    options = bundle["options"]
    spec = chi_reduce(A, _resolve_chi(args, bundle))
    trip = _resolve_triple(A, options)
    cnames = [A.names[h] for h in root_datum(A).cartan]
    fixed = _sweep_restriction(bundle["sweep"], cnames, F)
    oracle = args.oracle
    if oracle is None:
        oracle = bool(options.get("oracle", True))
    rows = sweep_rows(spec, trip, oracle=oracle,
                      max_enumerate=int(options.get("singular_cutoff", 3)),
                      samples=int(options.get("samples", 40)),
                      seed=_resolve_seed(args, options), fix=fixed)
    rows = [{"lambda": [F.to_wire(c) for c in r["lambda"]],
             "f_closed": F.to_wire(r["f_closed"]),
             "f_hc": F.to_wire(r["f_hc"]), "oracle": r["oracle"],
             "agree": r["agree"], "ms": r["ms"]} for r in rows]
    disagreements = sum(not r["agree"] for r in rows)
    simple = sum(r["oracle"] == "simple" for r in rows) if oracle else None
    report = {"rows": rows,
              "summary": {"rows": len(rows), "simple": simple,
                          "disagreements": disagreements}}
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    if args.out:
        _write_sweep_csv(args.out, cnames, rows)
    return 1 if disagreements else 0


# -- entry point ------------------------------------------------------------------

# built once per process: parsing leaves the parser unchanged, and the
# tree costs a few milliseconds to build
@lru_cache(maxsize=None)
def _build_parser():
    ap = argparse.ArgumentParser(
        prog="colorlie",
        description="Exact computations with restricted Lie color algebras "
                    "over finite fields.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help, chi=False):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("spec", help="path to the JSON spec file")
        sp.add_argument("--out", help="also write the artifact here")
        if chi:
            sp.add_argument("--chi", metavar="FILE|zero",
                            help="character file, or 'zero'")
        sp.set_defaults(func=fn)
        return sp

    add("validate", _cmd_validate, "bicharacter + algebra axiom report")
    add("basis", _cmd_basis, "reduced-quotient dimension and caps", chi=True)
    hc = add("hc", _cmd_hc, "Cartan read-off of a normal-form element",
             chi=True)
    hc.add_argument("element", help="JSON file: [[exponents, scalar], ...]")
    add("frobenius", _cmd_frobenius,
        "Gram rank / color symmetry of the top-coefficient pairing",
        chi=True)
    add("fp-order", _cmd_fp_order,
        "induction ordering of the non-Levi positive roots")
    add("standardize", _cmd_standardize,
        "conjugate a degree-zero character to standard form", chi=True)
    verma = add("verma", _cmd_verma,
                "induced module dump plus simplicity verdict", chi=True)
    verma.add_argument("--lambda", dest="lam", metavar="SCALARS",
                       help="highest weight: comma-separated scalars in "
                            "Cartan order, digits joined by ';'")
    verma.add_argument("--seed", type=int, default=None,
                       help="seed for the randomized singular-line fallback")
    sweep = add("sweep", _cmd_sweep,
                "per-weight simplicity table (CSV artifact + JSON report)",
                chi=True)
    sweep.add_argument("--oracle", action=argparse.BooleanOptionalAction,
                       default=None,
                       help="run the brute-force verdict per row")
    sweep.add_argument("--seed", type=int, default=None,
                       help="seed for the randomized singular-line fallback")
    return ap


def cli_main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvariantError as exc:
        _fail(exc.code, str(exc), **exc.detail)
        return 3
    except ColorLieError as exc:
        _fail(exc.code, str(exc), **exc.detail)
        return 2
    except FileNotFoundError as exc:
        _fail("missing_file", str(exc))
        return 2
    except json.JSONDecodeError as exc:
        _fail("bad_json", str(exc))
        return 2
    except (KeyError, TypeError, ValueError) as exc:
        _fail("bad_input", "%s: %s" % (type(exc).__name__, exc))
        return 2


def main():
    raise SystemExit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
