"""End-to-end runs of the command-line surface against shipped spec files."""

import json
import os
import subprocess
import sys

import colorlie
from colorlie import repmod
from colorlie.cli import _build_parser, cli_main, load_spec
from colorlie.envelope import chi_reduce
from colorlie.repmod import module_from_wire, pchar_zero

SPECS = os.path.join(os.path.dirname(__file__), "specs")


def spec(name):
    return os.path.join(SPECS, name)


def run(capsys, *argv):
    rc = cli_main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_validate_gl2(capsys):
    rc, out, _ = run(capsys, "validate", spec("gl2.json"))
    assert rc == 0
    report = json.loads(out)
    assert report == {"bicharacter": [], "algebra": [], "ok": True}


def test_validate_reports_violations(capsys, tmp_path):
    # y -> [x,y] = x is not restricted with x^[5] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "field": {"p": 5},
        "algebra": {"type": "explicit", "basis": ["x", "y"],
                    "degrees": [[], []],
                    "structure": [[0, 1, [[0, [1]]]]],
                    "pmap": [[0, []], [1, []]]},
    }))
    rc, out, _ = run(capsys, "validate", str(bad))
    assert rc == 1
    assert not json.loads(out)["ok"]
    rc, _, err = run(capsys, "basis", str(bad))
    assert rc == 2
    assert json.loads(err)["error"]["code"] == "spec_error"


def test_basis_counts(capsys):
    for name, dim in (("gl2.json", 625), ("gl11.json", 100),
                      ("z25_class.json", 25)):
        rc, out, _ = run(capsys, "basis", spec(name))
        assert rc == 0
        assert json.loads(out)["dim"] == dim


def test_basis_enumeration_guard(capsys, tmp_path):
    listing = tmp_path / "line.json"
    data = json.load(open(spec("line.json")))
    data["options"] = {"enumerate": True}
    listing.write_text(json.dumps(data))
    rc, out, _ = run(capsys, "basis", str(listing))
    assert rc == 0
    assert json.loads(out)["monomials"] == [[a] for a in range(5)]
    # gl(4)/F_5 has 5^16 monomials of 16 exponents each: refused
    gl4 = tmp_path / "gl4.json"
    gl4.write_text(json.dumps({"field": {"p": 5},
                               "algebra": {"type": "gl", "dims": {"": 4}},
                               "options": {"enumerate": True}}))
    rc, _, err = run(capsys, "basis", str(gl4))
    assert rc == 2
    assert json.loads(err)["error"]["code"] == "too_large"


def test_sweep_gl2_example(capsys, tmp_path):
    csv1 = tmp_path / "a.csv"
    rc, out, _ = run(capsys, "sweep", spec("gl2.json"), "--chi", "zero",
                     "--out", str(csv1))
    assert rc == 0
    report = json.loads(out)
    assert report["summary"] == {"rows": 5, "simple": 1, "disagreements": 0}
    assert all(r["agree"] for r in report["rows"])
    simple = [r for r in report["rows"] if r["oracle"] == "simple"]
    assert [r["lambda"] for r in simple] == [[[4], [0]]]
    want = ("lambda_e_11,lambda_e_22,f_closed,f_hc,oracle,agree\n"
            "0,0,0,0,not-simple,true\n"
            "1,0,0,0,not-simple,true\n"
            "2,0,0,0,not-simple,true\n"
            "3,0,0,0,not-simple,true\n"
            "4,0,4,1,simple,true\n")
    assert csv1.read_bytes() == want.encode()
    csv2 = tmp_path / "b.csv"
    rc, _, _ = run(capsys, "sweep", spec("gl2.json"), "--chi", "zero",
                   "--out", str(csv2))
    assert rc == 0
    assert csv2.read_bytes() == csv1.read_bytes()


def test_sweep_without_oracle(capsys, tmp_path):
    out_csv = tmp_path / "no_oracle.csv"
    rc, out, _ = run(capsys, "sweep", spec("gl2.json"), "--chi", "zero",
                     "--no-oracle", "--out", str(out_csv))
    assert rc == 0
    report = json.loads(out)
    assert report["summary"]["simple"] is None
    assert all(r["oracle"] is None for r in report["rows"])
    assert ",,true" in out_csv.read_text()


def test_sweep_full_gl11(capsys):
    rc, out, _ = run(capsys, "sweep", spec("gl11.json"), "--chi", "zero")
    assert rc == 0
    report = json.loads(out)
    assert report["summary"] == {"rows": 25, "simple": 20,
                                 "disagreements": 0}


def test_sweep_without_raising_letters(capsys, tmp_path):
    # gl(1) has no root letters: every singular space is the whole line
    gl1 = tmp_path / "gl1.json"
    gl1.write_text(json.dumps({"field": {"p": 5},
                               "algebra": {"type": "gl", "dims": {"": 1}}}))
    rc, out, _ = run(capsys, "sweep", str(gl1))
    assert rc == 0
    report = json.loads(out)
    assert report["summary"] == {"rows": 5, "simple": 5, "disagreements": 0}
    assert all(r["oracle"] == "simple" and r["agree"]
               for r in report["rows"])


def test_verma_round_trip(capsys, tmp_path):
    artifact = tmp_path / "m.json"
    rc, out, _ = run(capsys, "verma", spec("gl2.json"), "--chi", "zero",
                     "--lambda", "2,0", "--out", str(artifact))
    assert rc == 0
    report = json.loads(out)
    assert report == json.loads(artifact.read_text())
    assert report["module"]["dim"] == 5
    assert not report["simple"]["simple"]
    bundle = load_spec(spec("gl2.json"))
    rspec = chi_reduce(bundle["algebra"], pchar_zero(bundle["algebra"]))
    back = module_from_wire(rspec, report["module"])
    assert back.to_wire() == report["module"]


def test_hc_cartan_monomial(capsys, tmp_path):
    # e_11 e_22 is already a Cartan monomial, so gamma echoes it
    element = tmp_path / "el.json"
    element.write_text(json.dumps([[[0, 1, 1, 0], [1]]]))
    rc, out, _ = run(capsys, "hc", spec("gl2.json"), str(element))
    assert rc == 0
    report = json.loads(out)
    assert report["gamma"] == [[[0, 1, 1, 0], [1]]]


def test_fp_order_gl3(capsys):
    rc, out, _ = run(capsys, "fp-order", spec("gl3.json"))
    assert rc == 0
    report = json.loads(out)
    assert [name for _, name in report["deltas"]] == ["e_12", "e_13", "e_23"]
    assert report["certificates"]["final_positive_system"]


def test_fp_order_levi_option(capsys, tmp_path):
    parabolic = tmp_path / "para.json"
    data = json.load(open(spec("gl3.json")))
    data["options"] = {"levi": ["e_12"]}
    parabolic.write_text(json.dumps(data))
    rc, out, _ = run(capsys, "fp-order", str(parabolic))
    assert rc == 0
    report = json.loads(out)
    assert [name for _, name in report["levi"]] == ["e_12"]
    assert [name for _, name in report["deltas"]] == ["e_23", "e_13"]


def test_sweep_levi_option(capsys, tmp_path):
    # only the 25 weights whose line base extends to the parabolic of
    # e_12 make rows; the other 100 are left out, not reported as errors
    parabolic = tmp_path / "para.json"
    data = json.load(open(spec("gl3.json")))
    data["options"] = {"levi": ["e_12"]}
    parabolic.write_text(json.dumps(data))
    rc, out, _ = run(capsys, "sweep", str(parabolic), "--chi", "zero")
    assert rc == 0
    report = json.loads(out)
    assert report["summary"]["rows"] == 25
    assert report["summary"]["disagreements"] == 0
    assert all(r["lambda"][0] == r["lambda"][1] for r in report["rows"])


def test_standardize(capsys, tmp_path):
    chi = tmp_path / "chi.json"
    chi.write_text(json.dumps({"values": [[1, [2]]]}))
    rc, out, _ = run(capsys, "standardize", spec("gl2.json"),
                     "--chi", str(chi))
    assert rc == 0
    report = json.loads(out)
    assert len(report["chi_s"]) == 1
    assert report["chi_s"][0][1] == [2]
    assert report["chi_n"] == []


def test_frobenius(capsys):
    rc, out, _ = run(capsys, "frobenius", spec("gl11.json"))
    assert rc == 0
    report = json.loads(out)
    assert report["dimension"] == report["rank"] == 100
    assert report["nondegenerate"] and report["color_symmetric"]


def test_parser_built_once_and_reused(capsys):
    assert _build_parser() is _build_parser()
    helps = [run(capsys, *argv) for argv in (["--help"], ["sweep", "--help"])]
    assert all(rc == 0 and out for rc, out, _ in helps)
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "basis", spec("gl2.json"), "--bogus")[0] == 2
    rc, out, _ = run(capsys, "basis", spec("gl2.json"), "--chi", "zero")
    assert rc == 0 and json.loads(out)["dim"] == 625
    assert [run(capsys, *argv) for argv in (["--help"], ["sweep", "--help"])
            ] == helps


def test_input_errors(capsys, tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"field": {"p": 5},
                                 "algebra": {"type": "gl", "dims": {"": 2}},
                                 "extra": 1}))
    rc, _, err = run(capsys, "validate", str(bogus))
    assert rc == 2
    assert json.loads(err)["error"]["code"] == "spec_error"

    rc, _, err = run(capsys, "verma", spec("gl2.json"))
    assert rc == 2
    assert json.loads(err)["error"]["code"] == "spec_error"

    rc, _, err = run(capsys, "basis", str(tmp_path / "nope.json"))
    assert rc == 2
    assert json.loads(err)["error"]["code"] == "missing_file"

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    rc, _, err = run(capsys, "basis", str(broken))
    assert rc == 2
    assert json.loads(err)["error"]["code"] == "bad_json"

    rc, _, _ = run(capsys, "no-such-command", spec("gl2.json"))
    assert rc == 2


def test_broken_invariant_exits_3(capsys, monkeypatch):
    # the two extreme lowering products of gl(2) are proportional; make
    # the comparison fail as a fault in the program would
    monkeypatch.setattr(repmod, "_proportional", lambda F, t1, t2: None)
    rc, _, err = run(capsys, "sweep", spec("gl2.json"), "--chi", "zero",
                     "--no-oracle")
    assert rc == 3
    assert json.loads(err)["error"]["code"] == "invariant_error"


def test_cell_budget_guard(capsys, tmp_path):
    # gl(5)/F_5 induces 5^10-dim modules: refused before the plan is built
    gl5 = tmp_path / "gl5.json"
    gl5.write_text(json.dumps({"field": {"p": 5},
                               "algebra": {"type": "gl", "dims": {"": 5}}}))
    rc, _, err = run(capsys, "verma", str(gl5), "--chi", "zero",
                     "--lambda", "1,2,3,4,0")
    assert rc == 2
    error = json.loads(err)["error"]
    assert error["code"] == "too_large"
    assert error["detail"]["cells"] > error["detail"]["cutoff"]


def test_sweep_restriction_errors(capsys, tmp_path):
    for sweep in ({"fix": {"e_99": [0]}},
                  {"over": ["e_11"], "fix": {"e_11": [0]}},
                  {"over": ["e_11"]}):
        bad = tmp_path / "sweep.json"
        data = json.load(open(spec("gl2.json")))
        data["sweep"] = sweep
        bad.write_text(json.dumps(data))
        rc, _, err = run(capsys, "sweep", str(bad), "--chi", "zero",
                         "--no-oracle")
        assert rc == 2
        assert json.loads(err)["error"]["code"] == "spec_error"


def test_module_entry_point_runs_without_runpy_warning():
    # the package must not import colorlie.cli, or runpy warns that the
    # module is already loaded before `python -m colorlie.cli` executes it
    src = os.path.dirname(os.path.dirname(os.path.abspath(colorlie.__file__)))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "colorlie.cli",
         "--help"], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
