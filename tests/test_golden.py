"""Byte-exact command-line outputs, compared against files in tests/golden/.

The sweep CSV is compared as written; the sweep JSON report is compared
with the per-row wall time ``ms`` removed.  When an output is meant to
change, regenerate the files with ``PYTHONPATH=src python
tests/test_golden.py`` and review the diff.
"""

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout

import pytest

from colorlie.cli import cli_main

HERE = os.path.dirname(os.path.abspath(__file__))
SPECS = os.path.join(HERE, "specs")
GOLDEN = os.path.join(HERE, "golden")

# name -> (argv with spec names relative to tests/specs, character file or None)
CASES = {
    "sweep_gl2": (["sweep", "gl2.json", "--chi", "zero"], None),
    "sweep_gl11": (["sweep", "gl11.json", "--chi", "zero"], None),
    "sweep_gl21": (["sweep", "gl21.json", "--chi", "zero"], None),
    "sweep_gl2_f25": (["sweep", "gl2_f25.json"], None),
    "sweep_gl3_slice": (["sweep", "gl3_slice.json"], None),
    "sweep_anti_gl3": (["sweep", "anti_gl3.json", "--chi", "zero"], None),
    "sweep_gl21_f7": (["sweep", "gl21_f7.json", "--chi", "zero"], None),
    "sweep_gl3_levi12": (["sweep", "gl3_levi12.json", "--chi", "zero"], None),
    "sweep_gl21_levi12": (["sweep", "gl21_levi12.json", "--chi", "zero"],
                          None),
    "verma_gl2_f5": (["verma", "gl2.json", "--chi", "zero",
                      "--lambda", "2,0"], None),
    "verma_gl2_f25": (["verma", "gl2_f25.json", "--lambda", "1;3,0;3"], None),
    "verma_gl21": (["verma", "gl21.json", "--chi", "zero", "--lambda", "1,3,0"],
                   None),
    "standardize_gl3": (["standardize", "gl3.json"],
                        {"values": [[0, [3]], [1, [2]], [2, [1]], [3, [1]],
                                    [4, [1]], [5, [2]]]}),
    "standardize_gl2_f25": (["standardize", "gl2_f25.json"],
                            {"values": [[0, [1, 1]], [1, [0, 1]],
                                        [2, [2, 0]]]}),
    "frobenius_borel2": (["frobenius", "borel2.json"], None),
    "frobenius_gl11": (["frobenius", "gl11.json"], None),
    "frobenius_z25_class": (["frobenius", "z25_class.json"], None),
    "frobenius_gl2_f25": (["frobenius", "gl2_f25.json"], None),
}
# the axiom report of every spec
CASES.update(("validate_" + fname[:-5], (["validate", fname], None))
             for fname in sorted(os.listdir(SPECS)) if fname.endswith(".json"))


def render(name, workdir):
    """{golden file name: bytes} produced by one case."""
    argv, chi = CASES[name]
    argv = [argv[0], os.path.join(SPECS, argv[1])] + argv[2:]
    if chi is not None:
        path = os.path.join(workdir, name + ".chi.json")
        with open(path, "w") as fh:
            json.dump(chi, fh)
        argv += ["--chi", path]
    out = {}
    sweep = argv[0] == "sweep"
    if sweep:
        csv_path = os.path.join(workdir, name + ".csv")
        argv += ["--out", csv_path]
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(argv)
    assert rc == 0, (name, rc)
    text = buf.getvalue()
    if sweep:
        report = json.loads(text)
        for row in report["rows"]:
            del row["ms"]
        text = json.dumps(report, indent=2) + "\n"
        with open(csv_path, "rb") as fh:
            out[name + ".csv"] = fh.read()
    out[name + ".json"] = text.encode()
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    for fname, data in render(name, str(tmp_path)).items():
        with open(os.path.join(GOLDEN, fname), "rb") as fh:
            assert data == fh.read(), fname


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            for fname, data in render(case, tmp).items():
                with open(os.path.join(GOLDEN, fname), "wb") as fh:
                    fh.write(data)
                sys.stderr.write("wrote %s\n" % fname)
