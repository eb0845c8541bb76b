"""Print the answers of the mdca command line, one line per run.

For each input (every catalog entry by default, or the catalog NAMEs and
instance file PATHs given) and for its emitted sh_lie_rinehart and mdca
files, runs mdca check, roundtrip and cohomology at --W 2, 3 and 5 in
process (mdca.cli.main).  An input the parser refuses, or quasi data
that fails its own validation, is answered alone, as the command line
never converts it; an input whose tables do not descend has no mdca
file.
Each run prints one line: the input, the verb and W, then a JSON object
with the exit code, stdout without its elapsed: line, stderr, and the
--json report without timing_seconds.  The output holds no timing, so
two source trees answer alike exactly when their outputs are equal.

Run from the repository root:
  PYTHONPATH=src python3 tools/answers.py [NAME | PATH ...]
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from mdca import cli
from mdca.forms import Refusal
from mdca.instances import catalog_entry, catalog_names
from mdca.io_json import InstanceError, emit_instance, parse_instance_text
from mdca.structures import build_maurer_cartan

VERBS = ("check", "roundtrip", "cohomology")
WS = (2, 3, 5)


def instance_texts(name):
    """(label, text) of the input and its sh and mdca emissions: an
    instance file where name is a path to one, else the catalog entry.
    The input comes alone where the parser refuses it or where it is quasi
    data that fails its own validation (cli.validation_residuals); the
    mdca tables are built at the input's own policy, and left out where
    the input does not descend to them."""
    if os.path.isfile(name):
        with open(name, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = emit_instance(*catalog_entry(name))
    try:
        inst = parse_instance_text(text)
    except InstanceError:
        return [(name, text)]
    if cli.validation_residuals(inst):
        return [(name, text)]
    policy = inst.policy
    sh = cli.extracted(inst, policy)[0]
    texts = [(name, text), (name + ".sh", emit_instance(sh, policy))]
    try:
        m = build_maurer_cartan(sh, policy)
    except Refusal:
        return texts
    return texts + [(name + ".mdca", emit_instance(m, policy))]


def answer(path, verb, W, report_path):
    """The answer of one run, as a JSON-ready dict without timings."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([verb, path, "--W", str(W), "--json", report_path])
    report = None
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(report_path)
        report.pop("timing_seconds", None)
    stdout = "".join(line for line in out.getvalue().splitlines(True)
                     if not line.startswith("elapsed:"))
    return {"exit": code, "stdout": stdout, "stderr": err.getvalue(),
            "report": report}


def main(argv=None):
    names = (sys.argv[1:] if argv is None else argv) or catalog_names()
    with tempfile.TemporaryDirectory() as tmp:
        report_path = os.path.join(tmp, "report.json")
        for name in names:
            for label, text in instance_texts(name):
                path = os.path.join(tmp, os.path.basename(label) + ".json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                for verb in VERBS:
                    for W in WS:
                        print("%s %s W=%d\t%s" % (
                            label, verb, W, json.dumps(
                                answer(path, verb, W, report_path),
                                sort_keys=True)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
