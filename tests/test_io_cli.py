"""Wire format and command line driver tests.

Covers canonical emit/parse identity over the whole catalog, its sh and
mdca files and every table of the format, parse error loci, exit codes
of every verb, and the pinned machine-derived quasi instance.
"""

import argparse
import functools
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from mdca import cli, forms, structures
from mdca.algebra import AlgebraSpec, exterior_algebra, rational_algebra
from mdca.coalgebra import ModuleSpec, TruncationPolicy
from mdca.graded import GradedBasis, LinearMap
from mdca.instances import (QUASI_PARAMS, build_quasi_sample,
                             catalog_entry, catalog_names)
from mdca.io_json import (InstanceError, emit_instance, parse_instance_text,
                          q_to_str, str_to_q)
from mdca.structures import (LieRinehartData, QuasiLieRinehartData,
                             build_maurer_cartan, check_sh_lie_rinehart,
                             quasi_to_sh)
from operator_reference import (quasi_model_disagreements,
                                reference_jacobi_defect,
                                reference_leibniz_defect)


# ------------------------------------------------------------- rationals

def test_rational_strings_round_trip():
    from fractions import Fraction as Q
    for s in ("0", "7", "-3", "1/2", "-22/7"):
        assert q_to_str(str_to_q(s, "here")) == s
    assert q_to_str(Q(4, 6)) == "2/3"


@pytest.mark.parametrize("bad", ["1/0", "2/4", "1.5", "", "+3", "03",
                                 "1/-2", 3, None, [1]])
def test_malformed_rationals_are_rejected(bad):
    with pytest.raises(InstanceError) as e:
        str_to_q(bad, "structure.bracket[0]")
    assert "structure.bracket[0]" in str(e.value)


# ------------------------------------------------- emit / parse identity

def dg_lie_rinehart():
    """A Lie-Rinehart pair over an algebra with a differential (the data
    of test_forms.dg_anchor), so that algebra.diff has a row."""
    A0 = exterior_algebra([("t", 1)])
    A = AlgebraSpec(A0.basis, "1", A0.mult,
                    LinearMap(A0.basis, A0.basis, -1,
                              {("1", "t"): Fraction(1)}))
    M = ModuleSpec(A, GradedBasis([("u", 0)]))
    L = ModuleSpec(A, GradedBasis([("u", 0)]),
                   LinearMap(M.l_basis, M.l_basis, -1,
                             {("1|u", "t|u"): Fraction(1)}))
    op = LinearMap(A.basis, A.basis, 0, {("t", "t"): Fraction(1)})
    return LieRinehartData(L, {}, {"1|u": op}), TruncationPolicy(4)


def quasi_draw():
    """quasi_sample with nonzero anchor weights, so that pairing has
    rows (quasi_sample's weights are zero)."""
    preset, _, dmat, cs = QUASI_PARAMS
    return (build_quasi_sample(preset, {"x": 1, "y": -2, "z": 1}, dmat, cs),
            TruncationPolicy(4))


WIRE_SOURCES = {name: functools.partial(catalog_entry, name)
                for name in catalog_names()}
WIRE_SOURCES.update(dg_lie_rinehart=dg_lie_rinehart, quasi_draw=quasi_draw)

# a source as given, and its sh and mdca files; the anchor of
# dg_lie_rinehart is not module-linear, so its tables do not descend and
# it has no mdca file
WIRE_CASES = [source + form for source in WIRE_SOURCES
              for form in ("", ".sh", ".mdca")
              if source + form != "dg_lie_rinehart.mdca"]

WIRE_TABLES = ("algebra.mult", "algebra.diff", "module.diff",
               "structure.bracket", "structure.anchor",
               "structure.coderivations", "structure.twisting",
               "structure.bracketQ", "structure.pairing", "structure.triple",
               "structure.constants", "structure.duals")


@functools.lru_cache(maxsize=None)
def wire_text(case):
    """The emitted file of a case of WIRE_CASES: a source as given, or
    its sh or mdca form (the mdca tables built at the source's policy)."""
    source, _, form = case.partition(".")
    data, policy = WIRE_SOURCES[source]()
    text = emit_instance(data, policy)
    if not form:
        return text
    sh = cli.extracted(parse_instance_text(text), policy)[0]
    if form == "mdca":
        sh = build_maurer_cartan(sh, policy)
    return emit_instance(sh, policy)


def row_count(table):
    """The rows of a table, summed over its levels and generators."""
    if isinstance(table, dict):
        return sum(row_count(t) for t in table.values())
    return len(table)


@pytest.mark.parametrize("name", WIRE_CASES)
def test_emit_parse_identity(name):
    text = wire_text(name)
    inst = parse_instance_text(text)
    assert emit_instance(inst.data, inst.policy) == text


def test_the_identity_cases_give_rows_to_every_wire_table():
    filled = set()
    for case in WIRE_CASES:
        doc = json.loads(wire_text(case))
        for table in WIRE_TABLES:
            section, key = table.split(".")
            if row_count(doc[section].get(key, [])):
                filled.add(table)
    assert sorted(filled) == sorted(WIRE_TABLES)


def test_parsed_kinds():
    kinds = {
        "sl2": "lie_rinehart",
        "exterior_pair": "sh_lie_rinehart",
        "quasi_sample": "quasi",
    }
    for name, kind in kinds.items():
        data, policy = catalog_entry(name)
        assert parse_instance_text(emit_instance(data, policy)).kind == kind


def test_policy_window_round_trips_in_file_degrees():
    data, _ = catalog_entry("sl2")
    text = emit_instance(data, TruncationPolicy(3, (-3, 0)))
    inst = parse_instance_text(text)
    assert inst.policy.W == 3
    assert inst.policy.degree_window == (-3, 0)
    assert json.loads(text)["policy"]["degree_window"] == [0, 3]


# ----------------------------------------------------- parse error loci

def add_row(source, section, key, row):
    """The emitted file of a source with one row appended to a table;
    row is a list, or an index of the table's row to repeat."""
    doc = json.loads(wire_text(source))
    rows = doc[section][key]
    rows.append(list(rows[row]) if isinstance(row, int) else row)
    return doc, "%s.%s[%d]" % (section, key, len(rows) - 1)


@pytest.mark.parametrize("source, section, key, row, fragment", [
    ("abelian", "algebra", "mult", ["1", "1", "1"], "expected 4 fields"),
    ("quasi_sample", "module", "diff", ["th|x", "1"], "expected 3 fields"),
    ("truncated_poly", "algebra", "mult", 1, "duplicate entry for 'x'"),
    ("quasi_sample", "module", "diff", 0,
     "duplicate entry for ('th|x', '1|x')"),
    ("dg_lie_rinehart", "algebra", "diff", 0,
     "duplicate entry for ('1', 't')"),
    ("truncated_poly", "structure", "anchor", 0,
     "duplicate entry for ('x', 'x')"),
    ("quasi_sample", "structure", "triple", 0,
     "duplicate entry for ('1', 'th')"),
])
def test_malformed_rows_name_their_row(source, section, key, row, fragment,
                                       tmp_path, capsys):
    doc, locus = add_row(source, section, key, row)
    for code, out in run_verbs(doc, tmp_path, capsys):
        assert code == 2
        assert "%s: %s" % (locus, fragment) in out.err


def test_an_operator_of_two_degrees_names_its_label(tmp_path, capsys):
    doc, _ = add_row("quasi_draw", "structure", "pairing",
                     ["1|x", "th", "1", "1"])
    for code, out in run_verbs(doc, tmp_path, capsys):
        assert code == 2
        assert ("structure.pairing: operator at '1|x' is not degree "
                "homogeneous") in out.err


@pytest.mark.parametrize("source, locus, edit", [
    ("abelian", "module.generators[0]",
     lambda doc: doc["module"]["generators"][0].update(degree=True)),
    ("abelian", "algebra.generators[0]",
     lambda doc: doc["algebra"]["generators"][0].update(degree=False)),
    ("heisenberg", "policy.degree_window",
     lambda doc: doc["policy"].update(degree_window=[False, True])),
    ("heisenberg", "policy.W", lambda doc: doc["policy"].update(W=True)),
])
def test_json_booleans_are_not_integers(source, locus, edit, tmp_path,
                                        capsys):
    # Python counts bool as int: a degree true was read as 1, and a
    # window [false, true] gave Betti numbers for file degrees 0 and 1
    doc = json.loads(wire_text(source))
    edit(doc)
    for code, out in run_verbs(doc, tmp_path, capsys):
        assert code == 2
        assert locus + ":" in out.err


def first_rows(table):
    """(document, holder, key, locus) of the first WIRE_CASES file that
    gives the table rows: holder[key] is the list of rows, of the first
    level and generator where the table has them."""
    section, key = table.split(".")
    for case in WIRE_CASES:
        doc = json.loads(wire_text(case))
        if row_count(doc[section].get(key, [])):
            holder, locus = doc[section], table
            # levels are written [j], the generators within a level .name
            for form in ("[%s]", ".%s"):
                if isinstance(holder[key], dict):
                    holder, key = holder[key], min(holder[key])
                    locus += form % key
            return doc, holder, key, locus
    raise AssertionError("no case gives rows to %s" % table)


# the sections read whole (io_json._need), and the word their type takes
NEED_SECTIONS = {"algebra.generators": "a list", "module.generators": "a list",
                 "structure.coderivations": "an object",
                 "structure.twisting": "an object",
                 "structure.constants": "an object",
                 "structure.duals": "an object"}


@pytest.mark.parametrize("table", ("policy",) + WIRE_TABLES + tuple(
    "section:" + locus for locus in NEED_SECTIONS))
def test_a_present_section_must_have_its_type(table, tmp_path, capsys):
    # a policy given as false, 0, "" or [] was the default policy, a
    # table given as null, false or 0 an empty one, each with exit 0, and
    # a whole section of another type named its Python type
    if table == "policy":
        doc = json.loads(wire_text("heisenberg"))
        holder, key, locus, want = doc, "policy", "policy", "an object"
    elif table.startswith("section:"):
        locus = table.partition(":")[2]
        section, key = locus.split(".")
        doc = next(doc for doc in map(json.loads, map(wire_text, WIRE_CASES))
                   if key in doc[section])
        holder, want = doc[section], NEED_SECTIONS[locus]
    else:
        doc, holder, key, locus = first_rows(table)
        want = "a list"
    other = {"an object": [], "a list": {}}[want]
    for value in [None, False, 0, "", other]:
        holder[key] = value
        for code, out in run_verbs(doc, tmp_path, capsys):
            assert code == 2
            assert "error: %s: expected %s\n" % (locus, want) in out.err


def sl2_doc():
    data, policy = catalog_entry("sl2")
    return json.loads(emit_instance(data, policy))


def expect_error(doc, fragment):
    with pytest.raises(InstanceError) as e:
        parse_instance_text(json.dumps(doc))
    assert fragment in str(e.value)


def test_missing_unit():
    doc = sl2_doc()
    del doc["algebra"]["unit"]
    expect_error(doc, "unit required")


def test_duplicate_generator_label():
    doc = sl2_doc()
    doc["module"]["generators"].append(
        dict(doc["module"]["generators"][0]))
    expect_error(doc, "module.generators[3]")


def test_diff_degree_mismatch():
    doc = sl2_doc()
    doc["module"]["diff"] = [["1|e", "1|f", "1"]]
    expect_error(doc, "module.diff[0]")


def test_unknown_structure_kind():
    doc = sl2_doc()
    doc["structure"]["kind"] = "poisson"
    expect_error(doc, "unsupported kind")


def test_unknown_bracket_label():
    doc = sl2_doc()
    doc["structure"]["bracket"][0][0] = "1|nope"
    expect_error(doc, "unknown label")


def test_malformed_json_text():
    with pytest.raises(InstanceError) as e:
        parse_instance_text("{not json")
    assert "malformed JSON" in str(e.value)


def test_broken_algebra_invariant():
    doc = sl2_doc()
    # drop associativity/unit law by corrupting the unit row
    doc["algebra"]["mult"] = [["1", "1", "1", "2"]]
    expect_error(doc, "algebra")


def test_a_differential_that_breaks_leibniz_is_refused(tmp_path, capsys):
    # d(1) = q: d(1 1) = q, but d(1) 1 + 1 d(1) = 2 q
    data, policy = catalog_entry("exterior_pair")
    doc = json.loads(emit_instance(data, policy))
    doc["algebra"]["diff"] = [["q", "1", "1"]]
    path = tmp_path / "bad_diff.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: algebra: invariant 'Leibniz rule of diff' fails at "
        "('1', '1')\n")


# --------------------------------------------------------------- the CLI

def test_check_passes_on_valid_instances(capsys):
    for name in ("abelian", "heisenberg", "sl2", "truncated_poly",
                 "quasi_sample"):
        assert cli.main(["check", "catalog:" + name]) == 0
        assert "verdict: pass" in capsys.readouterr().out


def test_check_fails_on_jacobi_violator(capsys):
    assert cli.main(["check", "catalog:jacobi_violator"]) == 1
    out = capsys.readouterr().out
    assert "verdict: fail" in out


def test_roundtrip_verb(capsys):
    assert cli.main(["roundtrip", "catalog:sl2"]) == 0
    assert cli.main(["roundtrip", "catalog:quasi_sample"]) == 0
    capsys.readouterr()


def test_cohomology_sl2_betti(capsys, tmp_path):
    out_file = tmp_path / "betti.json"
    assert cli.main(["cohomology", "catalog:sl2", "--window", "0..3",
                     "--W", "4", "--json", str(out_file)]) == 0
    capsys.readouterr()
    report = json.loads(out_file.read_text())
    ranks = {k: v["rank"] for k, v in report["betti"].items()}
    assert ranks == {"0": 1, "1": 0, "2": 0, "3": 1}


def test_file_paths_work(tmp_path, capsys):
    data, policy = catalog_entry("sl2")
    p = tmp_path / "sl2.json"
    p.write_text(emit_instance(data, policy))
    assert cli.main(["check", str(p)]) == 0
    capsys.readouterr()


def test_usage_errors_exit_2(capsys, tmp_path, monkeypatch):
    assert cli.main(["check", "catalog:no_such_entry"]) == 2
    assert cli.main(["check", "no/such/file.json"]) == 2
    assert cli.main(["check", "catalog:sl2", "--kind", "quasi"]) == 2
    assert cli.main(["cohomology", "catalog:sl2", "--window", "3..0"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["check", str(bad)]) == 2
    capsys.readouterr()


def unreadable_input(kind, tmp_path):
    """The argument list of a run whose input or report path cannot be
    read or written, each made in tmp_path."""
    if kind == "directory":
        return ["check", str(tmp_path)]
    if kind == "json report into a directory":
        return ["check", "catalog:sl2", "--json", str(tmp_path)]
    p = tmp_path / "bad.json"
    if kind == "not UTF-8":
        p.write_bytes(b"\xff\xfe{}")
    else:
        p.write_text("[" * 200000 + "]" * 200000)
    return ["check", str(p)]


@pytest.mark.parametrize("kind", ["directory", "not UTF-8", "nested deeply",
                                  "json report into a directory"])
def test_unreadable_input_exits_2(kind, tmp_path, capsys):
    # each was a traceback with the exit code 1 of a failing identity
    assert cli.main(unreadable_input(kind, tmp_path)) == 2
    assert capsys.readouterr().err.startswith("error:")


def run_with_stdout_closed(argv):
    """(exit code, stderr) of the command line in a subprocess whose
    reader closes its standard output at once."""
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.path.join(here, os.pardir, "src"))
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from mdca.cli import main; sys.exit(main())"] + argv,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    return proc.wait(), err


@pytest.mark.parametrize("argv, code", [
    (["cohomology", "catalog:sl2", "--W", "3"], 0),
    (["check", "catalog:jacobi_violator"], 1),
    (["catalog", "emit", "quasi_sample"], 0)])
def test_a_closed_stdout_keeps_the_verdict_and_writes_no_error(argv, code):
    # a reader that stops early (mdca ... | head) is no unusable input
    assert run_with_stdout_closed(argv) == (code, "")


def test_unreadable_input_exits_2_with_stdout_closed(tmp_path):
    code, err = run_with_stdout_closed(["check", str(tmp_path)])
    assert code == 2 and err.startswith("error:")


def test_a_second_call_of_main_builds_no_parser(monkeypatch, capsys):
    # the parser is built once per process, so a second call builds none
    assert cli.main(["catalog", "list"]) == 0
    counts = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: counts.append(1)
                        or init(self, *a, **k))
    assert cli.main(["check", "catalog:sl2", "--W", "2"]) == 0
    assert counts == []
    capsys.readouterr()


def test_a_cold_start_that_only_loads_builds_no_parser():
    # the cold start of every call (import, then cli.load) stays free of
    # parser construction: a parser built at import would add to it
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.path.join(here, os.pardir, "src"))
    probe = ("import argparse\n"
             "counts = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "argparse.ArgumentParser.__init__ = (lambda self, *a, **k:\n"
             "    counts.append(1) or init(self, *a, **k))\n"
             "import mdca.cli\n"
             "mdca.cli.load('catalog:sl2', 'auto')\n"
             "print(len(counts))\n")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "0\n"


def test_catalog_verbs(capsys):
    assert cli.main(["catalog", "list"]) == 0
    names = capsys.readouterr().out.split()
    assert set(names) == set(catalog_names())
    assert cli.main(["catalog", "emit", "sl2"]) == 0
    text = capsys.readouterr().out
    assert parse_instance_text(text).kind == "lie_rinehart"
    assert cli.main(["catalog", "emit"]) == 2
    capsys.readouterr()


# ----------------------------------------- pinned machine-derived quasi

def test_quasi_sample_is_valid():
    q, policy = catalog_entry("quasi_sample")
    assert q.validation_report() == []
    assert check_sh_lie_rinehart(quasi_to_sh(q), policy) == []


def test_quasi_sample_has_content():
    q, _ = catalog_entry("quasi_sample")
    assert q.bracket and q.triple
    assert not q.L.diff_l.is_zero()


def test_quasi_sample_representations_agree():
    q, policy = catalog_entry("quasi_sample")
    m = build_maurer_cartan(quasi_to_sh(q), policy)
    assert quasi_model_disagreements(q, m, policy.W) == []
    assert set(m.levels()) >= {0, 1, 2}
    # quasi structures have no differentials beyond the third level
    for j in m.levels():
        if j > 2:
            for tab in (m.on_constants[j], m.on_duals[j]):
                assert all(not f.values for f in tab.values())


def test_quasi_sample_defect_identity_holds():
    # the bracket alone violates Jacobi; minus the differentiated ternary
    # bracket compensates exactly
    q, _ = catalog_entry("quasi_sample")
    assert reference_jacobi_defect(q) == []


def test_negative_window_spellings_agree(capsys):
    # exterior_pair has negative file degrees; argparse would read a bare
    # "-2..3" as an option
    outs = []
    for argv in (["--window", "-2..3"], ["--window=-2..3"],
                 ["--win", "-2..3"]):
        code = cli.main(["cohomology", "catalog:exterior_pair", "--W", "3"]
                        + argv)
        outs.append((code, [line for line in
                            capsys.readouterr().out.splitlines()
                            if not line.startswith("elapsed:")]))
    assert outs[0] == outs[1] == outs[2]
    assert outs[0][0] == 0
    assert "betti:" in outs[0][1]


def test_roundtrip_states_what_it_certifies(capsys, tmp_path):
    # jacobi_violator fails check, yet its tables round trip exactly:
    # the report must say that the identities were not certified here
    out_file = tmp_path / "rt.json"
    assert cli.main(["roundtrip", "catalog:jacobi_violator",
                     "--json", str(out_file)]) == 0
    text = capsys.readouterr().out
    assert ("certifies: build/extract/rebuild agreement only; the "
            "identities are certified by mdca check") in text.splitlines()
    report = json.loads(out_file.read_text())
    assert report["certifies"] == cli.ROUNDTRIP_SCOPE
    assert cli.main(["check", "catalog:jacobi_violator"]) == 1
    assert "certifies" not in capsys.readouterr().out


def test_tuple_keys_stay_distinct_and_recoverable():
    # labels may contain ".", so joined keys could collide: ("q.r", "q")
    # and ("q", "r.q") both joined to "q.r.q"
    keys = {("q.r", "q"): Fraction(1), ("q", "r.q"): Fraction(2)}
    rows = cli.jsonable(keys)
    assert rows == [[["q", "r.q"], "2"], [["q.r", "q"], "1"]]
    assert {tuple(k): v for k, v in rows} == {k: cli.jsonable(v)
                                              for k, v in keys.items()}
    # string keys stay as they are
    assert cli.jsonable({"q.r": {"1|u": Fraction(1, 2)}}) == \
        {"q.r": {"1|u": "1/2"}}


# ------------------------------------------------- emitted mdca instances

def emitted_mdca(name):
    inst = parse_instance_text(emit_instance(*catalog_entry(name)))
    m = build_maurer_cartan(cli.extracted(inst, inst.policy)[0], inst.policy)
    return json.loads(emit_instance(m, inst.policy))


# exit codes of check, roundtrip and cohomology: only jacobi_violator
# breaks an identity, and its tables still round trip
MDCA_EXITS = {name: (1, 0, 1) if name == "jacobi_violator" else (0, 0, 0)
              for name in catalog_names()}


@pytest.mark.parametrize("name", catalog_names())
def test_emitted_mdca_files_run_every_verb(name, tmp_path, capsys):
    # tables that are empty at some level (sl2 has no constant terms)
    # must still get the degree of D_j, which is -1 at every level
    p = tmp_path / "m.json"
    p.write_text(json.dumps(emitted_mdca(name)))
    exits = tuple(cli.main([verb, str(p)])
                  for verb in ("check", "roundtrip", "cohomology"))
    assert exits == MDCA_EXITS[name]
    # the file holds the levels 0..3.  The tables are compared at every
    # level of the file and every level below W, and a level the file
    # lacks counts as zero tables, which is what the extracted data
    # rebuilds at level 4
    for W in ("2", "3", "5"):
        assert cli.main(["roundtrip", str(p), "--W", W]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("name, rows, fragment", [
    # in file degrees, D_1 of the dual 1-form of e has degree 2, not 1
    ("e", [[["1|e"], "1", "1"]], "form of degree 1, expected 2"),
    ("w", [], "unknown generator 'w'"),
    # the degree checks read zero rows too
    ("e", [[["1|e"], "1", "0"]],
     "structure.duals[1].e: form of degree 1, expected 2"),
    ("e", [[["1|h", "1|e"], "1", "2"]], "structure.duals[1].e: form "
     "table keyed by a non-canonical word ('1|h', '1|e')"),
])
def test_bad_mdca_table_exits_2(name, rows, fragment, tmp_path, capsys):
    doc = emitted_mdca("sl2")
    doc["structure"]["duals"]["1"][name] = rows
    expect_error(doc, fragment)
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["check", str(p)]) == 2
    assert "structure.duals[1]" in capsys.readouterr().err


def test_mdca_parse_drops_zero_coefficients_and_vanishing_words():
    # 1|e is odd in the suspension, so the word 1|e 1|e vanishes
    doc = emitted_mdca("sl2")
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    tables = doc["structure"]["duals"]["1"]
    tables["h"].append([["1|e", "1|h"], "1", "0"])
    tables["e"].append([["1|e", "1|e"], "1", "5"])
    inst = parse_instance_text(json.dumps(doc))
    assert emit_instance(inst.data, inst.policy) == text


def test_roundtrip_builds_once(monkeypatch, capsys):
    # roundtrip of non-mdca input builds the tables, extracts the data
    # back and compares it with the input; nothing rebuilds the tables
    calls = []

    def counting(sh, policy):
        calls.append(policy.W)
        return build_maurer_cartan(sh, policy)

    monkeypatch.setattr(cli, "build_maurer_cartan", counting)
    assert cli.main(["roundtrip", "catalog:exterior_pair"]) == 0
    assert calls == [4]
    capsys.readouterr()


def roundtrip_residuals(capsys, *argv):
    code = cli.main(["roundtrip", *argv])
    out = capsys.readouterr().out
    body = out[out.index("residuals:") + len("residuals:"):
               out.index("elapsed:")]
    return code, json.loads(body)


def test_roundtrip_names_the_level_and_word_of_a_difference(monkeypatch,
                                                           capsys):
    # an extraction that moves two entries of quasi_sample's level-2
    # corestriction is caught at the first of them in sorted order: its
    # level and word as witness, the extracted entry minus the given one
    # as value
    real = cli.extract_structure

    def moving(m):
        back = real(m)
        level = back.partial.cor[2]
        words = sorted(level)
        for w in (words[-1], words[0]):
            level[w][min(level[w])] += 1
        return back

    monkeypatch.setattr(cli, "extract_structure", moving)
    code, residuals = roundtrip_residuals(capsys, "catalog:quasi_sample")
    assert code == 1
    given = quasi_to_sh(catalog_entry("quasi_sample")[0]).partial.cor[2]
    word = min(given)
    assert residuals == [{"route": "roundtrip",
                          "axiom": "coderivation tables",
                          "witness": [2, list(word)],
                          "value": {min(given[word]): "1"}}]


def test_first_difference_subtracts_only_the_first_pair_that_differs(
        monkeypatch):
    calls = []
    real = cli.vec_sub

    def counting(u, v):
        calls.append((u, v))
        return real(u, v)

    monkeypatch.setattr(cli, "vec_sub", counting)
    one = Fraction(1)
    got = {1: {("a",): {"x": one}, ("b",): {"x": one}},
           2: {("c",): {"y": one}}}
    want = {1: {("a",): {"x": one}, ("b",): {"x": 2 * one}}}
    assert cli.first_difference(got, want) == (1, ("b",), {"x": -one})
    assert calls == [({"x": one}, {"x": 2 * one})]
    assert cli.first_difference(got, got) is None
    assert len(calls) == 1
    # an absent word counts as zero
    assert cli.first_difference(got, {}) == (1, ("a",), {"x": one})


@pytest.mark.parametrize("W", ["2", "3", "4", "5"])
def test_each_format_of_quasi_sample_gets_the_same_verdict(W, tmp_path,
                                                           capsys):
    # quasi_sample has a level-2 bracket and anchor; roundtrip builds the
    # levels of the structure as well as those below W, so the quasi
    # data, its sh emission and its mdca emission pass check and
    # roundtrip alike at every W
    data, policy = catalog_entry("quasi_sample")
    texts = {"quasi": emit_instance(data, policy),
             "sh": emit_instance(quasi_to_sh(data), policy),
             "mdca": json.dumps(emitted_mdca("quasi_sample"))}
    exits = {}
    for label, text in texts.items():
        p = tmp_path / (label + ".json")
        p.write_text(text)
        exits[label] = tuple(cli.main([verb, str(p), "--W", W])
                             for verb in ("check", "roundtrip"))
    capsys.readouterr()
    assert exits == {label: (0, 0) for label in texts}


def test_elapsed_time_does_not_follow_the_wall_clock(monkeypatch, capsys,
                                                    tmp_path):
    # the wall clock may jump back while a verb runs; the elapsed time of
    # the report is measured on a monotonic clock
    jumps = itertools.count(0.0, -1000.0)
    monkeypatch.setattr(cli.time, "time", lambda: next(jumps))
    out = tmp_path / "r.json"
    assert cli.main(["check", "catalog:sl2", "--json", str(out)]) == 0
    capsys.readouterr()
    assert 0 <= json.loads(out.read_text())["timing_seconds"] < 1000


def test_each_verb_computes_each_table_once(monkeypatch, tmp_path, capsys):
    # exterior_pair has 6 cup generators, 4 constants and 2 dual 1-forms.
    # roundtrip at W = 5 builds D_j of each at the levels 0..4 (30 calls)
    # and extraction reads the anchor operator on the dual 1-forms at the
    # levels 1..4 (8); a rebuild of the tables would add 30 more.  check
    # of the mdca file at W = 4 reads the anchor operator (6) and
    # rebuilds the tables to compare them with the file's (24); the
    # descent check of the operator route reads the same reports, kept
    # with the level table, and computes nothing
    p = tmp_path / "m.json"
    p.write_text(json.dumps(emitted_mdca("exterior_pair")))
    calls = []
    real = forms.build_D

    def counting(f, partial, t, j):
        calls.append(j)
        return real(f, partial, t, j)

    for module in (forms, structures):
        monkeypatch.setattr(module, "build_D", counting)
    assert cli.main(["roundtrip", "catalog:exterior_pair", "--W", "5"]) == 0
    assert len(calls) == 38
    calls.clear()
    assert cli.main(["check", str(p), "--W", "4"]) == 0
    assert len(calls) == 30
    capsys.readouterr()


def quasi_sample_without(level, tmp_path):
    """The emitted mdca file of quasi_sample with one level dropped from
    both sides."""
    doc = emitted_mdca("quasi_sample")
    for side in ("constants", "duals"):
        del doc["structure"][side][level]
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    return str(p)


def printed_residuals(out):
    return json.loads(out[out.index("residuals:") + len("residuals:"):
                          out.index("elapsed:")])


@pytest.mark.parametrize("W", ["2", "3", "4", "5"])
def test_an_absent_level_counts_as_zero_tables(W, tmp_path, capsys):
    # quasi_sample has a module differential, so D_0 is not zero; a file
    # without level 0 says it is, and every verb reports the level-0
    # table of the extracted data that differs from zero
    p = quasi_sample_without("0", tmp_path)
    for verb in ("check", "roundtrip", "cohomology"):
        assert cli.main([verb, p, "--W", W]) == 1
        first = printed_residuals(capsys.readouterr().out)[0]
        assert first["axiom"] == "table consistency"
        assert first["route"] == "extract"
        assert first["witness"]["witness"][0] == 0


@pytest.mark.parametrize("side, name, row", [
    # degree 2, as the table's row on 1|u, but a word of length 2 in a
    # level-1 constants table, whose anchor rows have length 1
    ("constants", "q", [["q.r|u", "1|u"], "1", "1"]),
    # a word of length 1 in a level-1 dual table, whose corestriction
    # rows have length 2
    ("duals", "u", [["1|u"], "q", "1"]),
])
def test_extraction_ignores_rows_on_words_of_another_length(
        side, name, row, tmp_path, capsys):
    # extraction reads the level-j anchor off the words of length j and
    # the level-j corestriction off the words of length j + 1, so the
    # extracted data rebuilds the table without the added row, and that
    # row is the one difference
    doc = emitted_mdca("exterior_pair")
    doc["structure"][side]["1"][name].append(row)
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    flag = {"constants": "constants", "duals": "dual"}[side]
    for verb in ("check", "roundtrip"):
        assert cli.main([verb, str(p)]) == 1
        assert printed_residuals(capsys.readouterr().out) == [{
            "route": "extract", "axiom": "table consistency",
            "witness": {"flag": "%s table not reproduced" % flag,
                        "witness": [1, name]},
            "value": [[row[0], {row[1]: row[2]}]]}]


def test_consistent_tables_of_failing_data_round_trip(tmp_path, capsys):
    # without level 2 the tables still agree with the data extracted from
    # them: that data has no level 2 either, so it rebuilds zero tables
    # there.  But the data breaks the identities from level 2 on.
    # roundtrip certifies only the agreement (its certifies line), so it
    # passes while check fails, as on jacobi_violator (MDCA_EXITS)
    p = quasi_sample_without("2", tmp_path)
    for W in ("2", "3", "4", "5"):
        assert cli.main(["roundtrip", p, "--W", W]) == 0
    for W in ("3", "4", "5"):
        assert cli.main(["check", p, "--W", W]) == 1
        assert "table consistency" not in capsys.readouterr().out


def run_verbs(doc, tmp_path, capsys):
    """Exit codes of check, roundtrip and cohomology on a document, with
    the output of each."""
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(doc))
    out = []
    for verb in ("check", "roundtrip", "cohomology"):
        code = cli.main([verb, str(p)])
        out.append((code, capsys.readouterr()))
    return out


@pytest.mark.parametrize("name, side, level, gen, fragment", [
    ("sl2", "duals", "1", "e", "missing table for generator 'e'"),
    ("sl2", "duals", "3", None, "missing level"),
    ("exterior_pair", "constants", "1", None, "missing level"),
    ("exterior_pair", "constants", "1", "q.r",
     "missing table for generator 'q.r'"),
])
def test_mdca_file_with_missing_tables_exits_2(name, side, level, gen,
                                               fragment, tmp_path, capsys):
    # without the table, extraction died with a KeyError or skipped the
    # missing constants and passed
    doc = emitted_mdca(name)
    tabs = doc["structure"][side]
    if gen is None:
        del tabs[level]
    else:
        del tabs[level][gen]
    expect_error(doc, fragment)
    for code, out in run_verbs(doc, tmp_path, capsys):
        assert code == 2
        assert "structure.%s[%s]" % (side, level) in out.err
        assert fragment in out.err


@pytest.mark.parametrize("section, row, locus", [
    ("pairing", ["1|nope", "th", "th", "1"], "structure.pairing["),
    ("bracketQ", ["1|x", "1|nope", "1|x", "1"], "structure.bracketQ["),
    ("triple", ["nope", "x", "1", "th", "5"], "structure.triple["),
])
def test_quasi_rows_naming_unknown_labels_exit_2(section, row, locus,
                                                 tmp_path, capsys):
    # an unknown induced label (pairing, bracketQ) or module generator
    # (triple) is unusable input for every verb, named at its row
    doc = json.loads(emit_instance(*catalog_entry("quasi_sample")))
    doc["structure"][section].append(row)
    for code, out in run_verbs(doc, tmp_path, capsys):
        assert code == 2
        assert locus in out.err and "nope" in out.err


@pytest.mark.parametrize("section, row, fragment", [
    ("twisting", 5, "expected 4 fields"),
    # a word written as a string was split into its characters
    ("twisting", ["1|u", "x", "x", "1"], "expected a word list"),
    # a label that is a list was looked up in a dict: TypeError, exit 1
    ("twisting", [["1|u"], ["x"], "x", "1"], "unknown label ['x']"),
    ("coderivations", [["1|u"], ["1|u"], "1"], "unknown label ['1|u']"),
])
def test_sh_rows_of_the_wrong_shape_exit_2(section, row, fragment, tmp_path,
                                           capsys):
    data, policy = catalog_entry("truncated_poly")
    doc = json.loads(emit_instance(data.as_sh(), policy))
    rows = doc["structure"][section]["1"]
    rows.append(row)
    locus = "structure.%s[1][%d]" % (section, len(rows) - 1)
    for code, out in run_verbs(doc, tmp_path, capsys):
        assert code == 2
        assert "%s: %s" % (locus, fragment) in out.err


def sh_doc(name):
    """The emitted sh file of a Lie-Rinehart or sh catalog entry."""
    data, policy = catalog_entry(name)
    if isinstance(data, LieRinehartData):
        data = data.as_sh()
    return json.loads(emit_instance(data, policy))


@pytest.mark.parametrize("name", ["jacobi_violator", "sl2"])
def test_non_canonical_corestriction_keys_exit_2(name, tmp_path, capsys):
    # each corestriction word written in reverse was stored as written
    # and never read: jacobi_violator passed check, and sl2 had Betti
    # numbers 1, 3, 3, 1 at W = 3
    doc = sh_doc(name)
    rows = doc["structure"]["coderivations"]["1"]
    for row in rows:
        row[0].reverse()
    fragment = ("structure.coderivations[1][0]: corestriction keyed by a "
                "non-canonical word %r" % (tuple(rows[0][0]),))
    expect_error(doc, fragment)
    for code, out in run_verbs(doc, tmp_path, capsys):
        assert code == 2
        assert fragment in out.err


# rows of exterior_pair: the algebra has q, r in file degree 1 and the
# generators u, v file degree -1, so 1|u and r|u differ in degree
@pytest.mark.parametrize("section, level, row, fragment", [
    ("coderivations", "0", None, "structure.coderivations[0]: levels "
     "start at 1"),
    ("twisting", "0", None, "structure.twisting[0]: levels start at 1"),
    ("coderivations", "2", [["1|u", "1|v"], "1|u", "1"],
     "structure.coderivations[2][{n}]: corestriction on a word of length "
     "2, expected 3"),
    ("twisting", "1", [["1|u", "1|v"], "1", "q.r", "1"],
     "structure.twisting[1][{n}]: anchor on a word of length 2, expected "
     "1"),
    ("coderivations", "1", [["q.r|u", "1|u"], "1|u", "1"],
     "structure.coderivations[1][{n}]: corestriction of degree 0, "
     "expected 1"),
    ("twisting", "1", [["1|u"], "q", "q", "1"],
     "structure.twisting[1][{n}]: anchor of degree 2, expected 1"),
])
def test_sh_rows_that_break_the_table_contract_exit_2(
        section, level, row, fragment, tmp_path, capsys):
    # a level 0 or a word of the wrong length was an exit 2 naming only
    # the structure, a wrong degree the structure or nothing
    doc = sh_doc("exterior_pair")
    rows = doc["structure"][section].setdefault(level, [])
    if row is not None:
        rows.append(row)
    fragment = fragment.format(n=len(rows) - 1)
    expect_error(doc, fragment)
    for code, out in run_verbs(doc, tmp_path, capsys):
        assert code == 2
        assert fragment in out.err


@pytest.mark.parametrize("section, row, fragment", [
    ("bracket", ["q|u", "q|v", "1|u", "1"],
     "structure.bracket[0]: bracket of degree -1, expected 0"),
    ("anchor", ["1|u", "q", "q", "1"],
     "structure.anchor[0]: anchor of degree 2, expected 1"),
])
def test_lie_rinehart_rows_of_the_wrong_degree_exit_2(section, row, fragment,
                                                      tmp_path, capsys):
    # exterior_pair's algebra and module as plain Lie-Rinehart data: the
    # bracket has degree 0, and the anchor value on 1|u (of suspended
    # degree 2) is an operator of degree 1
    doc = sh_doc("exterior_pair")
    doc["structure"] = {"anchor": [], "bracket": [], "kind": "lie_rinehart"}
    doc["structure"][section].append(row)
    expect_error(doc, fragment)
    for code, out in run_verbs(doc, tmp_path, capsys):
        assert code == 2
        assert fragment in out.err


@pytest.mark.parametrize("row, key", [
    (["1|f", "1|e", "1|h", "1"], "('1|f', '1|e')"),
    (["1|e", "1|e", "1|h", "1"], "('1|e', '1|e')"),
    (["1|f", "1|e", "1|h", "0"], "('1|f', '1|e')"),
])
def test_lie_rinehart_brackets_that_are_not_antisymmetric_exit_2(
        row, key, tmp_path, capsys):
    # [f, e] = h beside [e, f] = h was an exit 2 naming only the
    # structure; [e, e] = h was dropped with its vanishing suspended word,
    # and [f, e] = 0 with its zero coefficient, and every verb passed
    doc = json.loads(emit_instance(*catalog_entry("sl2")))
    doc["structure"]["bracket"].append(row)
    fragment = ("structure.bracket[3]: bracket not graded antisymmetric "
                "at " + key)
    expect_error(doc, fragment)
    for code, out in run_verbs(doc, tmp_path, capsys):
        assert code == 2
        assert fragment in out.err


def test_both_orders_of_an_antisymmetric_bracket_are_accepted(tmp_path,
                                                              capsys):
    # [f, e] = -h agrees with [e, f] = h, and [e, e] = 0 is a zero row
    doc = json.loads(emit_instance(*catalog_entry("sl2")))
    doc["structure"]["bracket"] += [["1|f", "1|e", "1|h", "-1"],
                                    ["1|e", "1|e", "1|h", "0"]]
    assert [code for code, _ in run_verbs(doc, tmp_path, capsys)] == \
        [0, 0, 0]


def test_a_quasi_self_bracket_of_an_even_element_fails_validation(
        tmp_path, capsys):
    # the skewness check skipped self-brackets, so [x, x] = y was dropped
    # with its vanishing suspended word and every verb passed
    doc = json.loads(emit_instance(*catalog_entry("quasi_sample")))
    doc["structure"]["bracketQ"].append(["1|x", "1|x", "1|y", "1"])
    runs = run_verbs(doc, tmp_path, capsys)
    assert [code for code, _ in runs] == [1, 1, 1]
    for _, out in runs:
        assert printed_residuals(out.out) == [
            {"route": "quasi validation", "axiom": "bracket skewness",
             "witness": ["1|x", "1|x"], "value": None}]


def test_a_zero_quasi_row_for_the_reverse_order_fails_validation(
        tmp_path, capsys):
    # [y, x] = 0 beside [x, y] = x: the zero row is a given order of the
    # pair, so the skewness check compares it and does not drop it
    doc = json.loads(emit_instance(*catalog_entry("quasi_sample")))
    doc["structure"]["bracketQ"].append(["1|y", "1|x", "1|x", "0"])
    runs = run_verbs(doc, tmp_path, capsys)
    assert [code for code, _ in runs] == [1, 1, 1]
    for _, out in runs:
        assert printed_residuals(out.out) == [
            {"route": "quasi validation", "axiom": "bracket skewness",
             "witness": w, "value": None}
            for w in (["1|x", "1|y"], ["1|y", "1|x"])]


def test_sh_parse_drops_zero_coefficients_and_vanishing_words():
    # 1|u is odd in the suspension, so the word 1|u 1|u vanishes; a
    # twisting value with only zero entries is a zero operator
    doc = sh_doc("truncated_poly")
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    cor = doc["structure"]["coderivations"]["1"]
    cor.append([["1|u", "1|v"], "x|v", "0"])
    cor.append([["1|u", "1|u"], "1|u", "5"])
    cor.append([["x^2|v", "x|v"], "x|u", "0"])
    twisting = doc["structure"]["twisting"]["1"]
    twisting.append([["1|u"], "1", "x", "0"])
    twisting.append([["x^2|v"], "x", "x", "0"])
    inst = parse_instance_text(json.dumps(doc))
    assert emit_instance(inst.data, inst.policy) == text


@pytest.mark.parametrize("key", ["01", "\u00b2"])
@pytest.mark.parametrize("section", ["coderivations", "twisting",
                                     "constants", "duals"])
def test_non_canonical_level_keys_exit_2(section, key, tmp_path, capsys):
    # "01" named level 1 and replaced it: with "01": [] added to its
    # coderivations, jacobi_violator passed; "\u00b2" died in int()
    if section in ("constants", "duals"):
        doc = emitted_mdca("jacobi_violator")
        doc["structure"][section][key] = {}
    else:
        data, policy = catalog_entry("jacobi_violator")
        doc = json.loads(emit_instance(data.as_sh(), policy))
        doc["structure"][section][key] = []
    expect_error(doc, "level key %r is not a canonical decimal integer"
                 % key)
    for code, out in run_verbs(doc, tmp_path, capsys):
        assert code == 2
        assert "structure.%s[%s]" % (section, key) in out.err


def test_a_key_written_twice_exits_2(tmp_path, capsys):
    # a second "1" after the first replaced it: jacobi_violator passed
    data, policy = catalog_entry("jacobi_violator")
    text = emit_instance(data.as_sh(), policy)
    end = text.rindex("}", 0, text.index('"kind": "sh_lie_rinehart"'))
    p = tmp_path / "twice.json"
    p.write_text(text[:end] + ', "1": []' + text[end:])
    for verb in ("check", "roundtrip", "cohomology"):
        assert cli.main([verb, str(p)]) == 2
        assert "duplicate key '1'" in capsys.readouterr().err


def test_invalid_quasi_data_fails_every_verb_alike(tmp_path, capsys):
    # a degree 0 triple: every verb reports the quasi validation residual
    # with exit 1, before the conversion to homotopy data can refuse it
    doc = json.loads(emit_instance(*catalog_entry("quasi_sample")))
    doc["structure"]["triple"] = [["y", "z", "th", "th", "1"]]
    runs = run_verbs(doc, tmp_path, capsys)
    assert [code for code, _ in runs] == [1, 1, 1]
    blocks = []
    for _, out in runs:
        lines = out.out.splitlines()
        assert "verdict: fail" in lines
        start = lines.index("residuals:")
        blocks.append([ln for ln in lines[start:]
                       if not ln.startswith("elapsed:")])
    assert blocks[0] == blocks[1] == blocks[2]
    assert '"axiom": "triple degree",' in "\n".join(blocks[0])
    # the schema of check: route, axiom, witness and value
    for r in printed_residuals(runs[0][1].out):
        assert sorted(r) == ["axiom", "route", "value", "witness"]
        assert r["route"] == "quasi validation"


def test_quasi_validation_values_are_leibniz_defects():
    # a pairing value that is no derivation of A (it keeps the unit)
    # reports its Leibniz defect as value, like an anchor value that is
    # none; the other invariants have no value
    data, policy = catalog_entry("quasi_sample")
    A = data.L.over
    op = LinearMap(A.basis, A.basis, 0, {("1", "1"): Fraction(1)})
    bad = QuasiLieRinehartData(data.L, data.bracket, {"1|x": op},
                               data.triple)
    inst = parse_instance_text(emit_instance(bad, policy))
    residuals = cli.validation_residuals(inst)
    derivation = [r for r in residuals
                  if r["axiom"] == "pairing value is a derivation"]
    assert derivation
    for r in residuals:
        assert sorted(r) == ["axiom", "route", "value", "witness"]
        assert r["route"] == "quasi validation"
    for r in derivation:
        assert r["witness"][0] == "1|x"
        assert r["value"] == reference_leibniz_defect(
            A, op, *r["witness"][1:]) != {}


def test_cohomology_reports_only_the_square_refusal(monkeypatch, capsys):
    # the refusal of a D that does not square to zero is a verdict (exit
    # 1); any other ValueError is not turned into one
    assert cli.main(["cohomology", "catalog:jacobi_violator"]) == 1
    assert "does not square to zero" in capsys.readouterr().out

    def broken(*args):
        raise ValueError("not a verdict")

    monkeypatch.setattr(cli, "cohomology_ranks", broken)
    with pytest.raises(ValueError, match="not a verdict"):
        cli.main(["cohomology", "catalog:sl2"])


@pytest.mark.parametrize("W", ["1", "0", "-3"])
@pytest.mark.parametrize("verb", ["check", "roundtrip", "cohomology"])
def test_W_below_two_is_a_usage_error(verb, W, capsys):
    # it was an uncaught ValueError traceback, with the exit code 1 of a
    # failing identity
    assert cli.main([verb, "catalog:sl2", "--W", W]) == 2
    err = capsys.readouterr().err
    assert "W must be at least 2" in err


def test_module_label_with_separator_exits_2(tmp_path, capsys):
    # induced labels "a|x" are split at the last "|", so a module label
    # containing one cannot be told apart
    text = emit_instance(*catalog_entry("heisenberg"))
    doc = json.loads(text.replace('"1|z"', '"1|z|w"'))
    for row in doc["module"]["generators"]:
        if row["label"] == "z":
            row["label"] = "z|w"
    expect_error(doc, "module.generators[2]")
    for code, out in run_verbs(doc, tmp_path, capsys):
        assert code == 2
        assert "label 'z|w' contains '|'" in out.err


def test_inconsistent_mdca_file_gets_one_verdict(tmp_path, capsys):
    # a constants table extraction cannot reproduce is a table
    # consistency failure (exit 1) for every verb, not an input error
    doc = emitted_mdca("exterior_pair")
    doc["structure"]["constants"]["2"]["q"].append([["1|u"], "1", "1"])
    out = run_verbs(doc, tmp_path, capsys)
    assert [code for code, _ in out] == [1, 1, 1]
    assert "table consistency" in out[2][1].out
    assert "constants table not reproduced" in out[2][1].out
    # the residual has the schema of the routes: the file table minus the
    # rebuilt one is its value
    for _, run in (out[0], out[2]):
        body = printed_residuals(run.out)
        assert body[0]["route"] == "extract"
        # keyed by the word ("1|u",): a row [[parts...], value]
        assert body[0]["value"] == [[["1|u"], {"1": "1"}]]


def tilted_heisenberg(tmp_path):
    """The Heisenberg algebra in the basis u = x, v = y, s = z + x: the
    image of D on the 1-forms has rank 1 on two columns, and b_1 = b_2 =
    2, so no bound closes that rank."""
    L = ModuleSpec(rational_algebra(),
                   GradedBasis([("u", 0), ("v", 0), ("s", 0)]))
    table = {("1|u", "1|v"): {"1|s": Fraction(1), "1|u": Fraction(-1)},
             ("1|v", "1|s"): {"1|u": Fraction(1), "1|s": Fraction(-1)}}
    p = tmp_path / "heisenberg.json"
    p.write_text(emit_instance(LieRinehartData(L, table, {}),
                               TruncationPolicy(4)))
    return str(p)


TILTED_HEISENBERG_BETTI = """verdict: pass
certified up to word length 4
betti:
  {
    "-1": {
      "boundary_flag": true,
      "rank": 0
    },
    "0": {
      "boundary_flag": false,
      "rank": 1
    },
    "1": {
      "boundary_flag": false,
      "rank": 2
    },
    "2": {
      "boundary_flag": false,
      "rank": 2
    },
    "3": {
      "boundary_flag": false,
      "rank": 1
    },
    "4": {
      "boundary_flag": true,
      "rank": 0
    }
  }
"""


def test_cohomology_json_names_the_certificate_of_each_rank(tmp_path,
                                                           capsys):
    # stdout keeps its bytes, with or without --json; the JSON report
    # adds rank_certificates for the degrees -2..4 whose rank out of
    # them was computed, and its betti block is the printed one
    path = tilted_heisenberg(tmp_path)
    argv = ["cohomology", path, "--window=-1..4"]
    out = tmp_path / "r.json"
    texts = []
    for extra in ([], ["--json", str(out)]):
        assert cli.main(argv + extra) == 0
        texts.append("".join(
            line for line in capsys.readouterr().out.splitlines(True)
            if not line.startswith("elapsed:")))
    assert texts == [TILTED_HEISENBERG_BETTI] * 2
    report = json.loads(out.read_text())
    assert report["betti"] == json.loads(
        TILTED_HEISENBERG_BETTI[TILTED_HEISENBERG_BETTI.index("{"):])
    assert report["rank_certificates"] == {
        "-2": "bounds", "-1": "bounds", "0": "bounds", "1": "exact",
        "2": "bounds", "3": "bounds", "4": "bounds"}
