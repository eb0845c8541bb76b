"""Wire format and command line driver tests.

Covers canonical emit/parse identity over the whole catalog, parse error
loci, exit codes of every verb, and the pinned machine-derived quasi
instance.
"""

import json
from fractions import Fraction

import pytest

from mdca import cli
from mdca.coalgebra import TruncationPolicy
from mdca.instances import catalog_entry, catalog_names
from mdca.io_json import (InstanceError, emit_instance, parse_instance_text,
                          q_to_str, str_to_q)
from mdca.structures import (build_maurer_cartan, build_quasi_mc,
                             check_sh_lie_rinehart, jacobi_defect_identity,
                             quasi_to_sh)


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

@pytest.mark.parametrize("name", catalog_names())
def test_emit_parse_identity(name):
    data, policy = catalog_entry(name)
    text = emit_instance(data, policy)
    inst = parse_instance_text(text)
    assert emit_instance(inst.data, inst.policy) == text


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
    m = build_quasi_mc(q, policy)
    assert set(m.levels()) >= {0, 1, 2}
    # quasi structures have no differentials beyond the third level
    for j in m.levels():
        if j > 2:
            for tab in (m.on_constants[j], m.on_duals[j]):
                assert all(not f.values for f in tab.values())


def test_quasi_sample_defect_identity_holds():
    # the bracket alone violates Jacobi; the differentiated ternary
    # bracket compensates exactly, with a global sign
    q, _ = catalog_entry("quasi_sample")
    out = jacobi_defect_identity(q)
    assert out["mismatches"] == []
    assert out["sign"] == -1


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
    capsys.readouterr()


@pytest.mark.parametrize("name, rows, fragment", [
    # D_1 of the dual 1-form of e has degree -2, not -1
    ("e", [[["1|e"], "1", "1"]], "form of degree -1, expected -2"),
    ("w", [], "unknown generator 'w'"),
])
def test_bad_mdca_table_exits_2(name, rows, fragment, tmp_path, capsys):
    doc = emitted_mdca("sl2")
    doc["structure"]["duals"]["1"][name] = rows
    expect_error(doc, fragment)
    p = tmp_path / "m.json"
    p.write_text(json.dumps(doc))
    assert cli.main(["check", str(p)]) == 2
    assert "structure.duals[1]" in capsys.readouterr().err


def test_roundtrip_builds_once(monkeypatch, capsys):
    # extraction rebuilds every generator table and compares it with the
    # built one, so roundtrip of non-mdca input builds once
    calls = []

    def counting(sh, policy):
        calls.append(policy.W)
        return build_maurer_cartan(sh, policy)

    monkeypatch.setattr(cli, "build_maurer_cartan", counting)
    assert cli.main(["roundtrip", "catalog:exterior_pair"]) == 0
    assert calls == [4]
    capsys.readouterr()


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
    assert '"invariant": "triple degree",' in "\n".join(blocks[0])


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
        report = run.out
        body = json.loads(report[report.index("residuals:") + 10:
                                 report.index("elapsed:")])
        assert body[0]["route"] == "extract"
        # keyed by the word ("1|u",): a row [[parts...], value]
        assert body[0]["value"] == [[["1|u"], {"1": "1"}]]
