"""The answers of tools/answers.py."""

import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "answers.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("answers", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_answers_are_the_same_on_every_run_and_hold_no_timing(capsys):
    tool = load_tool()
    outs = []
    for _ in range(2):
        assert tool.main(["abelian"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    # the entry and its sh and mdca files x three verbs x three W
    lines = outs[0].splitlines()
    assert len(lines) == 3 * len(tool.VERBS) * len(tool.WS)
    assert all('"exit": 0' in line for line in lines)
    assert "elapsed" not in outs[0] and "timing_seconds" not in outs[0]


def test_an_instance_file_is_read_from_its_path(tmp_path, capsys):
    tool = load_tool()
    assert tool.main(["abelian"]) == 0
    by_name = capsys.readouterr().out
    p = tmp_path / "abelian.json"
    p.write_text(tool.emit_instance(*tool.catalog_entry("abelian")),
                 encoding="utf-8")
    assert tool.main([str(p)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 * len(tool.VERBS) * len(tool.WS)
    assert all('"exit": 0' in line for line in lines)
    # the same answers as the catalog entry, under the path as label
    assert [line.split(" ", 1)[1] for line in lines] == [
        line.split(" ", 1)[1] for line in by_name.splitlines()]


def test_a_refused_input_is_answered_alone(tmp_path, capsys):
    # the parser refuses a differential that is not of degree -1: that
    # file gets its own nine answers (exit 2, the command line's error
    # line) and the next input is still answered
    tool = load_tool()
    doc = json.loads(tool.emit_instance(*tool.catalog_entry(
        "exterior_pair")))
    doc["algebra"]["diff"] = [["q", "1", "1"]]
    p = tmp_path / "refused.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert tool.main([str(p), "abelian"]) == 0
    lines = capsys.readouterr().out.splitlines()
    per_file = len(tool.VERBS) * len(tool.WS)
    assert len(lines) == per_file + 3 * per_file
    refused = [json.loads(line.split("\t", 1)[1]) for line in lines
               if line.startswith(str(p) + " ")]
    assert len(refused) == per_file
    assert all(a["exit"] == 2 and a["stderr"].startswith("error:")
               for a in refused)


def test_invalid_quasi_data_is_answered_alone(tmp_path, capsys):
    # a triple of degree 0 fails the quasi validation, so the command line
    # never converts the data: no sh or mdca file is emitted for it
    tool = load_tool()
    doc = json.loads(tool.emit_instance(*tool.catalog_entry("quasi_sample")))
    doc["structure"]["triple"] = [["y", "z", "th", "th", "1"]]
    p = tmp_path / "quasi.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert tool.main([str(p)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(tool.VERBS) * len(tool.WS)
    assert all(line.startswith(str(p) + " ") and '"exit": 1' in line
               for line in lines)
