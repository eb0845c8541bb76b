"""The answers of tools/answers.py."""

import importlib.util
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
