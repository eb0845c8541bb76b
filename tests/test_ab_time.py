"""The interleaved A/B timer of tools/ab_time.py, on one tree twice."""

import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_time.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("ab_time", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_one_round_of_the_same_tree_on_both_sides(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    src = str(ROOT / "src")
    tool = load_tool()
    try:
        # a catalog workload and one with seeded input files
        assert tool.main([src, src, "shlr_check", "lr_direct",
                          "--rounds", "1"]) == 0
    finally:
        for name in [m for m in sys.modules if m.startswith("ab_")]:
            del sys.modules[name]
    out = capsys.readouterr().out
    assert "oracle:" not in out
    for name, jobs in (("shlr_check", 3), ("lr_direct", 6)):
        assert ("workload %s: 1 rounds of %d jobs, 0 oracle failures"
                % (name, jobs)) in out
    assert out.count("change won") == 2
    assert out.count(" of 1 pairs") == 2
    # one round: each side's quartiles are its one pass time, so the
    # parent's spread is zero
    assert out.count("median gap ") == 2
    assert out.count("the parent's quartile spread 0.0000 s") == 2
