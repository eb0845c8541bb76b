"""The quasi solver script, run on the parameters of quasi_sample."""

import importlib.util
import pathlib

from mdca.instances import QUASI_PARAMS

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "solve_quasi.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("solve_quasi", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_solver_recovers_the_quasi_sample_triple():
    # given the bracket, anchor weights and differential of quasi_sample,
    # the affine system for the triple has exactly its coefficients
    tool = load_tool()
    bracket, lam, dmat, cs = QUASI_PARAMS
    lam = tuple(lam[g] for g in tool.GENS)
    dmat = tuple(tuple(dmat.get(gi, {}).get(gj, 0) for gj in tool.GENS)
                 for gi in tool.GENS)
    sols = list(tool.solve_affine(bracket, lam, dmat))
    assert sols == [(0, 0, 1)]
    assert sols == [tuple(cs.get(k, 0) for k in tool.TRIPLE_KEYS)]
    result, problems = tool.verify(bracket, lam, dmat, sols[0])
    assert problems == [] and result is not None
