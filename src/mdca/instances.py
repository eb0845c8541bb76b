"""Built-in example catalog.

Each entry returns (structure data, truncation policy).  The canonical
file form of an entry is produced by io_json.emit_instance; the command
line exposes them under catalog: names.

Entries:
  abelian          rank-2 module over the rationals, zero bracket.
  heisenberg       three generators with [x, y] = z.
  sl2              the classical three-dimensional simple Lie algebra.
  jacobi_violator  a deliberately broken bracket whose Jacobi sum on
                   (x, y, z) is -(x + y + z); shipped as a negative
                   control and expected to fail checks.
  exterior_pair    derivations of the exterior algebra on two odd
                   generators q, r, free on d/dq and d/dr, with the action
                   itself as anchor.  The generator brackets are zero
                   (the partial derivatives commute); every other bracket
                   comes from the anomaly law (extend_bracket_table).
  truncated_poly   derivations of Q[x]/(x^3), presented as a free rank-2
                   module on x d/dx and x^2 d/dx.  The honest derivation
                   module is not free (x^2 * x d/dx = x * x^2 d/dx), so
                   this is a free presentation mapping onto it, kept as a
                   documented boundary case of the freeness assumption.
  quasi_sample     structure with a nonzero module differential and a
                   nonzero trilinear defect; given its bracket, anchor
                   weights and differential, tools/solve_quasi.py solves
                   for exactly its triple coefficients (tested).
"""

from fractions import Fraction as Q

from .algebra import exterior_algebra, rational_algebra, truncated_polynomial
from .coalgebra import ModuleSpec, TruncationPolicy
from .graded import GradedBasis, LinearMap, ONE
from .structures import (LieRinehartData, QuasiLieRinehartData,
                         extend_bracket_table)


def _g(x):
    return "1|" + x


def abelian():
    L = ModuleSpec(rational_algebra(), GradedBasis([("u", 0), ("v", 0)]))
    return LieRinehartData(L, {}, {}), TruncationPolicy(4)


def heisenberg():
    L = ModuleSpec(rational_algebra(),
                   GradedBasis([("x", 0), ("y", 0), ("z", 0)]))
    table = {(_g("x"), _g("y")): {_g("z"): ONE}}
    return LieRinehartData(L, table, {}), TruncationPolicy(4)


def sl2():
    L = ModuleSpec(rational_algebra(),
                   GradedBasis([("e", 0), ("f", 0), ("h", 0)]))
    table = {
        (_g("e"), _g("f")): {_g("h"): ONE},
        (_g("e"), _g("h")): {_g("e"): Q(-2)},
        (_g("f"), _g("h")): {_g("f"): Q(2)},
    }
    return LieRinehartData(L, table, {}), TruncationPolicy(4)


def jacobi_violator():
    L = ModuleSpec(rational_algebra(),
                   GradedBasis([("x", 0), ("y", 0), ("z", 0)]))
    table = {
        (_g("x"), _g("y")): {_g("x"): ONE},
        (_g("y"), _g("z")): {_g("y"): ONE},
        (_g("x"), _g("z")): {_g("z"): -ONE},
    }
    return LieRinehartData(L, table, {}), TruncationPolicy(4)


def exterior_pair():
    A = exterior_algebra([("q", -1), ("r", -1)])
    L = ModuleSpec(A, GradedBasis([("u", 1), ("v", 1)]))
    dq = LinearMap(A.basis, A.basis, 1, {("1", "q"): ONE, ("r", "q.r"): ONE})
    dr = LinearMap(A.basis, A.basis, 1, {("1", "r"): ONE, ("q", "q.r"): -ONE})
    # the partial derivatives commute: every generator bracket is zero
    return extend_bracket_table(L, {"u": dq, "v": dr}, {}).as_sh(), \
        TruncationPolicy(4)


def truncated_poly():
    A = truncated_polynomial("x", 3)
    L = ModuleSpec(A, GradedBasis([("u", 0), ("v", 0)]))
    theta = {"u": LinearMap(A.basis, A.basis, 0,
                            {("x", "x"): ONE, ("x^2", "x^2"): Q(2)}),
             "v": LinearMap(A.basis, A.basis, 0, {("x^2", "x"): ONE})}
    gen_bracket = {("u", "v"): {"1|v": ONE}}
    return extend_bracket_table(L, theta, gen_bracket), TruncationPolicy(4)


# Parameters of quasi_sample; the triple is the unique solution of the
# affine system of tools/solve_quasi.py for the other three (tested).
QUASI_PARAMS = (
    {("x", "y"): {"1|x": ONE},           # generator bracket; its Jacobi
     ("y", "z"): {"1|y": ONE},           # sum on (x, y, z) is -x, matched
     ("x", "z"): {"1|x": -ONE}},         # by the differentiated triple
    {"x": 0, "y": 0, "z": 0},            # anchor weights (zero pairing)
    {"x": {"x": 1}},                     # differential matrix
    {("y", "z"): 1},                     # triple coefficients
)


def quasi_sample():
    preset, lam, dmat, cs = QUASI_PARAMS
    return build_quasi_sample(preset, lam, dmat, cs), TruncationPolicy(4)


def build_quasi_sample(gen_bracket, lam, dmat, cs):
    """Quasi structure over an exterior line from solver parameters.

    gen_bracket: generator bracket table; lam: anchor weights on theta
    d/dtheta per generator; dmat: differential matrix (d of generator i
    is theta times the i-th row); cs: triple coefficients per sorted
    generator pair, as multiples of d/dtheta.
    """
    A = exterior_algebra([("th", -1)])
    gens = sorted({x for key in gen_bracket for x in key}
                  | {x for v in gen_bracket.values()
                     for lbl in v for x in [lbl.split("|")[1]]}
                  | set(lam))
    L0 = ModuleSpec(A, GradedBasis([(g, 0) for g in gens]))
    diff = {}
    for gi, row in dmat.items():
        for gj, m in row.items():
            if m:
                diff[("th|" + gj, "1|" + gi)] = Q(m)
    L = ModuleSpec(A, GradedBasis([(g, 0) for g in gens]),
                   LinearMap(L0.l_basis, L0.l_basis, -1, diff))
    pairing_gens = {}
    for g, w in lam.items():
        if w:
            pairing_gens[g] = LinearMap(A.basis, A.basis, 0,
                                        {("th", "th"): Q(w)})
    lr = extend_bracket_table(L, pairing_gens, gen_bracket)
    pairing = {w[0]: op for w, op in lr.anchor.maps.get(1, {}).items()}
    triple = {}
    for key, c in cs.items():
        if c:
            triple[key] = LinearMap(A.basis, A.basis, 1,
                                    {("1", "th"): Q(c)})
    return QuasiLieRinehartData(L, lr.bracket, pairing, triple)


CATALOG = {
    "abelian": abelian,
    "heisenberg": heisenberg,
    "sl2": sl2,
    "jacobi_violator": jacobi_violator,
    "exterior_pair": exterior_pair,
    "truncated_poly": truncated_poly,
    "quasi_sample": quasi_sample,
}


def catalog_names():
    return sorted(CATALOG)


def catalog_entry(name):
    if name not in CATALOG:
        raise KeyError("unknown catalog entry %r (have: %s)"
                       % (name, ", ".join(catalog_names())))
    return CATALOG[name]()
