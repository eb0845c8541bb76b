"""Search for a small quasi structure with a nonzero differential and a
nonzero trilinear defect whose homotopy conversion passes every check.

The base algebra is an exterior line on th (degree -1); the module has
three degree-zero generators.  For each bracket preset, anchor weight
vector and differential matrix on a small grid, the residuals of the
coderivation and twisting identities (truncation 3) are affine in the
three triple coefficients, so those are solved exactly; every candidate
is then re-verified from scratch at truncation 4.

Run from the repository root:  python3 tools/solve_quasi.py
"""

import itertools
import os
import sys
import time
from fractions import Fraction as Q

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from mdca.coalgebra import TruncationPolicy, check_coalgebra_perturbation
from mdca.forms import integer_tables
from mdca.graded import ONE, kernel_of_rows, row_echelon
from mdca.instances import build_quasi_sample
from mdca.structures import (check_sh_lie_rinehart, check_twisting_cochain,
                             quasi_to_sh)

GENS = ("x", "y", "z")
TRIPLE_KEYS = (("x", "y"), ("x", "z"), ("y", "z"))

BRACKET_PRESETS = {
    # [x,y]=z, [x,z]=x, [y,z]=-y  (a scaled sl2)
    "sl2": {("x", "y"): {"1|z": ONE},
            ("x", "z"): {"1|x": ONE},
            ("y", "z"): {"1|y": -ONE}},
    # [x,y]=z only (heisenberg)
    "heis": {("x", "y"): {"1|z": ONE}},
    # [x,z]=x, [y,z]=y (solvable)
    "solv": {("x", "z"): {"1|x": ONE},
             ("y", "z"): {"1|y": ONE}},
}


def build_quasi(bracket, lam, dmat, cs):
    """The quasi structure of a generator bracket table, anchor weights
    lam(x, y, z), a differential matrix (rows = source generator) and
    triple coefficients c(xy, xz, yz)."""
    return build_quasi_sample(
        bracket, dict(zip(GENS, lam)),
        {gi: dict(zip(GENS, row)) for gi, row in zip(GENS, dmat)},
        dict(zip(TRIPLE_KEYS, cs)))


def residual_vector(q, W, affine_only=False):
    """Residuals of the coderivation and twisting identities.

    With affine_only, the levels quadratic in the triple coefficients are
    left out (twisting beyond level 3), so the rest is affine in them.
    """
    sh = quasi_to_sh(q)
    lam = integer_tables(q.L, sh.partial, sh.t)[1]
    vec = {}
    for r in check_coalgebra_perturbation(sh.partial, q.L,
                                          TruncationPolicy(W), lam):
        for g, c in r["value"].items():
            vec[("p", r["level"], r["word"], g)] = c
    tW = min(W, 3) if affine_only else W
    for r in check_twisting_cochain(q.L, sh.t, sh.partial,
                                    TruncationPolicy(tW)):
        for k, c in r["value"].items():
            vec[("t", r["level"], r["word"], k)] = c
    return vec


def solve_affine(bracket, lam, dmat, W=4):
    """Triple coefficients with r0 + sum_i c_i (r_i - r0) = 0.

    Yields every consistent assignment over a small grid of the free
    coefficients; each is re-checked exactly before being yielded.
    """
    r0 = residual_vector(build_quasi(bracket, lam, dmat, (0, 0, 0)), W,
                         affine_only=True)
    cols = []
    for i in range(3):
        cs = [0, 0, 0]
        cs[i] = 1
        ri = residual_vector(build_quasi(bracket, lam, dmat, tuple(cs)), W,
                             affine_only=True)
        cols.append({k: ri.get(k, Q(0)) - r0.get(k, Q(0))
                     for k in set(r0) | set(ri)})
    keys = sorted(set(r0) | set(cols[0]) | set(cols[1]) | set(cols[2]),
                  key=repr)
    rows = [[cols[0].get(k, Q(0)), cols[1].get(k, Q(0)),
             cols[2].get(k, Q(0)), -r0.get(k, Q(0))] for k in keys]
    # reduced row echelon form of the augmented system
    pivots = row_echelon(rows, 4)
    if 3 in pivots:
        return  # inconsistent
    free = [i for i in range(3) if i not in pivots]
    for choice in itertools.product((1, 0, -1, 2, -2), repeat=len(free)):
        sol = [Q(0)] * 3
        for i, v in zip(free, choice):
            sol[i] = Q(v)
        for row, lead in zip(rows, pivots):
            sol[lead] = (row[3] - sum(row[j] * sol[j] for j in free)) \
                / row[lead]
        if not any(sol):
            continue
        check = build_quasi(bracket, lam, dmat, tuple(sol))
        if not residual_vector(check, W, affine_only=True):
            yield tuple(sol)


def verify(bracket, lam, dmat, cs):
    """(quasi structure, []) when the parameters pass the quasi validation
    and check_sh_lie_rinehart at truncation 4, else (None, problems).
    On the bare words the level-2 perturbation identity checked there is
    the Jacobi defect identity."""
    q = build_quasi(bracket, lam, dmat, cs)
    rep = q.validation_report()
    if rep:
        return None, ["validation: %r" % rep]
    sh = quasi_to_sh(q)
    bad = check_sh_lie_rinehart(sh, TruncationPolicy(4))
    if bad:
        return None, ["identities (W=4): %d residuals, first %r"
                      % (len(bad), bad[0])]
    return q, []


def as_matrix(vals):
    return tuple(tuple(vals[3 * i:3 * i + 3]) for i in range(3))


def differential_kernel(bracket, lam):
    """The differential matrices compatible with the bracket and anchor.

    The level-1 coderivation identity is homogeneous linear in the matrix
    entries; returns a basis of its exact solution space.
    """
    cols = []
    for e in range(9):
        vals = [0] * 9
        vals[e] = 1
        r = residual_vector(build_quasi(bracket, lam, as_matrix(vals),
                                        (0, 0, 0)), 3)
        cols.append({k: v for k, v in r.items()
                     if k[0] == "p" and k[1] == 1})
    keys = sorted(set().union(*cols), key=repr)
    rows = [[cols[e].get(k, Q(0)) for e in range(9)] for k in keys]
    _, basis = kernel_of_rows(rows, 9)
    return basis


def main():
    lam_grid = [v for v in itertools.product((0, 1, -1), repeat=3)
                if any(v)]
    t0 = time.time()
    tried = 0
    for preset in BRACKET_PRESETS:
        for lam in lam_grid:
            bracket = BRACKET_PRESETS[preset]
            basis = differential_kernel(bracket, lam)
            if not basis:
                continue
            points = set()
            for coeffs in itertools.product((0, 1, -1, 2, -2),
                                            repeat=len(basis)):
                if not any(coeffs):
                    continue
                v = [sum(Q(c) * b[i] for c, b in zip(coeffs, basis))
                     for i in range(9)]
                if all(x.denominator == 1 for x in v):
                    points.add(tuple(int(x) for x in v))
                if len(points) >= 200:
                    break
            for v in sorted(points):
                dmat = as_matrix(list(v))
                for cs in solve_affine(bracket, lam, dmat):
                    tried += 1
                    _, problems = verify(bracket, lam, dmat, cs)
                    if problems:
                        print("near miss %s lam=%s d=%s c=%s: %s"
                              % (preset, lam, dmat, cs, problems[0]),
                              flush=True)
                        continue
                    print("SOLUTION after %d full verifications (%.0fs)"
                          % (tried, time.time() - t0))
                    print("  bracket preset:", preset, bracket)
                    print("  anchor weights lam(x,y,z):", lam)
                    print("  differential matrix (rows = source gen):",
                          dmat)
                    print("  triple coefficients c(xy,xz,yz):", cs)
                    return 0
            print("done %s lam=%s: %d kernel dirs, %.0fs"
                  % (preset, lam, len(basis), time.time() - t0),
                  flush=True)
    print("no solution in grid (%d verified candidates)" % tried)
    return 1


if __name__ == "__main__":
    sys.exit(main())
