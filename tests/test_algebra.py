import ast
import pathlib
import random
from fractions import Fraction as Q

import pytest

import mdca
from mdca.algebra import (AlgebraSpec, exterior_algebra, leibniz_defects,
                          multiply, rational_algebra, truncated_polynomial,
                          validate_algebra)
from mdca.graded import GradedBasis, LinearMap, ONE

from operator_reference import (derivation_space, graded_commutator,
                                reference_leibniz_violations)


def test_validate_rationals():
    assert validate_algebra(rational_algebra()) == []


def test_validate_exterior_one_generator():
    A = exterior_algebra([("t", -1)])
    assert validate_algebra(A) == []
    assert multiply(A, {"t": ONE}, {"t": ONE}) == {}


def test_validate_names_tampered_pair():
    A = exterior_algebra([("t", -1), ("u", -1)])
    A.mult[("u", "t")] = {"t.u": ONE}  # breaks graded commutativity
    rep = validate_algebra(A)
    assert any(v["invariant"] == "graded commutativity"
               and set(v["witness"]) == {"t", "u"} for v in rep)


def test_multiply_unit_and_expansion():
    A = exterior_algebra([("t", -1), ("u", -1)])
    a = {"t": Q(3), "t.u": Q(1, 2)}
    assert multiply(A, {A.unit: ONE}, a) == a
    left = multiply(A, {"1": ONE, "t": ONE}, {"1": ONE, "u": ONE})
    assert left == {"1": ONE, "t": ONE, "u": ONE, "t.u": ONE}


def test_derivations_of_ground_field():
    A = rational_algebra()
    for d in range(-2, 3):
        assert derivation_space(A, d) == []


def test_derivations_of_exterior_line():
    # hand solution of the Leibniz system on Q + Q.t, |t| = -1:
    # delta(1) = 0 always; delta(t) is free, so one derivation per target
    # degree: d/dt in degree 1 and t d/dt in degree 0
    A = exterior_algebra([("t", -1)])
    d1 = derivation_space(A, 1)
    d0 = derivation_space(A, 0)
    assert len(d1) == 1 and len(d0) == 1
    assert len(derivation_space(A, -1)) == 0
    ddt = d1[0]
    assert ddt.column("t") in ({"1": ONE}, {"1": -ONE})
    tddt = d0[0]
    assert tddt.column("t") in ({"t": ONE}, {"t": -ONE})
    assert tddt.column("1") == {}


def test_derivations_of_truncated_polynomials():
    # Q[x]/(x^3): Leibniz forces 3 x^2 delta(x) = delta(x^3) = 0, killing the
    # constant term of delta(x); x d/dx and x^2 d/dx remain
    A = truncated_polynomial("x", 3)
    ders = derivation_space(A, 0)
    assert len(ders) == 2
    for d in ders:
        assert d.column("x").get("1", Q(0)) == 0
        assert leibniz_defects(A, d) == []
    # not A-free of rank 1: x*(x d/dx) = x^2 d/dx but x*(x^2 d/dx) = 0,
    # so no single generator works; recorded here as the negative example
    vals = {tuple(sorted(d.column("x").items())) for d in ders}
    assert len(vals) == 2


def x_times_n_dx(A, n):
    # x^n d/dx on Q[x]/(x^3)
    names = {0: "1", 1: "x", 2: "x^2"}
    ent = {}
    for k in (1, 2):
        if k - 1 + n < 3:
            ent[(names[k - 1 + n], names[k])] = Q(k)
    return LinearMap(A.basis, A.basis, 0, ent)


def test_commutator_truncated_poly():
    A = truncated_polynomial("x", 3)
    a, b = x_times_n_dx(A, 1), x_times_n_dx(A, 2)
    assert graded_commutator(A, a, b) == x_times_n_dx(A, 2)


def test_commutator_exterior_line():
    A = exterior_algebra([("t", -1)])
    ddt = LinearMap(A.basis, A.basis, 1, {("1", "t"): ONE})
    tddt = LinearMap(A.basis, A.basis, 0, {("t", "t"): ONE})
    c = graded_commutator(A, ddt, tddt)
    assert c.degree == 1 and c.column("t") == {"1": ONE}


def test_commutator_even_self_vanishes():
    A = truncated_polynomial("x", 3)
    d = x_times_n_dx(A, 1)
    assert graded_commutator(A, d, d).is_zero()


def test_derivation_lie_axioms_exhaustive():
    # graded antisymmetry and Jacobi on every basis triple of Der(A)
    for A in (truncated_polynomial("x", 3),
              exterior_algebra([("t", -1), ("u", -1)])):
        ders = []
        for deg in range(-3, 4):
            ders += derivation_space(A, deg)
        def br(d1, d2):
            return graded_commutator(A, d1, d2)

        for d1 in ders:
            for d2 in ders:
                s12 = -ONE if (d1.degree % 2 and d2.degree % 2) else ONE
                assert br(d1, d2) == br(d2, d1).scale(-s12)
                for d3 in ders:
                    # [d1,[d2,d3]] = [[d1,d2],d3] + (-1)^{|d1||d2|} [d2,[d1,d3]]
                    j1 = br(d1, br(d2, d3))
                    j2 = br(br(d1, d2), d3)
                    j3 = br(d2, br(d1, d3)).scale(s12)
                    assert j1 == j2.add(j3)


def acyclic_exterior():
    # Lambda[t], |t| = 1, d(t) = 1: the standard contractible dg algebra
    A = exterior_algebra([("t", 1)])
    diff = LinearMap(A.basis, A.basis, -1, {("1", "t"): ONE})
    return AlgebraSpec(A.basis, "1", A.mult, diff)


def test_differential_is_a_derivation():
    A = acyclic_exterior()
    assert validate_algebra(A) == []
    assert leibniz_defects(A, A.diff) == []


def test_validate_algebra_names_the_leibniz_pairs_of_the_differential():
    # seeded random degree -1 maps, most of them no derivation: the
    # pairs validate_algebra names are those of the Fraction oracle
    rng = random.Random(11)
    failing = 0
    for gens in ([("t", 1)], [("t", 1), ("u", -1)],
                 [("t", 1), ("u", 3), ("v", -1)]):
        A0 = exterior_algebra(gens)
        basis = A0.basis
        deg = basis.degree
        cells = [(t, s) for s in deg for t in deg if deg[t] == deg[s] - 1]
        for _ in range(6):
            ent = {c: Q(rng.randint(-3, 3), rng.randint(1, 4))
                   for c in cells if rng.random() < 0.5}
            A = AlgebraSpec(basis, "1", A0.mult,
                            LinearMap(basis, basis, -1, ent))
            got = [v["witness"] for v in validate_algebra(A)
                   if v["invariant"] == "Leibniz rule of diff"]
            assert got == reference_leibniz_violations(A, A.diff)
            failing += bool(got)
    assert failing


def test_every_solved_derivation_satisfies_leibniz():
    rng = random.Random(5)
    algebras = [truncated_polynomial("x", 4),
                exterior_algebra([("t", -1), ("u", -3)]), acyclic_exterior()]
    for A in algebras:
        for deg in range(-4, 5):
            for d in derivation_space(A, deg):
                assert leibniz_defects(A, d) == []
                # random rational combinations stay derivations
                s = d.scale(Q(rng.randint(1, 9), 7))
                assert leibniz_defects(A, s) == []


def test_rejects_missing_unit():
    with pytest.raises(ValueError):
        AlgebraSpec(GradedBasis([("a", 0)]), "1", {})


def test_graded_commutator_rejects_non_derivation():
    # 1 -> x is not a derivation, so the commutator breaks Leibniz; the
    # refusal must survive python -O
    A = truncated_polynomial("x", 3)
    d1 = LinearMap(A.basis, A.basis, 0, {("x", "1"): 1})
    d2 = LinearMap(A.basis, A.basis, 0, {("x", "x"): 1, ("x^2", "x^2"): 2})
    with pytest.raises(ValueError, match="not a derivation"):
        graded_commutator(A, d1, d2)


def test_library_has_no_assert_statements():
    # an assert vanishes under python -O, so checks raise explicitly
    src = pathlib.Path(mdca.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
