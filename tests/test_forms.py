import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from mdca import forms
from mdca.algebra import (AlgebraSpec, Derivation, derivation_space,
                          exterior_algebra, graded_commutator, multiply,
                          rational_algebra, truncated_polynomial)
from mdca.coalgebra import (Coderivation, ModuleSpec, TruncationPolicy,
                            coderivation_from_brackets, word_basis,
                            word_degree)
from mdca.forms import (FormTable, TwistingCochain, ambient_basis_forms,
                        build_D, cohomology_ranks, constant_form, cup,
                        descent_check, dual_one_forms, hom_differential,
                        is_A_multilinear, multilinear_basis, partial_bra,
                        partial_t, square_check, twisting_residual,
                        words_of_length)
from mdca.graded import (GradedBasis, LinearMap, ONE, koszul_sign,
                         row_echelon, vec_axpy, vec_scale)
from mdca.instances import catalog_entry
from mdca.structures import LieRinehartData, check_lie_rinehart, quasi_to_sh


QQ = rational_algebra()


def g(x):
    return "1|" + x


# ---------------------------------------------------------------- fixtures

SL2 = ModuleSpec(QQ, GradedBasis([("e", 0), ("f", 0), ("h", 0)]))
SL2_TABLE = {
    (g("e"), g("f")): {g("h"): Q(1)},
    (g("e"), g("h")): {g("e"): Q(-2)},
    (g("f"), g("h")): {g("f"): Q(2)},
}
SL2_PARTIAL = coderivation_from_brackets(SL2, {2: SL2_TABLE})
SL2_T = TwistingCochain(SL2, {})


def sl2_bracket(u, v):
    """Bilinear skew extension of the structure constants."""
    out = dict(SL2_TABLE.get((u, v), {}))
    if not out:
        out = {k: -c for k, c in SL2_TABLE.get((v, u), {}).items()}
    return out


def derivation_pair(A, base):
    """Module of derivations of A, free on the given generators, with the
    commutator bracket and the action itself as anchor.

    base: list of (generator label, algebra generator label, Derivation);
    the module bracket table is produced from genuine graded commutators,
    decomposed through the values on the algebra generators.
    """
    L = ModuleSpec(A, GradedBasis([(x, d.degree) for x, _, d in base]))
    by_gen = {x: d for x, _, d in base}
    adeg = A.basis.degree

    def as_derivation(label):
        # module element a.x corresponds to (-1)^|a| a d_x, matching the
        # sign with which scalars move across a degree -1 anchor
        a, x = L.split(label)
        d0 = by_gen[x]
        s = -ONE if adeg[a] % 2 else ONE
        ent = {}
        for s_lbl in A.basis.labels:
            for k, c in multiply(A, {a: ONE}, d0({s_lbl: ONE})).items():
                ent[(k, s_lbl)] = s * c
        return Derivation(A, adeg[a] + d0.degree, ent)

    table = {}
    for g1 in L.l_basis.labels:
        for g2 in L.l_basis.labels:
            c = graded_commutator(as_derivation(g1), as_derivation(g2))
            vec = {}
            for xl, dl, _ in base:
                for al, co in c({dl: ONE}).items():
                    s = -ONE if adeg[al] % 2 else ONE
                    vec[L.pair(al, xl)] = s * co
            vec = {k: v for k, v in vec.items() if v}
            if vec:
                table[(g1, g2)] = vec
    partial = coderivation_from_brackets(L, {2: table})
    t1 = {}
    for label in L.l_basis.labels:
        d = as_derivation(label)
        if not d.is_zero():
            t1[(label,)] = d.action
    return L, partial, TwistingCochain(L, {1: t1})


def exterior_pair():
    """A = exterior algebra on two degree -1 generators, module = its
    derivations, free of rank 2 on the two partial derivatives."""
    A = exterior_algebra([("q", -1), ("r", -1)])
    dq = Derivation(A, 1, {("1", "q"): ONE, ("r", "q.r"): ONE})
    dr = Derivation(A, 1, {("1", "r"): ONE, ("q", "q.r"): -ONE})
    assert dq.leibniz_violations() == []
    assert dr.leibniz_violations() == []
    return derivation_pair(A, [("u", "q", dq), ("v", "r", dr)])


def tp2(scale=1):
    """Ungraded pair: A = truncated polynomials, L free of rank 2 with
    anchors x d/dx and x^2 d/dx and bracket [u, v] = v."""
    A = truncated_polynomial("x", 3)
    L = ModuleSpec(A, GradedBasis([("u", 0), ("v", 0)]))
    theta = {"u": LinearMap(A.basis, A.basis, 0,
                            {("x", "x"): ONE, ("x^2", "x^2"): Q(2)}),
             "v": LinearMap(A.basis, A.basis, 0, {("x^2", "x"): ONE})}
    gen_bracket = {("u", "v"): {"v": ONE}, ("v", "u"): {"v": -ONE}}

    def anchor_of(label):
        a, x = L.split(label)
        ent = {}
        for s in A.basis.labels:
            for k, c in multiply(A, {a: ONE}, theta[x].apply({s: ONE})).items():
                ent[(k, s)] = c
        return LinearMap(A.basis, A.basis, 0, ent)

    table = {}
    for g1 in L.l_basis.labels:
        a, x1 = L.split(g1)
        for g2 in L.l_basis.labels:
            b, x2 = L.split(g2)
            # [a x1, b x2] = a theta(x1)(b) x2 - b theta(x2)(a) x1
            #               + a b [x1, x2]   (everything in degree 0)
            vec = {}
            for k, c in multiply(A, {a: ONE},
                                 theta[x1].apply({b: ONE})).items():
                vec_axpy(vec, c, {L.pair(k, x2): ONE})
            for k, c in multiply(A, {b: ONE},
                                 theta[x2].apply({a: ONE})).items():
                vec_axpy(vec, -c, {L.pair(k, x1): ONE})
            ab = multiply(A, {a: ONE}, {b: ONE})
            for x3, c3 in gen_bracket.get((x1, x2), {}).items():
                for k, c in ab.items():
                    vec_axpy(vec, c * c3, {L.pair(k, x3): ONE})
            if vec:
                table[(g1, g2)] = vec
    partial = coderivation_from_brackets(L, {2: table})
    t1 = {}
    for label in L.l_basis.labels:
        op = anchor_of(label).scale(Q(scale))
        if not op.is_zero():
            t1[(label,)] = op
    return L, partial, TwistingCochain(L, {1: t1})


def dg_anchor():
    """Contractible base algebra with a compatible module differential and
    a nontrivial anchor, to exercise the differential terms."""
    A0 = exterior_algebra([("t", 1)])
    A = AlgebraSpec(A0.basis, "1", A0.mult,
                    LinearMap(A0.basis, A0.basis, -1, {("1", "t"): ONE}))
    M = ModuleSpec(A, GradedBasis([("u", 0)]))
    diff = LinearMap(M.l_basis, M.l_basis, -1, {("1|u", "t|u"): ONE})
    L = ModuleSpec(A, GradedBasis([("u", 0)]), diff)
    assert L.validation_report() == []
    op = LinearMap(A.basis, A.basis, 0, {("t", "t"): ONE})
    return L, Coderivation(L, {}), TwistingCochain(L, {1: {("1|u",): op}})


def random_form(rng, L, degree, max_len, density=0.7):
    adeg = L.over.basis.degree
    vals = {}
    for n in range(max_len + 1):
        for w in words_of_length(L, n):
            wd = word_degree(L, w)
            vec = {a: Q(rng.randint(-3, 3)) for a in L.over.basis.labels
                   if adeg[a] == degree + wd and rng.random() < density}
            vec = {k: v for k, v in vec.items() if v}
            if vec:
                vals[w] = vec
    return FormTable(L, degree, vals)


# ------------------------------------------------ classical formula oracles

def test_bracket_operator_matches_classical_formula():
    # (del f)(a_1..a_n) = (-1)^(n-1) sum_{j<k} (-1)^(j+k)
    #                      f([a_j,a_k], ..hat j..hat k..)
    rng = random.Random(17)
    labels = SL2.l_basis.labels
    for m in (1, 2):
        f = random_form(rng, SL2, -m, m)
        out = partial_bra(f, SL2_PARTIAL, 1)
        n = m + 1
        import itertools
        for args in itertools.product(labels, repeat=n):
            acc = {}
            for j in range(n):
                for k in range(j + 1, n):
                    rest = [args[i] for i in range(n) if i not in (j, k)]
                    sgn = Q((-1) ** (j + 1 + k + 1))
                    for bl, bc in sl2_bracket(args[j], args[k]).items():
                        vec_axpy(acc, sgn * bc, f.eval([bl] + rest))
            acc = vec_scale(Q((-1) ** (n - 1)), acc)
            assert out.eval(list(args)) == acc


def test_anchor_operator_matches_classical_formula():
    # (del^t f)(a_1..a_n) = (-1)^(n-1) sum_i (-1)^(i-1)
    #                        theta(a_i)(f(..hat i..))
    rng = random.Random(29)
    L, partial, t = tp2()
    labels = L.l_basis.labels
    import itertools
    for m in (0, 1, 2):
        f = random_form(rng, L, -m, m)
        out = partial_t(f, t, 1)
        n = m + 1
        for args in itertools.product(labels, repeat=n):
            acc = {}
            for i in range(n):
                rest = [args[k] for k in range(n) if k != i]
                sgn = Q((-1) ** i)
                vec_axpy(acc, sgn, t.apply(1, (args[i],), f.eval(rest)))
            acc = vec_scale(Q((-1) ** (n - 1)), acc)
            assert out.eval(list(args)) == acc


# ------------------------------------------------------------- cup product

def test_cup_two_one_forms():
    duals = dual_one_forms(SL2)
    ef = cup(duals["e"], duals["f"])
    assert ef.value((g("e"), g("f"))) == {"1": -ONE}
    # general rule on a pair of arbitrary 1-forms
    rng = random.Random(3)
    a = random_form(rng, SL2, -1, 1)
    b = random_form(rng, SL2, -1, 1)
    ab = cup(a, b)
    for X in SL2.l_basis.labels:
        for Y in SL2.l_basis.labels:
            lhs = ab.eval([X, Y])
            rhs = {}
            vec_axpy(rhs, -ONE,
                     multiply(QQ, a.eval([X]), b.eval([Y])))
            vec_axpy(rhs, ONE,
                     multiply(QQ, b.eval([X]), a.eval([Y])))
            assert lhs == rhs


def test_cup_unital_associative_commutative():
    rng = random.Random(41)
    L, _, _ = exterior_pair()
    one = constant_form(L, L.over.one())
    for _ in range(6):
        df = rng.choice([-2, -1, 0, 1])
        dg_ = rng.choice([-2, -1, 0, 1])
        f = random_form(rng, L, df, 2, density=0.4)
        h = random_form(rng, L, dg_, 2, density=0.4)
        k = random_form(rng, L, rng.choice([-1, 0]), 1, density=0.4)
        assert cup(f, one) == f and cup(one, f) == f
        assert cup(cup(f, h), k) == cup(f, cup(h, k))
        s = -ONE if (f.degree % 2 and h.degree % 2) else ONE
        assert cup(f, h) == cup(h, f).scale(s)


# --------------------------------------------------------- Hom-differential

def dg_line():
    A = rational_algebra()
    M = ModuleSpec(A, GradedBasis([("x", 0), ("y", 1)]))
    diff = LinearMap(M.l_basis, M.l_basis, -1, {("1|x", "1|y"): ONE})
    return ModuleSpec(A, GradedBasis([("x", 0), ("y", 1)]), diff)


def test_hom_differential_two_dim_oracle():
    L = dg_line()
    phi = FormTable(L, -1, {(("1|x"),): {"1": ONE}})
    out = hom_differential(phi)
    # the word differential carries the module differential label-wise, so
    # it sends sy to sx; the level-0 sign for a degree -1 form is +1, so
    # the value on sy is +1
    assert out.degree == -2
    assert out.values == {(("1|y"),): {"1": ONE}}


def test_hom_differential_zero_when_no_differentials():
    rng = random.Random(5)
    f = random_form(rng, SL2, -1, 2)
    assert hom_differential(f).is_zero()


def test_hom_differential_squares_to_zero():
    rng = random.Random(8)
    L = dg_line()
    for d in (-2, -1, 0):
        f = random_form(rng, L, d, 3)
        assert hom_differential(hom_differential(f)).is_zero()


# --------------------------------------------------- derivation properties

def assert_cup_derivation(op, L, rng, degrees, max_len=2):
    for _ in range(4):
        f = random_form(rng, L, rng.choice(degrees), max_len, density=0.4)
        h = random_form(rng, L, rng.choice(degrees), max_len, density=0.4)
        lhs = op(cup(f, h))
        s = -ONE if f.degree % 2 else ONE
        rhs = cup(op(f), h).add(cup(f, op(h)).scale(s))
        assert lhs == rhs


def test_operators_are_cup_derivations():
    rng = random.Random(59)
    L, partial, t = exterior_pair()
    degrees = [-2, -1, 0, 1]
    assert_cup_derivation(hom_differential, L, rng, degrees)
    assert_cup_derivation(lambda f: partial_bra(f, partial, 1),
                          L, rng, degrees)
    assert_cup_derivation(lambda f: partial_t(f, t, 1), L, rng, degrees)
    assert_cup_derivation(lambda f: build_D(f, partial, t, 1),
                          L, rng, degrees)
    Ld, pd, td = dg_anchor()
    assert_cup_derivation(hom_differential, Ld, rng, [-1, 0, 1], 3)
    assert_cup_derivation(lambda f: partial_t(f, td, 1), Ld, rng,
                          [-1, 0, 1], 3)


def test_anchor_on_constants_is_adjoint():
    L, partial, t = exterior_pair()
    for al, ad in L.over.basis.gens:
        f = partial_t(constant_form(L, {al: ONE}), t, 1)
        for w in words_of_length(L, 1):
            s = -ONE if (ad % 2 and word_degree(L, w) % 2) else ONE
            assert f.value(w) == vec_scale(s, t.apply(1, w, {al: ONE}))


# --------------------------------------------------------- multilinearity

def test_multilinearity_of_generators():
    for L in (SL2, exterior_pair()[0]):
        for al in L.over.basis.labels:
            ok, _ = is_A_multilinear(constant_form(L, {al: ONE}))
            assert ok
        for form in dual_one_forms(L).values():
            ok, _ = is_A_multilinear(form)
            assert ok


def test_multilinearity_failure_witnessed():
    L, _, _ = exterior_pair()
    eps = dual_one_forms(L)["u"]
    vals = {w: dict(v) for w, v in eps.values.items()}
    vals[("q|u",)]["q"] += 1  # perturb a single value
    bad = FormTable(L, eps.degree, vals)
    ok, wit = is_A_multilinear(bad)
    assert not ok and wit["word"] is not None


def oracle_case(name):
    L = catalog_entry(name)[0].L
    policy = TruncationPolicy(3)
    ambient, multi = {}, {}
    for side, fs in ((ambient, ambient_basis_forms(L, policy)),
                     (multi, multilinear_basis(L, policy))):
        for _, f in fs:
            side.setdefault(f.degree, []).append(f)
    return L, ambient, multi


ORACLE_CASES = {name: oracle_case(name)
                for name in ("exterior_pair", "truncated_poly",
                             "quasi_sample")}


def strip_word(L, w, start_degree):
    """Pull every algebra coefficient out of a word, left to right:
    (sign, product of the coefficients, bare generator name tuple in
    canonical order), or None when the bare word vanishes.  Independent
    of coalgebra.stripped_slots, which strips one slot at a time."""
    A = L.over
    sign, pre = 1, start_degree
    coeff = {A.unit: ONE}
    names, sdegs = [], []
    for g in w:
        b, x = L.split(g)
        if A.basis.degree[b] % 2 and pre % 2:
            sign = -sign
        coeff = multiply(A, coeff, {b: ONE})
        names.append(x)
        sdegs.append(L.a_basis.degree[x] + 1)
        pre += sdegs[-1]
    if any(names.count(x) > 1 and d % 2 for x, d in zip(names, sdegs)):
        return None
    perm = sorted(range(len(w)), key=lambda i: (sdegs[i], names[i]))
    return (sign * koszul_sign(perm, sdegs), coeff,
            tuple(names[i] for i in perm))


def bare_value_extension(L, degree, bare):
    """The form with the given values on bare words, extended to every
    word by strip_word."""
    vals = {}
    for n in sorted({len(k) for k in bare}):
        for w in words_of_length(L, n):
            stripped = strip_word(L, w, degree)
            if stripped is not None and stripped[2] in bare:
                sign, coeff, key = stripped
                vals[w] = vec_scale(Q(sign),
                                    multiply(L.over, coeff, bare[key]))
    return FormTable(L, degree, vals)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ORACLE_CASES)), st.integers(0, 2**32 - 1))
def test_multilinearity_agrees_with_the_bare_value_oracle(name, seed):
    # a form is module-multilinear iff it is the multilinear extension of
    # its own values on bare words (every coefficient the unit)
    L, ambient, multi = ORACLE_CASES[name]
    rng = random.Random(seed)
    degree = rng.choice(sorted(multi))
    pool = multi[degree]
    if rng.random() < 0.5:
        pool = pool + ambient[degree]
    f = FormTable(L, degree, {})
    for h in rng.sample(pool, min(len(pool), rng.randint(1, 3))):
        f = f.add(h.scale(Q(rng.randint(-3, 3), rng.randint(1, 3))))
    unit = L.over.unit
    bare = {tuple(L.split(g)[1] for g in w): v for w, v in f.values.items()
            if all(L.split(g)[0] == unit for g in w)}
    oracle = f == bare_value_extension(L, degree, bare)
    assert is_A_multilinear(f)[0] == oracle


# --------------------------------------------------------- descent checks

def test_descent_trivial_base():
    rep = descent_check(SL2, SL2_PARTIAL, SL2_T, 1)
    assert rep["violations"] == []
    assert rep["bracket_summand_failures"] == []
    assert rep["anchor_summand_failures"] == []


def test_descent_exterior_pair():
    L, partial, t = exterior_pair()
    rep = descent_check(L, partial, t, 1)
    assert rep["violations"] == []
    # for genuine anchor data the summands fail individually
    assert rep["anchor_summand_failures"]
    assert rep["bracket_summand_failures"]


def test_descent_fails_for_non_multilinear_anchor():
    L, partial, t = tp2()
    t1 = {w: op for j in t.maps for w, op in t.maps[j].items()}
    bad = dict(t1)
    key = (("x|u"),)
    bad[key] = bad[key].add(
        LinearMap(L.over.basis, L.over.basis, 0, {("x", "x"): ONE}))
    tbad = TwistingCochain(L, {1: bad})
    rep = descent_check(L, partial, tbad, 1)
    assert rep["violations"]


# --------------------------------------------------- square and bigrading

def test_square_check_valid_instances():
    assert square_check(SL2, SL2_PARTIAL, SL2_T, TruncationPolicy(4)) == []
    L, partial, t = tp2()
    assert square_check(L, partial, t, TruncationPolicy(3)) == []
    L, partial, t = exterior_pair()
    assert square_check(L, partial, t, TruncationPolicy(2)) == []


def jacobi_violator():
    L = ModuleSpec(QQ, GradedBasis([("x", 0), ("y", 0), ("z", 0)]))
    table = {
        (g("x"), g("y")): {g("x"): Q(1)},
        (g("y"), g("z")): {g("y"): Q(1)},
        (g("x"), g("z")): {g("z"): Q(-1)},
    }
    return L, coderivation_from_brackets(L, {2: table}), TwistingCochain(L, {})


def test_square_check_jacobi_violation():
    L, partial, t = jacobi_violator()
    rep = square_check(L, partial, t, TruncationPolicy(4))
    assert rep
    assert all(r["level"] == 2 for r in rep)
    hits = [r for r in rep if r["word"] == (g("x"), g("y"), g("z"))
            and r["form"] == "delta:1@1|x"]
    # the residual pairs the 1-form dual to x with the Jacobi sum -(x+y+z)
    assert len(hits) == 1
    assert hits[0]["value"] in ({"1": ONE}, {"1": -ONE})


def test_degree_window_never_narrows_the_square_check():
    L, partial, t = jacobi_violator()
    rep = square_check(L, partial, t, TruncationPolicy(4))
    assert rep
    assert square_check(L, partial, t,
                        TruncationPolicy(4, degree_window=(0, 0))) == rep


def test_bigrade_check():
    assert bigrade_check(SL2, SL2_PARTIAL, SL2_T, TruncationPolicy(3)) == []
    L, partial, t = exterior_pair()
    assert bigrade_check(L, partial, t, TruncationPolicy(2)) == []


# ------------------------------------------------------- cohomology ranks

def test_cohomology_abelian_line():
    L = ModuleSpec(QQ, GradedBasis([("u", 0)]))
    ranks = cohomology_ranks(L, Coderivation(L, {}), TwistingCochain(L, {}),
                             TruncationPolicy(3))
    assert {d: r["rank"] for d, r in ranks.items()} == {0: 1, -1: 1}


def test_cohomology_sl2():
    ranks = cohomology_ranks(SL2, SL2_PARTIAL, SL2_T, TruncationPolicy(3))
    assert {d: r["rank"] for d, r in ranks.items()} == {
        0: 1, -1: 0, -2: 0, -3: 1}
    assert not ranks[-1]["flagged"] and not ranks[-2]["flagged"]


def test_cohomology_abelian_plane_with_dotted_generator_name():
    # a generator label may contain the "." that joins monomial names;
    # the product monomial must still be in the basis
    L = ModuleSpec(QQ, GradedBasis([("a.z", 0), ("b", 0)]))
    policy = TruncationPolicy(3, degree_window=(-3, 1))
    ranks = cohomology_ranks(L, Coderivation(L, {}), TwistingCochain(L, {}),
                             policy)
    assert {d: r["rank"] for d, r in ranks.items()
            if not r["flagged"]} == {0: 1, -1: 2, -2: 1}


def test_cohomology_row_reduces_each_degree_once(monkeypatch):
    # the rank out of degree d + 1 is the rank into degree d: sl2 at W=4
    # with window (-4, 1) has forms in 4 degrees, so 4 reductions
    calls = []

    def counting(rows, ncols):
        calls.append(len(rows))
        return row_echelon(rows, ncols)

    monkeypatch.setattr(forms, "row_echelon", counting)
    ranks = cohomology_ranks(SL2, SL2_PARTIAL, SL2_T,
                             TruncationPolicy(4, degree_window=(-4, 1)))
    assert {d: r["rank"] for d, r in ranks.items()} == {
        1: 0, 0: 1, -1: 0, -2: 0, -3: 1, -4: 0}
    assert len(calls) == 4


def test_cohomology_reduces_only_the_columns_rows_hit(monkeypatch):
    widths = []

    def recording(rows, ncols):
        widths.append(ncols)
        assert all(any(row[c] for row in rows) for c in range(ncols))
        return row_echelon(rows, ncols)

    monkeypatch.setattr(forms, "row_echelon", recording)
    ranks = cohomology_ranks(SL2, SL2_PARTIAL, SL2_T, TruncationPolicy(3))
    assert {d: r["rank"] for d, r in ranks.items()} == {
        0: 1, -1: 0, -2: 0, -3: 1}
    assert widths


def test_cohomology_window_flagging():
    policy = TruncationPolicy(3, degree_window=(-2, 0))
    ranks = cohomology_ranks(SL2, SL2_PARTIAL, SL2_T, policy)
    assert sorted(ranks) == [-2, -1, 0]
    assert ranks[-2]["flagged"] and ranks[0]["flagged"]
    assert not ranks[-1]["flagged"]


def inverse(P):
    """Inverse of a square rational matrix, None when it is singular:
    Gauss-Jordan on [P | 1] pivots on the columns of P alone."""
    n = len(P)
    rows = [list(r) + [Q(int(i == j)) for j in range(n)]
            for i, r in enumerate(P)]
    if row_echelon(rows, 2 * n) != list(range(n)):
        return None
    return [[x / rows[i][i] for x in rows[i][n:]] for i in range(n)]


def change_of_basis(d, P, Pinv):
    """The Lie algebra d in the basis e'_i = sum_a P[a][i] e_a: the
    bracket of e'_i and e'_j, written back in the primed basis."""
    labels = d.L.l_basis.labels

    def bracket(u, v):
        out = dict(d.bracket.get((u, v), {}))
        return out or {k: -c for k, c in d.bracket.get((v, u), {}).items()}

    table = {}
    for i, j in combinations(range(len(labels)), 2):
        vec = {}
        for a, u in enumerate(labels):
            for b, v in enumerate(labels):
                if P[a][i] and P[b][j]:
                    vec_axpy(vec, P[a][i] * P[b][j], bracket(u, v))
        new = {labels[k]: sum(Pinv[k][c] * vec.get(w, 0)
                              for c, w in enumerate(labels))
               for k in range(len(labels))}
        new = {k: c for k, c in new.items() if c}
        if new:
            table[(labels[i], labels[j])] = new
    return LieRinehartData(d.L, table, {})


def gl2():
    """gl2 as sl2 plus a central generator c."""
    L = ModuleSpec(QQ, GradedBasis([("e", 0), ("f", 0), ("h", 0),
                                    ("c", 0)]))
    return LieRinehartData(L, SL2_TABLE, {})


BASIS_DATA = {"sl2": lambda: catalog_entry("sl2")[0],
              "heisenberg": lambda: catalog_entry("heisenberg")[0],
              "gl2": gl2}


def standard_ranks(name, W):
    sh = BASIS_DATA[name]().as_sh()
    return cohomology_ranks(sh.L, sh.partial, sh.t, TruncationPolicy(W))


BASIS_W = 3
BASIS_RANKS = {name: standard_ranks(name, BASIS_W) for name in BASIS_DATA}


def test_gl2_standard_ranks_are_its_betti_numbers():
    # H(gl2) = H(sl2) (x) H(u1): Betti numbers 1, 1, 0, 1, 1 of the
    # k-forms, in degree -k
    ranks = BASIS_RANKS["gl2"]
    inner = {d: r["rank"] for d, r in ranks.items() if not r["flagged"]}
    assert inner and inner == {d: [1, 1, 0, 1, 1][-d] for d in inner}


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(sorted(BASIS_RANKS)), st.integers(0, 2**32 - 1))
@example("gl2", 0)
def test_betti_numbers_are_invariant_under_a_change_of_basis(name, seed):
    rng = random.Random(seed)
    d = BASIS_DATA[name]()
    n = len(d.L.l_basis.labels)
    Pinv = None
    while Pinv is None:
        P = [[Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
        Pinv = inverse(P)
    d2 = change_of_basis(d, P, Pinv)
    policy = TruncationPolicy(BASIS_W)
    assert check_lie_rinehart(d2, policy) == []
    sh = d2.as_sh()
    assert (cohomology_ranks(sh.L, sh.partial, sh.t, policy)
            == BASIS_RANKS[name])


def test_cohomology_exterior_line_pair():
    # base = exterior algebra on one odd generator, module = its full
    # derivation module (free of rank 1 on d/dz): classically the
    # cohomology retracts onto the constants
    A = exterior_algebra([("z", -1)])
    dz = Derivation(A, 1, {("1", "z"): ONE})
    L, partial, t = derivation_pair(A, [("u", "z", dz)])
    ranks = cohomology_ranks(L, partial, t, TruncationPolicy(3))
    got = {d: r["rank"] for d, r in ranks.items()}
    assert got[0] == 1
    assert all(v == 0 for d, v in got.items()
               if d != 0 and not ranks[d]["flagged"])
    # the bottom boundary degree carries a truncation artifact and must
    # therefore be flagged
    assert ranks[min(got)]["flagged"]


def test_cohomology_refuses_on_square_residual():
    L, partial, t = jacobi_violator()
    with pytest.raises(ValueError):
        cohomology_ranks(L, partial, t, TruncationPolicy(4))


# --------------------------------------------------- twisting residuals

def all_words(L, W):
    return word_basis(L, TruncationPolicy(W))


def test_twisting_residual_vanishes_for_genuine_anchors():
    for L, partial, t in (exterior_pair(), tp2()):
        for j in (1, 2, 3):
            for w in all_words(L, 3):
                assert twisting_residual(L, t, partial, j, w) == {}


def test_twisting_residual_detects_scaled_anchor():
    L, partial, t2 = tp2(scale=2)
    # doubling the anchor doubles the bracket term but quadruples the
    # composite term, leaving minus two copies of x^2 d/dx at level 2
    w = ("1|u", "1|v")
    res = twisting_residual(L, t2, partial, 2, w)
    assert res == {("x^2", "x"): Q(-2)}
    for w2 in all_words(L, 2):
        assert twisting_residual(L, t2, partial, 1, w2) == {}


def residual_pairing(L, t, partial, j, a_label, words):
    """Form sending w to the level-j residual applied to the algebra
    element, with the adjoint Koszul sign."""
    adeg = L.over.basis.degree[a_label]
    vals = {}
    for w in words:
        ent = twisting_residual(L, t, partial, j, w)
        vec = {}
        for (k, s), c in ent.items():
            if s == a_label:
                vec[k] = vec.get(k, Q(0)) + c
        vec = {k: v for k, v in vec.items() if v}
        if vec:
            s = -ONE if (adeg % 2 and word_degree(L, w) % 2) else ONE
            vals[w] = vec_scale(s, vec)
    return vals


def test_residual_controls_operator_anticommutators():
    # the anticommutator identity: ([D0, del^t_j] + sum [del^bra_k,
    # del^t_(j-k)] + sum del^t_k del^t_(j-k)) on a constant equals the
    # pairing of the level-j residual with that constant
    cases = [exterior_pair(), tp2(), tp2(scale=2), dg_anchor()]
    for L, partial, t in cases:
        words = all_words(L, 3)
        for a_label in L.over.basis.labels:
            a = constant_form(L, {a_label: ONE})
            for j in (1, 2):
                lhs = hom_differential(partial_t(a, t, j)).add(
                    partial_t(hom_differential(a), t, j))
                for k in range(1, j):
                    lhs = lhs.add(
                        partial_bra(partial_t(a, t, j - k), partial, k))
                    lhs = lhs.add(
                        partial_t(partial_bra(a, partial, k), t, j - k))
                    lhs = lhs.add(
                        partial_t(partial_t(a, t, j - k), t, k))
                rhs = residual_pairing(L, t, partial, j, a_label, words)
                for w in words:
                    assert lhs.value(w) == rhs.get(w, {})


# ------------------------------------------------- full-ambient oracles

def level_differentials(L, partial, t, W):
    """D_0 .. D_(W-1) as tables of sparse columns: table[j][(w, a)] is
    D_j(delta_(a@w)) as {(word, label): coefficient}, for every word w up
    to length W and every level with |w| + j <= W.  D_j raises word
    length by exactly j (bigrade_check), so the columns left out land
    beyond W."""
    table = [{} for _ in range(W)]
    for _, f in ambient_basis_forms(L, TruncationPolicy(W)):
        [(w, vec)] = f.values.items()
        key = (w, next(iter(vec)))
        for j in range(min(W, W - len(w) + 1)):
            g = build_D(f, partial, t, j)
            table[j][key] = {(w2, a2): c for w2, v in g.values.items()
                             for a2, c in v.items()}
    return table


def bigrade_check(L, partial, t, policy):
    """Each level-j differential must raise word length by exactly j on
    every ambient dual-basis form (the complementary degree shift then
    follows from homogeneity)."""
    report = []
    for name, f in ambient_basis_forms(L, policy):
        p = f.support_lengths()[0] if f.support_lengths() else 0
        for j in range(policy.W):
            g = build_D(f, partial, t, j)
            for w in g.values:
                if len(w) != p + j:
                    report.append({"level": j, "form": name, "word": w,
                                   "expected_length": p + j})
    return report


def failing_square_levels(L, partial, t, W):
    """The levels j < W at which the sum of D_k D_(j-k) is nonzero on
    some dual-basis form on words w up to W with |w| + j <= W, read from
    the full level table."""
    table = level_differentials(L, partial, t, W)
    failing = set()
    for j in range(W):
        for key in table[j]:
            sq = {}
            for k in range(j + 1):
                for key2, c in table[j - k][key].items():
                    vec_axpy(sq, c, table[k][key2])
            if sq:
                failing.add(j)
                break
    return failing


def catalog_homotopy(name):
    data = catalog_entry(name)[0]
    if hasattr(data, "as_sh"):
        return data.as_sh()
    return quasi_to_sh(data) if hasattr(data, "triple") else data


# quasi_sample has a nonzero module differential and two anchor levels
SQUARE_CASES = {name: catalog_homotopy(name)
                for name in ("exterior_pair", "truncated_poly",
                             "quasi_sample")}


def perturbed(rng, sh):
    """Random rational level-1/2 corestriction and anchor perturbations;
    each anchor perturbation is a derivation of A, so the premise of the
    generator square check holds."""
    L = sh.L
    A = L.over
    cor = {j: {w: dict(v) for w, v in tab.items()}
           for j, tab in sh.partial.cor.items()}
    maps = {j: dict(tab) for j, tab in sh.t.maps.items()}
    for j in (1, 2):
        for _ in range(rng.randint(0, 2)):
            w = rng.choice(words_of_length(L, j + 1))
            targets = [x for x in L.sl_basis.labels
                       if L.sl_degree(x) == word_degree(L, w) - 1]
            if targets:
                vec = cor.setdefault(j, {}).setdefault(w, {})
                x = rng.choice(targets)
                vec[x] = vec.get(x, 0) + Q(rng.randint(-2, 2),
                                           rng.randint(1, 2))
        for _ in range(rng.randint(0, 1)):
            w = rng.choice(words_of_length(L, j))
            space = derivation_space(A, word_degree(L, w) - 1)
            if space:
                op = rng.choice(space).action.scale(
                    Q(rng.randint(-2, 2), rng.randint(1, 2)))
                old = maps.setdefault(j, {}).get(w)
                maps[j][w] = op if old is None else old.add(op)
    return L, Coderivation(L, cor), TwistingCochain(L, maps)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(SQUARE_CASES)), st.sampled_from([3, 4]),
       st.integers(0, 2**32 - 1))
def test_generator_square_levels_agree_with_the_full_table(name, W, seed):
    # with derivation anchor values the level-j part of D squared is a
    # derivation of the cup product, so probing the cup generators finds
    # exactly the levels that fail on some dual-basis form up to W
    L, partial, t = perturbed(random.Random(seed), SQUARE_CASES[name])
    assert t.validation_report() == []
    report = square_check(L, partial, t, TruncationPolicy(W))
    assert ({r["level"] for r in report}
            == failing_square_levels(L, partial, t, W))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(SQUARE_CASES)), st.integers(0, 2),
       st.integers(0, 2**32 - 1))
def test_level_differentials_are_cup_derivations(name, j, seed):
    # D_j (f cup g) = D_j f cup g + (-1)^|f| f cup D_j g
    sh = SQUARE_CASES[name]
    assert_cup_derivation(lambda f: build_D(f, sh.partial, sh.t, j), sh.L,
                          random.Random(seed), [-2, -1, 0, 1])


# ---------------------------------------------- level differential table

TABLE_W = 3


def table_case(make):
    L, partial, t = make()
    return L, partial, t, level_differentials(L, partial, t, TABLE_W)


TABLE_CASES = {"exterior_pair": table_case(exterior_pair),
               "tp2": table_case(tp2), "dg_anchor": table_case(dg_anchor)}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(TABLE_CASES)), st.integers(0, 2**32 - 1))
def test_level_table_matches_build_D(name, seed):
    # D_j is linear and raises word length by exactly j, so its columns
    # at the dual-basis forms give D_j of any form on words up to W
    L, partial, t, table = TABLE_CASES[name]
    rng = random.Random(seed)
    f = random_form(rng, L, rng.choice([-2, -1, 0, 1]), TABLE_W)
    for j in range(TABLE_W):
        got = {}
        for w, vec in f.values.items():
            for al, c in vec.items():
                vec_axpy(got, c, table[j].get((w, al), {}))
        want = {(w, al): c
                for w, v in build_D(f, partial, t, j).values.items()
                if len(w) <= TABLE_W for al, c in v.items()}
        assert got == want


def test_square_residual_order_is_independent_of_hash_seed():
    # residual words are sorted within each (level, form), so the report
    # does not follow the string hash
    code = ("from mdca.coalgebra import TruncationPolicy\n"
            "from mdca.forms import square_check\n"
            "from test_forms import tp2\n"
            "L, partial, t = tp2(scale=2)\n"
            "print(square_check(L, partial, t, TruncationPolicy(3)))\n")
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(here, os.pardir, "src"), here])
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        outs.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout)
    assert outs[0] != "[]\n"
    assert outs[0] == outs[1]
