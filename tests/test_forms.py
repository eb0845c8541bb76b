import os
import random
import subprocess
import sys
from fractions import Fraction as Q
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from mdca import forms
from mdca.algebra import (AlgebraSpec, exterior_algebra, leibniz_defects,
                          multiply, rational_algebra, truncated_polynomial)
from mdca.coalgebra import (Coderivation, ModuleSpec, TruncationPolicy,
                            coderivation_from_brackets, word_basis,
                            word_degree, words_of_length)
from mdca.forms import (FormTable, Refusal, TwistingCochain,
                        ambient_basis_forms, build_D, cohomology_ranks,
                        constant_form, cup, descent_check, dual_monomials,
                        dual_one_forms, is_A_multilinear, multilinear_basis,
                        multilinear_generators, operator_route, square_check,
                        twisting_residual)
from mdca.graded import (PRIME, GradedBasis, LinearMap, ONE, row_echelon,
                         vec_axpy, vec_scale, vec_sub)
from mdca.instances import catalog_entry, catalog_names
from mdca.io_json import emit_instance
from mdca.structures import (LieRinehartData, ShLieRinehartData,
                             check_lie_rinehart, check_sh_lie_rinehart,
                             quasi_to_sh)

from operator_reference import (anchor_apply, derivation_space, form_eval,
                                graded_commutator, koszul_sign, nonzero,
                                reference_bra, reference_cohomology_ranks,
                                reference_cup, reference_D,
                                reference_leibniz_check,
                                reference_normalize_word,
                                reference_square_check, reference_t)


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

    base: list of (generator label, algebra generator label, derivation
    as a LinearMap on the basis of A);
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
            for k, c in multiply(A, {a: ONE}, d0.column(s_lbl)).items():
                ent[(k, s_lbl)] = s * c
        return LinearMap(A.basis, A.basis, adeg[a] + d0.degree, ent)

    table = {}
    for g1 in L.l_basis.labels:
        for g2 in L.l_basis.labels:
            c = graded_commutator(A, as_derivation(g1), as_derivation(g2))
            vec = {}
            for xl, dl, _ in base:
                for al, co in c.column(dl).items():
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
            t1[(label,)] = d
    return L, partial, TwistingCochain(L, {1: t1})


def exterior_pair():
    """A = exterior algebra on two degree -1 generators, module = its
    derivations, free of rank 2 on the two partial derivatives."""
    A = exterior_algebra([("q", -1), ("r", -1)])
    dq = LinearMap(A.basis, A.basis, 1, {("1", "q"): ONE, ("r", "q.r"): ONE})
    dr = LinearMap(A.basis, A.basis, 1, {("1", "r"): ONE, ("q", "q.r"): -ONE})
    assert leibniz_defects(A, dq) == []
    assert leibniz_defects(A, dr) == []
    return derivation_pair(A, [("u", "q", dq), ("v", "r", dr)])


def test_catalog_derivation_pair_matches_all_ordered_pairs():
    # the catalog builds one commutator per unordered pair and takes the
    # reverse by graded antisymmetry; the file it emits is the one built
    # from a commutator for every ordered pair
    data, policy = catalog_entry("exterior_pair")
    assert emit_instance(data, policy) == emit_instance(
        ShLieRinehartData(*exterior_pair()), policy)


def tp2(scale=1, generator_bracket=True):
    """Ungraded pair: A = truncated polynomials, L free of rank 2 with
    anchors x d/dx and x^2 d/dx and bracket [u, v] = v (or 0)."""
    A = truncated_polynomial("x", 3)
    L = ModuleSpec(A, GradedBasis([("u", 0), ("v", 0)]))
    theta = {"u": LinearMap(A.basis, A.basis, 0,
                            {("x", "x"): ONE, ("x^2", "x^2"): Q(2)}),
             "v": LinearMap(A.basis, A.basis, 0, {("x^2", "x"): ONE})}
    gen_bracket = ({("u", "v"): {"v": ONE}, ("v", "u"): {"v": -ONE}}
                   if generator_bracket else {})

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
        out = reference_bra(f, SL2_PARTIAL, 1)
        n = m + 1
        import itertools
        for args in itertools.product(labels, repeat=n):
            acc = {}
            for j in range(n):
                for k in range(j + 1, n):
                    rest = [args[i] for i in range(n) if i not in (j, k)]
                    sgn = Q((-1) ** (j + 1 + k + 1))
                    for bl, bc in sl2_bracket(args[j], args[k]).items():
                        vec_axpy(acc, sgn * bc, form_eval(f, [bl] + rest))
            acc = vec_scale(Q((-1) ** (n - 1)), acc)
            assert form_eval(out, args) == acc


def test_anchor_operator_matches_classical_formula():
    # (del^t f)(a_1..a_n) = (-1)^(n-1) sum_i (-1)^(i-1)
    #                        theta(a_i)(f(..hat i..))
    rng = random.Random(29)
    L, partial, t = tp2()
    labels = L.l_basis.labels
    import itertools
    for m in (0, 1, 2):
        f = random_form(rng, L, -m, m)
        out = reference_t(f, t, 1)
        n = m + 1
        for args in itertools.product(labels, repeat=n):
            acc = {}
            for i in range(n):
                rest = [args[k] for k in range(n) if k != i]
                sgn = Q((-1) ** i)
                vec_axpy(acc, sgn,
                         anchor_apply(t, 1, (args[i],), form_eval(f, rest)))
            acc = vec_scale(Q((-1) ** (n - 1)), acc)
            assert form_eval(out, args) == acc


# ------------------------------------------------------------- cup product

def test_cup_two_one_forms():
    duals = dual_one_forms(SL2)
    ef = cup(duals["e"], duals["f"])
    assert ef.values.get((g("e"), g("f")), {}) == {"1": -ONE}
    # general rule on a pair of arbitrary 1-forms
    rng = random.Random(3)
    a = random_form(rng, SL2, -1, 1)
    b = random_form(rng, SL2, -1, 1)
    ab = cup(a, b)
    for X in SL2.l_basis.labels:
        for Y in SL2.l_basis.labels:
            lhs = form_eval(ab, [X, Y])
            rhs = {}
            vec_axpy(rhs, -ONE,
                     multiply(QQ, form_eval(a, [X]), form_eval(b, [Y])))
            vec_axpy(rhs, ONE,
                     multiply(QQ, form_eval(b, [X]), form_eval(a, [Y])))
            assert lhs == rhs


def test_cup_unital_associative_commutative():
    rng = random.Random(41)
    L, _, _ = exterior_pair()
    one = constant_form(L, L.over.unit)
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


def hom_differential(f):
    """D_0 of the library: build_D at level 0, which reads the module and
    algebra differentials and neither family's tables."""
    return build_D(f, Coderivation(f.L, {}), TwistingCochain(f.L, {}), 0)


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
    # each half alone is a cup derivation too, on the ambient forms
    assert_cup_derivation(lambda f: reference_bra(f, partial, 1),
                          L, rng, degrees)
    assert_cup_derivation(lambda f: reference_t(f, t, 1), L, rng, degrees)
    assert_cup_derivation(lambda f: build_D(f, partial, t, 1),
                          L, rng, degrees)
    Ld, pd, td = dg_anchor()
    assert_cup_derivation(hom_differential, Ld, rng, [-1, 0, 1], 3)
    assert_cup_derivation(lambda f: reference_t(f, td, 1), Ld, rng,
                          [-1, 0, 1], 3)


def test_anchor_on_constants_is_adjoint():
    L, partial, t = exterior_pair()
    for al, ad in L.over.basis.gens:
        f = reference_t(constant_form(L, al), t, 1)
        for w in words_of_length(L, 1):
            s = -ONE if (ad % 2 and word_degree(L, w) % 2) else ONE
            assert f.values.get(w, {}) == vec_scale(
                s, anchor_apply(t, 1, w, {al: ONE}))


# --------------------------------------------------------- multilinearity

def test_multilinearity_of_generators():
    for L in (SL2, exterior_pair()[0]):
        for al in L.over.basis.labels:
            assert is_A_multilinear(constant_form(L, al))[0]
        for form in dual_one_forms(L).values():
            assert is_A_multilinear(form)[0]


def test_multilinearity_failure_witnessed():
    L, _, _ = exterior_pair()
    eps = dual_one_forms(L)["u"]
    vals = {w: dict(v) for w, v in eps.values.items()}
    vals[("q|u",)]["q"] += 1  # perturb a single value
    bad = FormTable(L, eps.degree, vals)
    ok, wit, defect = is_A_multilinear(bad)
    assert not ok
    # (q|u) is the first laden word; only its value moved, by 1 at q
    assert wit == {"word": ("q|u",), "slot": 0, "scalar": "q"}
    assert defect == {"q": 1}


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
    # over the ground field the bracket operator alone descends
    for _, key, f in multilinear_generators(SL2, 1):
        bra = reference_bra(f, SL2_PARTIAL, 1)
        assert is_A_multilinear(bra)[0]
        assert rep["images"][key] == bra


def test_descent_exterior_pair():
    L, partial, t = exterior_pair()
    rep = descent_check(L, partial, t, 1)
    assert set(rep) == {"violations", "images"}
    assert rep["violations"] == []


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


def one_slot_defect(f, word, slot):
    """f(word) - sign * a * f(bare), a the coefficient of the slot and
    bare the word with that slot made bare: the sign moves a across the
    form and the earlier slots, then sorts bare (reference_normalize_word,
    a vanishing bare word valued zero)."""
    L = f.L
    A = L.over
    a, x = L.split(word[slot])
    pre = f.degree + word_degree(L, word[:slot])
    s = -1 if A.basis.degree[a] % 2 and pre % 2 else 1
    sgn, bare = reference_normalize_word(
        L, word[:slot] + (L.pair(A.unit, x),) + word[slot + 1:])
    return vec_sub(f.values.get(word, {}), vec_scale(
        Q(s * sgn), multiply(A, {a: ONE}, f.values.get(bare, {}))))


def test_descent_residual_is_the_defect_of_a_perturbed_image(monkeypatch):
    # one laden value of the level-1 image of a dual 1-form, nonzero
    # before, moves by c: the descent residual is the defect at its
    # witness, recomputed here from the definition, and that is +-c at
    # one label
    sh = quasi_to_sh(catalog_entry("quasi_sample")[0])
    L, partial, t = sh.L, sh.partial, sh.t
    unit, c = L.over.unit, Q(3)
    eps = dual_one_forms(L)["x"]
    real = forms.build_D
    image = real(eps, partial, t, 1)
    w0 = min(w for w in image.values
             if any(L.split(g)[0] != unit for g in w))
    b = min(image.values[w0])

    def perturbed(f, partial, t, j):
        out = real(f, partial, t, j)
        if j == 1 and f == eps:
            out = out.add(FormTable(L, out.degree, {w0: {b: c}}))
        return out

    monkeypatch.setattr(forms, "build_D", perturbed)
    rep = descent_check(L, partial, t, 1)
    (res,) = rep["violations"]
    j, name, wit = res["witness"]
    assert (j, name) == (1, "dual:x")
    assert L.split(wit["word"][wit["slot"]])[0] == wit["scalar"]
    want = one_slot_defect(rep["images"][("dual", ("x",))], wit["word"],
                           wit["slot"])
    assert res["value"] == want
    assert list(want.values()) in ([c], [-c])


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


def recording_rankers(monkeypatch):
    """Wrap forms.rank_modulo and forms.row_echelon; each call is logged
    as (name, id of rows, row count, column count), after a check that
    every column is hit by some row."""
    calls = []

    def wrap(name, real):
        def recording(rows, ncols):
            assert all(any(row[c] for row in rows) for c in range(ncols))
            calls.append((name, id(rows), len(rows), ncols))
            return real(rows, ncols)
        monkeypatch.setattr(forms, name, recording)

    wrap("rank_modulo", forms.rank_modulo)
    wrap("row_echelon", forms.row_echelon)
    return calls


def test_cohomology_ranks_each_degree_once_modulo_p(monkeypatch):
    # the rank out of degree d + 1 is the rank into degree d: a window
    # (-4, 1) needs the ranks out of the 7 degrees -4..2.  Each degree's
    # matrix is built once and ranked modulo p once; row_echelon reduces
    # that same matrix only where the bounds do not meet the modular
    # rank: never on sl2, whose Betti numbers vanish between the ends,
    # and on heisenberg in a dense basis only out of the 1-forms, where
    # b_1 = b_2 = 2 leave both bounds above the rank 1
    calls = recording_rankers(monkeypatch)
    policy = TruncationPolicy(4, degree_window=(-4, 1))
    for name, exact in (("sl2", 0), ("heisenberg", 1)):
        sh = random_basis_data(name, 0)
        calls.clear()
        certificates = {}
        ranks = cohomology_ranks(sh.L, sh.partial, sh.t, policy,
                                 certificates)
        assert ranks == reference_cohomology_ranks(sh.L, sh.partial, sh.t,
                                                   policy)
        modular = [c for c in calls if c[0] == "rank_modulo"]
        assert len(modular) == 7 and len({c[1] for c in modular}) == 7
        assert sorted(certificates) == list(range(-4, 3))
        reduced = [c for c in calls if c[0] == "row_echelon"]
        assert len(reduced) == exact
        assert list(certificates.values()).count("exact") == exact
        # row_echelon reads the very matrices rank_modulo ranked
        assert {c[1:] for c in reduced} <= {c[1:] for c in modular}


def test_cohomology_reduces_only_the_columns_rows_hit(monkeypatch):
    calls = recording_rankers(monkeypatch)
    ranks = cohomology_ranks(SL2, SL2_PARTIAL, SL2_T, TruncationPolicy(3))
    assert {d: r["rank"] for d, r in ranks.items()} == {
        0: 1, -1: 0, -2: 0, -3: 1}
    assert any(c[3] for c in calls)
    sh = random_basis_data("heisenberg", 0)
    calls.clear()
    cohomology_ranks(sh.L, sh.partial, sh.t, TruncationPolicy(3))
    assert any(c[0] == "row_echelon" and c[3] for c in calls)


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


def sl_n(n):
    """sl_n in the basis e_ij = E_ij (i != j) and h_i = E_ii -
    E_(i+1)(i+1), its brackets the commutators of the matrices."""
    labels = (["e%d%d" % (i, j) for i in range(n) for j in range(n)
               if i != j] + ["h%d" % i for i in range(n - 1)])

    def matrix(x):
        if x[0] == "e":
            return {(int(x[1]), int(x[2])): 1}
        i = int(x[1:])
        return {(i, i): 1, (i + 1, i + 1): -1}

    def coordinates(m):
        # a traceless diagonal diag(c_0..c_(n-1)) is the sum of
        # (c_0 + ... + c_i) h_i
        out = {g("e%d%d" % ij): Q(c) for ij, c in m.items()
               if ij[0] != ij[1] and c}
        run = 0
        for i in range(n - 1):
            run += m.get((i, i), 0)
            if run:
                out[g("h%d" % i)] = Q(run)
        return out

    def commutator(a, b):
        out = {}
        for s, x, y in ((1, a, b), (-1, b, a)):
            for (i, k), c in x.items():
                for (k2, j), c2 in y.items():
                    if k == k2:
                        out[(i, j)] = out.get((i, j), 0) + s * c * c2
        return out

    L = ModuleSpec(QQ, GradedBasis([(x, 0) for x in labels]))
    table = {}
    for u, v in combinations(labels, 2):
        vec = coordinates(commutator(matrix(u), matrix(v)))
        if vec:
            table[(g(u), g(v))] = vec
    return LieRinehartData(L, table, {})


BASIS_DATA = {"sl2": lambda: catalog_entry("sl2")[0],
              "heisenberg": lambda: catalog_entry("heisenberg")[0],
              "gl2": gl2}
ALGEBRAS = dict(BASIS_DATA, sl3=lambda: sl_n(3), sl4=lambda: sl_n(4))


def random_basis(d, rng):
    """The Lie algebra d in a random rational basis drawn from rng."""
    n = len(d.L.l_basis.labels)
    Pinv = None
    while Pinv is None:
        P = [[Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
        Pinv = inverse(P)
    return change_of_basis(d, P, Pinv)


def random_basis_data(name, seed):
    """Homotopy data of ALGEBRAS[name] in the random basis of seed."""
    return random_basis(ALGEBRAS[name](), random.Random(seed)).as_sh()


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
    d2 = random_basis(BASIS_DATA[name](), random.Random(seed))
    policy = TruncationPolicy(BASIS_W)
    assert check_lie_rinehart(d2, policy) == []
    sh = d2.as_sh()
    assert (cohomology_ranks(sh.L, sh.partial, sh.t, policy)
            == BASIS_RANKS[name])


@pytest.mark.parametrize("name", sorted(set(catalog_names())
                                         - {"jacobi_violator"}))
@pytest.mark.parametrize("W", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("window", [None, (-3, 2)])
def test_cohomology_ranks_equal_an_exact_reduction_of_every_degree(
        name, W, window):
    sh = catalog_homotopy(name)
    policy = TruncationPolicy(W, degree_window=window)
    assert (cohomology_ranks(sh.L, sh.partial, sh.t, policy)
            == reference_cohomology_ranks(sh.L, sh.partial, sh.t, policy))


@pytest.mark.parametrize("name", ["gl2", "sl2", "heisenberg", "sl3"])
def test_cohomology_ranks_in_a_random_basis_equal_the_exact_reduction(
        name):
    sh = random_basis_data(name, 5)
    for window in (None, (-4, 1)):
        policy = TruncationPolicy(3, degree_window=window)
        assert (cohomology_ranks(sh.L, sh.partial, sh.t, policy)
                == reference_cohomology_ranks(sh.L, sh.partial, sh.t,
                                              policy))


def nilpotent_with_a_multiple_of_the_prime():
    """The 2-step nilpotent Lie algebra with [x1, x2] = z1 + z2 and
    [x3, x4] = PRIME z2.  d z1 and d z2 are x1 x2 and x1 x2 + PRIME x3
    x4 up to a common sign: two primitive integer rows that are equal
    modulo PRIME, so the rank out of the 1-forms drops modulo PRIME."""
    L = ModuleSpec(QQ, GradedBasis([(x, 0) for x in
                                    ("x1", "x2", "x3", "x4", "z1", "z2")]))
    table = {(g("x1"), g("x2")): {g("z1"): Q(1), g("z2"): Q(1)},
             (g("x3"), g("x4")): {g("z2"): Q(PRIME)}}
    return LieRinehartData(L, table, {}).as_sh()


def test_cohomology_falls_back_where_the_rank_drops_modulo_p(monkeypatch):
    sh = nilpotent_with_a_multiple_of_the_prime()
    policy = TruncationPolicy(3)
    dropped = []
    real = forms.rank_modulo

    def recording(rows, ncols):
        got = real(rows, ncols)
        exact = len(row_echelon([list(r) for r in rows], ncols))
        assert got <= exact
        if got < exact:
            dropped.append(len(rows))
        return got

    monkeypatch.setattr(forms, "rank_modulo", recording)
    certificates = {}
    ranks = cohomology_ranks(sh.L, sh.partial, sh.t, policy, certificates)
    assert ranks == reference_cohomology_ranks(sh.L, sh.partial, sh.t,
                                               policy)
    # the 6 one-forms: their rank is 2 over Q and 1 modulo PRIME, and
    # the exact reduction gives it
    assert dropped == [6]
    assert certificates[-1] == "exact"


def test_sl4_has_no_cohomology_in_degrees_one_and_two():
    # H*(sl4) is an exterior algebra on generators of degrees 3, 5 and
    # 7; at W = 3 the 2-forms close by the bounds, with no row reduction
    assert check_lie_rinehart(sl_n(4), TruncationPolicy(3)) == []
    sh = random_basis_data("sl4", 1)
    certificates = {}
    ranks = cohomology_ranks(sh.L, sh.partial, sh.t, TruncationPolicy(3),
                             certificates)
    assert ranks[-1] == {"rank": 0, "flagged": False}
    assert ranks[-2] == {"rank": 0, "flagged": False}
    assert ranks[0]["rank"] == 1
    assert set(certificates.values()) == {"bounds"}


def test_a_negative_betti_number_is_an_error(monkeypatch):
    # with the operator route skipped, the D of jacobi_violator, which
    # does not square to zero, reaches the ranks: the rank out of the
    # 2-forms plus the rank into them exceeds their count, and the
    # negative Betti number is refused, not returned
    monkeypatch.setattr(forms, "operator_route", lambda *args: [])
    L, partial, t = jacobi_violator()
    with pytest.raises(ArithmeticError,
                       match="Betti number -1 in degree -2"):
        cohomology_ranks(L, partial, t, TruncationPolicy(3))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["exterior_pair", "truncated_poly", "quasi_sample"]),
       st.integers(0, 2**32 - 1))
def test_cup_equals_the_sum_over_every_splitting(name, seed):
    rng = random.Random(seed)
    L = catalog_homotopy(name).L
    f = random_form(rng, L, rng.choice([-2, -1, 0]), 2, density=0.3)
    h = random_form(rng, L, rng.choice([-2, -1, 0]), 2, density=0.3)
    for a in (f, h):
        # forms on one length at a time too, as in multilinear_basis
        for p in a.support_lengths():
            one = FormTable(L, a.degree, {w: v for w, v in a.values.items()
                                          if len(w) == p})
            assert cup(one, h) == reference_cup(one, h)
    assert cup(f, h) == reference_cup(f, h)


@pytest.mark.parametrize("name", sorted(catalog_names()) + [
    "seeded gl2", "seeded sl2"])
@pytest.mark.parametrize("W", [2, 3, 4, 5])
def test_multilinear_basis_keeps_every_product(name, W):
    # c_a cup m is never zero (m is a nonzero multiple of the unit on its
    # own bare word), so multilinear_basis drops no pair (a, m)
    L = (random_basis_data(name.split()[1], 1) if name.startswith("seeded")
         else catalog_entry(name)[0]).L
    basis = multilinear_basis(L, TruncationPolicy(W))
    assert len(basis) == (len(L.over.basis.labels)
                          * (1 + len(dual_monomials(L, W))))
    assert not any(f.is_zero() for _, f in basis)


def test_cohomology_exterior_line_pair():
    # base = exterior algebra on one odd generator, module = its full
    # derivation module (free of rank 1 on d/dz): classically the
    # cohomology retracts onto the constants
    A = exterior_algebra([("z", -1)])
    dz = LinearMap(A.basis, A.basis, 1, {("1", "z"): ONE})
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


def test_square_check_probes_level_W_on_the_constants():
    # with a zero generator bracket the anchor of tp2 is no Lie morphism:
    # [x d/dx, x^2 d/dx] = x^2 d/dx, but [u, v] = 0.  At W = 2 only D_1
    # D_1 on the constants sees it, a level-2 term the rows of the
    # cohomology complex compose; every level below 2 squares to zero
    L, partial, t = tp2(generator_bracket=False)
    policy = TruncationPolicy(2)
    report = square_check(L, partial, t, policy)
    assert [(r["level"], r["form"], r["word"], r["value"])
            for r in report] == [(2, "delta:x@1", ("1|u", "1|v"),
                                  {"x^2": -ONE})]
    assert report == reference_square_check(L, partial, t, 2)
    assert failing_square_levels(L, partial, t, 2) == {2}
    with pytest.raises(Refusal):
        cohomology_ranks(L, partial, t, policy)
    # the direct route fails on the twisting identity at level 2, so the
    # routes agree
    rep = check_sh_lie_rinehart(ShLieRinehartData(L, partial, t), policy)
    assert [(r["route"], r["axiom"]) for r in rep] == [
        ("direct", "anchor twisting identity"), ("operators", "square")]


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
    # pairing of the level-j residual with that constant; the anchor and
    # bracket operators are the Fraction halves of operator_reference
    cases = [exterior_pair(), tp2(), tp2(scale=2), dg_anchor()]
    for L, partial, t in cases:
        words = all_words(L, 3)
        for a_label in L.over.basis.labels:
            a = constant_form(L, a_label)
            for j in (1, 2):
                lhs = hom_differential(reference_t(a, t, j)).add(
                    reference_t(hom_differential(a), t, j))
                for k in range(1, j):
                    lhs = lhs.add(reference_bra(
                        reference_t(a, t, j - k), partial, k))
                    lhs = lhs.add(reference_t(
                        reference_bra(a, partial, k), t, j - k))
                    lhs = lhs.add(reference_t(
                        reference_t(a, t, j - k), t, k))
                rhs = residual_pairing(L, t, partial, j, a_label, words)
                for w in words:
                    assert lhs.values.get(w, {}) == rhs.get(w, {})


# ------------------------------------------------- full-ambient oracles

def level_differentials(L, partial, t, W):
    """D_0 .. D_(W-1) as tables of sparse columns: table[j][(w, a)] is
    D_j(delta_(a@w)) as {(word, label): coefficient}, for every word w up
    to length W and every level with |w| + j <= W, from the Fraction
    reference (operator_reference).  D_j raises word length by exactly j
    (bigrade_check), so the columns left out land beyond W."""
    table = [{} for _ in range(W)]
    for _, f in ambient_basis_forms(L, TruncationPolicy(W)):
        [(w, vec)] = f.values.items()
        key = (w, next(iter(vec)))
        for j in range(min(W, W - len(w) + 1)):
            g = reference_D(f, partial, t, j)
            table[j][key] = {(w2, a2): c for w2, v in g.values.items()
                             for a2, c in v.items()}
    return table


def bigrade_check(L, partial, t, policy):
    """Each level-j differential must raise word length by exactly j on
    every ambient dual-basis form (the complementary degree shift then
    follows from homogeneity); D_j from the Fraction reference."""
    report = []
    for name, f in ambient_basis_forms(L, policy):
        p = f.support_lengths()[0] if f.support_lengths() else 0
        for j in range(policy.W):
            g = reference_D(f, partial, t, j)
            for w in g.values:
                if len(w) != p + j:
                    report.append({"level": j, "form": name, "word": w,
                                   "expected_length": p + j})
    return report


def failing_square_levels(L, partial, t, W):
    """The levels j < W at which the sum of D_k D_(j-k) is nonzero on
    some dual-basis form on words w up to W with |w| + j <= W, and level
    W if the sum of D_k D_(W-k) over k = 1..W-1 is nonzero on some
    constant, read from the full level table of the Fraction reference."""
    table = level_differentials(L, partial, t, W)
    failing = set()
    for j in range(W + 1):
        keys = table[j] if j < W else [k for k in table[0] if not k[0]]
        for key in keys:
            sq = {}
            for k in range(max(0, j - W + 1), min(j, W - 1) + 1):
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
                op = rng.choice(space).scale(
                    Q(rng.randint(-2, 2), rng.randint(1, 2)))
                old = maps.setdefault(j, {}).get(w)
                maps[j][w] = op if old is None else old.add(op)
    return L, Coderivation(L, {j: nonzero(tab) for j, tab in cor.items()}), \
        TwistingCochain(L, {j: nonzero(tab) for j, tab in maps.items()})


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
    # D_j (f cup g) = D_j f cup g + (-1)^|f| f cup D_j g, on forms on
    # words up to length 3
    sh = SQUARE_CASES[name]
    assert_cup_derivation(lambda f: build_D(f, sh.partial, sh.t, j), sh.L,
                          random.Random(seed), [-2, -1, 0, 1], 3)


def failing_operator_levels(L, partial, t, W):
    """The levels of the square residuals on the generators and of the
    Leibniz rule of D_j on their pairs (the oracle), and those of the
    square probed on products of two generators as well."""
    got = ({r["level"]
            for r in square_check(L, partial, t, TruncationPolicy(W))}
           | {r["level"] for r in reference_leibniz_check(L, partial, t, W)})
    want = {r["level"]
            for r in reference_square_check(L, partial, t, W, max_len=2)}
    return got, want


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(sorted(SQUARE_CASES)), st.sampled_from([3, 4]),
       st.integers(0, 2**32 - 1))
def test_square_and_leibniz_fail_where_the_product_probes_fail(name, W,
                                                               seed):
    # the square on the generators, with the Leibniz rule on their pairs,
    # fails at the levels of the square on the products of two generators
    L, partial, t = perturbed(random.Random(seed), SQUARE_CASES[name])
    got, want = failing_operator_levels(L, partial, t, W)
    assert got == want


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_square_and_leibniz_fail_where_the_product_probes_fail(
        name):
    sh = catalog_homotopy(name)
    got, want = failing_operator_levels(sh.L, sh.partial, sh.t, 4)
    assert got == want
    assert bool(got) == (name == "jacobi_violator")


def test_leibniz_check_catches_a_table_that_is_no_derivation(monkeypatch):
    # every anchor multiplicity read as +-1, a defect in the library, not
    # in the input: the operator route still fails, by the square on the
    # generators at level 2, and the Leibniz rule of the table's D_1
    # fails on pairs of generators
    real = forms.LevelTable._anchor_part

    def unit_multiplicity(self, j, u):
        return [(w, cols, 1 if m > 0 else -1, odd)
                for w, cols, m, odd in real(self, j, u)]

    monkeypatch.setattr(forms.LevelTable, "_anchor_part", unit_multiplicity)
    sh = catalog_homotopy("exterior_pair")
    report = operator_route(sh.L, sh.partial, sh.t, TruncationPolicy(4))
    assert {r["axiom"] for r in report} == {"square"}
    assert {r["witness"][0] for r in report} == {2}
    rule = reference_leibniz_check(sh.L, sh.partial, sh.t, 4, D=build_D)
    assert {r["level"] for r in rule} == {1}
    assert all(r["value"] for r in rule)
    assert reference_leibniz_check(sh.L, sh.partial, sh.t, 4) == []
    with pytest.raises(AssertionError):
        assert_cup_derivation(lambda f: build_D(f, sh.partial, sh.t, 1),
                              sh.L, random.Random(0), [-2, -1, 0, 1])



def test_cohomology_refuses_with_the_message_of_the_first_axiom():
    # forms.REFUSALS: one message per operator_route axiom, formatted with
    # the witness of the first residual (descent: test_cup_generators)
    sh = catalog_homotopy("jacobi_violator")
    with pytest.raises(Refusal) as e:
        cohomology_ranks(sh.L, sh.partial, sh.t, TruncationPolicy(3))
    assert str(e.value) == ("total differential does not square to zero "
                            "within the truncation window")
    sh = catalog_homotopy("truncated_poly")
    A = sh.L.over
    maps = {j: dict(tab) for j, tab in sh.t.maps.items()}
    maps[1][("1|u",)] = maps[1][("1|u",)].add(
        LinearMap(A.basis, A.basis, 0, {("x", "1"): Q(2, 7)}))
    with pytest.raises(Refusal) as e:
        cohomology_ranks(sh.L, sh.partial, TwistingCochain(sh.L, maps),
                         TruncationPolicy(3))
    assert str(e.value) == ("anchor value is not a derivation: "
                            "(1, ('1|u',), '1', '1')")
    assert e.value.residuals[0]["axiom"] == "anchor value is a derivation"

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
    # D_j is linear and raises word length by exactly j, so the columns
    # of the reference at the dual-basis forms give D_j of any form on
    # words up to W
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
