import random
from fractions import Fraction as Q
from itertools import combinations_with_replacement, permutations
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from mdca.algebra import rational_algebra
from mdca.coalgebra import (Coderivation, ModuleSpec, TruncationPolicy,
                            check_coalgebra_perturbation,
                            coderivation_from_brackets, normalize_word,
                            splittings, suspension_sign, word_basis,
                            word_degree, words_of_length)
from mdca.graded import GradedBasis, LinearMap, ONE, ZERO, vec_axpy
from mdca.instances import catalog_entry
from mdca.structures import quasi_to_sh

from operator_reference import koszul_sign, nonzero


QQ = rational_algebra()


def module(gens, diff=None):
    return ModuleSpec(QQ, GradedBasis(gens), diff)


def g(x):
    # induced Q-basis label over the ground field
    return "1|" + x


SL2 = module([("e", 0), ("f", 0), ("h", 0)])
SL2_BRACKETS = {2: {
    (g("e"), g("f")): {g("h"): Q(1)},
    (g("e"), g("h")): {g("e"): Q(-2)},
    (g("f"), g("h")): {g("f"): Q(2)},
}}


def sl2_partial():
    return coderivation_from_brackets(SL2, SL2_BRACKETS)


def test_normalize_single_and_swap():
    L = module([("x", 0), ("y", 0)])
    assert normalize_word(L, [g("x")]) == (1, (g("x"),))
    assert normalize_word(L, [g("y"), g("x")]) == (-1, (g("x"), g("y")))
    assert normalize_word(L, [g("x"), g("x")]) == (0, None)


def test_normalize_unknown_label():
    with pytest.raises(ValueError):
        normalize_word(SL2, ["nope"])


def test_word_basis_single_even_generator():
    # |x| = 1 in L, so sx is even and powers survive
    L = module([("x", 1)])
    words = word_basis(L, TruncationPolicy(3))
    assert words == [(), (g("x"),), (g("x"),) * 2, (g("x"),) * 3]


def test_word_basis_single_odd_generator():
    L = module([("x", 0)])
    assert word_basis(L, TruncationPolicy(3)) == [(), (g("x"),)]


def test_word_basis_ignores_the_degree_window():
    # the window selects cohomology degrees; it never drops words
    L = module([("x", 0), ("y", 1)])
    words = word_basis(L, TruncationPolicy(4))
    assert word_basis(L, TruncationPolicy(4, degree_window=(-4, 1))) == words
    assert max(len(w) for w in words) == 4


def test_word_basis_sl2_counts():
    words = word_basis(SL2, TruncationPolicy(2))
    by_len = {}
    for w in words:
        by_len.setdefault(len(w), []).append(w)
    assert len(by_len.get(0, [])) == 1
    assert len(by_len.get(1, [])) == 3
    # three odd generators: squares vanish, C(3,2) = 3 pair words remain
    assert len(by_len.get(2, [])) == 3


def shuffle_diagonal(L, word):
    """Delta(word) as {(left, right): coefficient}, summed over the
    splittings."""
    out = {}
    for sgn, w1, w2 in (t for p in range(len(word) + 1)
                        for t in splittings(L, word, p)):
        k = (w1, w2)
        out[k] = out.get(k, ZERO) + sgn
        if not out[k]:
            del out[k]
    return out


def test_shuffle_diagonal_counit_and_primitives():
    assert shuffle_diagonal(SL2, ()) == {((), ()): 1}
    w = (g("e"),)
    assert shuffle_diagonal(SL2, w) == {(w, ()): 1, ((), w): 1}


def test_shuffle_diagonal_odd_pair():
    # oracle: expand (x ox 1 + 1 ox x)(y ox 1 + 1 ox y) with Koszul signs
    x, y = (g("e"),), (g("f"),)
    xy = (g("e"), g("f"))
    assert shuffle_diagonal(SL2, xy) == {
        (xy, ()): 1, (x, y): 1, (y, x): -1, ((), xy): 1}


def test_shuffle_diagonal_even_power_multiplicity():
    L = module([("x", 1)])
    w = (g("x"),) * 2
    assert shuffle_diagonal(L, w) == {
        (w, ()): 1, ((g("x"),), (g("x"),)): 2, ((), w): 1}


def mixed_module():
    return module([("x", 0), ("y", 1), ("z", 2)])


def test_coassociativity_and_cocommutativity():
    L = mixed_module()
    for w in word_basis(L, TruncationPolicy(3)):
        d = shuffle_diagonal(L, w)
        left = {}
        right = {}
        for (w1, w2), c in d.items():
            for (u1, u2), c2 in shuffle_diagonal(L, w1).items():
                k = (u1, u2, w2)
                left[k] = left.get(k, 0) + c * c2
                if not left[k]:
                    del left[k]
            for (u1, u2), c2 in shuffle_diagonal(L, w2).items():
                k = (w1, u1, u2)
                right[k] = right.get(k, 0) + c * c2
                if not right[k]:
                    del right[k]
        assert left == right
        # graded cocommutativity: twist with the Koszul sign is Delta again
        from mdca.coalgebra import word_degree
        tw = {}
        for (w1, w2), c in d.items():
            s = -1 if (word_degree(L, w1) % 2 and word_degree(L, w2) % 2) else 1
            tw[(w2, w1)] = s * c
        assert tw == d


def test_counit_property():
    L = mixed_module()
    for w in word_basis(L, TruncationPolicy(3)):
        acc = {}
        for (w1, w2), c in shuffle_diagonal(L, w).items():
            if w1 == ():
                acc[w2] = acc.get(w2, 0) + c
        assert acc == {w: 1}


def test_extend_sl2_pair():
    p = sl2_partial()
    out = p.apply_level(1, (g("e"), g("f")))
    assert out == {(g("h"),): Q(1)}


def test_extend_zero_corestriction():
    p = Coderivation(SL2, {})
    for w in word_basis(SL2, TruncationPolicy(3)):
        assert p.apply_level(1, w) == {}


def test_extend_sl2_triple_hand_oracle():
    # sum over the three 2-subsets of (se, sf, sh) with hand Koszul signs:
    #   {se,sf}: + s[e,f].sh = sh.sh = 0 (odd square)
    #   {se,sh}: - s[e,h].sf = +2 se.sf
    #   {sf,sh}: + s[f,h].se = 2 sf.se = -2 se.sf
    p = sl2_partial()
    out = p.apply_level(1, (g("e"), g("f"), g("h")))
    assert out == {}
    # same oracle on a word with a nonzero outcome
    out2 = p.apply_level(1, (g("e"), g("h")))
    assert out2 == {(g("e"),): Q(-2)}


def test_coderivation_co_leibniz():
    # Delta o del = (del ox id + id ox del) o Delta, Koszul signs included
    from mdca.coalgebra import word_degree
    p = sl2_partial()
    for w in word_basis(SL2, TruncationPolicy(4)):
        lhs = {}
        for w2, c in p.apply_level(1, w).items():
            for k, c2 in shuffle_diagonal(SL2, w2).items():
                lhs[k] = lhs.get(k, 0) + c * c2
                if not lhs[k]:
                    del lhs[k]
        rhs = {}
        for (w1, w2), c in shuffle_diagonal(SL2, w).items():
            for u, c2 in p.apply_level(1, w1).items():
                k = (u, w2)
                rhs[k] = rhs.get(k, 0) + c * c2
                if not rhs[k]:
                    del rhs[k]
            s = -1 if word_degree(SL2, w1) % 2 else 1
            for u, c2 in p.apply_level(1, w2).items():
                k = (w1, u)
                rhs[k] = rhs.get(k, 0) + s * c * c2
                if not rhs[k]:
                    del rhs[k]
        assert lhs == rhs


def test_levels_lower_length():
    p = sl2_partial()
    for w in word_basis(SL2, TruncationPolicy(3)):
        for w2 in p.apply_level(1, w):
            assert len(w2) == len(w) - 1


def dg_line():
    # L = Q-span(x, y), |x| = 0, |y| = 1, d(y) = x
    A = rational_algebra()
    basis = GradedBasis([("x", 0), ("y", 1)])
    M = ModuleSpec(A, basis)
    diff = LinearMap(M.l_basis, M.l_basis, -1, {(g("x"), g("y")): ONE})
    return ModuleSpec(A, basis, diff)


def test_d0_preserves_length_and_squares_to_zero():
    L = dg_line()
    assert L.validation_report() == []
    d0 = Coderivation(L, {})
    for w in word_basis(L, TruncationPolicy(3)):
        img = d0.apply_level(0, w)
        for w2 in img:
            assert len(w2) == len(w)
        dd = {}
        for w2, c in img.items():
            for w3, c2 in d0.apply_level(0, w2).items():
                dd[w3] = dd.get(w3, 0) + c * c2
                if not dd[w3]:
                    del dd[w3]
        assert dd == {}


def perturbation_report(partial, L, policy):
    """check_coalgebra_perturbation on the integer copy of partial at
    the least s that clears it and the word differential."""
    s = lcm(L.d0_denominator, partial.denominator)
    return check_coalgebra_perturbation(partial.scaled(s), L, policy, s)


def test_perturbation_report_abelian():
    p = Coderivation(SL2, {})
    assert perturbation_report(p, SL2, TruncationPolicy(4)) == []


def test_perturbation_report_sl2():
    assert perturbation_report(sl2_partial(), SL2, TruncationPolicy(4)) == []


def jacobi_violator():
    L = module([("x", 0), ("y", 0), ("z", 0)])
    brackets = {2: {
        (g("x"), g("y")): {g("x"): Q(1)},
        (g("y"), g("z")): {g("y"): Q(1)},
        (g("x"), g("z")): {g("z"): Q(-1)},
    }}
    return L, coderivation_from_brackets(L, brackets)


def test_perturbation_report_jacobi_violator():
    L, p = jacobi_violator()
    rep = perturbation_report(p, L, TruncationPolicy(4))
    assert rep
    hits = [r for r in rep if r["word"] == (g("x"), g("y"), g("z"))]
    assert len(hits) == 1 and hits[0]["level"] == 2
    val = hits[0]["value"]
    # Jacobi sum [[x,y],z] + [[y,z],x] + [[z,x],y] = -(x+y+z), up to the
    # engine's global sign
    expect = {g("x"): Q(-1), g("y"): Q(-1), g("z"): Q(-1)}
    neg = {k: -v for k, v in expect.items()}
    assert val in (expect, neg)


def entry_coderivation(name):
    data = catalog_entry(name)[0]
    sh = quasi_to_sh(data) if hasattr(data, "triple") else data
    return sh.L, sh.partial.cor


# quasi_sample has a nonzero module differential, so level 0 takes part
PERTURBED = {name: entry_coderivation(name)
             for name in ("exterior_pair", "truncated_poly", "quasi_sample")}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PERTURBED)), st.sampled_from([3, 4]),
       st.integers(0, 2**32 - 1))
def test_perturbation_levels_agree_with_every_word(name, W, seed):
    # the level-j part of the square is a coderivation, so checking it on
    # the words of length j + 1 finds exactly the levels that fail on
    # some word up to W
    L, base = PERTURBED[name]
    rng = random.Random(seed)
    cor = {}
    if rng.random() < 0.5:
        cor = {j: {w: dict(v) for w, v in tab.items()}
               for j, tab in base.items()}
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
    p = Coderivation(L, {j: nonzero(tab) for j, tab in cor.items()})
    report = perturbation_report(p, L, TruncationPolicy(W))
    failing = set()
    for j in range(1, W):
        for w in word_basis(L, TruncationPolicy(W)):
            res = {}
            for k in range(j + 1):
                p.apply_level_vec(k, p.apply_level(j - k, w), res)
            if res:
                failing.add(j)
    assert {r["level"] for r in report} == failing
    assert all(len(r["word"]) == r["level"] + 1 for r in report)


def brackets_from_coderivation(partial, n):
    """The n-ary bracket on the Q-basis of L encoded by the coderivation.

    Returns {basis label tuple: L-element}; tuples run over all ordered
    n-tuples with nonzero bracket.  The value is the desuspension of the
    symmetrized coderivation corestriction, including the 1/n! factor.
    The inverse of coderivation_from_brackets, which no verb needs.
    """
    L = partial.L
    out = {}
    labels = L.l_basis.labels
    fact = Q(1)
    for i in range(2, n + 1):
        fact *= i
    for tup in combinations_with_replacement(sorted(labels), n):
        for args in set(permutations(tup)):
            degs = [L.l_basis.degree[g] for g in args]
            ssgn = suspension_sign(degs)
            acc = {}
            sdegs = [d + 1 for d in degs]
            for perm in permutations(range(n)):
                psgn = koszul_sign(list(perm), sdegs)
                nsgn, w = normalize_word(L, [args[i] for i in perm])
                if nsgn == 0:
                    continue
                val = partial.cor.get(n - 1, {}).get(w)
                if not val:
                    continue
                vec_axpy(acc, Q(psgn * nsgn * ssgn) / fact, val)
            if acc:
                out[args] = acc
    return out


def test_brackets_round_trip_sl2():
    p = sl2_partial()
    b = brackets_from_coderivation(p, 2)
    assert b[(g("e"), g("f"))] == {g("h"): Q(1)}
    assert b[(g("f"), g("e"))] == {g("h"): Q(-1)}
    assert b[(g("h"), g("e"))] == {g("e"): Q(2)}


def test_brackets_round_trip_zero():
    assert brackets_from_coderivation(Coderivation(SL2, {}), 2) == {}


def random_skew_bracket(rng, L, labels):
    table = {}
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            vec = {l: Q(rng.randint(-4, 4)) for l in labels}
            vec = {k: v for k, v in vec.items() if v}
            if vec:
                table[(labels[i], labels[j])] = vec
    return {2: table}


def test_brackets_round_trip_random():
    rng = random.Random(23)
    L = module([("x", 0), ("y", 0), ("z", 0)])
    labels = [g("x"), g("y"), g("z")]
    for _ in range(20):
        br = random_skew_bracket(rng, L, labels)
        p = coderivation_from_brackets(L, br)
        back = brackets_from_coderivation(p, 2)
        for args, val in br[2].items():
            assert back.get(args, {}) == val


def test_graded_round_trip_with_mixed_degrees():
    rng = random.Random(4)
    L = mixed_module()
    labels = [g("x"), g("y"), g("z")]
    deg = {l: L.l_basis.degree[l] for l in labels}
    for _ in range(20):
        table = {}
        for i in range(len(labels)):
            for j in range(i, len(labels)):
                a, b = labels[i], labels[j]
                sa, sb = deg[a] + 1, deg[b] + 1
                if a == b and (sa % 2):
                    continue
                target = deg[a] + deg[b]
                vec = {l: Q(rng.randint(-3, 3)) for l in labels
                       if deg[l] == target}
                vec = {k: v for k, v in vec.items() if v}
                if vec:
                    table[(a, b)] = vec
        if not table:
            continue
        p = coderivation_from_brackets(L, {2: table})
        back = brackets_from_coderivation(p, 2)
        for args, val in table.items():
            sgn, w = normalize_word(L, list(args))
            if sgn == 0:
                continue
            assert back.get(args, {}) == val
