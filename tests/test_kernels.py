"""The word, cup and Leibniz kernels against their oracles.

coalgebra.splittings gives one triple per distinct pair of factors,
coalgebra.shuffle_coefficient the coefficient of one pair in closed
form, coalgebra.normalize_word counts inversions among odd generators, and
algebra.leibniz_defects runs on integer copies and divides back once;
each is compared here with the direct computation kept in
operator_reference.
"""

from fractions import Fraction as Q
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from mdca.algebra import (AlgebraSpec, exterior_algebra, leibniz_defects,
                          truncated_polynomial)
from mdca.coalgebra import (normalize_word, shuffle_coefficient, splittings,
                            words_of_length)
from mdca.graded import GradedBasis, LinearMap
from mdca.instances import catalog_entry

from operator_reference import (derivation_space, reference_leibniz_defect,
                                reference_leibniz_violations,
                                reference_normalize_word,
                                reference_splittings)

# modules with distinct odd generators and repeated even ones
MODULES = {name: catalog_entry(name)[0].L
           for name in ("quasi_sample", "exterior_pair")}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(MODULES)), st.integers(0, 5), st.randoms())
def test_grouped_splittings_sum_the_position_subsets(name, n, rnd):
    L = MODULES[name]
    word = rnd.choice(words_of_length(L, n))
    for left_size in range(n + 2):
        triples = splittings(L, word, left_size)
        pairs = [(left, right) for _, left, right in triples]
        assert len(set(pairs)) == len(pairs)
        assert {(left, right): c for c, left, right in triples} == (
            reference_splittings(L, word, left_size))


def test_splittings_group_the_subsets_of_a_repeated_even_generator():
    L = MODULES["exterior_pair"]
    g = next(g for g in L.sl_basis.labels if L.sl_degree(g) % 2 == 0)
    word = (g,) * 5
    # five equal generators: one pair per left size, C(5, k) subsets each
    assert splittings(L, word, 2) == ((10, word[:2], word[:3]),)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(MODULES)), st.integers(0, 5), st.randoms())
def test_shuffle_coefficient_is_the_coefficient_of_its_splitting(name, n,
                                                                 rnd):
    L = MODULES[name]
    word = rnd.choice(words_of_length(L, n))
    for left_size in range(n + 1):
        for m, left, right in splittings(L, word, left_size):
            assert shuffle_coefficient(L, left, right) == (m, word)
    # a pair of canonical words drawn apart: zero exactly where their
    # concatenation repeats an odd generator
    k = rnd.randint(0, n)
    left = rnd.choice(words_of_length(L, k))
    right = rnd.choice(words_of_length(L, n - k))
    m, w = shuffle_coefficient(L, left, right)
    odd = [g for g in left + right if L.sl_degree(g) % 2]
    if len(set(odd)) < len(odd):
        assert (m, w) == (0, None)
    else:
        assert m != 0
        assert m == reference_splittings(L, w, k)[(left, right)]


def canonical_words(L, n):
    """The sorted multisets of n generators, vanishing ones included."""
    gens = sorted(L.sl_basis.labels, key=L.word_sort_key)
    return list(combinations_with_replacement(gens, n))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(MODULES)), st.integers(0, 5), st.randoms(),
       st.booleans())
def test_normalize_word_matches_the_koszul_sign(name, n, rnd, unknown):
    L = MODULES[name]
    gens = list(rnd.choice(canonical_words(L, n)))
    rnd.shuffle(gens)
    if unknown:
        gens.insert(rnd.randint(0, n), "nowhere|x")
        with pytest.raises(ValueError) as want:
            reference_normalize_word(L, gens)
        with pytest.raises(ValueError) as got:
            normalize_word(L, gens)
        assert str(got.value) == str(want.value)
        return
    L._norm_cache.pop(tuple(gens), None)
    assert normalize_word(L, gens) == reference_normalize_word(L, gens)


def scaled_truncated():
    """Q[x]/(x^3) in the basis 1, x, y = (3/2) x^2: x x = (2/3) y, so the
    structure constants have a denominator."""
    basis = GradedBasis([("1", 0), ("x", -2), ("y", -4)])
    mult = {("1", a): {a: 1} for a in ("1", "x", "y")}
    mult.update({(a, "1"): {a: 1} for a in ("x", "y")})
    mult[("x", "x")] = {"y": Q(2, 3)}
    return AlgebraSpec(basis, "1", mult)


ALGEBRAS = {
    "exterior pair": exterior_algebra([("q", -1), ("r", -1)]),
    "exterior line": exterior_algebra([("t", -1)]),
    "truncated": truncated_polynomial("x", 3),
    "truncated, graded": truncated_polynomial("x", 3, degree=-2),
    "truncated, scaled": scaled_truncated(),
}


def random_operator(A, degree, rnd):
    """A degree-homogeneous operator with non-integer rational entries."""
    deg = A.basis.degree
    ent = {}
    for s in A.basis.labels:
        for t in A.basis.labels:
            if deg[t] == deg[s] + degree and rnd.random() < 0.6:
                ent[(t, s)] = Q(rnd.randint(-4, 4), rnd.randint(1, 6))
    return ent


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(ALGEBRAS)), st.integers(-4, 4), st.randoms(),
       st.booleans())
def test_integer_leibniz_violations_are_the_nonzero_defects(
        name, degree, rnd, derivation):
    A = ALGEBRAS[name]
    if derivation:
        # a genuine derivation with non-integer coefficients
        ent = {}
        for d in derivation_space(A, degree):
            c = Q(rnd.randint(-4, 4), rnd.randint(1, 6))
            for k, v in d.entries.items():
                ent[k] = ent.get(k, 0) + c * v
    else:
        ent = random_operator(A, degree, rnd)
    op = LinearMap(A.basis, A.basis, degree, ent)
    got = leibniz_defects(A, op)
    if derivation:
        assert got == []
    # the pairs and, divided back by mu * e, the Fraction defects
    assert got == [(p, reference_leibniz_defect(A, op, *p))
                   for p in reference_leibniz_violations(A, op)]
