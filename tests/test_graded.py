import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from mdca.graded import (GradedBasis, LinearMap, compose, kernel_of_rows,
                         koszul_sign, rank_and_kernel, row_echelon, vec_add,
                         vec_sub)


def brute_sign(perm, degs):
    # independent oracle: enumerate transposed pairs directly
    s = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s *= (-1) ** (degs[perm[i]] * degs[perm[j]])
    return s


def test_koszul_sign_swap_odd():
    assert koszul_sign([1, 0], [1, 1]) == -1


def test_koszul_sign_identity():
    assert koszul_sign([0, 1, 2], [3, 7, 2]) == 1


def test_koszul_sign_three_cycle():
    # cycle sending position 0->1->2->0, degrees (1,1,2): compose the two
    # adjacent transpositions it factors into and multiply their signs
    degs = [1, 1, 2]
    perm = [2, 0, 1]  # item at pos0 is old index 2, etc.
    s1 = koszul_sign([0, 2, 1], degs)          # swap last two: degs 1,2 -> +1
    degs_after = [degs[0], degs[2], degs[1]]
    s2 = koszul_sign([1, 0, 2], degs_after)    # swap first two: degs 1,2 -> +1
    assert koszul_sign(perm, degs) == s1 * s2 == brute_sign(perm, degs)


@given(st.integers(2, 6).flatmap(
    lambda n: st.tuples(st.permutations(range(n)),
                        st.lists(st.integers(0, 5), min_size=n, max_size=n))))
def test_koszul_sign_matches_pair_enumeration(pd):
    perm, degs = pd
    assert koszul_sign(list(perm), degs) == brute_sign(list(perm), degs)


def test_koszul_sign_homomorphism_all_odd():
    # for odd degrees the sign is the ordinary permutation sign, which is
    # multiplicative under composition
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 6)
        degs = [1] * n
        p = list(range(n)); rng.shuffle(p)
        q = list(range(n)); rng.shuffle(q)
        pq = [p[q[i]] for i in range(n)]
        assert koszul_sign(pq, degs) == koszul_sign(p, degs) * koszul_sign(q, degs)


def test_koszul_sign_rejects_bad_input():
    with pytest.raises(ValueError):
        koszul_sign([0, 1], [1])
    with pytest.raises(ValueError):
        koszul_sign([0, 0], [1, 1])


B2 = GradedBasis([("a", 0), ("b", 0)])
B3 = GradedBasis([("x", 0), ("y", 0), ("z", 0)])


def test_compose_identity_and_zero():
    f = LinearMap(B2, B3, 0, {("x", "a"): Q(2), ("y", "b"): Q(1, 3)})
    assert compose(LinearMap.identity(B3), f) == f
    assert compose(f, LinearMap.identity(B2)) == f
    z = LinearMap.zero(B3, B2, 0)
    assert compose(f, LinearMap.zero(B2, B2, 0)).is_zero()
    assert compose(z, f).source == B2


def rand_map(rng, src, tgt):
    ent = {}
    for t, _ in tgt.gens:
        for s, _ in src.gens:
            ent[(t, s)] = Q(rng.randint(-5, 5), rng.randint(1, 4))
    return LinearMap(src, tgt, 0, ent)


def test_compose_matches_triple_loop():
    rng = random.Random(11)
    for _ in range(20):
        f = rand_map(rng, B3, B3)
        g = rand_map(rng, B3, B3)
        fg = compose(f, g)
        for s in B3.labels:
            for t in B3.labels:
                acc = sum((f.entries.get((t, m), Q(0)) * g.entries.get((m, s), Q(0))
                           for m in B3.labels), Q(0))
                assert fg.entries.get((t, s), Q(0)) == acc


def test_compose_basis_mismatch():
    f = rand_map(random.Random(0), B3, B3)
    g = rand_map(random.Random(1), B2, B2)
    with pytest.raises(ValueError):
        compose(f, g)


def test_homogeneity_enforced():
    with pytest.raises(ValueError):
        LinearMap(GradedBasis([("u", 0)]), GradedBasis([("v", 3)]), 0,
                  {("v", "u"): Q(1)})


def test_rank_and_kernel_zero_and_identity():
    z = LinearMap.zero(B3, B3, 0)
    rk = rank_and_kernel(z, (0, 0))
    assert rk[0][0] == 0 and len(rk[0][1]) == 3
    rk = rank_and_kernel(LinearMap.identity(B3), (0, 0))
    assert rk[0] == (3, [])


def test_rank_one_matrix():
    # [[1,2],[2,4]] has zero determinant, so rank 1
    f = LinearMap(B2, B2, 0, {("a", "a"): Q(1), ("a", "b"): Q(2),
                              ("b", "a"): Q(2), ("b", "b"): Q(4)})
    det = Q(1) * Q(4) - Q(2) * Q(2)
    assert det == 0
    rank, kb = rank_and_kernel(f, (0, 0))[0]
    assert rank == 1 and len(kb) == 1
    assert f.apply(kb[0]) == {}


def test_rank_plus_nullity():
    rng = random.Random(3)
    for _ in range(25):
        ent = {}
        for t in B3.labels:
            for s in B3.labels:
                if rng.random() < 0.6:
                    ent[(t, s)] = Q(rng.randint(-3, 3))
        f = LinearMap(B3, B3, 0, ent)
        rank, kb = rank_and_kernel(f, (0, 0))[0]
        assert rank + len(kb) == 3
        for v in kb:
            assert f.apply(v) == {}


@given(st.tuples(st.integers(-10**6, 10**6), st.integers(1, 10**6),
                 st.integers(-10**6, 10**6), st.integers(1, 10**6)))
def test_exact_arithmetic_round_trip(t):
    a = Q(t[0] * 2**200 + 1, t[1])
    b = Q(t[2], t[3] * 2**199 + 1)
    u, v = {"a": a}, {"a": b}
    assert vec_sub(vec_add(u, v), v) == u
    assert a.denominator > 0
    from math import gcd
    assert gcd(abs(a.numerator), a.denominator) == 1


def test_kernel_of_rows_deterministic():
    rows = [[Q(0), Q(1), Q(2)], [Q(0), Q(2), Q(4)]]
    r1 = kernel_of_rows(rows, 3)
    r2 = kernel_of_rows(rows, 3)
    assert r1 == r2
    assert r1[0] == 1


def gauss_jordan(rows, ncols):
    """Oracle: Fraction Gauss-Jordan with the same pivot rule (first
    nonzero entry in column order), pivots left unnormalised."""
    piv_cols = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        p = rows[r][c]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c] / p
                for j in range(c, ncols):
                    rows[i][j] -= f * rows[r][j]
        piv_cols.append(c)
        r += 1
    return piv_cols


# row scales far beyond machine words, in numerator and in denominator
SCALES = (Q(1), Q(-1), Q(2**200 + 1, 3), Q(5, 2**199 + 1))
SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def rational_matrices(draw):
    """Combinations of at most `rank` random rows, so most matrices are
    rank deficient, with some columns zeroed and rows scaled."""
    ncols = draw(st.integers(0, 6))
    nrows = draw(st.integers(0, 6))
    rank = draw(st.integers(0, 4))
    basis = [draw(st.lists(SMALL, min_size=ncols, max_size=ncols))
             for _ in range(rank)]
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0))))
    rows = []
    for _ in range(nrows):
        coeffs = draw(st.lists(SMALL, min_size=rank, max_size=rank))
        scale = draw(st.sampled_from(SCALES))
        rows.append([Q(0) if c in zero_cols else
                     scale * sum((k * b[c] for k, b in zip(coeffs, basis)),
                                 Q(0))
                     for c in range(ncols)])
    return rows, ncols


@given(rational_matrices())
def test_row_echelon_matches_fraction_gauss_jordan(case):
    rows, ncols = case
    oracle = [list(r) for r in rows]
    pivots = gauss_jordan(oracle, ncols)
    got = [list(r) for r in rows]
    assert row_echelon(got, ncols) == pivots
    reduced = [[x / row[pc] for x in row] for row, pc in zip(oracle, pivots)]
    zero = [[Q(0)] * ncols] * (len(rows) - len(pivots))
    assert got == reduced + zero
    kernel = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [Q(0)] * ncols
            v[fc] = Q(1)
            for row, pc in zip(oracle, pivots):
                v[pc] = -row[fc] / row[pc]
            kernel.append(v)
    assert kernel_of_rows(rows, ncols) == (len(pivots), kernel)
