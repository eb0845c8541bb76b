import random
import sys
from fractions import Fraction as Q
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from mdca import graded
from mdca.graded import (ONE, PRIME, ZERO, GradedBasis, LinearMap, compose,
                         kernel_of_rows, rank_modulo, row_echelon, vec_axpy,
                         vec_pack, vec_scale, vec_sub, vec_unpack)

from operator_reference import koszul_sign, reference_rank_modulo


def identity(basis):
    return LinearMap(basis, basis, 0, {(x, x): ONE for x in basis.labels})


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
    assert compose(identity(B3), f) == f
    assert compose(f, identity(B2)) == f
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


def rank_and_kernel(f, degree_window):
    """Per-source-degree (rank, kernel basis) of a LinearMap, exact.

    Returns {degree: (rank, [kernel vectors over f.source])} for each degree
    in the inclusive window.
    """
    dmin, dmax = degree_window
    out = {}
    for d in range(dmin, dmax + 1):
        src = f.source.labels_of_degree(d)
        tgt = f.target.labels_of_degree(d + f.degree)
        rows = [[f.entries.get((t, s), ZERO) for s in src] for t in tgt]
        if not src:
            out[d] = (0, [])
            continue
        if not rows:
            rows = [[ZERO] * len(src)]
        rank, kb = kernel_of_rows(rows, len(src))
        vecs = [{s: c for s, c in zip(src, v) if c} for v in kb]
        out[d] = (rank, vecs)
    return out


def test_rank_and_kernel_zero_and_identity():
    z = LinearMap.zero(B3, B3, 0)
    rk = rank_and_kernel(z, (0, 0))
    assert rk[0][0] == 0 and len(rk[0][1]) == 3
    rk = rank_and_kernel(identity(B3), (0, 0))
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
    assert vec_sub(vec_axpy(dict(u), 1, v), v) == u
    assert a.denominator > 0
    from math import gcd
    assert gcd(abs(a.numerator), a.denominator) == 1


@pytest.mark.parametrize("c", [1, -1, ONE, -ONE, 2, Q(-1, 2)])
@pytest.mark.parametrize("u", [{"a": 3, "b": -2},
                               {"a": Q(3, 4), "b": Q(-5, 3)}])
def test_a_sign_copies_or_negates_what_a_product_would_give(c, u):
    # vec_scale takes a sign +-1 without a product; the entries must be
    # those of the product, in a new dict
    scaled = vec_scale(c, u)
    assert scaled == {k: c * x for k, x in u.items()}
    assert scaled is not u


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


UNIT_INT = st.integers(-1, 1)


@st.composite
def integer_matrices(draw):
    """Combinations of at most 4 rows with entries -1, 0 or 1, with
    coefficients -1, 0 or 1: most matrices are rank deficient, and no
    entry exceeds 4 in size."""
    ncols = draw(st.integers(0, 7))
    nrows = draw(st.integers(0, 7))
    rank = draw(st.integers(0, 4))
    basis = [draw(st.lists(UNIT_INT, min_size=ncols, max_size=ncols))
             for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        coeffs = draw(st.lists(UNIT_INT, min_size=rank, max_size=rank))
        rows.append([sum(k * b[c] for k, b in zip(coeffs, basis))
                     for c in range(ncols)])
    return rows, ncols


def exact_rank(rows, ncols):
    return len(row_echelon([[Q(x) for x in row] for row in rows], ncols))


@given(integer_matrices())
def test_rank_modulo_equals_the_exact_rank_on_small_entries(case):
    # by Hadamard's bound every minor is below (4 * sqrt(7))**7, about
    # 1.5 * 10**7, in size, and PRIME is about 3.4 * 10**7, so a nonzero
    # minor stays nonzero modulo PRIME
    rows, ncols = case
    before = [list(r) for r in rows]
    assert rank_modulo(rows, ncols) == exact_rank(rows, ncols)
    assert rows == before


@given(integer_matrices(), st.data())
def test_rank_modulo_never_exceeds_the_exact_rank(case, data):
    # a row scaled by PRIME vanishes modulo PRIME, and a row that differs
    # from another by PRIME times a third equals it modulo PRIME; either
    # may lower the rank modulo PRIME, never raise it
    rows, ncols = case
    if rows:
        i = data.draw(st.integers(0, len(rows) - 1))
        if data.draw(st.booleans()):
            rows[i] = [PRIME * x for x in rows[i]]
        else:
            k = data.draw(st.integers(0, len(rows) - 1))
            rows.append([x + PRIME * y for x, y in zip(rows[i], rows[k])])
    assert rank_modulo(rows, ncols) <= exact_rank(rows, ncols)


def test_rank_modulo_drops_where_prime_divides_every_maximal_minor():
    assert rank_modulo([[1, 0], [1, PRIME]], 2) == 1
    assert exact_rank([[1, 0], [1, PRIME]], 2) == 2
    assert rank_modulo([[PRIME, 2 * PRIME]], 2) == 0
    assert rank_modulo([[2, 4, 6], [3, 5, 7]], 3) == 2
    assert rank_modulo([], 0) == 0


ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-2 ** 80, 2 ** 80),
                    st.sampled_from([PRIME, -PRIME, PRIME - 1, 1 - PRIME,
                                     2 ** 64, -2 ** 64]))


@st.composite
def residue_matrices(draw):
    """Integer matrices for rank_modulo against the list oracle: empty
    ones, zero rows, negative and huge entries, and rows that differ from
    an earlier row by PRIME times a third."""
    ncols = draw(st.integers(0, 9))
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["entries", "zero", "shifted"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "shifted" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k = draw(st.integers(-2 ** 40, 2 ** 40))
            rows.append([x + k * PRIME * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(ENTRIES, min_size=ncols,
                                      max_size=ncols)))
    return rows, ncols


@given(residue_matrices())
def test_rank_modulo_equals_the_list_oracle(case):
    rows, ncols = case
    before = [list(r) for r in rows]
    assert rank_modulo(rows, ncols) == reference_rank_modulo(rows, ncols)
    assert rows == before


def slot_checked(budget, reductions):
    """graded._reduced, asserting first that every slot holds at most
    what budget updates of a reduced slot give, and that nothing spilt
    past the last slot."""
    real = graded._reduced
    most = PRIME - 1 + budget * (PRIME - 1) ** 2

    def checked(x, ncols):
        assert 0 <= x < 1 << (graded.SLOT_BITS * ncols)
        raw = x.to_bytes(ncols * graded.SLOT_BITS // 8, sys.byteorder)
        assert max(memoryview(raw).cast("Q"), default=0) <= most
        reductions.append(x)
        return real(x, ncols)
    return checked


@pytest.mark.parametrize("budget", [1, 2])
def test_rank_modulo_reduces_a_row_once_it_spends_its_budget(budget):
    # pivot row i is e_i + (PRIME - 1) e_n, and the last row (1, ..., 1, 0)
    # meets each with a = 1: every update adds (PRIME - 1)**2 to slot n,
    # the most one update adds, so slot n passes the budget's bound unless
    # the row is reduced every `budget` updates
    n = 6
    rows = [[int(c == i) + (PRIME - 1) * (c == n) for c in range(n + 1)]
            for i in range(n)] + [[1] * n + [0]]
    reductions = []
    with mock.patch.object(graded, "SLOT_BUDGET", budget), \
            mock.patch.object(graded, "_reduced",
                              slot_checked(budget, reductions)):
        assert rank_modulo(rows, n + 1) == reference_rank_modulo(rows, n + 1)
    # one reduction where each row leaves the pivots, and one more each
    # time the last row spends its budget
    assert len(reductions) == len(rows) + (n - 1) // budget


@pytest.mark.parametrize("budget", [1, 2])
@given(case=residue_matrices())
def test_rank_modulo_equals_the_list_oracle_on_a_small_budget(budget, case):
    rows, ncols = case
    with mock.patch.object(graded, "SLOT_BUDGET", budget), \
            mock.patch.object(graded, "_reduced",
                              slot_checked(budget, [])):
        assert rank_modulo(rows, ncols) == reference_rank_modulo(rows,
                                                                  ncols)


def test_the_slot_budget_is_the_most_updates_a_slot_holds():
    # a reduced slot is below PRIME and one update adds at most
    # (PRIME - 1)**2, so SLOT_BUDGET updates fit in SLOT_BITS and one more
    # may not; a 25-bit prime leaves 2**14 updates to 64-bit slots
    top = 1 << graded.SLOT_BITS
    budget = graded.SLOT_BUDGET
    assert PRIME < 2 ** 25 and budget == 2 ** 14
    assert PRIME - 1 + budget * (PRIME - 1) ** 2 < top
    assert PRIME - 1 + (budget + 1) * (PRIME - 1) ** 2 >= top


# ------------------------------------------------------- packed vectors

def packed(u, labels, bits):
    return vec_pack(u, {k: bits * i for i, k in enumerate(labels)})


@pytest.mark.parametrize("bits", [2, 3, 8, 63, 64, 65, 200])
@pytest.mark.parametrize("first", [1, -1])
def test_opposite_entries_at_the_edge_of_adjacent_slots_decode(bits, first):
    # +-(2**(bits - 1) - 1) in every slot, the signs alternating, so each
    # negative slot borrows from a full positive neighbour
    edge = (1 << bits - 1) - 1
    labels = ["a", "b", "c", "d", "e"]
    u = {k: edge * first * (-1) ** i for i, k in enumerate(labels)}
    x = packed(u, labels, bits)
    assert x
    assert vec_unpack(x, labels, bits) == u
    # a zero slot between them, and the edge in the top slot alone
    u = {"a": -edge * first, "c": edge * first}
    assert vec_unpack(packed(u, labels, bits), labels, bits) == u
    assert vec_unpack(packed({"e": -edge}, labels, bits), labels,
                      bits) == {"e": -edge}


def balanced_vector(draw, labels, bits):
    edge = (1 << bits - 1) - 1
    entry = st.one_of(st.integers(-edge, edge),
                      st.sampled_from([edge, -edge, 1, -1]))
    return {k: c for k in labels
            if (c := draw(st.one_of(st.just(0), entry)))}


@st.composite
def balanced_vectors(draw):
    bits = draw(st.integers(2, 90))
    labels = ["g%d" % i for i in range(draw(st.integers(1, 8)))]
    return balanced_vector(draw, labels, bits), labels, bits


@given(balanced_vectors())
def test_a_packed_vector_is_zero_exactly_when_every_entry_is(case):
    u, labels, bits = case
    x = packed(u, labels, bits)
    assert (x == 0) == (not u)
    assert vec_unpack(x, labels, bits) == u


@given(balanced_vectors(), st.data(), st.integers(-7, 7))
def test_packing_is_linear(case, data, m):
    # a multiply-add of packed vectors is the packed sum: |u + m v| is
    # below 8 times the edge, so 3 more bits hold it
    u, labels, bits = case
    v = balanced_vector(data.draw, labels, bits)
    x = packed(u, labels, bits + 3) + m * packed(v, labels, bits + 3)
    assert vec_unpack(x, labels, bits + 3) == vec_axpy(dict(u), m, v)
