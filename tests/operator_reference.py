"""The Fraction reference for the level differentials D_j.

These are the candidate-enumeration operators the library used before
the level table (forms.LevelTable): each call enumerates the words its
image can reach and sums Fractions there, straight from the definitions.
The oracles of the tests read D_j from here, so that they compare the
table with an independent computation, not with itself.  The cup
product over every splitting and the cohomology ranks from an exact
reduction of every degree are here for the same reason, and so are the
paper's quasi illustration (D_1 and D_2 read straight from the quasi
data on alternating forms) and the Jacobi defect identity of quasi data.
So are the perturbation identities from their definition, each level
extended to whole words (reference_perturbation_value).  So are the
kernels' oracles: the Koszul sign of a permutation
(koszul_sign), the shuffle diagonal by position subsets, word sorting
by that sign, the Leibniz rule on Fractions, the derivations of an
algebra solved from the Leibniz system (derivation_space) and their
graded commutator (graded_commutator), and the rank
modulo PRIME by Gaussian elimination on lists of residues
(reference_rank_modulo).
"""

from fractions import Fraction as Q
from itertools import combinations

from mdca.coalgebra import (Coderivation, TruncationPolicy, normalize_word,
                            splittings, word_degree, words_of_length)
from mdca.algebra import leibniz_defects, multiply
from mdca.forms import (FormTable, ambient_basis_forms, constant_form,
                        dual_one_forms, generator_probes, live_levels)
from mdca.graded import (PRIME, LinearMap, ONE, ZERO, compose,
                         kernel_of_rows, row_echelon, vec_axpy, vec_scale)
from mdca.structures import extend_linearly, quasi_to_sh


def nonzero(table):
    """A perturbed corestriction or anchor level cut to the contract of
    Coderivation and TwistingCochain, which only store: no zero
    coefficient, no empty value and no zero operator."""
    out = {}
    for w, v in table.items():
        if not isinstance(v, LinearMap):
            v = {g: c for g, c in v.items() if c}
        if v and not (isinstance(v, LinearMap) and v.is_zero()):
            out[w] = v
    return out


def form_eval(f, args):
    """Value of a form on an arbitrary generator tuple, via canonical
    sorting."""
    sgn, w = normalize_word(f.L, list(args))
    if sgn == 0:
        return {}
    return vec_scale(Q(sgn), f.values.get(w, {}))


def form_eval_vec(f, wvec):
    """Value of a form on a linear combination of canonical words."""
    out = {}
    for w, c in wvec.items():
        vec_axpy(out, c, f.values.get(w, {}))
    return out


def anchor_apply(t, j, word, a_vec):
    """The level-j value of an anchor family on a canonical word, applied
    to an algebra element; zero where the family has no value."""
    op = t.maps.get(j, {}).get(word)
    return {} if op is None else op.apply(a_vec)


def reference_bra(f, partial, j):
    """Bracket operator: (-1)^(|f|+1) f after the level-j coderivation;
    level 0 is the word differential."""
    L = f.L
    sgn = ONE if (f.degree + 1) % 2 == 0 else -ONE
    # candidate words: replace one slot of a support word by any
    # corestriction key whose value contains that slot's generator
    by_value_gen = {}
    table = L.d0_table if j == 0 else partial.cor.get(j, {})
    for wc, vec in table.items():
        for g, c in vec.items():
            if c:
                by_value_gen.setdefault(g, []).append(wc)
    candidates = set()
    for u in f.values:
        for i, g in enumerate(u):
            if i and u[i] == u[i - 1]:
                continue
            for wc in by_value_gen.get(g, ()):
                s2, w = normalize_word(
                    L, list(wc) + list(u[:i]) + list(u[i + 1:]))
                if s2:
                    candidates.add(w)
    vals = {}
    for w in candidates:
        acc = vec_scale(sgn, form_eval_vec(f, partial.apply_level(j, w)))
        if acc:
            vals[w] = acc
    return FormTable(L, f.degree - 1, vals)


def reference_t(f, t, j):
    """Anchor operator: apply the level-j anchor value on the left factor
    of every splitting to the form value on the right factor; level 0 is
    the algebra differential after f, the anchor value on the empty
    word."""
    L = f.L
    if j == 0:
        return FormTable(L, f.degree - 1, {
            w: L.over.diff.apply(v) for w, v in f.values.items()})
    level = t.maps.get(j, {})
    candidates = set()
    for u in f.values:
        for w1 in level:
            s2, w = normalize_word(L, list(w1) + list(u))
            if s2:
                candidates.add(w)
    vals = {}
    for w in candidates:
        acc = {}
        for m, w1, w2 in splittings(L, w, left_size=j):
            v = f.values.get(w2)
            if not v:
                continue
            s = -1 if (f.degree % 2 and word_degree(L, w1) % 2) else 1
            vec_axpy(acc, Q(m * s), anchor_apply(t, j, w1, v))
        if acc:
            vals[w] = acc
    return FormTable(L, f.degree - 1, vals)


def hom_differential(f):
    """D0(f) = d_A after f, plus the level-0 bracket operator: (-1)^(|f|+1)
    f after the word differential."""
    return reference_t(f, None, 0).add(
        reference_bra(f, Coderivation(f.L, {}), 0))


def reference_D(f, partial, t, j):
    """Level-j differential: bracket plus anchor operator."""
    return reference_bra(f, partial, j).add(reference_t(f, t, j))


def reference_perturbation_value(partial, j, word):
    """The level-j part of the square of the coderivation on one word,
    from the definition, in Fraction arithmetic on the given
    coderivation: level j - k extended to the word
    (Coderivation.apply_level), then level k extended to each word of
    that image, accumulated over every k = 0..j.  {word: coefficient}."""
    res = {}
    for k in range(j + 1):
        for w2, c in partial.apply_level(j - k, word).items():
            vec_axpy(res, c, partial.apply_level(k, w2))
    return res


def reference_perturbation_residuals(partial, L, W):
    """The residuals of coalgebra.check_coalgebra_perturbation from the
    definition (reference_perturbation_value): every level j < W on
    every word of length j + 1, values keyed by label."""
    report = []
    for j in range(1, W):
        for w in words_of_length(L, j + 1):
            res = reference_perturbation_value(partial, j, w)
            if res:
                report.append({"level": j, "word": w, "value": {
                    g: c for (g,), c in res.items()}})
    return report


def reference_square_check(L, partial, t, W, max_len=1):
    """The residuals of forms.square_check, with every D_j from
    reference_D: the sum of D_k D_(j-k) on the dual-basis forms on words
    w of length at most max_len, at the levels j < W with |w| + j <= W,
    and on the constants at level W over the terms D_k D_(W-k),
    k = 1..W-1, each term in Fractions.  max_len 1 is the probe set of
    square_check; max_len 2 adds the products of two generators, which
    see through D squared a level that is no derivation of the cup
    product."""
    by_level = [[] for _ in range(W + 1)]
    for name, f in ambient_basis_forms(L, TruncationPolicy(2)):
        [w] = f.values
        if len(w) > max_len:
            continue
        for j in range(W - len(w) + 1):
            res = {}
            for k in range(max(0, j - W + 1), min(j, W - 1) + 1):
                g = reference_D(reference_D(f, partial, t, j - k),
                                partial, t, k)
                for w2, v in g.values.items():
                    vec_axpy(res.setdefault(w2, {}), ONE, v)
            by_level[j] += [{"level": j, "form": name, "word": w2,
                             "value": res[w2]}
                            for w2 in sorted(res) if res[w2]]
    return [r for level in by_level for r in level]


def _leibniz_levels(live, W):
    """The live levels j that some live level k pairs with in a term
    D_k D_j of the square on words of length 2: 2 + j + k <= W."""
    return [j for j in range(W)
            if live[j] and any(live[k] for k in range(W - 1 - j))]


def reference_leibniz_check(L, partial, t, W, D=reference_D):
    """The Leibniz rule of the level differentials on pairs of cup
    generators: D_j(f cup g) - D_j f cup g - (-1)^|f| f cup D_j g, with
    D_j from D (reference_D, or forms.build_D to test the library) and
    reference_cup in Fractions.  The pairs are every unordered pair of
    the constants c_a and the unit 1-forms e_x (forms.generator_probes),
    a pair of two constants left out: that is the anchor premise.  The
    levels are those where a product of two generators meets a term of
    the square (_leibniz_levels).  Residuals {level, f, g, value}, value
    the defect form, level-major in the order of the pairs.  Under the
    anchor premise every D_j is a derivation of the cup product, so the
    report is empty; the tests keep this as the oracle of that theorem,
    which the library does not check at run time."""
    A = L.over
    gens = [(name, FormTable(L, A.basis.degree[al] - word_degree(L, w),
                             {w: {al: ONE}}), w)
            for name, w, al in generator_probes(L) if not w or al == A.unit]
    units = [g for g in gens if g[2]]
    pairs = ([(f, g) for f in gens if not f[2] for g in units]
             + [(f, g) for i, f in enumerate(units) for g in units[i:]])
    report = []
    for j in _leibniz_levels(live_levels(L, partial, t, W), W):
        for (fname, f, _), (gname, g, _) in pairs:
            s = -ONE if f.degree % 2 else ONE
            d = D(reference_cup(f, g), partial, t, j).add(
                reference_cup(D(f, partial, t, j), g).scale(-ONE)).add(
                reference_cup(f, D(g, partial, t, j)).scale(-s))
            if not d.is_zero():
                report.append({"level": j, "f": fname, "g": gname,
                               "value": {w: d.values[w]
                                         for w in sorted(d.values)}})
    return report


def reference_cup(f, g):
    """The cup product summed over every splitting of each word that a
    pair of words of f and g reaches, where forms.cup meets each such
    pair once, with its closed-form coalgebra.shuffle_coefficient."""
    L = f.L
    candidates = set()
    for w1 in f.values:
        for w2 in g.values:
            sgn, w = normalize_word(L, list(w1 + w2))
            if sgn:
                candidates.add(w)
    vals = {}
    for w in candidates:
        acc = {}
        for m, u1, u2 in (t for p in range(len(w) + 1)
                          for t in splittings(L, w, p)):
            v1 = f.values.get(u1)
            v2 = g.values.get(u2)
            if v1 and v2:
                s = -1 if (g.degree % 2 and word_degree(L, u1) % 2) else 1
                vec_axpy(acc, Q(m * s), multiply(L.over, v1, v2))
        if acc:
            vals[w] = acc
    return FormTable(L, f.degree + g.degree, vals)


def reference_cohomology_ranks(L, partial, t, policy):
    """The result of forms.cohomology_ranks with every rank from
    row_echelon on Fraction rows of reference_D: the basis forms are the
    constants times the monomials of the dual 1-forms (reference_cup),
    the row of a form on words of length p sums D_j over j < W with
    p + j <= W, and no rank modulo a prime or bound is used."""
    W = policy.W
    duals = dual_one_forms(L)
    monomials = level = [((), None)]
    for _ in range(W):
        level = [(key + (x,), duals[x] if m is None
                  else reference_cup(m, duals[x]))
                 for key, m in level for x in sorted(duals)
                 if not key or x >= key[-1]]
        level = [(key, m) for key, m in level if not m.is_zero()]
        monomials = monomials + level
    by_degree = {}
    for al in L.over.basis.labels:
        c = constant_form(L, al)
        for _, m in monomials:
            f = c if m is None else reference_cup(c, m)
            if not f.is_zero():
                by_degree.setdefault(f.degree, []).append(f)

    def rank(d):
        rows = []
        for f in by_degree.get(d, []):
            [p] = f.support_lengths()
            row = {}
            for j in range(min(W, W - p + 1)):
                for w, v in reference_D(f, partial, t, j).values.items():
                    for a, c in v.items():
                        row[(w, a)] = row.get((w, a), 0) + c
            rows.append(row)
        cols = sorted({key for row in rows for key in row})
        return len(row_echelon([[Q(row.get(key, 0)) for key in cols]
                                for row in rows], len(cols)))

    window = policy.degree_window
    if window is None:
        window = (min(by_degree), max(by_degree))
    lo, hi = window
    ranks = {d: rank(d) for d in range(lo, hi + 2)}
    return {d: {"rank": len(by_degree.get(d, [])) - ranks[d] - ranks[d + 1],
                "flagged": d in (lo, hi)}
            for d in range(lo, hi + 1)}


# ------------------------------------------------------------ quasi data
# A quasi form is fixed by its values on bare words, a table keyed by
# sorted tuples of generator names and alternating in them: every bare
# suspended quasi generator is odd.

def bracket_value(L, bracket, u, v):
    """The bracket of two L elements from a table given on either order
    of each pair, the other order by graded antisymmetry."""
    deg = L.l_basis.degree
    out = {}
    for g1, c1 in u.items():
        for g2, c2 in v.items():
            val = bracket.get((g1, g2))
            if val is None:
                s = ONE if deg[g1] % 2 and deg[g2] % 2 else -ONE
                val = vec_scale(s, bracket.get((g2, g1), {}))
            vec_axpy(out, c1 * c2, val)
    return out


def bare_value(L, bare, names):
    """An alternating bare table on any tuple of generator names: the
    sign of sorting the bare word (normalize_word, zero on a repeat)
    times the value on the sorted names."""
    sgn, w = normalize_word(L, [L.pair(L.over.unit, x) for x in names])
    if not sgn:
        return {}
    return vec_scale(Q(sgn), bare.get(tuple(L.split(g)[1] for g in w), {}))


def bare_form(L, degree, bare):
    """The multilinear form with the given bare values, extended to every
    word by structures.extend_linearly."""
    A = L.over
    vals = {}
    for n in {len(k) for k in bare}:
        vals.update(extend_linearly(L, degree, bare, n, lambda a, s, v:
                                    vec_scale(s, multiply(A, {a: ONE}, v))))
    return FormTable(L, degree, vals)


def quasi_alt_differential(q, j, degree, bare):
    """D_1 or D_2 on the bare table of a form of the given degree,
    straight from the pairing, bracket and triple: the bare table of the
    image, a degree - 1 form.

    The whole value carries the parity of the input form.  D_1 sums the
    pairing on each argument times the value on the rest, and the
    bracket of each pair of arguments fed back through the table; D_2
    sums the triple on each pair of arguments times the value on the
    rest, with the sign of the positions taken out."""
    L = q.L
    A = L.over
    gens = sorted(x for x, _ in L.a_basis.gens)
    pref = -ONE if degree % 2 else ONE
    out = {}
    for n in {len(k) for k in bare}:
        for args in combinations(gens, n + j):
            acc = {}
            if j == 1:
                for i in range(n + 1):
                    op = q.pairing.get(L.pair(A.unit, args[i]))
                    v = bare.get(args[:i] + args[i + 1:])
                    if op is not None and v:
                        vec_axpy(acc, -ONE if i % 2 else ONE, op.apply(v))
            for i1, i2 in combinations(range(n + j), 2):
                s = -ONE if (i1 + i2) % 2 else ONE
                rest = tuple(a for k, a in enumerate(args)
                             if k not in (i1, i2))
                if j == 1:
                    inner = bracket_value(
                        L, q.bracket, {L.pair(A.unit, args[i1]): ONE},
                        {L.pair(A.unit, args[i2]): ONE})
                    for g, c in inner.items():
                        b, x = L.split(g)
                        vec_axpy(acc, s * c, multiply(
                            A, {b: ONE}, bare_value(L, bare, (x,) + rest)))
                else:
                    op = q.triple.get((args[i1], args[i2]))
                    v = bare.get(rest)
                    if op is not None and v:
                        vec_axpy(acc, s, op.apply(v))
            if acc:
                out[args] = vec_scale(pref, acc)
    return out


def quasi_model_disagreements(q, m, W):
    """(level, side, generator) wherever the generator tables of m, the
    multi derivation Maurer-Cartan algebra built from quasi_to_sh(q),
    differ from the alternating-form model below level W.  The model
    takes a constant a to the bare table {(): a} and a dual 1-form x to
    {(x,): 1}; its D_0 is hom_differential, D_1 and D_2 are
    quasi_alt_differential, and quasi data has no level above 2."""
    L = q.L
    A = L.over
    gens = ([("constants", al, A.basis.degree[al], {(): {al: ONE}})
             for al in A.basis.labels]
            + [("duals", xl, -1, {(xl,): {A.unit: ONE}})
               for xl, _ in L.a_basis.gens])
    out = []
    for j in range(W):
        for side, name, degree, bare in gens:
            if j == 0:
                model = hom_differential(bare_form(L, degree, bare))
            elif j <= 2:
                model = bare_form(L, degree - 1,
                                  quasi_alt_differential(q, j, degree, bare))
            else:
                model = FormTable(L, degree - 1, {})
            if getattr(m, "on_" + side)[j][name] != model:
                out.append((j, side, name))
    return out


def reference_jacobi_defect(q):
    """The triples of distinct generators where the cyclic bracket sum
    lhs is not minus the differentiated ternary bracket rhs, as {triple,
    lhs, rhs}; repeats make the suspended word vanish, so they carry no
    constraint.

    The sign is that of the level-2 perturbation identity d0 del2 +
    del1 del1 + del2 d0 = 0 on the bare word sx sy sz.  The ternary
    corestriction (level 2 of quasi_to_sh) vanishes on bare words, so
    d0 del2 drops out, and del2 d0 is rhs: d0 crosses the earlier slots
    with their suspended degrees.  Every bare sx is odd, so the
    unshuffles of sx sy sz into (pair, single) carry the signs +1 for
    (xy, z), -1 for (xz, y) and +1 for (yz, x), and the binary
    corestriction of two degree 0 elements has suspension sign +1.  So
    del1 del1 is [[x,y],z] - [[x,z],y] + [[y,z],x], which skew-symmetry
    of the degree 0 bracket makes the cyclic sum lhs, and the residual of
    the identity is lhs + rhs."""
    L = q.L
    unit = L.over.unit
    ternary = quasi_to_sh(q).partial.cor.get(2, {})
    gens = sorted(x for x, _ in L.a_basis.gens)

    def bare(x):
        return {L.pair(unit, x): ONE}

    mismatches = []
    for trip in combinations(gens, 3):
        x, y, z = trip
        lhs = {}
        for u, v, w in ((x, y, z), (y, z, x), (z, x, y)):
            vec_axpy(lhs, ONE, bracket_value(
                L, q.bracket, bracket_value(L, q.bracket, bare(u), bare(v)),
                bare(w)))
        rhs = {}
        for slot in range(3):
            # the differential crosses the earlier slots, each odd
            args = [bare(g) for g in trip]
            args[slot] = L.diff_l.apply(args[slot])
            for g1, c1 in args[0].items():
                for g2, c2 in args[1].items():
                    for g3, c3 in args[2].items():
                        sgn, w = normalize_word(L, [g1, g2, g3])
                        vec_axpy(rhs, (-1) ** slot * sgn * c1 * c2 * c3,
                                 ternary.get(w, {}))
        if vec_axpy(dict(lhs), ONE, rhs):
            mismatches.append({"triple": trip, "lhs": lhs, "rhs": rhs})
    return mismatches


def koszul_sign(perm, degs):
    """Sign of reordering graded items.

    ``perm[i]`` is the original index of the item that ends up at position
    ``i``; ``degs`` are the degrees in the original order.  The sign is the
    product of (-1)^(d_a*d_b) over all pairs transposed by the reordering.
    """
    n = len(perm)
    if len(degs) != n:
        raise ValueError("perm/degs length mismatch")
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation")
    # only pairs of odd items can change the sign
    odd = [i for i in perm if degs[i] % 2]
    sign = 1
    for k, a in enumerate(odd):
        for b in odd[k + 1:]:
            if a > b:
                sign = -sign
    return sign


def derivation_space(A, deg):
    """Q-basis of the degree-deg derivations of A, as LinearMaps.

    Solves the homogeneous Leibniz system over all basis pairs exactly.
    """
    labels = A.basis.labels
    d = A.basis.degree
    unknowns = [(s, t) for s in labels for t in labels
                if d[t] == d[s] + deg]
    idx = {u: n for n, u in enumerate(unknowns)}
    rows = []

    def row_for(i, j):
        # delta(i*j) - delta(i)*j - (-1)^(deg*|i|) i*delta(j) = 0,
        # coordinate by coordinate in the target basis
        coeff = {}  # (target label, unknown index) -> Q
        for m, c in A.prod_basis(i, j).items():
            for t in labels:
                if (m, t) in idx:
                    key = (t, idx[(m, t)])
                    coeff[key] = coeff.get(key, ZERO) + c
        for t in labels:
            if (i, t) in idx:
                for k, c in A.prod_basis(t, j).items():
                    key = (k, idx[(i, t)])
                    coeff[key] = coeff.get(key, ZERO) - c
        sgn = -ONE if (deg % 2 and d[i] % 2) else ONE
        for t in labels:
            if (j, t) in idx:
                for k, c in A.prod_basis(i, t).items():
                    key = (k, idx[(j, t)])
                    coeff[key] = coeff.get(key, ZERO) - sgn * c
        by_target = {}
        for (k, n), c in coeff.items():
            by_target.setdefault(k, {})[n] = c
        return by_target

    for i in labels:
        for j in labels:
            for k, cs in row_for(i, j).items():
                row = [ZERO] * len(unknowns)
                for n, c in cs.items():
                    row[n] = c
                rows.append(row)
    if not unknowns:
        return []
    if not rows:
        rows = [[ZERO] * len(unknowns)]
    _, kb = kernel_of_rows(rows, len(unknowns))
    out = []
    for v in kb:
        ent = {}
        for (s, t), n in idx.items():
            if v[n]:
                ent[(t, s)] = v[n]
        out.append(LinearMap(A.basis, A.basis, deg, ent))
    return out


def graded_commutator(A, d1, d2):
    """[d1, d2] = d1 d2 - (-1)^(|d1||d2|) d2 d1 of two derivations of A,
    again a derivation; ValueError where it breaks the Leibniz rule."""
    sgn = -ONE if (d1.degree % 2 and d2.degree % 2) else ONE
    out = compose(d1, d2).add(compose(d2, d1).scale(-sgn))
    bad = leibniz_defects(A, out)
    if bad:
        raise ValueError("graded commutator is not a derivation: Leibniz "
                         "fails on %r" % (bad[0][0],))
    return out


def reference_splittings(L, word, left_size):
    """The shuffle diagonal of a word by position subsets, each with the
    Koszul sign of its shuffle, summed by pair: {(left, right):
    coefficient}, zeros dropped."""
    n = len(word)
    degs = [L.sl_basis.degree[g] for g in word]
    out = {}
    for S in combinations(range(n), left_size):
        rest = [i for i in range(n) if i not in S]
        pair = (tuple(word[i] for i in S), tuple(word[i] for i in rest))
        out[pair] = out.get(pair, 0) + koszul_sign(list(S) + rest, degs)
    return {pair: c for pair, c in out.items() if c}


def reference_normalize_word(L, gens):
    """(sign, canonical word) of a generator list as coalgebra's
    normalize_word gives it, from a scan for a repeated odd generator and
    the Koszul sign of the sorting permutation."""
    for g in gens:
        if g not in L.sl_basis.degree:
            raise ValueError("unknown generator %r" % (g,))
    degs = [L.sl_basis.degree[g] for g in gens]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if gens[i] == gens[j] and degs[i] % 2:
                return 0, None
    perm = sorted(range(len(gens)), key=lambda i: L.word_sort_key(gens[i]))
    return koszul_sign(perm, degs), tuple(gens[i] for i in perm)


def reference_leibniz_defect(A, d, i, j):
    """d(ij) - d(i) j - (-1)^(|d||i|) i d(j) on basis elements of A, on
    Fractions, for a homogeneous operator d on A."""
    out = d.apply(A.prod_basis(i, j))
    vec_axpy(out, -ONE, multiply(A, d.column(i), {j: ONE}))
    sgn = ONE if (d.degree % 2 and A.basis.degree[i] % 2) else -ONE
    return vec_axpy(out, sgn, multiply(A, {i: ONE}, d.column(j)))


def reference_leibniz_violations(A, d):
    """The basis pairs with a nonzero Fraction Leibniz defect."""
    labels = A.basis.labels
    return [(i, j) for i in labels for j in labels
            if reference_leibniz_defect(A, d, i, j)]


def reference_rank_modulo(rows, ncols):
    """graded.rank_modulo on lists of residues: Gaussian elimination
    column by column, updating only the columns after each pivot, entry
    by entry; rows is left as it is."""
    p = PRIME
    m = [row for row in ([x % p for x in r] for r in rows) if any(row)]
    rank = 0
    for c in range(ncols):
        if rank == len(m):
            break
        for i in range(rank, len(m)):
            if m[i][c]:
                break
        else:
            continue
        m[rank], m[i] = m[i], m[rank]
        top = m[rank]
        inv = pow(top[c], -1, p)
        tail = top[c + 1:]
        for i in range(rank + 1, len(m)):
            low = m[i]
            if low[c]:
                a = low[c] * inv % p
                low[c + 1:] = [(x - a * y) % p
                               for x, y in zip(low[c + 1:], tail)]
        rank += 1
    return rank
