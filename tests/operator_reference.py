"""The Fraction reference for the level differentials D_j.

These are the candidate-enumeration operators the library used before
the level table (forms.LevelTable): each call enumerates the words its
image can reach and sums Fractions there, straight from the definitions.
The oracles of the tests read D_j from here, so that they compare the
table with an independent computation, not with itself.  The cup
product over every splitting and the cohomology ranks from an exact
reduction of every degree are here for the same reason.
"""

from fractions import Fraction as Q

from mdca.coalgebra import (Coderivation, TruncationPolicy, normalize_word,
                            splittings, word_degree)
from mdca.algebra import multiply
from mdca.forms import (FormTable, ambient_basis_forms, constant_form, cup,
                        dual_one_forms, generator_probes, leibniz_levels,
                        live_levels)
from mdca.graded import LinearMap, ONE, row_echelon, vec_axpy, vec_scale


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
    op = t.value(j, word)
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
        for sgn, w1, w2 in splittings(L, w, left_size=j):
            v = f.values.get(w2)
            if not v:
                continue
            s = -1 if (f.degree % 2 and word_degree(L, w1) % 2) else 1
            vec_axpy(acc, Q(sgn * s), anchor_apply(t, j, w1, v))
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


def reference_square_check(L, partial, t, W, max_len=1):
    """The residuals of forms.square_check, with every D_j from
    reference_D: the sum of D_k D_(j-k) on the dual-basis forms on words
    w of length at most max_len, at the levels j < W with |w| + j <= W,
    and on the constants at level W over the terms D_k D_(W-k),
    k = 1..W-1, each term in Fractions.  max_len 1 is the probe set of
    square_check; max_len 2 adds the products of two generators, the
    probes that checked the Leibniz rule through D squared before
    forms.leibniz_check did so at first order."""
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


def reference_leibniz_check(L, partial, t, W):
    """The residuals of forms.leibniz_check, from reference_D and cup in
    Fractions: D_j(f cup g) - D_j f cup g - (-1)^|f| f cup D_j g on the
    same pairs of cup generators and levels."""
    A = L.over
    gens = [(name, FormTable(L, A.basis.degree[al] - word_degree(L, w),
                             {w: {al: ONE}}), w)
            for name, w, al in generator_probes(L) if not w or al == A.unit]
    units = [g for g in gens if g[2]]
    pairs = ([(f, g) for f in gens if not f[2] for g in units]
             + [(f, g) for i, f in enumerate(units) for g in units[i:]])
    report = []
    for j in leibniz_levels(live_levels(L, partial, t, W), W):
        for (fname, f, _), (gname, g, _) in pairs:
            s = -ONE if f.degree % 2 else ONE
            d = reference_D(cup(f, g), partial, t, j).add(
                cup(reference_D(f, partial, t, j), g).scale(-ONE)).add(
                cup(f, reference_D(g, partial, t, j)).scale(-s))
            if not d.is_zero():
                report.append({"level": j, "f": fname, "g": gname,
                               "value": {w: d.values[w]
                                         for w in sorted(d.values)}})
    return report


def reference_cup(f, g):
    """The cup product summed over every splitting of each word, where
    forms.cup walks only the splittings whose factor lengths are support
    lengths of f and g."""
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
        for sgn, u1, u2 in splittings(L, w):
            v1 = f.values.get(u1)
            v2 = g.values.get(u2)
            if v1 and v2:
                s = -1 if (g.degree % 2 and word_degree(L, u1) % 2) else 1
                vec_axpy(acc, Q(sgn * s), multiply(L.over, v1, v2))
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
        c = constant_form(L, {al: ONE})
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
