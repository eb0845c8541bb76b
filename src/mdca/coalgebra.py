"""Graded symmetric coalgebra on the suspension of a free dg module.

Words are canonically sorted multisets of suspension generators; the
shuffle diagonal, coderivation extensions and the coderivation of a
bracket table live here.  Every level of a coderivation, level 0 (the
suspended module differential) included, is applied to a word one way:
the cached extension of its corestriction (Coderivation.apply_level).
All identities are checked up to a word-length truncation W; the
perturbation identities run on an integer copy of the coderivation
(Coderivation.scaled).
"""

from fractions import Fraction as Q
from itertools import chain, combinations, combinations_with_replacement

from .graded import (GradedBasis, LinearMap, ONE, compose, denominator,
                     int_multiple, koszul_sign, vec_axpy, vec_scale)

SEP = "|"  # joins an algebra label and a module generator label


class ModuleSpec:
    """Free dg A-module L of finite rank with its induced Q-basis.

    The Q-basis of L is indexed by pairs (A-basis element, module
    generator); the suspension sL reuses the same labels with degrees
    raised by one.
    """

    def __init__(self, over, a_basis, diff_l=None):
        self.over = over
        self.a_basis = a_basis
        gens = []
        for al, ad in over.basis.gens:
            for xl, xd in a_basis.gens:
                gens.append((al + SEP + xl, ad + xd))
        self.l_basis = GradedBasis(gens)
        self.sl_basis = GradedBasis([(l, d + 1) for l, d in gens])
        if diff_l is None:
            diff_l = LinearMap.zero(self.l_basis, self.l_basis, -1)
        self.diff_l = diff_l
        # The differential on the suspension, transported label-wise.
        # Because the module action on suspension labels is also the
        # label-wise transport (with no sign), the two suspension twists
        # cancel: the entries are those of the module differential.  Any
        # extra sign here would make the level-0 differential of forms
        # break module-multilinearity whenever the base algebra has a
        # nonzero differential.
        self.diff_sl = LinearMap(
            self.sl_basis, self.sl_basis, -1, dict(diff_l.entries))
        # the suspended differential as an arity-1 corestriction table
        self.d0_table = {(g,): self.diff_sl.column(g)
                         for g in self.sl_basis.labels}
        # delta of the integer tables of the direct route: clears the
        # denominators of level 0, the module and algebra differentials
        self.d0_denominator = denominator(chain(
            diff_l.entries.values(), over.diff.entries.values()))
        # per-instance caches for the word-combinatorics hot paths; safe
        # because the basis and the differential are fixed at construction
        self._norm_cache = {}
        self._split_cache = {}
        self._words_cache = {}

    def split(self, label):
        a, x = label.rsplit(SEP, 1)
        return a, x

    def pair(self, a_label, x_label):
        return a_label + SEP + x_label

    def sl_degree(self, label):
        return self.sl_basis.degree[label]

    def word_sort_key(self, label):
        return (self.sl_basis.degree[label], label)

    def a_times_sl(self, a_vec, sl_vec, mult=None):
        """A-module action on sL, through the structure constants mult
        {(a, b): {c: coefficient}}: those of the algebra by default, or
        an integer multiple of them (the anomaly law of the direct
        route), whose products then come out scaled by that multiple."""
        if mult is None:
            mult = self.over.mult
        out = {}
        for g, c in sl_vec.items():
            b, x = self.split(g)
            for a, ca in a_vec.items():
                vec_axpy(out, c * ca, {self.pair(m, x): cm for m, cm
                                       in mult.get((a, b), {}).items()})
        return out

    def validation_report(self):
        """dg-module axioms: d_L^2 = 0 and compatibility with d_A."""
        rep = []
        if not compose(self.diff_l, self.diff_l).is_zero():
            rep.append({"invariant": "module differential squares to zero",
                        "witness": ()})
        A = self.over
        adeg = A.basis.degree
        for al in A.basis.labels:
            for g in self.l_basis.labels:
                b, x = self.split(g)
                lhs = self.diff_l.apply(
                    self.a_times_sl({al: ONE}, {g: ONE}))
                rhs = self.a_times_sl(A.diff.column(al), {g: ONE})
                sgn = -ONE if adeg[al] % 2 else ONE
                vec_axpy(rhs, sgn,
                         self.a_times_sl({al: ONE},
                                         self.diff_l.column(g)))
                if lhs != rhs:
                    rep.append({"invariant": "dg A-module compatibility",
                                "witness": (al, g)})
        return rep


class TruncationPolicy:
    def __init__(self, W=4, degree_window=None):
        if W < 2:
            raise ValueError("W must be at least 2")
        self.W = int(W)
        self.degree_window = degree_window


def normalize_word(L, gens):
    """Sort generators into canonical order, tracking the Koszul sign.

    Returns (sign, word tuple); the sign is 0 when a repeated odd
    generator forces the word to vanish.
    """
    key = tuple(gens)
    hit = L._norm_cache.get(key)
    if hit is not None:
        return hit
    for g in gens:
        if g not in L.sl_basis.degree:
            raise ValueError("unknown generator %r" % (g,))
    degs = [L.sl_basis.degree[g] for g in gens]
    out = None
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if gens[i] == gens[j] and degs[i] % 2:
                out = (0, None)
    if out is None:
        perm = sorted(range(len(gens)),
                      key=lambda i: L.word_sort_key(gens[i]))
        sign = koszul_sign(perm, degs)
        out = (sign, tuple(gens[i] for i in perm))
    L._norm_cache[key] = out
    return out


def stripped_slots(L, word, start_degree):
    """The module-linearity rule, slot by slot: for every slot whose
    algebra coefficient a is not the unit, yields (slot, a, sign, bare).

    bare is the canonical word with that slot's coefficient replaced by
    the unit (None when it vanishes), and sign is the Koszul sign of
    moving a across start_degree and the earlier slots times the sign of
    sorting bare.  A module-linear value satisfies
    value(word) = sign * a * value(bare), with value(None) = 0.
    """
    A = L.over
    pre = start_degree
    for slot, g in enumerate(word):
        a, x = L.split(g)
        if a != A.unit:
            sgn, bare = normalize_word(
                L, word[:slot] + (L.pair(A.unit, x),) + word[slot + 1:])
            if A.basis.degree[a] % 2 and pre % 2:
                sgn = -sgn
            yield slot, a, Q(sgn), bare
        pre += L.sl_basis.degree[g]


def word_degree(L, word):
    return sum(L.sl_basis.degree[g] for g in word)


def words_of_length(L, n):
    """All canonical nonvanishing words of length n, sorted as tuples.
    A combination of the generators in canonical order is canonical; it
    vanishes exactly when an odd generator repeats, next to itself."""
    hit = L._words_cache.get(n)
    if hit is None:
        deg = L.sl_basis.degree
        gens = sorted(L.sl_basis.labels, key=L.word_sort_key)
        hit = L._words_cache[n] = sorted(
            w for w in combinations_with_replacement(gens, n)
            if not any(a == b and deg[a] % 2 for a, b in zip(w, w[1:])))
    return hit


def word_basis(L, policy):
    """All canonical words of length <= W, deterministically ordered by
    (length, degree, word); the degree window plays no part."""
    out = []
    for p in range(policy.W + 1):
        out += sorted(words_of_length(L, p),
                      key=lambda w: (word_degree(L, w), w))
    return out


def splittings(L, word, left_size):
    """Shuffle diagonal terms of a word whose left factor has left_size
    generators: (sign, left, right) triples.

    Enumerates position subsets, so repeated even generators pick up their
    multinomial multiplicities; both factors stay canonical.  A
    left_size above len(word) has no splittings.
    """
    key = (word, left_size)
    hit = L._split_cache.get(key)
    if hit is not None:
        return hit
    n = len(word)
    degs = [L.sl_basis.degree[g] for g in word]
    out = []
    for S in combinations(range(n), left_size):
        rest = [i for i in range(n) if i not in S]
        perm = list(S) + rest
        sgn = koszul_sign(perm, degs)
        out.append((sgn, tuple(word[i] for i in S),
                    tuple(word[i] for i in rest)))
    out = tuple(out)
    L._split_cache[key] = out
    return out


def apply_corestriction(L, cor, arity, word):
    """Extend a corestriction Sigma^arity[sL] -> sL to one word.

    Output is {word: coefficient}: pick every arity-subset, apply the
    corestriction, multiply the value back into the remaining factors and
    renormalize.  Only signs multiply the table's coefficients, so an
    integer table gives integer coefficients.
    """
    out = {}
    for sgn, w1, w2 in splittings(L, word, left_size=arity):
        val = cor.get(w1)
        if not val:
            continue
        for g, c in val.items():
            s2, w = normalize_word(L, [g] + list(w2))
            if s2 == 0:
                continue
            vec_axpy(out, sgn * s2, {w: c})
    return out


class Coderivation:
    """Filtered degree -1 coderivation via its corestrictions.

    cor[j] maps canonical words of length j+1 to sL elements; the level-j
    part lowers word length by j.  The j = 0 part comes from the module
    differential and is not stored in cor: d0 is its corestriction
    table, L.d0_table unless given (the integer copy of scaled gives
    its multiple).  denominator is the least common denominator of every
    level of cor.

    The constructor only stores, dropping empty levels.  Its contract:
    every level j is at least 1; every key of cor[j] is a canonical
    nonvanishing word of length j + 1; every value is an sL element of
    degree |w| - 1 with no zero coefficient.  Every coderivation the
    library builds keeps it (coderivation_from_brackets,
    extract_structure, quasi_to_sh, scaled); the tables of a file are
    checked where they are parsed (io_json).
    """

    def __init__(self, L, cor, d0=None):
        self.L = L
        self.cor = {j: tab for j, tab in cor.items() if tab}
        self.d0 = L.d0_table if d0 is None else d0
        self.denominator = denominator(
            c for tab in self.cor.values() for v in tab.values()
            for c in v.values())
        # the corestriction tables are fixed after construction, so the
        # action on any one word can be cached
        self._apply_cache = {}
        self._scaled = None

    def levels(self):
        return sorted(self.cor)

    def live(self, j):
        """False when level j is zero on every word: level 0 with a zero
        module differential, or a higher level with no corestriction
        table.  The direct route, square_check and cohomology_ranks
        skip the terms with such a zero factor."""
        return not self.L.diff_l.is_zero() if j == 0 else j in self.cor

    def corestriction(self, j):
        """The level-j corestriction table; level 0 is d0, the suspended
        module differential or its integer copy."""
        return self.cor.get(j, {}) if j else self.d0

    def apply_level(self, j, word):
        """The level-j part on one word, as {word: coefficient}: the
        coderivation extension of corestriction(j)."""
        key = (j, word)
        hit = self._apply_cache.get(key)
        if hit is None:
            hit = apply_corestriction(self.L, self.corestriction(j), j + 1,
                                      word)
            self._apply_cache[key] = hit
        return dict(hit)

    def apply_level_vec(self, j, wvec):
        out = {}
        for w, c in wvec.items():
            vec_axpy(out, c, self.apply_level(j, w))
        return out

    def scaled(self, delta, lam):
        """The same coderivation on Python ints: level k, level 0 (the
        module differential) included, times delta * lam**k.  delta must
        clear L.d0_denominator and lam the denominator of every level.
        The direct route evaluates its identities on this copy, through
        apply_level; it is built on first use and kept for one (delta,
        lam) at a time, for the life of this coderivation."""
        if self._scaled is None or self._scaled[0] != (delta, lam):
            self._scaled = ((delta, lam), Coderivation(
                self.L, {j: {w: int_multiple(delta * lam ** j, v)
                             for w, v in tab.items()}
                         for j, tab in self.cor.items()},
                {w: int_multiple(delta, v)
                 for w, v in self.L.d0_table.items() if v}))
        return self._scaled[1]


def check_coalgebra_perturbation(partial, L, policy, lam):
    """Level-by-level residuals of the filtered perturbation identities.

    For each level j the operator sum_k del^k @ del^(j-k) over k = 0..j,
    with del^0 the word differential d0, is a coderivation lowering word
    length by j, so it vanishes iff its corestriction does: it is
    evaluated on the words of length j + 1, which are the witnesses.
    Only the terms with both factors live (Coderivation.live) are
    evaluated, and a level with no such term enumerates no words: a zero
    factor makes its term zero on every word, so the residuals are those
    of the full sum.

    The sum runs on the integer copy partial.scaled(delta, lam), with
    delta = L.d0_denominator and lam a multiple of partial.denominator:
    the lam of forms.integer_tables, so that the anchor identities and
    the operator route share the one copy (Coderivation.scaled keeps
    one).  Every term has one factor at level k and one at level j - k,
    so it comes out delta**2 * lam**j times its rational value, and so
    does the sum: a residual is zero iff its integer one is, whatever
    the lam, and its value is divided back once.  The value is an sL
    element, keyed by label.
    """
    delta = L.d0_denominator
    scaled = partial.scaled(delta, lam)
    report = []
    for j in range(1, policy.W):
        terms = [k for k in range(j + 1)
                 if partial.live(k) and partial.live(j - k)]
        if not terms:
            continue
        scale = delta * delta * lam ** j
        for w in words_of_length(L, j + 1):
            res = {}
            for k in terms:
                vec_axpy(res, 1, scaled.apply_level_vec(
                    k, scaled.apply_level(j - k, w)))
            if res:
                report.append({"level": j, "word": w, "value": {
                    g: Q(c, scale) for (g,), c in res.items()}})
    return report


def suspension_sign(degs):
    """Koszul sign of s tensor ... tensor s applied to homogeneous
    elements with the given (unsuspended) degrees."""
    n = len(degs)
    e = sum((n - 1 - i) * degs[i] for i in range(n))
    return -1 if e % 2 else 1


def antisymmetry_violations(L, bracket):
    """The keys (g1, g2) of a binary bracket table {(label, label): L
    element} at which graded antisymmetry fails with both orders given:
    [g1, g2] = -(-1)^(|g1| |g2|) [g2, g1], so a self-bracket of an even
    element must vanish.  A key counts as given even where its value is
    zero, so a zero row for the reverse order is compared."""
    deg = L.l_basis.degree
    bad = []
    for (g1, g2), v in bracket.items():
        rev = bracket.get((g2, g1))
        if rev is None:
            continue
        s = ONE if deg[g1] % 2 and deg[g2] % 2 else -ONE
        if vec_axpy(vec_axpy({}, ONE, v), -s, rev):
            bad.append((g1, g2))
    return bad


def coderivation_from_brackets(L, brackets):
    """Coderivation whose corestrictions encode the given brackets.

    brackets: {n: {tuple of L basis labels: L-element}}, a tuple in any
    order.  The function only builds; its contract: no zero coefficient,
    and where a table gives several orders of one tuple their values
    agree up to the Koszul sign (graded antisymmetry, so a binary
    self-bracket of an even element is zero; antisymmetry_violations
    tests it).  A tuple whose suspended word vanishes is dropped.  The
    bracket table of a file is checked where it is parsed (io_json), that
    of quasi data by its validation.
    """
    cor = {}
    for n, table in brackets.items():
        level = {}
        for args, val in table.items():
            nsgn, w = normalize_word(L, list(args))
            if nsgn and val:
                degs = [L.l_basis.degree[g] for g in args]
                level[w] = vec_scale(Q(suspension_sign(degs) * nsgn), val)
        if level:
            cor[n - 1] = level
    return Coderivation(L, cor)
