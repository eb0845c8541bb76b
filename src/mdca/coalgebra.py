"""Graded symmetric coalgebra on the suspension of a free dg module.

Words are canonically sorted multisets of suspension generators; the
shuffle diagonal, coderivation extensions and the coderivation of a
bracket table live here.  Where a level of a coderivation, level 0 (the
suspended module differential) included, is applied to a word, it is
applied one way: the cached extension of its corestriction
(Coderivation.apply_level).  The perturbation identities apply no level
to a word: they read the corestriction tables straight from the
splittings of each witness word and sum in packed integers
(check_coalgebra_perturbation), so they leave that cache empty.
All identities are checked up to a word-length truncation W; the
perturbation identities run on an integer copy of the coderivation,
every level times one integer s (Coderivation.scaled), which the
structure's forms.LevelTable holds.
"""

from fractions import Fraction as Q
from itertools import chain, combinations_with_replacement, groupby
from math import comb

from .graded import (GradedBasis, LinearMap, ONE, compose, denominator,
                     int_multiple, vec_axpy, vec_pack, vec_scale,
                     vec_unpack)

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
        # The differential on the suspension as an arity-1 corestriction
        # table, transported label-wise: the columns of diff_l.  Because
        # the module action on suspension labels is also the label-wise
        # transport (with no sign), the two suspension twists cancel: the
        # entries are those of the module differential.  Any extra sign
        # here would make the level-0 differential of forms break
        # module-multilinearity whenever the base algebra has a nonzero
        # differential.
        self.d0_table = {(g,): diff_l.column(g) for g in self.sl_basis.labels}
        # the denominators of level 0, the module and algebra
        # differentials; the one integer scale of a structure clears them
        # (forms.LevelTable)
        self.d0_denominator = denominator(chain(
            diff_l.entries.values(), over.diff.entries.values()))
        # per-instance memos of normalize_word and words_of_length, the
        # hot paths of the word combinatorics; unbounded, and safe because
        # the basis and the differential are fixed at construction
        self._norm_cache = {}
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
    generator forces the word to vanish.  The generators are sorted once
    (a stable sort by word_sort_key, so equal ones end up adjacent) and
    the sign is the parity of the inversions among the odd ones.
    """
    key = tuple(gens)
    hit = L._norm_cache.get(key)
    if hit is not None:
        return hit
    try:
        order = sorted(range(len(key)), key=lambda i: L.word_sort_key(key[i]))
    except KeyError as e:
        raise ValueError("unknown generator %r" % (e.args[0],)) from None
    deg = L.sl_basis.degree
    word = tuple(key[i] for i in order)
    if any(a == b and deg[a] % 2 for a, b in zip(word, word[1:])):
        out = (0, None)
    else:
        odd = [i for i in order if deg[key[i]] % 2]
        flips = sum(a > b for n, a in enumerate(odd) for b in odd[n + 1:])
        out = (-1 if flips % 2 else 1, word)
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


def linearity_defects(L, values, start_degree, times):
    """Where a table of values breaks the module-linearity rule of
    stripped_slots: yields (word, slot, a, value(word) - sign * a *
    value(bare)), nonzero, on every canonical word of a length the table
    has, in words_of_length order.

    values: {canonical word: sparse vector}, absent words (and a bare
    word that vanishes) valued zero; times(a, vector): the action of the
    algebra basis element a on a value, supplied by the caller."""
    for n in sorted({len(w) for w in values}):
        for w in words_of_length(L, n):
            for slot, a, sgn, bare in stripped_slots(L, w, start_degree):
                defect = dict(values.get(w, {}))
                vec_axpy(defect, -sgn, times(a, values.get(bare, {})))
                if defect:
                    yield w, slot, a, defect


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
    """Shuffle diagonal terms of a canonical nonvanishing word whose left
    factor has left_size generators: (coefficient, left, right) triples,
    one per distinct pair of factors, both canonical.

    The coefficient is the Koszul sign of the shuffle times the number
    of position subsets that give the pair: a product of binomials over
    the runs of a repeated generator.  Only an even generator repeats, so
    those subsets share one sign, found in one pass: an odd generator
    moved to the left factor passes every odd generator already left
    behind in the right one.  The triples come in the order of the first
    position subset giving each.  A left_size above len(word) has no
    splittings.
    """
    deg = L.sl_basis.degree
    # partial splittings (coefficient, left, right, odd generators in
    # right), extended run by run; the left factor takes the most
    # generators of a run first
    rest = len(word)
    parts = [(1, (), (), 0)] if left_size <= rest else []
    for g, run in groupby(word):
        n = len(tuple(run))
        odd = deg[g] % 2
        rest -= n
        grown = []
        for c, left, right, behind in parts:
            need = left_size - len(left)
            if n > 1:
                # a run of an even generator: C(n, k) subsets per pair
                for k in range(min(n, need), max(need - rest, 0) - 1, -1):
                    grown.append((c * comb(n, k), left + (g,) * k,
                                  right + (g,) * (n - k), behind))
                continue
            if need:
                grown.append((-c if odd and behind % 2 else c, left + (g,),
                              right, behind))
            if need <= rest:
                grown.append((c, left, right + (g,), behind + odd))
        parts = grown
    return tuple((c, left, right) for c, left, right, _ in parts)


def shuffle_coefficient(L, left, right):
    """(coefficient, word) of one pair of canonical words in the shuffle
    diagonal: word is the canonical word of left + right, and the
    coefficient is that of the triple (left, right) among
    splittings(L, word, len(left)).  Its position subsets all share the
    sign of sorting left + right, and there are C(n, k) of them for a
    generator that occurs n times in word and k times in left, which is
    1 unless it occurs in right too.  (0, None) when the word vanishes."""
    sgn, word = normalize_word(L, left + right)
    if sgn:
        for g in set(left).intersection(right):
            sgn *= comb(word.count(g), left.count(g))
    return sgn, word


def apply_corestriction(L, cor, arity, word):
    """Extend a corestriction Sigma^arity[sL] -> sL to one word.

    Output is {word: coefficient}: pick every arity-subset, apply the
    corestriction, multiply the value back into the remaining factors and
    renormalize.  Only integers multiply the table's coefficients (the
    coefficients of splittings and the signs of normalize_word), so an
    integer table gives integer coefficients.
    """
    out = {}
    for m, w1, w2 in splittings(L, word, left_size=arity):
        val = cor.get(w1)
        if not val:
            continue
        for g, c in val.items():
            s2, w = normalize_word(L, (g,) + w2)
            if s2:
                x = out.get(w, 0) + m * s2 * c
                if x:
                    out[w] = x
                else:
                    del out[w]
    return out


class Coderivation:
    """Filtered degree -1 coderivation via its corestrictions.

    cor[j] maps canonical words of length j+1 to sL elements; the level-j
    part lowers word length by j.  The j = 0 part comes from the module
    differential and is not stored in cor: d0 is its corestriction
    table, L.d0_table unless given (the integer copy that scaled builds
    gives its multiple).  denominator is the least common denominator of
    every level of cor.

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
        coderivation extension of corestriction(j).  The dict is the
        cached image itself, so a caller reads it and never changes it."""
        key = (j, word)
        hit = self._apply_cache.get(key)
        if hit is None:
            hit = self._apply_cache[key] = apply_corestriction(
                self.L, self.corestriction(j), j + 1, word)
        return hit

    def scaled(self, s):
        """The same coderivation on Python ints: every level, level 0
        (the module differential) included, times s, which must clear
        L.d0_denominator and the denominator of every level (else
        int_multiple raises ValueError).  Built once per structure, as
        the integer copy that forms.LevelTable holds and both routes
        read."""
        return Coderivation(
            self.L, {j: {w: int_multiple(s, v) for w, v in tab.items()}
                     for j, tab in self.cor.items()},
            {w: int_multiple(s, v) for w, v in self.L.d0_table.items() if v})


def check_coalgebra_perturbation(partial, L, policy, s):
    """Level-by-level residuals of the filtered perturbation identities.

    For each level j the operator sum_k del^k @ del^(j-k) over k = 0..j,
    with del^0 the word differential d0, is a coderivation lowering word
    length by j, so it vanishes iff its corestriction does: it is
    evaluated on the words of length j + 1, which are the witnesses.
    Only the terms with both factors live (Coderivation.live) are
    evaluated, and a level with no such term enumerates no words: a zero
    factor makes its term zero on every word, so the residuals are those
    of the full sum.

    partial is an integer copy of the coderivation, every level times s
    (Coderivation.scaled): the callers pass the copy and the s that the
    structure's forms.LevelTable holds, so that the anchor identities
    and the operator route read the one copy.  Every term is a product
    of two levels, so it comes out s**2 times its rational value, and so
    does the sum: a residual is zero iff its integer one is, whatever
    the s, and its value is divided back once.  The value is an sL
    element, keyed by label.

    No level is applied to a whole word.  On a word of length j + 1 the
    term del^k del^(j-k) sums, over the splittings (m, w1, w2) of the
    word with w1 of length j - k + 1, m * c times the outer value
    del^k(g w2) for each entry c g of the corestriction on w1; g w2 has
    length k + 1, where del^k is its corestriction value.  Those values
    are packed into Python ints (graded.vec_pack), a slot of b bits per
    label of sL, and the row {g: +-packed value on g w2} of every w2 is
    read off the keys of level k once, with the Koszul sign of sorting
    g w2.  So each entry c costs one multiply-add, and no word is
    sorted.  The slot is wide enough for every residual entry: with M_k
    the largest |entry| of a level-k value and N_i the largest sum of
    |entries| of one level-i value, the splittings of a word of length
    j + 1 with w2 of length k count C(j + 1, k) position subsets in
    all, so every entry of the level-j residual is at most
        B_j = sum over the terms k of C(j + 1, k) * N_(j-k) * M_k,
    and b = (the largest B_j).bit_length() + 1 holds it in the balanced
    range of graded.vec_unpack.  The packed sum is then 0 exactly when
    the residual is zero, and a nonzero one decodes exactly.
    """
    plan = {}
    for j in range(1, policy.W):
        terms = [k for k in range(j + 1)
                 if partial.live(k) and partial.live(j - k)]
        if terms:
            plan[j] = terms
    # k is a term of level j iff j - k is: the outer levels are the inner
    tables = {k: partial.corestriction(k)
              for terms in plan.values() for k in terms}
    # M_k and N_k of the bound B_j
    top = {k: max((abs(c) for v in tab.values() for c in v.values()),
                  default=0) for k, tab in tables.items()}
    mass = {k: max((sum(map(abs, v.values())) for v in tab.values()),
                   default=0) for k, tab in tables.items()}
    bits = max((sum(comb(j + 1, k) * mass[j - k] * top[k] for k in terms)
                for j, terms in plan.items()), default=0).bit_length() + 1
    labels = L.sl_basis.labels
    offset = {g: bits * i for i, g in enumerate(labels)}
    deg = L.sl_basis.degree
    # rows[k, w2][g]: the packed level-k value on the word of g w2 times
    # the sign of sorting g w2 into it, read off each key of level k, one
    # distinct generator g at a time; an odd g passes the odd generators
    # before it
    rows = {}
    for k, tab in tables.items():
        for wc, v in tab.items():
            x = vec_pack(v, offset)
            odd = 0
            for i, g in enumerate(wc):
                if not i or g != wc[i - 1]:
                    rest = wc[:i] + wc[i + 1:]
                    row = rows.get((k, rest))
                    if row is None:
                        row = rows[k, rest] = dict.fromkeys(labels, 0)
                    row[g] = -x if deg[g] % 2 and odd % 2 else x
                odd += deg[g] % 2
    scale = s * s
    report = []
    for j, terms in plan.items():
        for w in words_of_length(L, j + 1):
            acc = 0
            for k in terms:
                inner = tables[j - k]
                for m, w1, w2 in splittings(L, w, j - k + 1):
                    val = inner.get(w1)
                    row = rows.get((k, w2))
                    if val and row:
                        acc += m * sum(c * row[g] for g, c in val.items())
            if acc:
                report.append({"level": j, "word": w, "value": {
                    g: Q(c, scale)
                    for g, c in vec_unpack(acc, labels, bits).items()}})
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
