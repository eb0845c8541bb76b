"""Convolution algebra of A-valued forms on the symmetric coalgebra.

Forms are sparse tables word -> algebra element; the cup product and
the level differentials D_j live here, together with A-multilinearity
tests, the operator route (the anchor premise, and the square, Leibniz
and descent checks on the cup generators it makes exact) and windowed
cohomology ranks, which the operator route must pass first.  D_j is the
sum of a bracket and an anchor operator, but only the sum is defined on
multilinear forms, so only the sum is computed.

FormTable only stores its table.  Every form built here is keyed by
canonical nonvanishing words, holds no zero coefficient and is
homogeneous of its degree; the forms of an mdca file, the only ones
from outside, are checked once where they are parsed (io_json).

Every reader of D_j (build_D, square_check, leibniz_check,
cohomology_ranks) goes through one LevelTable per structure, kept with
its anchor family (TwistingCochain.level_table).  The table runs on the
integer copies of integer_tables: level j >= 1 is scaled by
delta * lam**j, level 0 (the algebra and word differentials) by delta.
So the table holds delta * lam**j * D_j, and each reader divides back
once: build_D by delta * lam**j (times the lcm of its input's
denominators), square_check each residual by delta**2 * lam**j,
leibniz_check each residual by delta * lam**j (times mu where A
multiplies), and cohomology_ranks not at all: it scales the levels of
each row alike and makes the row primitive, which leaves the ranks of
D.  Those ranks are certified without a reduced form where the rank
modulo a prime meets a bound that D squared to zero gives; row_echelon
reduces exactly only the other degrees.
"""

from fractions import Fraction as Q
from math import gcd, lcm

from .graded import (ONE, compose_axpy, denominator, int_multiple,
                     rank_modulo, row_echelon, vec_axpy, vec_scale, vec_sub)
from .algebra import Derivation, integer_structure_constants, multiply
from .coalgebra import (TruncationPolicy, normalize_word, splittings,
                        stripped_slots, word_basis, word_degree,
                        words_of_length)


class FormTable:
    """Homogeneous A-valued form on canonical words.

    values maps canonical words to algebra elements; a form of degree d
    sends a word of degree w to an element of degree d + w.  Words absent
    from the table carry the value zero.  The constructor only stores:
    the keys must be canonical nonvanishing words, the values must hold
    no zero coefficient, and every value on a word w must have degree
    degree + |w|.  Every form the library builds keeps that contract;
    tables read from a file are checked where they are parsed
    (io_json).  Empty values are dropped.
    """

    def __init__(self, L, degree, values):
        self.L = L
        self.degree = degree
        self.values = {w: v for w, v in values.items() if v}

    def __eq__(self, other):
        return (isinstance(other, FormTable) and self.degree == other.degree
                and self.values == other.values)

    def is_zero(self):
        return not self.values

    def support_lengths(self):
        return sorted({len(w) for w in self.values})

    def value(self, word):
        return dict(self.values.get(word, {}))

    def add(self, other):
        if self.degree != other.degree:
            raise ValueError("adding forms of different degrees")
        vals = {w: dict(v) for w, v in self.values.items()}
        for w, v in other.values.items():
            acc = vals.setdefault(w, {})
            vec_axpy(acc, ONE, v)
            if not acc:
                del vals[w]
        return FormTable(self.L, self.degree, vals)

    def scale(self, c):
        c = Q(c)
        return FormTable(self.L, self.degree,
                         {w: vec_scale(c, v) for w, v in self.values.items()})


class TwistingCochain:
    """Anchor family: for each level j a table from length-j canonical
    words to degree word-degree-minus-one operators on A.

    The family as a whole is a degree -1 element; each individual value is
    stored as a LinearMap on the algebra basis.  denominator is the least
    common denominator of every value.

    The constructor only stores, dropping empty levels.  Its contract:
    every level j is at least 1; every key of maps[j] is a canonical
    nonvanishing word of length j; every value is a nonzero LinearMap on
    the algebra basis of degree |w| - 1.  Every family the library builds
    keeps it (extract_structure, quasi_to_sh, LieRinehartData on parsed
    or built anchors); the tables of a file are checked where they are
    parsed (io_json).
    """

    def __init__(self, L, maps):
        self.L = L
        self.maps = {j: tab for j, tab in maps.items() if tab}
        self.denominator = denominator(
            c for tab in self.maps.values() for op in tab.values()
            for c in op.entries.values())
        self._scaled = None
        self._table = None

    def levels(self):
        return sorted(self.maps)

    def scaled(self, delta, lam):
        """(diff, maps): the algebra differential times delta and each
        level k times delta * lam**k, as integer columns (LinearMap.
        int_columns) by level and word.  Built on first use and kept for
        one (delta, lam) at a time, for the life of this family."""
        if self._scaled is None or self._scaled[0] != (delta, lam):
            maps = {j: {w: op.int_columns(delta * lam ** j)
                        for w, op in tab.items()}
                    for j, tab in self.maps.items()}
            self._scaled = ((delta, lam),
                            (self.L.over.diff.int_columns(delta), maps))
        return self._scaled[1]

    def level_table(self, partial):
        """The LevelTable of D_j for this family and the coderivation
        partial.  Built on first use and kept for one coderivation at a
        time, for the life of this family; the table holds no reference
        back to the family.  A table for another coderivation replaces
        it and builds its own parts."""
        if self._table is None or self._table[0] is not partial:
            self._table = (partial, LevelTable(self.L, partial, self))
        return self._table[1]

    def value(self, j, word):
        return self.maps.get(j, {}).get(word)

    def validation_report(self):
        """The anchor premise, as operator-route residuals: every anchor
        value must be a derivation of A.  A violation has axiom "anchor
        value is a derivation", witness (level, word, a, b) and as value
        its Leibniz defect (Derivation.leibniz_defect)."""
        rep = []
        for j, table in self.maps.items():
            for w, op in table.items():
                d = Derivation(self.L.over, op.degree, op)
                for pair in d.leibniz_violations():
                    rep.append({"route": "operators",
                                "axiom": "anchor value is a derivation",
                                "witness": (j, w) + pair,
                                "value": d.leibniz_defect(*pair)})
        return rep


def constant_form(L, a_vec):
    """Length-0 form with the given homogeneous algebra value."""
    a_vec = {a: c for a, c in a_vec.items() if c}
    degs = {L.over.basis.degree[a] for a in a_vec}
    if len(degs) > 1:
        raise ValueError("constant form value must be homogeneous")
    d = degs.pop() if degs else 0
    return FormTable(L, d, {(): a_vec})


def dual_one_forms(L):
    """The A-multilinear 1-forms dual to the free module generators.

    For a generator x the form sends (b, x) to b, with the Koszul sign of
    moving b across the form, and kills the other generators.
    """
    out = {}
    A = L.over
    for xl, xd in L.a_basis.gens:
        fdeg = -xd - 1
        vals = {}
        for bl, bd in A.basis.gens:
            s = -ONE if (bd % 2 and fdeg % 2) else ONE
            vals[(L.pair(bl, xl),)] = {bl: s}
        out[xl] = FormTable(L, fdeg, vals)
    return out


def cup(f, g):
    """Convolution product: (f cup g)(w) sums f(w1) g(w2) over the shuffle
    diagonal with the Koszul sign of moving g past w1.  Only the
    splittings whose left length is a support length of f and whose
    right length is one of g can contribute, so only those are walked."""
    if f.L is not g.L and f.L.sl_basis != g.L.sl_basis:
        raise ValueError("forms over different modules")
    L = f.L
    A = L.over
    candidates = set()
    for w1 in f.values:
        for w2 in g.values:
            sgn, w = normalize_word(L, list(w1 + w2))
            if sgn:
                candidates.add(w)
    f_lengths = f.support_lengths()
    g_lengths = set(g.support_lengths())
    vals = {}
    for w in candidates:
        acc = {}
        for p in f_lengths:
            if len(w) - p not in g_lengths:
                continue
            for sgn, u1, u2 in splittings(L, w, left_size=p):
                v1 = f.values.get(u1)
                v2 = g.values.get(u2)
                if not v1 or not v2:
                    continue
                s = -1 if (g.degree % 2 and word_degree(L, u1) % 2) else 1
                vec_axpy(acc, Q(sgn * s), multiply(A, v1, v2))
        if acc:
            vals[w] = acc
    return FormTable(L, f.degree + g.degree, vals)


class LevelTable:
    """D_j on the dual-basis forms delta_(u,a), on integer_tables.

    Level j >= 1 is scaled by delta * lam**j and level 0 by delta
    (scale).  D_j of delta_(u,a) is the transpose of two parts of data on
    the word u, which do not depend on the label a:
      * the bracket part {w: coefficient of u in the scaled del_j(w)},
        over the words w that a corestriction key holding a generator of
        u reaches (level 0: the word differential);
      * the anchor part, (w, columns of the anchor value on w1,
        multiplicity, parity of w1) for every anchor key w1 at level j
        with w = w1 u nonvanishing; the multiplicity sums the signs of
        the splittings of w with right factor u.  The algebra
        differential is the anchor value on the empty word at level 0,
        as in the twisting identity.
    Both parts are built on first use, so del_j(w) is read once per
    (level, word); apply builds the column of each label from them with
    the Koszul signs of the form degree |a| - |u|.  The table keeps the
    integer copies, not the structure they were made from.  descent
    holds the descent_check report of each level, built on first use.
    """

    def __init__(self, L, partial, t):
        self.L = L
        self.delta, self.lam, self._partial, (self._diff, self._maps) = (
            integer_tables(L, partial, t))
        self._keys = {}
        self._parts = {}
        self.descent = {}

    def scale(self, j):
        return self.delta * self.lam ** j

    def _bracket_part(self, j, u):
        L = self.L
        keys = self._keys.get(j)
        if keys is None:
            keys = self._keys[j] = {}
            for wc, vec in self._partial.corestriction(j).items():
                for g in vec:
                    keys.setdefault(g, []).append(wc)
        words = set()
        for i, g in enumerate(u):
            if i and g == u[i - 1]:
                continue
            for wc in keys.get(g, ()):
                sgn, w = normalize_word(L, list(wc + u[:i] + u[i + 1:]))
                if sgn:
                    words.add(w)
        part = {}
        for w in words:
            c = self._partial.apply_level(j, w).get(u)
            if c:
                part[w] = c
        return part

    def _anchor_part(self, j, u):
        L = self.L
        level = {(): self._diff} if j == 0 else self._maps.get(j, {})
        part = []
        for w1, cols in level.items():
            sgn, w = normalize_word(L, list(w1 + u))
            if not (sgn and cols):
                continue
            m = sum(s for s, _, right in splittings(L, w, left_size=j)
                    if right == u)
            if m:
                part.append((w, cols, m, word_degree(L, w1) % 2))
        return part

    def parts(self, j, u):
        """(parity of u, bracket part, anchor part) of level j at u."""
        key = (j, u)
        hit = self._parts.get(key)
        if hit is None:
            hit = self._parts[key] = (word_degree(self.L, u) % 2,
                                      self._bracket_part(j, u),
                                      self._anchor_part(j, u))
        return hit

    def apply(self, j, vec, out):
        """out += the scaled D_j of the form with integer values vec
        {u: {a: c}}; out is keyed the same way and may keep empty values.
        Returns out."""
        adeg = self.L.over.basis.degree
        for u, col in vec.items():
            if not col:
                continue
            odd_u, bra, anc = self.parts(j, u)
            for a, c in col.items():
                odd = (adeg[a] + odd_u) % 2
                if bra:
                    # (-1)^(|f| + 1) f after del_j
                    s = c if odd else -c
                    for w, x in bra.items():
                        acc = out.setdefault(w, {})
                        v = acc.get(a, 0) + s * x
                        if v:
                            acc[a] = v
                        else:
                            del acc[a]
                for w, cols, m, odd_w1 in anc:
                    src = cols.get(a)
                    if src:
                        vec_axpy(out.setdefault(w, {}),
                                 -m * c if odd and odd_w1 else m * c, src)
        return out


def build_D(f, partial, t, j):
    """Level-j differential: the bracket operator plus the anchor
    operator, at level 0 the Hom-differential.  Read off the LevelTable
    of (partial, t): f is scaled to integers by the lcm of its
    denominators, the columns of its dual-basis forms are summed on
    integers, and the sum is divided back once by that lcm times
    delta * lam**j."""
    table = t.level_table(partial)
    den = denominator(c for v in f.values.values() for c in v.values())
    out = table.apply(j, {u: int_multiple(den, v)
                          for u, v in f.values.items()}, {})
    scale = den * table.scale(j)
    return FormTable(f.L, f.degree - 1, {
        w: {b: Q(c, scale) for b, c in v.items()}
        for w, v in out.items() if v})


def is_A_multilinear(f):
    """True iff every slot's algebra coefficient pulls out with the
    Koszul sign of moving it across the form and the earlier slots
    (coalgebra.stripped_slots); a bare word that vanishes in the
    coalgebra forces the value zero.

    Returns (verdict, witness); the witness names (word, slot, scalar).
    """
    L = f.L
    for n in f.support_lengths():
        for w in words_of_length(L, n):
            for slot, a, sgn, bare in stripped_slots(L, w, f.degree):
                if f.values.get(w, {}) != stripped_value(f, a, sgn, bare):
                    return False, {"word": w, "slot": slot, "scalar": a}
    return True, None


def stripped_value(f, a, sgn, bare):
    """sign * a * f(bare): the value module-linearity asks of f on a word
    with one slot stripped (coalgebra.stripped_slots)."""
    return vec_scale(sgn, multiply(f.L.over, {a: ONE},
                                   f.values.get(bare, {})))


def multilinearity_defect(f, witness):
    """f(w) - sign * a * f(bare) at the word and slot of a witness of
    is_A_multilinear; nonzero exactly where the rule fails."""
    w = witness["word"]
    for slot, a, sgn, bare in stripped_slots(f.L, w, f.degree):
        if slot == witness["slot"]:
            return vec_sub(f.value(w), stripped_value(f, a, sgn, bare))


def dual_monomials(L, max_len):
    """Cup monomials of the dual 1-forms with 1 to max_len factors, as
    (sorted generator name tuple, form) pairs; vanishing ones are left
    out.  Ordered by length, then by the tuple of names."""
    duals = dual_one_forms(L)
    names = sorted(duals)
    out = []
    level = [((), None)]
    for _ in range(max_len):
        nxt = []
        for key, form in level:
            for xl in names:
                if key and xl < key[-1]:
                    continue
                g = duals[xl] if form is None else cup(form, duals[xl])
                if g.is_zero():
                    continue
                nxt.append((key + (xl,), g))
        out += nxt
        level = nxt
    return out


def multilinear_generators(L, max_len):
    """A-multilinear generator forms: homogeneous constants and the dual
    1-forms, together with cup monomials of the latter up to max_len, as
    (name, key, form); the key ("const", label) or ("dual", generator
    names) stays unique where names collide (1-form of `a.z`, monomial
    a z)."""
    out = []
    for al in L.over.basis.labels:
        out.append(("const:" + al, ("const", al),
                    constant_form(L, {al: ONE})))
    for key, g in dual_monomials(L, max_len):
        out.append(("dual:" + ".".join(key), ("dual", key), g))
    return out


def descent_check(L, partial, t, j):
    """Does the level-j differential preserve A-multilinearity?

    Probed on the cup generators, the constants and the dual 1-forms.
    Under the anchor premise (TwistingCochain.validation_report) D_j is
    a derivation of the cup product, and cup products of multilinear
    forms are multilinear, so it preserves multilinearity iff it does so
    on the generators.  Each generator is probed once: its image under
    build_D, tested by is_A_multilinear.  A failure is the descent
    residual of operator_route: route operators, axiom descent, witness
    (j, generator name, witness of is_A_multilinear) and the
    multilinearity_defect as value; "images" holds the images by
    generator key.  The report is kept with the LevelTable of (partial,
    t) (LevelTable.descent), so every caller on one structure reads the
    same report; callers only read it.
    """
    kept = t.level_table(partial).descent
    if j in kept:
        return kept[j]
    rep = kept[j] = {"violations": [], "images": {}}
    for name, key, f in multilinear_generators(L, 1):
        g = rep["images"][key] = build_D(f, partial, t, j)
        ok, wit = is_A_multilinear(g)
        if not ok:
            rep["violations"].append({
                "route": "operators", "axiom": "descent",
                "witness": (j, name, wit),
                "value": multilinearity_defect(g, wit)})
    return rep


def dual_basis_probes(L, policy):
    """(name, word, label) of the dual-basis forms delta_(w,a) on the
    words up to length W, in word_basis order, under one name for
    generator_probes and ambient_basis_forms."""
    for w in word_basis(L, policy):
        at = "*".join(w) if w else "1"
        for al in L.over.basis.labels:
            yield "delta:%s@%s" % (al, at), w, al


def generator_probes(L):
    """The dual-basis forms on words of length at most 1: the constants
    c_a = delta_((),a) and the forms delta_((x),a), each c_a cup e_x with
    e_x = delta_((x),1) the unit 1-form of x.  The probes of square_check;
    the constants and unit 1-forms among them are the cup generators of
    leibniz_check."""
    return [p for p in dual_basis_probes(L, TruncationPolicy(2))
            if len(p[1]) < 2]


def ambient_basis_forms(L, policy):
    """Dual basis of the space of forms on words up to length W.  No
    check of the library enumerates it; the benchmark's square_check
    observer counts with it, and the tests' oracles probe with it."""
    adeg = L.over.basis.degree
    return [(name, FormTable(L, adeg[al] - word_degree(L, w), {w: {al: ONE}}))
            for name, w, al in dual_basis_probes(L, policy)]


def live_levels(L, partial, t, W):
    """live[j] is False when D_j is zero: at level 0 when the algebra
    differential is zero and level 0 of the coderivation is not live, at
    a higher level when that level of the coderivation is not live
    (Coderivation.live) and the anchor has no table there.  square_check
    and cohomology_ranks skip the terms with a zero factor, which
    contribute nothing."""
    return [not L.over.diff.is_zero() or partial.live(0)] + [
        partial.live(j) or j in t.maps for j in range(1, W)]


def square_check(L, partial, t, policy):
    """Level-by-level residuals of D squared, probed on the cup
    generators.

    When every anchor value is a derivation of A (the anchor premise,
    TwistingCochain.validation_report), each D_j is a derivation of the
    cup product, and so is the level-j part of D squared, the sum of
    D_k D_(j-k).  It vanishes on every form on words up to W iff it
    vanishes on the generators: the constants and the 1-forms.  The
    probes are the dual-basis forms on words of length at most 1 (each
    a generator, or a constant times a unit 1-form), at every level
    j < W, whatever the degree window; leibniz_check tests at run time
    the derivation rule this rests on.  The constants are also probed
    at level W, on the terms D_k D_(W-k), k = 1..W-1: the rows of
    cohomology_ranks compose exactly these on the constants, and no
    other part of level W.  D_i of a probe is computed once; terms with
    a zero factor (live_levels) are skipped.  Residuals {level, form,
    word, value} are level-major, with words sorted within each (level,
    form).

    The sums run on the LevelTable, where level i holds delta * lam**i
    times D_i, so every term D_k D_(j-k) comes out delta**2 * lam**j
    times its rational value; each residual is divided back once.
    """
    W = policy.W
    live = live_levels(L, partial, t, W)
    table = t.level_table(partial)
    by_level = [[] for _ in range(W + 1)]
    for name, w, al in generator_probes(L):
        probe = {w: {al: 1}}
        images = {}
        for j in range(W if w else W + 1):
            res = {}
            for k in range(j + 1):
                if not (max(k, j - k) < W and live[k] and live[j - k]):
                    continue
                if j - k not in images:
                    images[j - k] = table.apply(j - k, probe, {})
                table.apply(k, images[j - k], res)
            scale = table.delta * table.scale(j)
            by_level[j] += [
                {"level": j, "form": name, "word": w2,
                 "value": {b: Q(c, scale) for b, c in res[w2].items()}}
                for w2 in sorted(res) if res[w2]]
    return [r for level in by_level for r in level]


def with_unit_form(L, F, x, c, out, degree=None):
    """out += c * (F cup e_x), or, given the degree of F, c * (e_x cup F),
    on integer forms {u: {a: coefficient}}.  The unit 1-form
    e_x = delta_((x), 1) adds x to each word u of F; the one splitting
    term per occurrence of x in the new word w gives the multiplicity,
    the count of x in w times the sign of sorting x into u, with the
    Koszul sign of the cup product on top.  Returns out."""
    odd_x = L.sl_degree(x) % 2
    for u, col in F.items():
        if not col:
            continue
        sgn, w = normalize_word(L, [*u, x] if degree is None else [x, *u])
        if not sgn:
            continue
        m = sgn * w.count(x)
        if odd_x and (word_degree(L, u) if degree is None else degree) % 2:
            m = -m
        vec_axpy(out.setdefault(w, {}), c * m, col)
    return out


def leibniz_levels(live, W):
    """The live levels j that some live level k pairs with in a term
    D_k D_j of the square on words of length 2: 2 + j + k <= W."""
    return [j for j in range(W)
            if live[j] and any(live[k] for k in range(W - 1 - j))]


def leibniz_check(L, partial, t, policy):
    """First-order Leibniz residuals of the level differentials on pairs
    of cup generators.

    square_check probes D squared on the generators only, which is
    enough when each D_j is a derivation of the cup product.  This
    compares D_j(f cup g) with D_j f cup g + (-1)^|f| f cup D_j g at the
    leibniz_levels, for every unordered pair of the constants c_a and
    the unit 1-forms e_x (generator_probes), a pair of two constants
    left out: it is the anchor premise.  Each product is one dual-basis
    form, so its image is one LevelTable.apply; cup with e_x is
    with_unit_form.  Residuals {level, f, g, value}, value the defect
    form, level-major in the order of the pairs.

    On the LevelTable every term comes out delta * lam**j times its
    rational value; c_a cup D_j e_x also multiplies in A, through the
    structure constants times mu, their least common denominator, so
    the pairs with a constant carry mu on every term.  Each residual is
    divided back once.
    """
    A = L.over
    levels = leibniz_levels(live_levels(L, partial, t, policy.W), policy.W)
    if not levels:
        return []
    adeg = A.basis.degree
    mu, mult = integer_structure_constants(A)
    table = t.level_table(partial)
    gens = [(name, w, al, adeg[al] - word_degree(L, w))
            for name, w, al in generator_probes(L)
            if not w or al == A.unit]
    units = [g for g in gens if g[1]]
    pairs = ([(f, g) for f in gens if not f[1] for g in units]
             + [(f, g) for i, f in enumerate(units) for g in units[i:]])
    report = []
    for j in levels:
        image = {name: table.apply(j, {w: {al: 1}}, {})
                 for name, w, al, _ in gens}
        for (fname, fw, fl, fdeg), (gname, (y,), _, gdeg) in pairs:
            c = 1 if fw else mu
            res = table.apply(j, with_unit_form(L, {fw: {fl: c}}, y, 1, {}),
                              {})
            with_unit_form(L, image[fname], y, -c, res)
            s = -1 if fdeg % 2 else 1
            if fw:
                with_unit_form(L, image[gname], fw[0], -s, res,
                               degree=gdeg - 1)
            else:
                for w, col in image[gname].items():
                    acc = res.setdefault(w, {})
                    for b, x in col.items():
                        vec_axpy(acc, -s * x, mult.get((fl, b), {}))
            res = {w: v for w, v in res.items() if v}
            if res:
                scale = c * table.scale(j)
                report.append({"level": j, "f": fname, "g": gname,
                               "value": {w: {b: Q(x, scale)
                                             for b, x in res[w].items()}
                                         for w in sorted(res)}})
    return report


def multilinear_basis(L, policy):
    """Basis of the A-multilinear forms of word length up to W: algebra
    basis elements cup dual-generator monomials."""
    monos = [((), None)] + dual_monomials(L, policy.W)
    out = []
    for al in L.over.basis.labels:
        c = constant_form(L, {al: ONE})
        for key, form in monos:
            g = c if form is None else cup(c, form)
            if g.is_zero():
                continue
            out.append(("%s*%s" % (al, ".".join(key) or "1"), g))
    return out


def operator_route(L, partial, t, policy):
    """The anchor premise (every anchor value is a derivation of A, so
    each D_j is a derivation of the cup product), then the three checks
    on the cup generators that rest on it: D squares to zero on them
    (square_check, which also probes level W on the constants), each
    D_j is a derivation on their pairs wherever a product of two of them
    meets a term of the square (leibniz_check), and each level j < W
    preserves multilinearity (descent_check).
    Residuals carry route, axiom, witness and value, in that order of
    axioms; the premise's come from TwistingCochain.validation_report in
    that schema."""
    report = t.validation_report()
    report += [{"route": "operators", "axiom": "square",
                "witness": (r["level"], r["form"], r["word"]),
                "value": r["value"]}
               for r in square_check(L, partial, t, policy)]
    report += [{"route": "operators", "axiom": "leibniz",
                "witness": (r["level"], r["f"], r["g"]),
                "value": r["value"]}
               for r in leibniz_check(L, partial, t, policy)]
    report += [r for j in range(policy.W)
               for r in descent_check(L, partial, t, j)["violations"]]
    return report


class SquareResidualError(ValueError):
    """cohomology_ranks refuses: an anchor value is not a derivation of
    A, D does not square to zero on the cup generators, some level is
    not a derivation on their pairs, or some level does not preserve
    multilinearity on them.  residuals holds every operator_route
    residual, in the schema check reports."""

    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = residuals


def cohomology_ranks(L, partial, t, policy, certificates=None):
    """Betti numbers over Q of the A-multilinear form complex, within the
    word-length truncation and optional degree window.

    Refuses with every operator_route residual when the anchor premise
    fails, D does not square to zero, some level is not a derivation of
    the cup product, or some level does not preserve multilinearity; the
    message names the first of these that fails.
    The row of a basis form f on words of length p is the sum of D_j f
    over the levels j < W with p + j <= W, over only the (word, label)
    columns some row of its degree hits.  The rows are read off the
    LevelTable as integers: with m the lcm of the denominators of f and
    J its top level, level j of the table, delta * lam**j D_j (m f), is
    taken lam**(J - j) times, so the row is m * delta * lam**J times the
    row of D, and it is divided by the gcd of its entries.  A primitive
    integer row is the smallest integer multiple of the rational one, so
    the ranks are those of D and row_echelon meets no larger integers
    than on the rational rows.
    Each degree's matrix is built once and ranked modulo a prime once
    (graded.rank_modulo), which bounds its rank over Q from below.  D
    raises word length, so the truncation is a quotient complex, and D
    squares to zero on it once operator_route has passed (its square
    check probes the levels below W, and level W on the constants, the
    one level-W part the rows compose): the rank out of degree d plus
    the rank into it is at most dim_d.  So the rank out
    of d is at most dim_d minus the modular rank out of d + 1, and at
    most dim_(d-1) minus the modular rank out of d - 1 (0 for a degree
    not computed), and at most the column count.  Where the modular rank
    meets the least of these bounds it is the rank over Q; elsewhere
    row_echelon reduces the matrix exactly.  That happens where the
    cohomology on both sides is nonzero, or where the prime divides
    every minor of the size of the rank.  certificates, when given a
    dict, receives "bounds" or "exact" for each degree whose rank was
    computed.  A negative Betti number raises ArithmeticError: D would
    not square to zero on the truncated complex.
    Degrees at the window boundary are flagged as unreliable since
    differentials may enter or leave the window.
    """
    residuals = operator_route(L, partial, t, policy)
    if residuals:
        # operator_route lists premise, square, leibniz, then descent
        # residuals
        if residuals[0]["axiom"] == "square":
            raise SquareResidualError(
                "total differential does not square to zero within the "
                "truncation window", residuals)
        if residuals[0]["axiom"] == "leibniz":
            raise SquareResidualError(
                "level %d is not a derivation of the cup product"
                % residuals[0]["witness"][0], residuals)
        if residuals[0]["axiom"] == "descent":
            raise SquareResidualError(
                "level %d does not preserve multilinearity"
                % residuals[0]["witness"][0], residuals)
        raise SquareResidualError("anchor value is not a derivation: %r"
                                  % (residuals[0]["witness"],), residuals)
    W = policy.W
    live = live_levels(L, partial, t, W)
    table = t.level_table(partial)
    by_degree = {}
    for _, f in multilinear_basis(L, policy):
        by_degree.setdefault(f.degree, []).append(f)
    degrees = sorted(by_degree)
    window = policy.degree_window
    if window is None and degrees:
        window = (degrees[0], degrees[-1])

    def dim(d):
        return len(by_degree.get(d, []))

    def differential_matrix(d):
        # (rows, ncols) of the total differential out of degree d; D_j
        # raises the word length by exactly j, so the levels never share
        # a column
        rows = []
        for f in by_degree.get(d, []):
            [p] = f.support_lengths()
            m = denominator(c for v in f.values.values() for c in v.values())
            vec = {u: int_multiple(m, v) for u, v in f.values.items()}
            top = min(W, W - p + 1) - 1
            row = {}
            for j in range(top + 1):
                if live[j]:
                    s = table.lam ** (top - j)
                    for w, v in table.apply(j, vec, {}).items():
                        for al, c in v.items():
                            row[(w, al)] = s * c
            g = gcd(*row.values()) or 1
            rows.append({key: c // g for key, c in row.items()})
        cols = sorted({key for row in rows for key in row})
        return [[row.get(key, 0) for key in cols] for row in rows], len(cols)

    lo, hi = window if window is not None else (0, -1)
    computed = range(lo, hi + 2)
    matrices = {d: differential_matrix(d) for d in computed}
    modular = {d: rank_modulo(*matrices[d]) for d in computed}
    rank = {}
    for d in computed:
        # D^2 = 0 bounds the rank out of d by what the modular ranks of
        # its neighbours leave of dim_d and dim_(d-1); a degree outside
        # the computed ones counts as modular rank 0.  The row count is
        # dim_d, so the first bound covers it.
        rows, ncols = matrices[d]
        bound = min(ncols, dim(d) - modular.get(d + 1, 0),
                    dim(d - 1) - modular.get(d - 1, 0))
        if modular[d] == bound:
            rank[d] = modular[d]
            certified = "bounds"
        else:
            rank[d] = len(row_echelon(rows, ncols))
            certified = "exact"
        if certificates is not None:
            certificates[d] = certified
    ranks = {}
    for d in range(lo, hi + 1):
        betti = dim(d) - rank[d] - rank[d + 1]
        if betti < 0:
            raise ArithmeticError(
                "Betti number %d in degree %d: D does not square to zero "
                "on the truncated complex" % (betti, d))
        # the flag marks only the two ends of the window, where a
        # differential may enter or leave it; an unflagged degree can
        # still depend on W (exterior_pair: b_7 is 5 at W=3, 0 at W=4)
        flagged = d in (lo, hi)
        ranks[d] = {"rank": betti, "flagged": flagged}
    return ranks


def integer_tables(L, partial, t):
    """(delta, lam, coderivation, (diff, maps)): the integer copies on
    which the identities of the direct route and the LevelTable of the
    operator route run, one (delta, lam) per structure.  delta clears
    level 0 (L.d0_denominator) and lam every higher level of both
    families, so level k of each is scaled by delta * lam**k
    (Coderivation.scaled, TwistingCochain.scaled)."""
    delta = L.d0_denominator
    lam = lcm(partial.denominator, t.denominator)
    return delta, lam, partial.scaled(delta, lam), t.scaled(delta, lam)


def twisting_residual(L, t, partial, j, word):
    """Level-j residual of the anchor family as an operator on A.

    The residual of a genuine twisting cochain vanishes: the commutator
    of the algebra differential with the level-j value, plus the value on
    the differentiated word, plus the values on the bracketed word, plus
    the composite of two lower anchor values over every splitting.
    Only terms with no zero factor are evaluated: the bracketed-word sum
    runs over the anchor levels k <= j with level j - k of the
    coderivation live (Coderivation.live), and the splitting sum over
    the anchor levels k < j with an anchor table at j - k too.  A
    skipped term has an empty anchor level or a zero coderivation level
    as a factor, so it is zero.

    The terms are evaluated on integer_tables.  Each pairs two factors
    whose levels add up to j, the algebra differential counting as level
    0, so each comes out delta**2 * lam**j times its rational value; the
    sum is divided back once.
    """
    delta, lam, scaled, (diff, maps) = integer_tables(L, partial, t)
    wd = word_degree(L, word)
    out = {}
    op = maps.get(j, {}).get(word)
    if op is not None:
        compose_axpy(out, 1, diff, op)
        compose_axpy(out, 1 if (wd - 1) % 2 else -1, op, diff)
    for k in sorted(maps):
        if k > j or not scaled.live(j - k):
            continue
        for w2, c in scaled.apply_level(j - k, word).items():
            for s, col in maps[k].get(w2, {}).items():
                vec_axpy(out.setdefault(s, {}), c, col)
    for k in sorted(maps):
        if k >= j or j - k not in maps:
            continue
        for sgn, w1, w2 in splittings(L, word, left_size=k):
            op1 = maps[k].get(w1)
            op2 = maps[j - k].get(w2)
            if op1 is None or op2 is None:
                continue
            s = -1 if word_degree(L, w1) % 2 else 1
            compose_axpy(out, sgn * s, op1, op2)
    scale = delta * delta * lam ** j
    return {(tt, s): Q(c, scale) for s, col in out.items()
            for tt, c in col.items()}
