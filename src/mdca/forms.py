"""Convolution algebra of A-valued forms on the symmetric coalgebra.

Forms are sparse tables word -> algebra element; the cup product and the
level differentials D_j live here, together with A-multilinearity tests,
the operator route (the anchor premise, and the square and descent
checks on the cup generators it makes exact) and windowed cohomology
ranks, which the operator route must pass first.  D_j is the sum of a
bracket and an anchor operator, but only the sum is defined on
multilinear forms, so only the sum is computed.  Each D_j is a
derivation of the cup product under the anchor premise: the bracket
operator is the transpose of a coderivation of the cocommutative
coalgebra, and the anchor operator is a derivation when A is graded
commutative (algebra.validate_algebra, run where A is parsed) and every
anchor value is a derivation of A (TwistingCochain.validation_report).
That is a theorem about this code, not a property of the input, so no
run-time check tests it; the tests keep the rule as an oracle.

FormTable only stores its table.  Every form built here is keyed by
canonical nonvanishing words, holds no zero coefficient and is
homogeneous of its degree; the forms of an mdca file, the only ones
from outside, are checked once where they are parsed (io_json).

Every reader of D_j (build_D, square_check, descent_check,
cohomology_ranks) and every identity of the direct route goes through
one LevelTable per structure, kept with its anchor family
(TwistingCochain.level_table).  The table holds the integer copies of
every table of the structure, each times one integer s: the module and
algebra differentials, every coderivation level and every anchor level.
The table reads D_j off those copies in closed form, from the
corestriction and anchor tables, and never applies a level to a word
(Coderivation.apply_level): the direct route and the operator route
share the integer copies and nothing computed from them.
So the table holds s * D_j at every level, and each reader divides back
by a constant: build_D by s (times the lcm of its input's
denominators), square_check each residual by s**2, and cohomology_ranks
not at all: it makes each row primitive, which leaves the ranks of D.
Those ranks are certified without a reduced form where the rank modulo
a prime meets a bound that D squared to zero gives; row_echelon reduces
exactly only the other degrees.
"""

from fractions import Fraction as Q
from math import gcd, lcm

from .graded import (ONE, compose_axpy, denominator, int_multiple,
                     rank_modulo, row_echelon, vec_axpy, vec_scale)
from .algebra import leibniz_defects, multiply
from .coalgebra import (TruncationPolicy, linearity_defects, normalize_word,
                        shuffle_coefficient, splittings, word_basis,
                        word_degree)


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
        self._table = None

    def level_table(self, partial):
        """The LevelTable (the integer copies, and D_j read off them) of
        this family and the coderivation partial.  Built on first use
        and kept for one coderivation at a time, for the life of this
        family; the table holds no reference back to the family.  A
        table for another coderivation replaces it and builds its own
        parts."""
        if self._table is None or self._table[0] is not partial:
            self._table = (partial, LevelTable(self.L, partial, self))
        return self._table[1]

    def validation_report(self):
        """The anchor premise, as operator-route residuals: every anchor
        value must be a derivation of A.  A violation has axiom "anchor
        value is a derivation", witness (level, word, a, b) and as value
        its Leibniz defect (algebra.leibniz_defects)."""
        return [{"route": "operators",
                 "axiom": "anchor value is a derivation",
                 "witness": (j, w) + pair, "value": defect}
                for j, table in self.maps.items() for w, op in table.items()
                for pair, defect in leibniz_defects(self.L.over, op)]


def constant_form(L, al):
    """Length-0 form with value the algebra basis element al."""
    return FormTable(L, L.over.basis.degree[al], {(): {al: ONE}})


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
    """Convolution product of two forms over one module: (f cup g)(w)
    sums f(w1) g(w2) over the shuffle diagonal with the Koszul sign of
    moving g past w1.  Each pair of words meets once, with its
    coalgebra.shuffle_coefficient."""
    L = f.L
    if L is not g.L and L.sl_basis != g.L.sl_basis:
        raise ValueError("forms over different modules")
    mult = L.over.mult
    out = {}
    for u1, v1 in f.values.items():
        odd = g.degree % 2 and word_degree(L, u1) % 2
        for u2, v2 in g.values.items():
            m, w = shuffle_coefficient(L, u1, u2)
            if not m:
                continue
            m = -m if odd else m
            acc = out.setdefault(w, {})
            for a, x in v1.items():
                for b, y in v2.items():
                    vec_axpy(acc, m * x * y, mult.get((a, b), {}))
    return FormTable(L, f.degree + g.degree, out)


class LevelTable:
    """The integer copies of one structure, and D_j on the dual-basis
    forms delta_(u,a) read off them.

    s is the least common multiple of L.d0_denominator and the
    denominators of the coderivation and the anchor family, so it clears
    every table.  partial is the coderivation times s
    (Coderivation.scaled), the structure's one integer copy of it, which
    the direct route reads too (check_coalgebra_perturbation); diff is
    the algebra differential and maps[j][w] each anchor value times s,
    as integer columns (LinearMap.int_columns).  Every identity is
    bilinear in these tables, so a term of two tables comes out s**2
    times its value and a term of one table s times its value (mu * s
    with a product in A); the readers divide back by that constant.
    D_j of delta_(u,a) is the transpose of two parts of data on the word
    u, which do not depend on the label a:
      * the bracket part {w: coefficient of u in the scaled del_j(w)},
        with level 0 the word differential, in closed form: for each
        distinct generator g of u, with rest the other generators of u,
        and each corestriction key wc whose value holds g, the term
        m * s2 * (coefficient of g in the value of wc) at the word w of
        wc + rest, where m is the coefficient of the pair (wc, rest) in
        the shuffle diagonal of w (coalgebra.shuffle_coefficient) and s2
        the sign of sorting g + rest into u; a level that is not live
        (Coderivation.live) has none;
      * the anchor part, (w, columns of the anchor value on w1,
        multiplicity, parity of w1) for every anchor key w1 at level j
        with w = w1 u nonvanishing; the multiplicity is the coefficient
        of the pair (w1, u) in the shuffle diagonal of w
        (coalgebra.shuffle_coefficient).
        The algebra differential is the anchor value on the empty word
        at level 0, as in the twisting identity.
    Both parts are built on first use, once per (level, word), and no
    level is ever applied to a whole word; apply builds the column of
    each label from them with the Koszul signs of the form degree
    |a| - |u|.  The table keeps the integer copies, not the structure
    they were made from.  descent holds the descent_check report of each
    level, built on first use.
    """

    def __init__(self, L, partial, t):
        self.L = L
        self.s = s = lcm(L.d0_denominator, partial.denominator,
                         t.denominator)
        self.partial = partial.scaled(self.s)
        self.diff = L.over.diff.int_columns(s)
        self.maps = {j: {w: op.int_columns(s) for w, op in tab.items()}
                     for j, tab in t.maps.items()}
        self._keys = {}
        self._parts = {}
        self.descent = {}

    def _bracket_part(self, j, u):
        L = self.L
        keys = self._keys.get(j)
        if keys is None:
            keys = self._keys[j] = {}
            for wc, vec in self.partial.corestriction(j).items():
                for g, c in vec.items():
                    keys.setdefault(g, []).append((wc, c))
        part = {}
        for i, g in enumerate(u):
            if i and g == u[i - 1]:
                continue
            # del_j(w) reaches u from a splitting (wc, rest) of w with g
            # in the value of wc and rest the other generators of u
            rest = u[:i] + u[i + 1:]
            s2 = normalize_word(L, (g,) + rest)[0]
            for wc, c in keys.get(g, ()):
                m, w = shuffle_coefficient(L, wc, rest)
                if m:
                    part[w] = part.get(w, 0) + m * s2 * c
        return {w: x for w, x in part.items() if x}

    def _anchor_part(self, j, u):
        L = self.L
        level = {(): self.diff} if j == 0 else self.maps.get(j, {})
        part = []
        for w1, cols in level.items():
            m, w = shuffle_coefficient(L, w1, u)
            if m and cols:
                part.append((w, cols, m, word_degree(L, w1) % 2))
        return part

    def parts(self, j, u):
        """(parity of u, bracket part, anchor part) of level j at u."""
        key = (j, u)
        hit = self._parts.get(key)
        if hit is None:
            hit = self._parts[key] = (
                word_degree(self.L, u) % 2,
                self._bracket_part(j, u) if self.partial.live(j) else {},
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
    integers, and the sum is divided back once by that lcm times the
    table's s."""
    table = t.level_table(partial)
    den = denominator(c for v in f.values.values() for c in v.values())
    out = table.apply(j, {u: int_multiple(den, v)
                          for u, v in f.values.items()}, {})
    scale = den * table.s
    return FormTable(f.L, f.degree - 1, {
        w: {b: Q(c, scale) for b, c in v.items()}
        for w, v in out.items() if v})


def is_A_multilinear(f):
    """True iff every slot's algebra coefficient pulls out with the
    Koszul sign of moving it across the form and the earlier slots
    (coalgebra.stripped_slots); a bare word that vanishes in the
    coalgebra forces the value zero.

    Returns (verdict, witness, defect) from the first failure of
    coalgebra.linearity_defects: the witness names (word, slot, scalar)
    and the defect is f(word) - sign * a * f(bare) there.
    """
    A = f.L.over
    for w, slot, a, defect in linearity_defects(
            f.L, f.values, f.degree,
            lambda b, v: multiply(A, {b: ONE}, v)):
        return False, {"word": w, "slot": slot, "scalar": a}, defect
    return True, None, None


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
                    constant_form(L, al)))
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
    (j, generator name, witness of is_A_multilinear) and the defect
    is_A_multilinear found there as value; "images" holds the images by
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
        ok, wit, defect = is_A_multilinear(g)
        if not ok:
            rep["violations"].append({
                "route": "operators", "axiom": "descent",
                "witness": (j, name, wit), "value": defect})
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
    e_x = delta_((x),1) the unit 1-form of x.  The probes of
    square_check."""
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
    j < W, whatever the degree window.  The derivation rule this rests
    on follows from the premise (see the module docstring); the tests
    check it, not this code.  The constants are also probed at level W,
    on the terms D_k D_(W-k), k = 1..W-1: the rows of cohomology_ranks
    compose exactly these on the constants, and no other part of level
    W.  D_i of a probe is computed once; terms with a zero factor
    (live_levels) are skipped.  Residuals {level, form, word, value} are
    level-major, with words sorted within each (level, form).

    The sums run on the LevelTable, where every level holds s times
    D_i, so every term D_k D_(j-k) comes out s**2 times its rational
    value; each residual is divided back once.
    """
    W = policy.W
    live = live_levels(L, partial, t, W)
    table = t.level_table(partial)
    scale = table.s ** 2
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
            by_level[j] += [
                {"level": j, "form": name, "word": w2,
                 "value": {b: Q(c, scale) for b, c in res[w2].items()}}
                for w2 in sorted(res) if res[w2]]
    return [r for level in by_level for r in level]


def multilinear_basis(L, policy):
    """Basis of the A-multilinear forms of word length up to W: algebra
    basis elements cup dual-generator monomials."""
    monos = [((), None)] + dual_monomials(L, policy.W)
    out = []
    for al in L.over.basis.labels:
        c = constant_form(L, al)
        for key, form in monos:
            # never zero: on its own bare word a monomial is a nonzero
            # multiple of the unit, so c cup it is a nonzero multiple of al
            g = c if form is None else cup(c, form)
            out.append(("%s*%s" % (al, ".".join(key) or "1"), g))
    return out


def operator_route(L, partial, t, policy):
    """The anchor premise (every anchor value is a derivation of A, so
    each D_j is a derivation of the cup product), then the two checks on
    the cup generators that rest on it: D squares to zero on them
    (square_check, which also probes level W on the constants), and each
    level j < W preserves multilinearity (descent_check).
    Residuals carry route, axiom, witness and value, in that order of
    axioms; the premise's come from TwistingCochain.validation_report in
    that schema."""
    report = t.validation_report()
    report += [{"route": "operators", "axiom": "square",
                "witness": (r["level"], r["form"], r["word"]),
                "value": r["value"]}
               for r in square_check(L, partial, t, policy)]
    report += [r for j in range(policy.W)
               for r in descent_check(L, partial, t, j)["violations"]]
    return report


# the refusal message for each operator_route axiom, formatted with the
# witness of the first residual (Refusal)
REFUSALS = {
    "anchor value is a derivation": "anchor value is not a derivation: {0!r}",
    "square": "total differential does not square to zero within the "
              "truncation window",
    "descent": "level {0[0]} does not preserve multilinearity",
}


class Refusal(ValueError):
    """The operator route shows that D is not a differential on the
    multilinear forms, so cohomology_ranks (any operator_route residual)
    or structures.build_maurer_cartan (descent residuals) gives no result.
    residuals holds every residual given, in the schema check reports;
    the message is the REFUSALS entry of the first."""

    def __init__(self, residuals):
        first = residuals[0]
        super().__init__(REFUSALS[first["axiom"]].format(first["witness"]))
        self.residuals = residuals


def cohomology_ranks(L, partial, t, policy, certificates=None):
    """Betti numbers over Q of the A-multilinear form complex, within the
    word-length truncation and optional degree window.

    Raises Refusal with every operator_route residual when the anchor
    premise fails, D does not square to zero, or some level does not
    preserve multilinearity; the message (REFUSALS) names the first of
    these that fails.
    The row of a basis form f on words of length p is the sum of D_j f
    over the levels j < W with p + j <= W, over only the (word, label)
    columns some row of its degree hits.  The rows are read off the
    LevelTable as integers: with m the lcm of the denominators of f, its
    levels give m * s times the row of D, which is divided by the gcd of
    its entries.  A primitive integer row is the smallest integer
    multiple of the rational one, so the ranks are those of D and
    row_echelon meets no larger integers than on the rational rows.
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
        raise Refusal(residuals)
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
            out = {}
            for j in range(min(W, W - p + 1)):
                if live[j]:
                    table.apply(j, vec, out)
            row = {(w, al): c for w, v in out.items() for al, c in v.items()}
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

    The terms are evaluated on the integer copies of the LevelTable of
    (partial, t).  Each pairs two tables, the algebra differential
    counting as one, so each comes out s**2 times its rational value;
    the sum is divided back once.
    """
    table = t.level_table(partial)
    scaled, diff, maps = table.partial, table.diff, table.maps
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
        for m, w1, w2 in splittings(L, word, left_size=k):
            op1 = maps[k].get(w1)
            op2 = maps[j - k].get(w2)
            if op1 is None or op2 is None:
                continue
            s = -1 if word_degree(L, w1) % 2 else 1
            compose_axpy(out, m * s, op1, op2)
    scale = table.s ** 2
    return {(tt, s): Q(c, scale) for s, col in out.items()
            for tt, c in col.items()}
