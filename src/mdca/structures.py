"""Structure verification and construction layer.

Ordinary and homotopy Lie-Rinehart data are checked axiom by axiom;
multi derivation Maurer-Cartan algebras are built from them and the
inverse extraction recovers brackets and anchors from such an algebra.
Quasi data (a base algebra in non-positive homological degrees with an
induced module, a pairing and a trilinear operation) are converted to the
homotopy format (quasi_to_sh) and verified the same way: the bracket
becomes a coderivation by coderivation_from_brackets, as a
Lie-Rinehart bracket does, and no second model of the quasi
differentials lives here.  The level-2 perturbation identity of the
converted data is the Jacobi defect identity on the bare words.

Values on laden words (some slot's algebra coefficient is not the unit)
are built from the values on bare words by one law each: anchors and
forms by module-linearity (extend_linearly, on coalgebra.stripped_slots),
corestrictions by the anomaly law (extend_corestriction).  Lie-Rinehart
data from generator data has one builder, extend_bracket_table, which
extends the anchor once and the bracket against it.  Each law has one
checker: module-linearity is coalgebra.linearity_defects, read by
anchor_multilinearity_report and forms.is_A_multilinear, and the anomaly
law is anomaly_report.  The checkers do not call the extenders, so they
test them.
"""

from fractions import Fraction as Q

from .graded import LinearMap, ONE, vec_axpy, vec_scale, vec_sub
from .algebra import leibniz_defects
from .coalgebra import (Coderivation, antisymmetry_violations,
                        check_coalgebra_perturbation,
                        coderivation_from_brackets, linearity_defects,
                        normalize_word, stripped_slots, suspension_sign,
                        word_degree, words_of_length)
from .forms import (Refusal, TwistingCochain, build_D, descent_check,
                    dual_one_forms, operator_route, twisting_residual)


def left_multiple(A, a, entries):
    """The entries {(target, source): c} of a times an operator on A with
    the given entries, for an algebra basis element a."""
    out = {}
    for (k, src), c in entries.items():
        vec_axpy(out, c, {(m, src): x for m, x in A.prod_basis(a, k).items()})
    return out


class LieRinehartData:
    """Ordinary (possibly graded) pair: module with bracket and anchor.

    bracket: full table {(label, label): module vector} on the induced
    basis of L, with no zero coefficient; anchor: {label: nonzero
    LinearMap on A} with the operator on a basis element of word degree
    w having degree w - 1 (the contract of TwistingCochain; a parsed
    file is checked in io_json).
    """

    def __init__(self, L, bracket, anchor):
        self.L = L
        self.bracket = {k: dict(v) for k, v in bracket.items()}
        self.anchor = TwistingCochain(
            L, {1: {(lbl,): op for lbl, op in anchor.items()}})
        table = {k: v for k, v in self.bracket.items() if v}
        self.partial = coderivation_from_brackets(L, {2: table})

    def as_sh(self):
        return ShLieRinehartData(self.L, self.partial, self.anchor)


def check_lie_rinehart(d, policy):
    """The four equivalent Lie-Rinehart conditions, checked exactly.

    Returns a report of violations: the bracket coderivation squares to
    zero against the module differential, the anchor is module-linear,
    the anchor residual vanishes, and the anchor-bracket compatibility
    law holds on every (basis element, algebra element, basis element).
    """
    return direct_route(d.L, d.partial, d.anchor, policy)


def direct_route(L, partial, t, policy):
    """The axioms of a coderivation and anchor family, checked directly.

    Coderivation perturbation identities, anchor twisting identities,
    anchor module-linearity and the anomaly law at every level of either
    family.  Each residual carries route, axiom, witness and value.

    The perturbation, twisting and anomaly identities are bilinear in
    the tables (the anomaly law in one table and one product in A), so
    they run on the integer copies of the structure's forms.LevelTable,
    every table times one s (the structure constants times mu), and
    divide each residual back by a constant (check_coalgebra_perturbation,
    forms.twisting_residual, anomaly_report).  The operator route reads
    the same table, so each family has one integer copy, and the
    perturbation identities are handed the table's copy and its s.
    Module-linearity compares t_j(w) with a * t_j(bare), where only the
    second side has a product in A, so it stays on Fractions.

    A must satisfy the unit law (algebra.validate_algebra, which the
    parser runs): anomaly_report evaluates the unit row only where the
    anchor moves the unit, so an A built by hand that breaks the law
    gets no residual from that row.
    """
    report = []
    table = t.level_table(partial)
    for r in check_coalgebra_perturbation(table.partial, L, policy,
                                          table.s):
        report.append({"route": "direct",
                       "axiom": "bracket coderivation squares to zero",
                       "witness": (r["level"], r["word"]),
                       "value": r["value"]})
    for r in check_twisting_cochain(L, t, partial, policy):
        report.append({"route": "direct", "axiom": "anchor twisting identity",
                       "witness": (r["level"], r["word"]),
                       "value": r["value"]})
    report += anchor_multilinearity_report(L, t)
    for j in sorted(set(partial.cor) | set(t.maps)):
        report += anomaly_report(L, partial, t, j)
    return report


def check_twisting_cochain(L, t, partial, policy):
    """Level-by-level residuals of the anchor family up to the truncation.
    Every term of the level-j residual pairs anchor values of total
    length j, so it is evaluated on the words of length j only; a genuine
    twisting cochain reports nothing.  A level enumerates no words unless
    one of its terms has no zero factor (twisting_residual): an anchor
    table at j, an anchor level k <= j with level j - k of the
    coderivation live, or two anchor levels k < j and j - k.  This is the
    rule of check_coalgebra_perturbation."""
    report = []
    anchors = t.maps
    for j in range(1, policy.W + 1):
        if not (j in anchors
                or any(partial.live(j - k) or (k < j and j - k in anchors)
                       for k in anchors if k <= j)):
            continue
        for w in words_of_length(L, j):
            res = twisting_residual(L, t, partial, j, w)
            if res:
                report.append({"level": j, "word": w, "value": res})
    return report


def anchor_multilinearity_report(L, t):
    """Each anchor level must satisfy the module-linearity rule of a
    degree -1 family (coalgebra.stripped_slots): the value on a word is
    the Koszul-signed coefficient of any slot times the value on the word
    with that slot made bare, and zero when the bare word vanishes.
    Every failure of coalgebra.linearity_defects on the operators'
    entries is one residual, its defect the value."""
    A = L.over
    values = {w: op.entries for table in t.maps.values()
              for w, op in table.items()}
    return [{"route": "direct", "axiom": "anchor module-linearity",
             "witness": (len(w), w, slot, a), "value": defect}
            for w, slot, a, defect in linearity_defects(
                L, values, -1, lambda b, ent: left_multiple(A, b, ent))]


def anomaly_report(L, partial, t, j):
    """Scaling the last bracket slot by an algebra element produces the
    anchor term plus the Koszul-signed scaled bracket; violations on all
    (word, algebra element, generator) triples are reported.

    The law is checked on the integer copies of the LevelTable of
    (partial, t), with the algebra's structure constants scaled by mu,
    their least common denominator.  Every term has one table (the
    corestriction or the anchor) and one product in A, so it comes out
    mu * s times its rational value; the residual is divided back once.

    No value is computed twice.  Each product a * g of an algebra basis
    element and a generator is made once per call, and for each word w
    the corestriction on w + [g] is read once per generator g; a times
    cor(w, g2) is summed from those products.  The unit row rests on
    the unit law, which algebra.validate_algebra certifies wherever A is
    parsed: at a = 1 both sides hold mu * cor(w, g2), so the row can
    fail only through the unit column of the anchor value on w, and it
    is evaluated only where that column is nonzero.
    """
    A = L.over
    adeg = A.basis.degree
    unit = A.unit
    table = t.level_table(partial)
    scaled, mult = table.partial, A.int_mult
    scale = A.mu * table.s
    anchor = table.maps.get(j, {})
    labels = A.basis.labels
    gens = L.l_basis.labels
    times = {al: {g: L.a_times_sl({al: 1}, {g: 1}, mult) for g in gens}
             for al in labels}
    report = []
    for w in words_of_length(L, j):
        op = anchor.get(w, {})
        rows = [al for al in labels if al != unit or unit in op]
        if not rows:
            continue
        cor = {g: apply_corestriction_args(L, scaled, j, w + (g,))
               for g in gens}
        # Koszul exponent of moving the scalar out of the last slot: its
        # degree times (degree -1 of the family plus the earlier slots)
        even = not sum(L.sl_degree(gl) for gl in w) % 2
        for al in rows:
            prod = times[al]
            col = op.get(al, {})
            s = -1 if even and adeg[al] % 2 else 1
            for g2 in gens:
                lhs = {}
                for gl, c in prod[g2].items():
                    vec_axpy(lhs, c, cor[gl])
                rhs = {}
                for bl, c in col.items():
                    vec_axpy(rhs, c, times[bl][g2])
                for h, c in cor[g2].items():
                    vec_axpy(rhs, s * c, prod[h])
                if lhs != rhs:
                    report.append({"route": "direct",
                                   "axiom": "bracket anomaly law",
                                   "witness": (j, w, al, g2),
                                   "value": {g: Q(c, scale) for g, c
                                             in vec_sub(lhs, rhs).items()}})
    return report


def apply_corestriction_args(L, partial, j, args):
    sgn, w = normalize_word(L, args)
    if sgn == 0:
        return {}
    return vec_scale(sgn, partial.cor.get(j, {}).get(w, {}))


class ShLieRinehartData:
    def __init__(self, L, partial, t):
        self.L = L
        self.partial = partial
        self.t = t


def check_sh_lie_rinehart(d, policy):
    """Both verification routes, cross-checked.

    Route one checks the axioms directly (direct_route).  Route two
    builds the differential operators on forms and runs the operator
    route (operator_route: the anchor premise, then the square and
    descent checks on the cup generators).  The two verdicts must
    agree; disagreement is itself reported.  As for direct_route, the
    algebra of d.L must have passed algebra.validate_algebra.
    """
    direct = direct_route(d.L, d.partial, d.t, policy)
    indirect = operator_route(d.L, d.partial, d.t, policy)
    agree = (not direct) == (not indirect)
    report = direct + indirect
    if not agree:
        report.append({"route": "cross-check",
                       "axiom": "route agreement",
                       "witness": (len(direct), len(indirect)),
                       "value": {"direct": len(direct),
                                 "operators": len(indirect)}})
    return report


class MdcaStructure:
    """Multi derivation Maurer-Cartan algebra, stored by the action of
    each level on the generators: constants and the dual 1-forms."""

    def __init__(self, L, on_constants, on_duals):
        self.L = L
        # on_constants[j][a_label] and on_duals[j][x_label] are FormTables
        self.on_constants = on_constants
        self.on_duals = on_duals

    def levels(self):
        return sorted(self.on_constants)


def build_maurer_cartan(d, policy):
    """Generator tables of the level differentials on multilinear forms.

    Builds every level of the structure (a level of the coderivation or
    of the anchor family) and every level below W, so that extraction
    gives the structure back whatever the W.  Raises forms.Refusal with
    the descent residuals of the first level that fails to preserve
    module-multilinearity.  The tables are the images of the constants
    and dual 1-forms computed by that descent check.
    """
    L = d.L
    on_constants = {}
    on_duals = {}
    for j in sorted(set(d.partial.cor) | set(d.t.maps)
                    | set(range(policy.W))):
        rep = descent_check(L, d.partial, d.t, j)
        if rep["violations"]:
            raise Refusal(rep["violations"])
        im = rep["images"]
        on_constants[j] = {al: im[("const", al)]
                           for al in L.over.basis.labels}
        on_duals[j] = {xl: im[("dual", (xl,))] for xl, _ in L.a_basis.gens}
    return MdcaStructure(L, on_constants, on_duals)


def extract_structure(m):
    """Brackets and anchors from the generator tables of a multi
    derivation Maurer-Cartan algebra over a free module: the inverse of
    build_maurer_cartan.

    The level-j anchor is the adjoint of the action on constants, read
    off the rows the constants' tables hold on words of length j; the
    level-j bracket corestriction is recovered from the action on the
    dual 1-forms after subtracting the anchor operator, through the dual
    basis pairing, on words of length j + 1.  Rows on words of another
    length are not read.  Exact and total for a free module.  Whether
    the extracted data rebuilds the tables (those rows included) is for
    table_residuals to say.
    """
    L = m.L
    A = L.over
    adeg = A.basis.degree
    t_maps = {}
    for j in m.levels():
        if j == 0:
            continue
        consts = m.on_constants[j]
        table = {}
        # the words of length j where some constant's table has a row,
        # each with at least one nonzero entry, so no operator is zero
        for w in sorted({w for f in consts.values() for w in f.values
                         if len(w) == j}):
            wd = word_degree(L, w)
            ent = {}
            for al in A.basis.labels:
                odd = adeg[al] % 2 and wd % 2
                for bl, c in consts[al].values.get(w, {}).items():
                    ent[(bl, al)] = -c if odd else c
            table[w] = LinearMap(A.basis, A.basis, wd - 1, ent)
        if table:
            t_maps[j] = table
    t = TwistingCochain(L, t_maps)
    duals = dual_one_forms(L)
    # at j >= 1, D_j of an empty coderivation is the anchor operator
    # alone
    no_brackets = Coderivation(L, {})
    cor = {}
    for j in m.levels():
        if j == 0:
            continue
        level = {}
        for xl, eps in duals.items():
            phi = m.on_duals[j][xl].add(
                build_D(eps, no_brackets, t, j).scale(-ONE))
            # each (w, g) is reached once, from the nonzero value of
            # phi on w at the label of g, so no coefficient is zero; the
            # Koszul sign flips every coefficient of an even dual and the
            # odd ones of an odd dual
            for w, val in phi.values.items():
                if len(w) != j + 1:
                    continue
                vec = level.setdefault(w, {})
                for bl, c in val.items():
                    flip = not eps.degree % 2 or adeg[bl] % 2
                    vec[L.pair(bl, xl)] = -c if flip else c
        if level:
            cor[j] = level
    return ShLieRinehartData(L, Coderivation(L, cor), t)


def table_residuals(m, sh, policy):
    """(residuals, violations): where the generator tables of m differ
    from the ones sh rebuilds, and where that rebuild fails to descend.

    The rebuilt tables are the descent_check images, as in
    build_maurer_cartan, at every level of m and every level below W; a
    level m lacks counts as zero tables.  A residual has route extract,
    axiom table consistency, the side and (level, generator) as witness
    and the table of m minus the rebuilt one as value.  A violation is
    a descent residual of the operator route with route extract.
    """
    L = m.L
    residuals, violations = [], []
    for j in sorted(set(m.levels()) | set(range(policy.W))):
        rep = descent_check(L, sh.partial, sh.t, j)
        violations += [dict(r, route="extract") for r in rep["violations"]]
        im = rep["images"]
        probes = ([("constants", al, m.on_constants, im[("const", al)])
                   for al in L.over.basis.labels]
                  + [("dual", xl, m.on_duals, im[("dual", (xl,))])
                     for xl, _ in L.a_basis.gens])
        for side, name, tables, rebuilt in probes:
            diff = rebuilt.scale(-ONE)
            if j in tables:
                diff = tables[j][name].add(diff)
            if not diff.is_zero():
                residuals.append({
                    "route": "extract", "axiom": "table consistency",
                    "witness": {"flag": "%s table not reproduced" % side,
                                "witness": (j, name)},
                    "value": diff.values})
    return residuals, violations


def extend_linearly(L, start_degree, bare, n, times):
    """Values on the canonical words of length n from the values on bare
    words, by the module-linearity rule (coalgebra.stripped_slots): a
    word takes sign * a * value(bare) at its first laden slot.

    bare maps tuples of module generator names (a bare word in canonical
    order: by suspended degree, then name) to values; times(a, sign,
    value) scales a value by sign times the algebra basis element a.
    Words whose bare word has no value are left out.
    """
    for key in bare:
        for x in key:
            if x not in L.a_basis.degree:
                raise ValueError("bare value on %r names no generator %r"
                                 % (key, x))
    unit = L.over.unit
    vals = {}
    # a word with k laden slots reads a stripped word with k - 1
    for w in sorted(words_of_length(L, n),
                    key=lambda w: sum(L.split(g)[0] != unit for g in w)):
        for _, a, sgn, stripped in stripped_slots(L, w, start_degree):
            if stripped in vals:
                vals[w] = times(a, sgn, vals[stripped])
            break
        else:
            key = tuple(L.split(g)[1] for g in w)
            if key in bare:
                vals[w] = bare[key]
    return vals


def extend_anchor_level(L, base, j):
    """Operators given on bare generator tuples, extended to every
    canonical word of length j by the module-linearity rule of a degree
    -1 family (extend_linearly)."""
    A = L.over
    table = extend_linearly(L, -1, base, j, lambda a, s, op: LinearMap(
        A.basis, A.basis, A.basis.degree[a] + op.degree,
        left_multiple(A, a, op.entries)).scale(s))
    return {w: op for w, op in table.items() if not op.is_zero()}


def extend_corestriction(L, anchor, bare, n):
    """The arity-n corestriction on every canonical word, from its values
    on the bare words and the level n - 1 anchor, by the anomaly law that
    anomaly_report checks.

    The last laden slot moves to the end with the suspended Koszul sign;
    its coefficient a then splits off into the anchor term t(rest)(a) x
    plus (-1)^(|a| (|rest| + 1)) a times the value on the word with that
    slot made bare.  anchor: {canonical word of length n - 1: operator on
    A}; bare: {canonical bare word of length n: sL vector}.
    """
    A = L.over
    memo = {}

    def cor(args):
        if args in memo:
            return memo[args]
        laden = [i for i, g in enumerate(args) if L.split(g)[0] != A.unit]
        if not laden:
            sgn, w = normalize_word(L, list(args))
            res = vec_scale(Q(sgn), bare.get(w, {}))
        elif laden[-1] < n - 1:
            i = laden[-1]
            e = L.sl_degree(args[i]) * word_degree(L, args[i + 1:])
            res = vec_scale(-ONE if e % 2 else ONE,
                            cor(args[:i] + args[i + 1:] + args[i:i + 1]))
        else:
            a, x = L.split(args[-1])
            rest = args[:-1]
            res = {}
            sgn, w = normalize_word(L, list(rest))
            op = anchor.get(w) if sgn else None
            if op is not None:
                for b, c in op.apply({a: ONE}).items():
                    vec_axpy(res, sgn * c, {L.pair(b, x): ONE})
            e = A.basis.degree[a] * (word_degree(L, rest) + 1)
            vec_axpy(res, -ONE if e % 2 else ONE, L.a_times_sl(
                {a: ONE}, cor(rest + (L.pair(A.unit, x),))))
        memo[args] = res
        return res

    table = {}
    for w in words_of_length(L, n):
        v = cor(w)
        if v:
            table[w] = v
    return table


def extend_bracket_table(L, pairing, gen_bracket):
    """Lie-Rinehart data from generator data, by the two laws of laden
    values: the anchor extends by module-linearity (extend_anchor_level),
    and the generator brackets, suspended, extend by the anomaly law
    against that anchor (extend_corestriction) and are desuspended into
    a bracket table with one canonical order per pair.

    pairing: {generator name: operator on A}; gen_bracket: {(name, name):
    module element as an induced-basis vector}.
    """
    unit = L.over.unit
    bare = coderivation_from_brackets(L, {2: {
        (L.pair(unit, x1), L.pair(unit, x2)): v
        for (x1, x2), v in gen_bracket.items()}}).cor.get(1, {})
    anchor = extend_anchor_level(
        L, {(x,): op for x, op in pairing.items()}, 1)
    table = {w: vec_scale(Q(suspension_sign(
                 [L.l_basis.degree[g] for g in w])), v)
             for w, v in extend_corestriction(L, anchor, bare, 2).items()}
    return LieRinehartData(L, table, {w[0]: op for w, op in anchor.items()})


class QuasiLieRinehartData:
    """Base algebra in non-positive homological degrees, a module with
    all generators in degree zero, a bracket, a pairing and a trilinear
    defect operation.

    bracket: {(label, label): L element} on pairs of induced basis
    labels, each pair given in either order or both, with no zero
    coefficient (a pair given as zero has an empty value); pairing maps
    induced basis labels to nonzero operators on the base algebra of
    matching degree; triple maps sorted pairs of generator names to
    nonzero base-linear degree +1 derivations.  The constructor only
    stores: no function of the library makes a zero operator, and the parser
    drops the zero operators of a file.  validation_report checks the
    rest, graded antisymmetry of the bracket
    (coalgebra.antisymmetry_violations) included, before quasi_to_sh may
    convert the data.
    """

    def __init__(self, L, bracket, pairing, triple):
        self.L = L
        self.bracket = {k: dict(v) for k, v in bracket.items()}
        self.pairing = dict(pairing)
        self.triple = dict(triple)

    def validation_report(self):
        L = self.L
        A = L.over
        adeg = A.basis.degree
        ldeg = L.l_basis.degree
        rep = list(L.validation_report())
        for al, d in A.basis.gens:
            if d > 0:
                rep.append({"invariant": "base algebra in non-positive "
                            "degrees", "witness": al})
        for xl, d in L.a_basis.gens:
            if d != 0:
                rep.append({"invariant": "generators in degree zero",
                            "witness": xl})
        for g, op in self.pairing.items():
            if op.degree != ldeg[g]:
                rep.append({"invariant": "pairing degree", "witness": g})
            rep += [{"invariant": "pairing value is a derivation",
                     "witness": (g,) + pair, "value": defect}
                    for pair, defect in leibniz_defects(A, op)]
        for key, op in self.triple.items():
            if tuple(sorted(key)) != key or key[0] == key[1]:
                rep.append({"invariant": "triple keyed by sorted distinct "
                            "generators", "witness": key})
            if op.degree != 1:
                rep.append({"invariant": "triple degree", "witness": key})
            rep += [{"invariant": "triple value is a derivation",
                     "witness": key + pair, "value": defect}
                    for pair, defect in leibniz_defects(A, op)]
            for al in A.basis.labels_of_degree(0):
                if op.column(al):
                    rep.append({"invariant": "triple kills the degree "
                                "zero part", "witness": key + (al,)})
        skew = set(antisymmetry_violations(L, self.bracket))
        for (g1, g2), v in self.bracket.items():
            target = ldeg[g1] + ldeg[g2]
            for g in v:
                if ldeg[g] != target:
                    rep.append({"invariant": "bracket degree",
                                "witness": (g1, g2, g)})
            if (g1, g2) in skew:
                rep.append({"invariant": "bracket skewness",
                            "witness": (g1, g2)})
        return rep


def quasi_to_sh(q):
    """Homotopy data encoded by a quasi structure: the pairing becomes
    the unary anchor, the extended triple the binary anchor and the
    bracket the binary corestriction; the ternary corestriction is zero
    on bare words and extends by the anomaly law against the binary
    anchor."""
    L = q.L
    t1 = {(g,): op for g, op in q.pairing.items()}
    t2 = extend_anchor_level(L, q.triple, 2)
    cor = coderivation_from_brackets(L, {2: q.bracket}).cor
    # already a suspended-level corestriction table, installed as is
    cor[2] = extend_corestriction(L, t2, {}, 3)
    return ShLieRinehartData(L, Coderivation(L, cor),
                             TwistingCochain(L, {1: t1, 2: t2}))
