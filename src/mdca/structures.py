"""Structure verification and construction layer.

Ordinary and homotopy Lie-Rinehart data are checked axiom by axiom;
multi derivation Maurer-Cartan algebras are built from them and the
inverse extraction recovers brackets and anchors from such an algebra.
Quasi data (a base algebra in non-positive homological degrees with an
induced module, a pairing and a trilinear operation) are converted to the
homotopy format and verified the same way.

Values on laden words (some slot's algebra coefficient is not the unit)
are built from the values on bare words by one law each: anchors and
forms by module-linearity (extend_linearly, on coalgebra.stripped_slots),
corestrictions by the anomaly law (extend_corestriction).  The checkers
(anomaly_report, anchor_multilinearity_report, forms.is_A_multilinear)
do not call these extenders, so they test them.
"""

from fractions import Fraction as Q
from itertools import combinations

from .graded import (LinearMap, ONE, ZERO, compose, koszul_sign, vec_axpy,
                     vec_scale, vec_sub)
from .algebra import Derivation, multiply
from .coalgebra import (Coderivation, TruncationPolicy,
                        check_coalgebra_perturbation,
                        coderivation_from_brackets, normalize_word,
                        stripped_slots, suspension_sign, word_degree,
                        words_of_length)
from .forms import (FormTable, TwistingCochain, build_D, constant_form,
                    descent_check, dual_one_forms, hom_differential,
                    operator_route, partial_t, twisting_residual)


def mult_op(A, a_vec):
    """Left multiplication by an element, as a linear map on A."""
    degs = {A.basis.degree[k] for k in a_vec}
    d = degs.pop() if degs else 0
    ent = {}
    for s in A.basis.labels:
        for k, c in multiply(A, a_vec, {s: ONE}).items():
            ent[(k, s)] = c
    return LinearMap(A.basis, A.basis, d, ent)


class LieRinehartData:
    """Ordinary (possibly graded) pair: module with bracket and anchor.

    bracket: full table {(label, label): module vector} on the induced
    basis of L; anchor: {label: operator on A} with the operator on a
    basis element of word degree w having degree w - 1.
    """

    def __init__(self, L, bracket, anchor):
        self.L = L
        self.bracket = {k: dict(v) for k, v in bracket.items()}
        self.anchor = TwistingCochain(
            L, {1: {(lbl,): op for lbl, op in anchor.items()
                    if not (isinstance(op, LinearMap) and op.is_zero())}})
        table = {k: v for k, v in self.bracket.items() if v}
        self.partial = coderivation_from_brackets(L, {2: table})

    def as_sh(self):
        return ShLieRinehartData(self.L, self.partial, self.anchor)


def bracket_eval(L, bracket, g1_vec, g2_vec):
    out = {}
    for g1, c1 in g1_vec.items():
        for g2, c2 in g2_vec.items():
            val = bracket.get((g1, g2))
            if val is None:
                rev = bracket.get((g2, g1))
                if rev is None:
                    continue
                d1 = L.l_basis.degree[g1]
                d2 = L.l_basis.degree[g2]
                s = -ONE if (d1 % 2 and d2 % 2) else ONE
                val = vec_scale(-s, rev)
            vec_axpy(out, c1 * c2, val)
    return out


def check_lie_rinehart(d, policy=None):
    """The four equivalent Lie-Rinehart conditions, checked exactly.

    Returns a report of violations: the bracket coderivation squares to
    zero against the module differential, the anchor is module-linear,
    the anchor residual vanishes, and the anchor-bracket compatibility
    law holds on every (basis element, algebra element, basis element).
    """
    if policy is None:
        policy = TruncationPolicy(3)
    return direct_route(d.L, d.partial, d.anchor, policy)


def direct_route(L, partial, t, policy):
    """The axioms of a coderivation and anchor family, checked directly.

    Coderivation perturbation identities, anchor twisting identities,
    anchor module-linearity and the anomaly law at every level of either
    family.  Each residual carries route, axiom, witness and value.
    """
    report = []
    for r in check_coalgebra_perturbation(partial, L, policy):
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
    twisting cochain reports nothing."""
    report = []
    for j in range(1, policy.W + 1):
        for w in words_of_length(L, j):
            res = twisting_residual(L, t, partial, j, w)
            if res:
                report.append({"level": j, "word": w, "value": res})
    return report


def anchor_multilinearity_report(L, t):
    """Each anchor level must satisfy the module-linearity rule of a
    degree -1 family (coalgebra.stripped_slots): the value on a word is
    the Koszul-signed coefficient of any slot times the value on the word
    with that slot made bare, and zero when the bare word vanishes."""
    A = L.over
    report = []
    for j in t.levels():
        for w in words_of_length(L, j):
            op = t.value(j, w)
            for slot, a, sgn, bare in stripped_slots(L, w, -1):
                diff = dict(op.entries) if op is not None else {}
                op2 = t.value(j, bare)
                if op2 is not None:
                    vec_axpy(diff, -sgn,
                             compose(mult_op(A, {a: ONE}), op2).entries)
                if diff:
                    report.append({"route": "direct",
                                   "axiom": "anchor module-linearity",
                                   "witness": (j, w, slot, a),
                                   "value": diff})
    return report


def anomaly_report(L, partial, t, j):
    """Scaling the last bracket slot by an algebra element produces the
    anchor term plus the Koszul-signed scaled bracket; violations on all
    (word, algebra element, generator) triples are reported."""
    A = L.over
    adeg = A.basis.degree
    report = []
    for w in words_of_length(L, j):
        op = t.value(j, w)
        # Koszul exponent of moving the scalar out of the last slot: its
        # degree times (degree -1 of the family plus the earlier slots)
        sl_sum = sum(L.sl_degree(gl) for gl in w)
        for al in A.basis.labels:
            for g2 in L.l_basis.labels:
                scaled = L.a_times_sl({al: ONE}, {g2: ONE})
                lhs = {}
                for gl, c in scaled.items():
                    vec_axpy(lhs, c,
                             apply_corestriction_args(
                                 L, partial, j, list(w) + [gl]))
                rhs = {}
                if op is not None:
                    for bl, c in op.apply({al: ONE}).items():
                        vec_axpy(rhs, c, L.a_times_sl({bl: ONE}, {g2: ONE}))
                s = -ONE if ((sl_sum + 1) % 2 and adeg[al] % 2) else ONE
                vec_axpy(rhs, s,
                         L.a_times_sl({al: ONE},
                                      apply_corestriction_args(
                                          L, partial, j, list(w) + [g2])))
                if lhs != rhs:
                    report.append({"route": "direct",
                                   "axiom": "bracket anomaly law",
                                   "witness": (j, w, al, g2),
                                   "value": vec_sub(lhs, rhs)})
    return report


def apply_corestriction_args(L, partial, j, args):
    sgn, w = normalize_word(L, args)
    if sgn == 0:
        return {}
    return vec_scale(Q(sgn), partial.cor.get(j, {}).get(w, {}))


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
    descent checks on the cup generators).  The two verdicts must agree;
    disagreement is itself reported.
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

    Refuses when some level fails to preserve module-multilinearity.  The
    tables are the images of the constants and dual 1-forms computed by
    that descent check.
    """
    L = d.L
    on_constants = {}
    on_duals = {}
    for j in range(policy.W):
        rep = descent_check(L, d.partial, d.t, j)
        if rep["violations"]:
            r = rep["violations"][0]
            raise ValueError("level %d does not preserve multilinearity: %r"
                             % (j, {"form": r["form"],
                                    "witness": r["witness"]}))
        im = rep["images"]
        on_constants[j] = {al: im[("const", al)]
                           for al in L.over.basis.labels}
        on_duals[j] = {xl: im[("dual", (xl,))] for xl, _ in L.a_basis.gens}
    return MdcaStructure(L, on_constants, on_duals)


def extract_structure(m, policy):
    """Brackets and anchors from the generator tables of a multi
    derivation Maurer-Cartan algebra over a free module.

    The level-j anchor is the adjoint of the action on constants; the
    level-j bracket corestriction is recovered from the action on the
    dual 1-forms after subtracting the anchor operator, through the dual
    basis pairing.  Exact and total for a free module.  Returns (data,
    flags); a flag names each generator table the extracted data does not
    rebuild, with the given table minus the rebuilt one as its value.
    """
    L = m.L
    A = L.over
    adeg = A.basis.degree
    t_maps = {}
    for j in m.levels():
        if j == 0:
            continue
        table = {}
        for w in words_of_length(L, j):
            wd = word_degree(L, w)
            ent = {}
            for al in A.basis.labels:
                s = -ONE if (adeg[al] % 2 and wd % 2) else ONE
                for bl, c in m.on_constants[j][al].value(w).items():
                    ent[(bl, al)] = s * c
            op = LinearMap(A.basis, A.basis, wd - 1, ent)
            if not op.is_zero():
                table[w] = op
        if table:
            t_maps[j] = table
    t = TwistingCochain(L, t_maps)
    duals = dual_one_forms(L)
    cor = {}
    for j in m.levels():
        if j == 0:
            continue
        level = {}
        for xl, eps in duals.items():
            phi = m.on_duals[j][xl].add(partial_t(eps, t, j).scale(-ONE))
            s = -ONE if (eps.degree + 1) % 2 else ONE
            for w, val in phi.values.items():
                if len(w) != j + 1:
                    continue
                vec = level.setdefault(w, {})
                for bl, c in val.items():
                    s2 = -ONE if (adeg[bl] % 2 and eps.degree % 2) else ONE
                    g = L.pair(bl, xl)
                    vec[g] = vec.get(g, ZERO) + s * s2 * c
        level = {w: {g: c for g, c in v.items() if c}
                 for w, v in level.items()}
        level = {w: v for w, v in level.items() if v}
        if level:
            cor[j] = level
    sh = ShLieRinehartData(L, Coderivation(L, cor), t)
    flags = []
    for j in m.levels():
        probes = ([("constants", al, constant_form(L, {al: ONE}),
                    m.on_constants[j][al]) for al in A.basis.labels]
                  + [("dual", xl, eps, m.on_duals[j][xl])
                     for xl, eps in duals.items()])
        for side, name, f, given in probes:
            rebuilt = build_D(f, sh.partial, sh.t, j)
            if rebuilt != given:
                flags.append({"flag": "%s table not reproduced" % side,
                              "witness": (j, name),
                              "value": given.add(rebuilt.scale(-ONE)).values})
    return sh, flags


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
    table = extend_linearly(L, -1, base, j, lambda a, s, op: compose(
        mult_op(A, {a: ONE}), op).scale(s))
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
    """Full bracket table on the induced basis from generator brackets
    and the level-1 anchor: the generator brackets are suspended,
    extended by extend_corestriction and desuspended.

    pairing: {generator name: operator on A}; gen_bracket: {(name, name):
    module element as an induced-basis vector}.
    """
    unit = L.over.unit
    bare = coderivation_from_brackets(L, {2: {
        (L.pair(unit, x1), L.pair(unit, x2)): v
        for (x1, x2), v in gen_bracket.items()}}).cor.get(1, {})
    anchor = extend_anchor_level(
        L, {(x,): op for x, op in pairing.items()}, 1)
    return {w: vec_scale(Q(suspension_sign(
                [L.l_basis.degree[g] for g in w])), v)
            for w, v in extend_corestriction(L, anchor, bare, 2).items()}


class QuasiLieRinehartData:
    """Base algebra in non-positive homological degrees, a module with
    all generators in degree zero, a bracket, a pairing and a trilinear
    defect operation.

    bracket: full table on pairs of induced basis labels; pairing maps
    induced basis labels to operators on the base algebra of matching
    degree; triple maps sorted pairs of generator names to base-linear
    degree +1 derivations.
    """

    def __init__(self, L, bracket, pairing, triple):
        self.L = L
        self.bracket = {k: dict(v) for k, v in bracket.items()}
        self.pairing = {g: op for g, op in pairing.items()
                        if op is not None and not op.is_zero()}
        self.triple = {k: op for k, op in triple.items()
                       if op is not None and not op.is_zero()}

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
            d = Derivation(A, op.degree, op)
            for pair in d.leibniz_violations():
                rep.append({"invariant": "pairing value is a derivation",
                            "witness": (g,) + pair})
        for key, op in self.triple.items():
            if tuple(sorted(key)) != key or key[0] == key[1]:
                rep.append({"invariant": "triple keyed by sorted distinct "
                            "generators", "witness": key})
            if op.degree != 1:
                rep.append({"invariant": "triple degree", "witness": key})
            d = Derivation(A, op.degree, op)
            for pair in d.leibniz_violations():
                rep.append({"invariant": "triple value is a derivation",
                            "witness": key + pair})
            for al in A.basis.labels_of_degree(0):
                if op.column(al):
                    rep.append({"invariant": "triple kills the degree "
                                "zero part", "witness": key + (al,)})
        for (g1, g2), v in self.bracket.items():
            target = ldeg[g1] + ldeg[g2]
            for g, c in v.items():
                if c and ldeg[g] != target:
                    rep.append({"invariant": "bracket degree",
                                "witness": (g1, g2, g)})
            rev = self.bracket.get((g2, g1))
            if rev is not None and (g2, g1) != (g1, g2):
                s = ONE if (ldeg[g1] % 2 and ldeg[g2] % 2) else -ONE
                if vec_sub(v, vec_scale(s, rev)):
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
    pair_table = {}
    for w in words_of_length(L, 2):
        v = bracket_eval(L, q.bracket, {w[0]: ONE}, {w[1]: ONE})
        if v:
            pair_table[w] = v
    triple_table = extend_corestriction(L, t2, {}, 3)
    cor = {}
    if pair_table:
        cor.update(coderivation_from_brackets(L, {2: pair_table}).cor)
    if triple_table:
        # already a suspended-level corestriction table, installed as is
        cor[2] = triple_table
    partial = Coderivation(L, cor)
    maps = {}
    if t1:
        maps[1] = t1
    if t2:
        maps[2] = t2
    return ShLieRinehartData(L, partial, TwistingCochain(L, maps))


def alt_lookup(bare, names):
    """Value of an alternating table on an arbitrary name tuple."""
    lst = list(names)
    if len(set(lst)) != len(lst):
        return {}, 0
    perm = sorted(range(len(lst)), key=lambda i: lst[i])
    sgn = koszul_sign(perm, [1] * len(lst))
    return bare.get(tuple(lst[i] for i in perm), {}), sgn


def multilinear_form_from_bare(L, degree, bare):
    """The base-multilinear form with the given values on bare generator
    words, extended to all words by the module-linearity rule
    (extend_linearly)."""
    A = L.over
    vals = {}
    for n in sorted({len(k) for k in bare}):
        vals.update(extend_linearly(L, degree, bare, n, lambda a, s, v:
                                    vec_scale(s, multiply(A, {a: ONE}, v))))
    return FormTable(L, degree, vals)


def quasi_alt_differential(q, j, degree, bare):
    """Level-one and level-two differentials on alternating tables,
    straight from the pairing, bracket and triple.

    The whole value carries the parity of the input form; inside the
    bracket sum the bracketed argument is fed back through the table.
    Returns the bare table of the image (a degree - 1 form).
    """
    L = q.L
    A = L.over
    unit = A.unit
    gens = sorted(x for x, _ in L.a_basis.gens)
    pref = -ONE if degree % 2 else ONE
    out = {}
    lengths = sorted({len(k) for k in bare}) or [0]
    for n in lengths:
        for args in combinations(gens, n + j):
            acc = {}
            if j == 1:
                for i in range(n + 1):
                    s = -ONE if i % 2 else ONE
                    rest = args[:i] + args[i + 1:]
                    op = q.pairing.get(L.pair(unit, args[i]))
                    v = bare.get(rest)
                    if op is not None and v:
                        vec_axpy(acc, s, op.apply(v))
                for i1 in range(n + 1):
                    for i2 in range(i1 + 1, n + 1):
                        s = -ONE if (i1 + i2) % 2 else ONE
                        rest = tuple(a for k, a in enumerate(args)
                                     if k not in (i1, i2))
                        inner = bracket_eval(
                            L, q.bracket,
                            {L.pair(unit, args[i1]): ONE},
                            {L.pair(unit, args[i2]): ONE})
                        for g, c in inner.items():
                            b, x = L.split(g)
                            v, asgn = alt_lookup(bare, (x,) + rest)
                            if v and asgn:
                                vec_axpy(acc, s * c * Q(asgn),
                                         multiply(A, {b: ONE}, v))
            elif j == 2:
                for i1 in range(n + 2):
                    for i2 in range(i1 + 1, n + 2):
                        s = -ONE if (i1 + i2) % 2 else ONE
                        rest = tuple(a for k, a in enumerate(args)
                                     if k not in (i1, i2))
                        op = q.triple.get((args[i1], args[i2]))
                        v = bare.get(rest)
                        if op is not None and v:
                            vec_axpy(acc, s, op.apply(v))
            if acc:
                out[args] = vec_scale(pref, acc)
    return out


def build_quasi_mc(q, policy):
    """Multi derivation Maurer-Cartan algebra of a quasi structure.

    The structure obtained through the homotopy conversion must agree,
    generator by generator, with the level differentials computed
    directly on the alternating-form model; disagreement raises."""
    sh = quasi_to_sh(q)
    m = build_maurer_cartan(sh, policy)
    L = q.L
    unit = L.over.unit
    gen_forms = []
    for al in L.over.basis.labels:
        gen_forms.append(("constants", al, L.over.basis.degree[al],
                          {(): {al: ONE}}))
    for xl, _ in L.a_basis.gens:
        gen_forms.append(("duals", xl, -1, {(xl,): {unit: ONE}}))
    for j in range(policy.W):
        for kind, name, degree, bare in gen_forms:
            built = (m.on_constants if kind == "constants"
                     else m.on_duals)[j][name]
            if j == 0:
                direct = hom_differential(
                    multilinear_form_from_bare(L, degree, bare))
            elif j <= 2:
                direct = multilinear_form_from_bare(
                    L, degree - 1, quasi_alt_differential(q, j, degree, bare))
            else:
                direct = FormTable(L, degree - 1, {})
            if built != direct:
                raise ValueError(
                    "representations disagree at level %d on %s %s"
                    % (j, kind, name))
    return m


def jacobi_defect_identity(q):
    """Cyclic bracket sums against the differentiated ternary bracket.

    Evaluates both sides on every triple of distinct generators (repeats
    make the suspended word vanish, so they carry no constraint) and
    reports the global sign making them equal (None when everything
    vanishes, or with the mismatch list when no sign works)."""
    L = q.L
    unit = L.over.unit
    partial = quasi_to_sh(q).partial
    gens = sorted(x for x, _ in L.a_basis.gens)

    def bare(x):
        return {L.pair(unit, x): ONE}

    results = []
    for trip in combinations(gens, 3):
        x, y, z = trip
        lhs = {}
        for (u, v, w) in ((x, y, z), (y, z, x), (z, x, y)):
            inner = bracket_eval(L, q.bracket, bare(u), bare(v))
            vec_axpy(lhs, ONE, bracket_eval(L, q.bracket, inner, bare(w)))
        rhs = {}
        for slot in range(3):
            # the differential crosses the earlier (suspended) slots
            s = -ONE if sum(L.sl_degree(L.pair(unit, g))
                            for g in trip[:slot]) % 2 else ONE
            args = [bare(x), bare(y), bare(z)]
            args[slot] = L.diff_l.apply(args[slot])
            for g1, c1 in args[0].items():
                for g2, c2 in args[1].items():
                    for g3, c3 in args[2].items():
                        vec_axpy(rhs, s * c1 * c2 * c3,
                                 apply_corestriction_args(
                                     L, partial, 2, [g1, g2, g3]))
        results.append((trip, lhs, rhs))
    if all(not lhs and not rhs for _, lhs, rhs in results):
        return {"sign": None, "mismatches": []}
    for s in (ONE, -ONE):
        if all(not vec_sub(lhs, vec_scale(s, rhs))
               for _, lhs, rhs in results):
            return {"sign": int(s), "mismatches": []}
    return {"sign": None,
            "mismatches": [{"triple": t, "lhs": lhs, "rhs": rhs}
                           for t, lhs, rhs in results
                           if vec_sub(lhs, rhs)
                           or vec_sub(lhs, vec_scale(-ONE, rhs))]}
