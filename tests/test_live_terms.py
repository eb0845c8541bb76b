"""The direct route: only live terms, on integer-scaled tables.

A term of a perturbation or twisting identity with a zero factor (an
empty corestriction or anchor level, or level 0 with a zero module
differential) is zero, so skipping it must leave every residual as it
is.  The direct route also evaluates its three identities on integer
copies of the tables (every table times one integer s, the structure
constants times mu) and divides each residual back.  The oracles below
evaluate every term, as the identities are written, in Fraction
arithmetic on the given tables; residual lists, witnesses and values
must be equal, on data with denominators at every level.  The same holds
for the level differentials D_j of the operator route, which read the
same integer copies (forms.LevelTable), against the Fraction reference
in operator_reference.  Any s that clears every table gives the same
answers; one that does not is refused.
"""

import gc
import importlib.util
import pathlib
import random
import weakref
from collections import Counter
from fractions import Fraction as Q
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from mdca import cli, coalgebra, forms, structures
from mdca.algebra import AlgebraSpec, multiply
from mdca.coalgebra import (Coderivation, ModuleSpec, TruncationPolicy,
                            check_coalgebra_perturbation,
                            coderivation_from_brackets, normalize_word,
                            splittings, word_degree, words_of_length)
from mdca.forms import (FormTable, LevelTable, Refusal, TwistingCochain,
                        build_D, cohomology_ranks, cup, descent_check,
                        multilinear_basis, operator_route, square_check)
from mdca.graded import (GradedBasis, LinearMap, ONE, compose, denominator,
                         vec_axpy, vec_sub)
from mdca.instances import (QUASI_PARAMS, build_quasi_sample,
                             catalog_entry, catalog_names)
from mdca.io_json import emit_instance, parse_instance_text
from mdca.structures import (LieRinehartData, MdcaStructure,
                             ShLieRinehartData, anomaly_report,
                             check_lie_rinehart, check_sh_lie_rinehart,
                             check_twisting_cochain,
                             direct_route, extract_structure, quasi_to_sh,
                             table_residuals)
from operator_reference import (nonzero, reference_bra, reference_D,
                                reference_leibniz_check,
                                reference_perturbation_residuals,
                                reference_square_check, reference_t)
from test_coalgebra import perturbation_report
from test_forms import (TABLE_CASES, change_of_basis, dg_anchor, inverse,
                        random_form)


def catalog_homotopy(name):
    data = catalog_entry(name)[0]
    if hasattr(data, "as_sh"):
        return data.as_sh()
    return quasi_to_sh(data) if hasattr(data, "triple") else data


# ------------------------------------------------------ all-terms oracles

def all_terms_twisting_residual(L, t, partial, j, word):
    """The level-j twisting residual with every term evaluated: every
    anchor level k = 1..j against level j - k of the coderivation, and
    every splitting into anchor levels k and j - k."""
    A = L.over
    out = {}
    op = t.maps.get(j, {}).get(word)
    if op is not None:
        vec_axpy(out, ONE, compose(A.diff, op).entries)
        s = -ONE if (word_degree(L, word) - 1) % 2 else ONE
        vec_axpy(out, -s, compose(op, A.diff).entries)
    for k in range(1, j + 1):
        for w2, c in partial.apply_level(j - k, word).items():
            op2 = t.maps.get(k, {}).get(w2)
            if op2 is not None:
                vec_axpy(out, c, op2.entries)
    for k in range(1, j):
        for m, w1, w2 in splittings(L, word, left_size=k):
            op1 = t.maps.get(k, {}).get(w1)
            op2 = t.maps.get(j - k, {}).get(w2)
            if op1 is None or op2 is None:
                continue
            s = -1 if word_degree(L, w1) % 2 else 1
            vec_axpy(out, Q(m * s), compose(op1, op2).entries)
    return out


def all_terms_twisting(L, t, partial, W):
    report = []
    for j in range(1, W + 1):
        for w in words_of_length(L, j):
            res = all_terms_twisting_residual(L, t, partial, j, w)
            if res:
                report.append({"level": j, "word": w, "value": res})
    return report


def a_times(L, a_label, sl_vec):
    """a times an sL vector through algebra.multiply."""
    out = {}
    for g, c in sl_vec.items():
        b, x = L.split(g)
        for m, cm in multiply(L.over, {a_label: ONE}, {b: ONE}).items():
            vec_axpy(out, c * cm, {L.pair(m, x): ONE})
    return out


def corestriction_on(L, partial, j, args):
    sgn, w = normalize_word(L, args)
    if sgn == 0:
        return {}
    return {g: sgn * c for g, c in partial.cor.get(j, {}).get(w, {}).items()}


def anomaly_oracle(L, partial, t, j):
    """The anomaly law on every (word, algebra element, generator) at
    level j, in Fraction arithmetic on the given tables."""
    A = L.over
    adeg = A.basis.degree
    report = []
    for w in words_of_length(L, j):
        op = t.maps.get(j, {}).get(w)
        sl_sum = sum(L.sl_degree(gl) for gl in w)
        for al in A.basis.labels:
            for g2 in L.l_basis.labels:
                lhs = {}
                for gl, c in a_times(L, al, {g2: ONE}).items():
                    vec_axpy(lhs, c, corestriction_on(L, partial, j,
                                                      list(w) + [gl]))
                rhs = {}
                if op is not None:
                    for bl, c in op.apply({al: ONE}).items():
                        vec_axpy(rhs, c, a_times(L, bl, {g2: ONE}))
                s = -ONE if ((sl_sum + 1) % 2 and adeg[al] % 2) else ONE
                vec_axpy(rhs, s, a_times(L, al, corestriction_on(
                    L, partial, j, list(w) + [g2])))
                if lhs != rhs:
                    report.append({"route": "direct",
                                   "axiom": "bracket anomaly law",
                                   "witness": (j, w, al, g2),
                                   "value": vec_sub(lhs, rhs)})
    return report


# ------------------------------------------------------------------ data

def rational_copy(sh, c, d):
    """sh over a copy of its algebra with each basis element b replaced
    by c[b] * b (the unit kept), with both differentials times d and
    level k of the coderivation and the anchor family times d**(1 - k).
    The first change is a change of basis; the second multiplies each
    identity at level j by a power of d.  So valid data stay valid, now
    with denominators at level 0, in the structure constants and at the
    higher levels."""
    L, A = sh.L, sh.L.over

    def f(a):
        return Q(c.get(a, 1))

    def alg(words):
        out = ONE
        for w in words:
            out *= f(L.split(w)[0])
        return out

    mult = {(a, b): {m: v * f(a) * f(b) / f(m) for m, v in vec.items()}
            for (a, b), vec in A.mult.items()}
    A2 = AlgebraSpec(A.basis, A.unit, mult, LinearMap(
        A.basis, A.basis, -1, {(t_, s_): v * d * f(s_) / f(t_)
                               for (t_, s_), v in A.diff.entries.items()}))
    L2 = ModuleSpec(A2, L.a_basis, LinearMap(
        L.l_basis, L.l_basis, -1, {(t_, s_): v * d * alg([s_]) / alg([t_])
                                   for (t_, s_), v
                                   in L.diff_l.entries.items()}))
    cor = {j: {w: {g: v * d ** (1 - j) * alg(w) / alg([g])
                   for g, v in vec.items()} for w, vec in tab.items()}
           for j, tab in sh.partial.cor.items()}
    maps = {j: {w: LinearMap(A.basis, A.basis, op.degree, {
        (t_, s_): v * d ** (1 - j) * alg(w) * f(s_) / f(t_)
        for (t_, s_), v in op.entries.items()})
                for w, op in tab.items()} for j, tab in sh.t.maps.items()}
    return ShLieRinehartData(L2, Coderivation(L2, cor),
                             TwistingCochain(L2, maps))


def dg_anchor_homotopy():
    return ShLieRinehartData(*dg_anchor())


# quasi_sample has a nonzero module differential, so level 0 takes part
CASES = {name: catalog_homotopy(name)
         for name in ("exterior_pair", "truncated_poly", "quasi_sample")}
# dg_anchor has a nonzero algebra differential; the rational copies have
# denominators at level 0, in the structure constants (mu) and at the
# higher levels
RATIONAL = {
    "quasi_sample, rational": rational_copy(
        CASES["quasi_sample"], {"th": Q(2, 5)}, Q(2, 3)),
    "truncated_poly, rational": rational_copy(
        CASES["truncated_poly"], {"x": Q(1, 2), "x^2": Q(1, 3)}, Q(3, 2)),
    "dg_anchor, rational": rational_copy(
        dg_anchor_homotopy(), {"t": Q(3, 7)}, Q(5, 11)),
}
ALL_CASES = dict(CASES, dg_anchor=dg_anchor_homotopy(), **RATIONAL)

# each level draws its own denominators, coprime to the other levels',
# so s takes a prime from every perturbed level, and a residual divided
# back by a wrong power of s, or without mu, changes its value
DENOMINATORS = {1: (1, 3, 2**61 - 1), 2: (1, 5, 7), 3: (1, 11, 13)}


def random_q(rng, level=1):
    return Q(rng.choice([-2, -1, 1, 2]), rng.choice(DENOMINATORS[level]))


def perturbed(rng, sh):
    """Random rational corestriction and anchor perturbations at levels
    1..3, so also at levels the catalog entry leaves empty.  The anchor
    values are arbitrary operators of the right degree: the identities
    are compared with their oracle, not required to hold."""
    L = sh.L
    A = L.over
    cor = {}
    maps = {}
    if rng.random() < 0.5:
        cor = {j: {w: dict(v) for w, v in tab.items()}
               for j, tab in sh.partial.cor.items()}
        maps = {j: {w: dict(op.entries) for w, op in tab.items()}
                for j, tab in sh.t.maps.items()}
    for j in (1, 2, 3):
        for _ in range(rng.randint(0, 2)):
            w = rng.choice(words_of_length(L, j + 1))
            targets = [x for x in L.sl_basis.labels
                       if L.sl_degree(x) == word_degree(L, w) - 1]
            if targets:
                vec = cor.setdefault(j, {}).setdefault(w, {})
                x = rng.choice(targets)
                vec[x] = vec.get(x, 0) + random_q(rng, j)
        for _ in range(rng.randint(0, 2)):
            w = rng.choice(words_of_length(L, j))
            shift = word_degree(L, w) - 1
            pairs = [(a, b) for a in A.basis.labels for b in A.basis.labels
                     if A.basis.degree[a] == A.basis.degree[b] + shift]
            if pairs:
                ent = maps.setdefault(j, {}).setdefault(w, {})
                pair = rng.choice(pairs)
                ent[pair] = ent.get(pair, 0) + random_q(rng, j)
    t = TwistingCochain(L, {j: nonzero({
        w: LinearMap(A.basis, A.basis, word_degree(L, w) - 1, ent)
        for w, ent in tab.items()}) for j, tab in maps.items()})
    return L, Coderivation(L, {j: nonzero(tab) for j, tab in cor.items()}), t


def anomaly_levels(partial, t):
    return sorted(set(partial.cor) | set(t.maps))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ALL_CASES)), st.sampled_from([3, 4]),
       st.integers(0, 2**32 - 1))
def test_perturbation_residuals_equal_the_all_terms_oracle(name, W, seed):
    L, partial, _ = perturbed(random.Random(seed), ALL_CASES[name])
    assert (perturbation_report(partial, L, TruncationPolicy(W))
            == reference_perturbation_residuals(partial, L, W))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ALL_CASES)), st.sampled_from([3, 4]),
       st.integers(0, 2**32 - 1))
def test_twisting_residuals_equal_the_all_terms_oracle(name, W, seed):
    L, partial, t = perturbed(random.Random(seed), ALL_CASES[name])
    assert (check_twisting_cochain(L, t, partial, TruncationPolicy(W))
            == all_terms_twisting(L, t, partial, W))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(ALL_CASES)), st.integers(0, 2**32 - 1))
def test_anomaly_residuals_equal_the_all_terms_oracle(name, seed):
    L, partial, t = perturbed(random.Random(seed), ALL_CASES[name])
    for j in anomaly_levels(partial, t):
        assert anomaly_report(L, partial, t, j) == anomaly_oracle(
            L, partial, t, j)


def unit_column_anchor():
    """exterior_pair with 1 added to the anchor value on q|u at the unit,
    so that t(q|u)(1) = 1: the one anchor value with a unit column."""
    d = catalog_entry("exterior_pair")[0]
    L, A = d.L, d.L.over
    maps = {j: dict(tab) for j, tab in d.t.maps.items()}
    op = maps[1][("q|u",)]
    maps[1][("q|u",)] = LinearMap(A.basis, A.basis, op.degree,
                                  {**op.entries, ("1", "1"): ONE})
    return ShLieRinehartData(L, d.partial, TwistingCochain(L, maps))


def test_the_unit_row_fails_where_the_anchor_moves_the_unit():
    sh = unit_column_anchor()
    L, partial, t = sh.L, sh.partial, sh.t
    for j in anomaly_levels(partial, t):
        assert anomaly_report(L, partial, t, j) == anomaly_oracle(
            L, partial, t, j)
    # at a = 1 both sides hold mu * cor(w, g2); what is left is
    # -t(q|u)(1) g2 = -g2, on every generator g2
    assert anomaly_report(L, partial, t, 1) == [
        {"route": "direct", "axiom": "bracket anomaly law",
         "witness": (1, ("q|u",), "1", g2), "value": {g2: -ONE}}
        for g2 in L.l_basis.labels]


def test_check_fails_the_unit_column_anchor_on_every_route():
    sh = unit_column_anchor()
    inst = parse_instance_text(emit_instance(sh, TruncationPolicy(4)))
    report = cli.run_check(inst, inst.policy)
    assert report == check_sh_lie_rinehart(sh, TruncationPolicy(4))
    assert Counter((r["route"], r["axiom"]) for r in report) == {
        ("direct", "anchor twisting identity"): 4,
        ("direct", "anchor module-linearity"): 1,
        ("direct", "bracket anomaly law"): 8,
        ("operators", "anchor value is a derivation"): 7,
        ("operators", "square"): 32,
        ("operators", "descent"): 3}
    direct = [(r["axiom"], r["witness"], r["value"]) for r in report
              if r["route"] == "direct"]
    assert direct[:5] == [
        ("anchor twisting identity", (2, ("q.r|u", "1|v")),
         {("1", "1"): -ONE}),
        ("anchor twisting identity", (2, ("q|u", "1|u")),
         {("1", "q"): -ONE}),
        ("anchor twisting identity", (2, ("q|u", "1|v")),
         {("1", "r"): -ONE}),
        ("anchor twisting identity", (2, ("q|v", "r|u")),
         {("1", "1"): -ONE}),
        ("anchor module-linearity", (1, ("q|u",), 0, "q"),
         {("1", "1"): ONE})]
    assert [r for r in report if r["axiom"] == "bracket anomaly law"] == (
        anomaly_report(sh.L, sh.partial, sh.t, 1))


def seeded_gl3():
    """gl3 in the basis perfbench/gen.py draws from seed 1."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench/gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return parse_instance_text(gen.instance_text("gl3", 1, 3)).data


def counted_anomaly_report(monkeypatch, L, partial, t, j):
    """(report, calls of a_times_sl, {args: corestriction reads})."""
    products, reads = [0], Counter()
    times = ModuleSpec.a_times_sl
    cor = structures.apply_corestriction_args

    def counting_times(self, *args):
        products[0] += 1
        return times(self, *args)

    def counting_cor(L, partial, j, args):
        reads[tuple(args)] += 1
        return cor(L, partial, j, args)

    with monkeypatch.context() as m:
        m.setattr(ModuleSpec, "a_times_sl", counting_times)
        m.setattr(structures, "apply_corestriction_args", counting_cor)
        report = anomaly_report(L, partial, t, j)
    return report, products[0], reads


@pytest.mark.parametrize("name", ["sl2", "seeded gl3", "exterior_pair"])
def test_the_anomaly_law_makes_each_value_once(name, monkeypatch):
    if name == "seeded gl3":
        sh = seeded_gl3().as_sh()
    else:
        sh = catalog_homotopy(name)
    L, partial, t = sh.L, sh.partial, sh.t
    A = L.over
    gens = L.l_basis.labels
    # over Q with no anchor every row is the unit row, and it holds in
    # closed form: no corestriction is read
    rational = A.basis.labels == [A.unit] and not t.maps
    assert rational == (name in ("sl2", "seeded gl3"))
    for j in anomaly_levels(partial, t):
        report, products, reads = counted_anomaly_report(
            monkeypatch, L, partial, t, j)
        assert report == anomaly_oracle(L, partial, t, j)
        assert products == len(A.basis.labels) * len(gens)
        assert reads == (Counter() if rational else Counter(
            w + (g,) for w in words_of_length(L, j) for g in gens))


def witnesses(sh):
    return [(r["axiom"], r["witness"])
            for r in direct_route(sh.L, sh.partial, sh.t,
                                  TruncationPolicy(4))]


@pytest.mark.parametrize("name", sorted(RATIONAL))
def test_rational_copies_fail_where_their_originals_fail(name):
    assert witnesses(RATIONAL[name]) == witnesses(
        ALL_CASES[name.split(",")[0]])


def test_the_rational_copies_have_every_kind_of_denominator():
    scales = set()
    for sh in RATIONAL.values():
        mult = sh.L.over.mult
        if sh.L.d0_denominator > 1:
            scales.add("level 0")
        if max(sh.partial.denominator, sh.t.denominator) > 1:
            scales.add("higher levels")
        if any(c.denominator > 1 for v in mult.values() for c in v.values()):
            scales.add("mu")
    assert scales == {"level 0", "higher levels", "mu"}


@pytest.mark.parametrize("name", sorted(ALL_CASES))
def test_the_perturbed_data_fail_every_identity(name):
    # the oracle comparisons above also compare nonzero residuals
    failed = set()
    for seed in range(30):
        L, partial, t = perturbed(random.Random(seed), ALL_CASES[name])
        policy = TruncationPolicy(3)
        if perturbation_report(partial, L, policy):
            failed.add("perturbation")
        if check_twisting_cochain(L, t, partial, policy):
            failed.add("twisting")
        if any(anomaly_report(L, partial, t, j)
               for j in anomaly_levels(partial, t)):
            failed.add("anomaly")
    assert failed == {"perturbation", "twisting", "anomaly"}


# ---------------------------------------------------------- call counts

@pytest.mark.parametrize("name", ["sl2", "heisenberg"])
@pytest.mark.parametrize("verb", ["check", "roundtrip", "cohomology"])
def test_apply_level_runs_only_at_live_levels(name, verb, monkeypatch,
                                              capsys):
    # a Lie algebra has only level 1; every other level is zero.  The
    # perturbation identities read a level's corestriction table
    # (Coderivation.corestriction), the twisting identity applies a level
    # through Coderivation.apply_level, and the operator route reads the
    # bracket parts of its LevelTable
    calls = []
    real_cor = Coderivation.corestriction
    real_apply = Coderivation.apply_level
    real_part = LevelTable._bracket_part

    def reading_table(self, j):
        calls.append((j, self.live(j)))
        return real_cor(self, j)

    def applying(self, j, word):
        calls.append((j, self.live(j)))
        return real_apply(self, j, word)

    def reading(self, j, u):
        calls.append((j, self.partial.live(j)))
        return real_part(self, j, u)

    monkeypatch.setattr(Coderivation, "corestriction", reading_table)
    monkeypatch.setattr(Coderivation, "apply_level", applying)
    monkeypatch.setattr(LevelTable, "_bracket_part", reading)
    assert cli.main([verb, "catalog:" + name, "--W", "5"]) == 0
    capsys.readouterr()
    assert calls
    assert all(live for _, live in calls)


def test_no_verb_changes_a_cached_level_image(monkeypatch, capsys):
    # Coderivation.apply_level hands out its cached image itself, not a
    # copy, so every caller must only read it
    images = {}
    real = Coderivation.apply_level

    def keeping(self, j, word):
        out = real(self, j, word)
        images.setdefault(id(out), (out, dict(out)))
        return out

    monkeypatch.setattr(Coderivation, "apply_level", keeping)
    for name in catalog_names():
        for verb in ("check", "roundtrip", "cohomology"):
            assert cli.main([verb, "catalog:" + name, "--W", "4"]) in (0, 1)
    capsys.readouterr()
    assert images
    assert all(out == kept for out, kept in images.values())


def test_twisting_residual_reads_nothing_without_an_anchor(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(forms, "splittings",
                        counting("splittings", coalgebra.splittings))
    monkeypatch.setattr(Coderivation, "apply_level",
                        counting("apply_level", Coderivation.apply_level))
    sh = catalog_homotopy("sl2")
    assert not sh.t.maps
    W = 5
    assert check_twisting_cochain(sh.L, sh.t, sh.partial,
                                  TruncationPolicy(W)) == []
    assert calls == []


def scaled_anchors(sh, factors):
    """sh with anchor level k scaled by factors[k], dropped where the
    factor is 0: the levels scale apart, so the identities fail."""
    maps = {k: {w: op.scale(factors.get(k, 1)) for w, op in tab.items()}
            for k, tab in sh.t.maps.items() if factors.get(k, 1)}
    return sh.L, sh.partial, TwistingCochain(sh.L, maps)


@pytest.mark.parametrize("name", ["abelian", "exterior_pair", "heisenberg",
                                  "quasi_sample", "sl2", "truncated_poly"])
@pytest.mark.parametrize("factors", [{}, {1: 2}, {1: 0}, {1: 3, 2: -1},
                                     {2: 0}])
def test_twisting_residuals_skip_only_levels_without_a_live_term(
        name, factors, monkeypatch):
    # the residuals equal those of every word of every level; a level
    # whose terms all have a zero factor evaluates no word at all
    L, partial, t = scaled_anchors(catalog_homotopy(name), factors)
    levels = []
    real = structures.twisting_residual

    def recording(L_, t_, partial_, j, word):
        levels.append(j)
        return real(L_, t_, partial_, j, word)

    monkeypatch.setattr(structures, "twisting_residual", recording)
    for W in (2, 3, 4, 5):
        levels.clear()
        assert (check_twisting_cochain(L, t, partial, TruncationPolicy(W))
                == all_terms_twisting(L, t, partial, W))
        # the terms: [d_A, t_j], t_k after del_(j-k) for k <= j, and
        # t_k t_(j-k) for k < j
        anchors = set(t.maps)
        live = {j for j in range(1, W + 1)
                if j in anchors
                or any(partial.live(j - k) for k in anchors if k <= j)
                or any(j - k in anchors for k in anchors if k < j)}
        assert set(levels) == live


# ------------------------------------------------ integer loops, counted

def sl2_pair_lie_rinehart():
    """sl2 + sl2 in a random rational basis, seeded, as Lie-Rinehart
    data."""
    sl2 = catalog_entry("sl2")[0]
    names = [x for x, _ in sl2.L.a_basis.gens]
    L = ModuleSpec(sl2.L.over, GradedBasis(
        [(x + n, 0) for n in ("", "2") for x in names]))
    table = {}
    for (u, v), vec in sl2.bracket.items():
        table[(u, v)] = vec
        table[(u + "2", v + "2")] = {k + "2": c for k, c in vec.items()}
    rng = random.Random(7)
    Pinv = None
    while Pinv is None:
        P = [[Q(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(6)]
             for _ in range(6)]
        Pinv = inverse(P)
    return change_of_basis(LieRinehartData(L, table, {}), P, Pinv)


def sl2_pair_in_a_rational_basis():
    """sl2 + sl2 in a random rational basis: big enough that evaluating
    its terms in Fractions builds many more Fractions than its table has
    entries."""
    return sl2_pair_lie_rinehart().as_sh()


def identities(L, partial, t, W):
    """The three identities of the direct route that run on integers."""
    policy = TruncationPolicy(W)
    table = t.level_table(partial)
    return (check_coalgebra_perturbation(table.partial, L, policy, table.s)
            + check_twisting_cochain(L, t, partial, policy)
            + [r for j in anomaly_levels(partial, t)
               for r in anomaly_report(L, partial, t, j)])


def fractions_built(monkeypatch, run):
    count = [0]
    real = Q.__new__

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return real(cls, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(Q, "__new__", counting)
        out = run()
    return count[0], out


@pytest.mark.parametrize("data", ["sl2 + sl2", "truncated_poly",
                                  "perturbed"])
def test_the_integer_loops_build_no_fraction_per_term(data, monkeypatch):
    # a fallback to Fraction arithmetic builds one per term or more; the
    # integer loops build one per residual entry, when dividing back
    if data == "sl2 + sl2":
        sh = sl2_pair_in_a_rational_basis()
        L, partial, t = sh.L, sh.partial, sh.t
    elif data == "truncated_poly":
        sh = RATIONAL["truncated_poly, rational"]
        L, partial, t = sh.L, sh.partial, sh.t
    else:
        L, partial, t = perturbed(random.Random(3),
                                  RATIONAL["quasi_sample, rational"])
    assert max(L.d0_denominator, partial.denominator, t.denominator) > 1
    count, report = fractions_built(
        monkeypatch, lambda: identities(L, partial, t, 5))
    assert report == identities(L, partial, t, 5)
    assert (report == []) == (data != "perturbed")
    entries = (sum(len(v) for tab in partial.cor.values()
                   for v in tab.values())
               + sum(len(op.entries) for tab in t.maps.values()
                     for op in tab.values()))
    assert count <= entries + sum(len(r["value"]) for r in report)


def test_direct_route_on_lie_data_builds_no_fraction_per_term(monkeypatch):
    sh = sl2_pair_in_a_rational_basis()
    assert sh.partial.denominator > 1
    count, report = fractions_built(monkeypatch, lambda: direct_route(
        sh.L, sh.partial, sh.t, TruncationPolicy(5)))
    assert report == []
    assert count <= sum(len(v) for tab in sh.partial.cor.values()
                        for v in tab.values())


@pytest.mark.parametrize("data", ["sl2 + sl2", "perturbed"])
def test_the_square_check_builds_no_fraction_per_term(data, monkeypatch):
    # the square check sums D_k D_(j-k) on the integer level table and
    # builds one Fraction per residual entry, when dividing back
    if data == "sl2 + sl2":
        sh = sl2_pair_in_a_rational_basis()
        L, partial, t = sh.L, sh.partial, sh.t
    else:
        L, partial, t = perturbed(random.Random(3),
                                  RATIONAL["quasi_sample, rational"])
    assert max(L.d0_denominator, partial.denominator, t.denominator) > 1
    policy = TruncationPolicy(5 if data == "sl2 + sl2" else 3)
    count, report = fractions_built(
        monkeypatch, lambda: square_check(L, partial, t, policy))
    assert report == reference_square_check(L, partial, t, policy.W)
    assert (report == []) == (data != "perturbed")
    entries = (sum(len(v) for tab in partial.cor.values()
                   for v in tab.values())
               + sum(len(op.entries) for tab in t.maps.values()
                     for op in tab.values()))
    assert count <= entries + sum(len(r["value"]) for r in report)


# --------------------------- the level table against the Fraction reference

# TABLE_CASES hold dg_anchor (a nonzero d_A); the rational copies are
# perturbed with random_q denominators at every level
LEVEL_CASES = dict({name: case[:3] for name, case in TABLE_CASES.items()},
                   **{name: None for name in RATIONAL})


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(LEVEL_CASES)), st.integers(0, 2**32 - 1))
def test_the_level_table_halves_equal_the_fraction_reference(name, seed):
    rng = random.Random(seed)
    if LEVEL_CASES[name] is None:
        L, partial, t = perturbed(rng, RATIONAL[name])
    else:
        L, partial, t = LEVEL_CASES[name]
    degree = rng.choice([-2, -1, 0, 1])
    f = random_form(rng, L, degree, 2).scale(random_q(rng, 1)).add(
        random_form(rng, L, degree, 2).scale(random_q(rng, 2)))
    # D_j of an empty coderivation is the anchor operator alone, and of
    # an empty anchor family the bracket operator alone, at every level
    # j >= 1; level 0 holds the module and algebra differentials whatever
    # the families
    no_brackets, no_anchor = Coderivation(L, {}), TwistingCochain(L, {})
    W = 4
    for j in range(W):
        assert build_D(f, partial, t, j) == reference_D(f, partial, t, j)
        if j:
            assert build_D(f, no_brackets, t, j) == reference_t(f, t, j)
            assert (build_D(f, partial, no_anchor, j)
                    == reference_bra(f, partial, j))


# quasi_sample has a module differential, so level 0 is live there
BRACKET_CASES = dict(LEVEL_CASES, quasi_sample=None)


def bracket_case(name, rng):
    """(L, partial, t) of a BRACKET_CASES entry; a rational copy comes
    perturbed."""
    if name == "quasi_sample":
        sh = CASES[name]
        return sh.L, sh.partial, sh.t
    if LEVEL_CASES[name] is None:
        return perturbed(rng, RATIONAL[name])
    return LEVEL_CASES[name]


def test_the_bracket_cases_hold_level_zero_and_higher_levels():
    partials = [bracket_case(name, random.Random(0))[1]
                for name in BRACKET_CASES]
    assert any(partial.live(0) for partial in partials)
    assert any(max(partial.cor, default=0) >= 2 for partial in partials)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(BRACKET_CASES)), st.integers(0, 2**32 - 1))
def test_the_bracket_part_is_the_coefficient_in_the_level_image(name, seed):
    # the closed form of LevelTable._bracket_part against the images of
    # the words j longer (Coderivation.apply_level of the table's integer
    # copy), at every level: a level that is not live has no bracket part
    rng = random.Random(seed)
    table = LevelTable(*bracket_case(name, rng))
    L = table.L
    for j in range(4):
        for n in (0, 1, 2):
            u = rng.choice(words_of_length(L, n))
            want = {}
            for w in words_of_length(L, n + j):
                c = table.partial.apply_level(j, w).get(u)
                if c:
                    want[w] = c
            assert table.parts(j, u)[1] == want


def assert_form_contract(f):
    """FormTable stores what it is given, so every form the library
    builds must be keyed by canonical nonvanishing words and hold no
    empty value, no zero coefficient and only values of degree
    f.degree + |w|."""
    L = f.L
    adeg = L.over.basis.degree
    for w, v in f.values.items():
        assert normalize_word(L, list(w))[1] == w
        assert v and all(v.values())
        assert {adeg[a] for a in v} == {f.degree + word_degree(L, w)}


def recording(method, made):
    def run(self, *args):
        out = method(self, *args)
        made.append(out)
        return out
    return run


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(LEVEL_CASES)), st.integers(0, 2**32 - 1))
def test_every_form_the_library_builds_keeps_the_form_contract(name, seed):
    rng = random.Random(seed)
    if LEVEL_CASES[name] is None:
        L, partial, t = perturbed(rng, RATIONAL[name])
    else:
        L, partial, t = LEVEL_CASES[name]
    policy = TruncationPolicy(3)

    def rational_form():
        degree = rng.choice([-2, -1, 0, 1])
        return random_form(rng, L, degree, 2).scale(random_q(rng, 1)).add(
            random_form(rng, L, degree, 2).scale(random_q(rng, 2)))

    f, g = rational_form(), rational_form()
    made = [build_D(f, partial, t, j) for j in range(4)] + [cup(f, g)]
    made += [form for _, form in multilinear_basis(L, policy)]
    images = [descent_check(L, partial, t, j)["images"]
              for j in range(policy.W)]
    made += [form for im in images for form in im.values()]
    # the tables of m are the descent images, whether they descend or
    # not; extract_structure and table_residuals add and scale forms
    m = MdcaStructure(
        L, {j: {al: im[("const", al)] for al in L.over.basis.labels}
            for j, im in enumerate(images)},
        {j: {xl: im[("dual", (xl,))] for xl, _ in L.a_basis.gens}
         for j, im in enumerate(images)})
    with mock.patch.object(FormTable, "add", recording(FormTable.add, made)), \
            mock.patch.object(FormTable, "scale",
                              recording(FormTable.scale, made)):
        table_residuals(m, extract_structure(m), policy)
    assert any(h.values for h in made)
    for h in made:
        assert_form_contract(h)


def assert_level_contract(L, j, table, anchor):
    """A level j >= 1 of a coderivation (anchor False) or of an anchor
    family (anchor True) as their constructors store it: nonempty, keyed
    by canonical nonvanishing words of length j + 1 or j, with nonzero
    values of degree |w| - 1."""
    assert isinstance(j, int) and j >= 1 and table
    for w, v in table.items():
        assert len(w) == (j if anchor else j + 1)
        assert normalize_word(L, list(w)) == (1, w)
        if anchor:
            assert isinstance(v, LinearMap) and not v.is_zero()
            assert v.degree == word_degree(L, w) - 1
        else:
            assert v and all(v.values())
            assert {L.sl_degree(g) for g in v} == {word_degree(L, w) - 1}


def recording_init(init, made):
    def run(self, *args):
        init(self, *args)
        made.append(self)
    return run


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(LEVEL_CASES)), st.integers(0, 2**32 - 1))
def test_every_structure_the_library_builds_keeps_the_table_contract(name,
                                                                     seed):
    # Coderivation and TwistingCochain only store, so every one the
    # library builds must keep their contract: through brackets, the
    # integer copy, extraction from the descent images, and the quasi
    # conversion with its extended ternary corestriction
    rng = random.Random(seed)
    if LEVEL_CASES[name] is None:
        L, partial, t = perturbed(rng, RATIONAL[name])
    else:
        L, partial, t = LEVEL_CASES[name]
    policy = TruncationPolicy(3)
    preset, lam, dmat, cs = QUASI_PARAMS
    made = []
    with mock.patch.object(Coderivation, "__init__", recording_init(
            Coderivation.__init__, made)), \
            mock.patch.object(TwistingCochain, "__init__", recording_init(
                TwistingCochain.__init__, made)):
        coderivation_from_brackets(L, {2: partial.cor.get(1, {})})
        t.level_table(partial)
        images = [descent_check(L, partial, t, j)["images"]
                  for j in range(policy.W)]
        extract_structure(MdcaStructure(
            L, {j: {al: im[("const", al)] for al in L.over.basis.labels}
                for j, im in enumerate(images)},
            {j: {xl: im[("dual", (xl,))] for xl, _ in L.a_basis.gens}
             for j, im in enumerate(images)}))
        q = build_quasi_sample(
            {key: {g: c * random_q(rng) for g, c in v.items()}
             for key, v in preset.items()},
            {x: rng.choice([0, random_q(rng)]) for x in lam}, dmat,
            {key: random_q(rng) for key in cs})
        sh = quasi_to_sh(q)
        sh.t.level_table(sh.partial)
    assert any(getattr(made_one, "cor", None) for made_one in made)
    for made_one in made:
        levels = getattr(made_one, "cor", None)
        anchor = levels is None
        for j, table in (made_one.maps if anchor else levels).items():
            assert_level_contract(made_one.L, j, table, anchor)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(ALL_CASES)), st.integers(0, 2**32 - 1))
def test_square_residuals_equal_the_fraction_reference(name, seed):
    L, partial, t = perturbed(random.Random(seed), ALL_CASES[name])
    assert (square_check(L, partial, t, TruncationPolicy(3))
            == reference_square_check(L, partial, t, 3))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(ALL_CASES)), st.integers(0, 2**32 - 1))
def test_leibniz_residuals_equal_the_fraction_reference(name, seed):
    # the perturbed anchor values need not be derivations, so D_j need
    # not be one either: the Leibniz residuals of the table's D_j equal
    # those of the Fraction reference, and vanish where the premise holds
    L, partial, t = perturbed(random.Random(seed), ALL_CASES[name])
    report = reference_leibniz_check(L, partial, t, 4)
    assert reference_leibniz_check(L, partial, t, 4, D=build_D) == report
    if not t.validation_report():
        assert report == []


# ------------------------------------------ one integer copy per structure

def test_a_check_builds_one_integer_copy_of_the_coderivation(monkeypatch):
    # the coderivation of rational truncated_poly has denominator 2, its
    # anchor 4: the perturbation identity, the anchor identities and the
    # operator route all run on the copy scaled by s = 4
    sh = rational_copy(CASES["truncated_poly"], {"x": Q(1, 2), "x^2": Q(1, 3)},
                       Q(3, 2))
    assert (sh.partial.denominator, sh.t.denominator) == (2, 4)
    built = []
    real = Coderivation.scaled

    def recording(self, s):
        built.append(s)
        return real(self, s)

    monkeypatch.setattr(Coderivation, "scaled", recording)
    assert check_sh_lie_rinehart(sh, TruncationPolicy(4)) == []
    assert built == [4]


@pytest.mark.parametrize("data", ["truncated_poly, rational", "seeded file"])
def test_a_check_builds_one_level_table(data, monkeypatch):
    # both routes read the integer copies of the one LevelTable kept with
    # the anchor family; fresh families, so no table is kept yet
    made = []
    monkeypatch.setattr(LevelTable, "__init__",
                        recording_init(LevelTable.__init__, made))
    policy = TruncationPolicy(4)
    if data == "seeded file":
        lr = parse_instance_text(emit_instance(sl2_pair_lie_rinehart(),
                                               policy)).data
        assert lr.partial.denominator > 1
        assert check_lie_rinehart(lr, policy) == []
    else:
        sh = RATIONAL[data]
        assert check_sh_lie_rinehart(ShLieRinehartData(
            sh.L, Coderivation(sh.L, sh.partial.cor),
            TwistingCochain(sh.L, sh.t.maps)), policy) == []
    assert len(made) == 1


def scale_answers(L, partial, t, policy):
    """What the routes answer on one structure: the residuals of both
    routes, the descent images, and the Betti numbers with their rank
    certificates, or the refusal with its residuals."""
    certificates = {}
    try:
        betti = cohomology_ranks(L, partial, t, policy, certificates)
    except Refusal as e:
        betti = (str(e), e.residuals)
    return (direct_route(L, partial, t, policy),
            operator_route(L, partial, t, policy),
            [descent_check(L, partial, t, j)["images"]
             for j in range(policy.W)],
            betti, certificates)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(ALL_CASES)), st.integers(0, 2**32 - 1))
@example("dg_anchor, rational", 0)  # d0 has denominator 77, the levels 3
def test_the_answers_do_not_depend_on_the_scale(name, seed):
    # every identity is homogeneous in the one scale s, so an s that is a
    # proper multiple of the least one answers alike: the structure is
    # built afresh with L.d0_denominator raised before any table is
    # built, to 6 * s, a multiple of the true one, so s becomes 6 * s
    policy = TruncationPolicy(3)
    L, partial, t = perturbed(random.Random(seed), ALL_CASES[name])
    s = t.level_table(partial).s
    want = scale_answers(L, partial, t, policy)
    with mock.patch.object(L, "d0_denominator", 6 * s):
        L, partial, t = perturbed(random.Random(seed), ALL_CASES[name])
        assert t.level_table(partial).s == 6 * s
        assert scale_answers(L, partial, t, policy) == want
    # an s that clears every level but not the word differential d0
    d0 = denominator(c for v in L.d0_table.values() for c in v.values())
    if partial.denominator % d0:
        with pytest.raises(ValueError):
            partial.scaled(partial.denominator)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(ALL_CASES)), st.integers(0, 2**32 - 1))
def test_direct_route_perturbation_residuals_on_the_shared_scale(name, seed):
    # the direct route scales the coderivation by the lam of the anchor
    # identities; its perturbation residuals are those of the oracle
    L, partial, t = perturbed(random.Random(seed), ALL_CASES[name])
    got = [{"level": r["witness"][0], "word": r["witness"][1],
            "value": r["value"]}
           for r in direct_route(L, partial, t, TruncationPolicy(3))
           if r["axiom"] == "bracket coderivation squares to zero"]
    assert got == reference_perturbation_residuals(partial, L, 3)


# ------------------------------------------------------- memory lifetime

def test_the_level_table_keeps_no_cycle_through_its_structure():
    # the table kept with the anchor family refers to integer copies, not
    # to the family, so the family is freed without the cycle collector
    def run():
        sh = catalog_homotopy("exterior_pair")
        policy = TruncationPolicy(3)
        assert operator_route(sh.L, sh.partial, sh.t, policy) == []
        cohomology_ranks(sh.L, sh.partial, sh.t, policy)
        assert sh.t._table is not None
        return weakref.ref(sh.t)

    gc.collect()
    gc.disable()
    try:
        ref = run()
        assert ref() is None
    finally:
        gc.enable()
