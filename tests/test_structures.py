from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

from mdca import cli, forms, structures
from mdca.algebra import (Derivation, exterior_algebra, graded_commutator,
                          multiply, rational_algebra, truncated_polynomial)
from mdca.coalgebra import (Coderivation, ModuleSpec, TruncationPolicy,
                            check_coalgebra_perturbation,
                            coderivation_from_brackets, words_of_length)
from mdca.forms import (SquareResidualError, TwistingCochain, build_D,
                        cohomology_ranks, cup, dual_one_forms,
                        multilinear_generators, square_check)
from mdca.graded import GradedBasis, LinearMap, ONE, vec_axpy
from mdca.instances import QUASI_PARAMS, build_quasi_sample, catalog_entry
from mdca.io_json import ParsedInstance, emit_instance
from mdca.structures import (DescentError, LieRinehartData,
                             QuasiLieRinehartData, ShLieRinehartData,
                             anchor_multilinearity_report,
                             build_maurer_cartan, check_lie_rinehart,
                             check_sh_lie_rinehart, check_twisting_cochain,
                             extend_anchor_level, extend_bracket_table,
                             extract_structure, quasi_to_sh, table_residuals)
from operator_reference import (quasi_model_disagreements,
                                reference_jacobi_defect)

from test_forms import (SL2, SL2_PARTIAL, SL2_TABLE, derivation_pair,
                        dg_anchor, exterior_pair, jacobi_violator, tp2)


def g(x):
    return "1|" + x


# ------------------------------------------------- bracket table extension

def tp2_generator_data():
    A = truncated_polynomial("x", 3)
    L = ModuleSpec(A, GradedBasis([("u", 0), ("v", 0)]))
    theta = {"u": LinearMap(A.basis, A.basis, 0,
                            {("x", "x"): ONE, ("x^2", "x^2"): Q(2)}),
             "v": LinearMap(A.basis, A.basis, 0, {("x^2", "x"): ONE})}
    gen_bracket = {("u", "v"): {"1|v": ONE}}
    return L, theta, gen_bracket


def test_extended_bracket_matches_ungraded_formula():
    # the recursive extension through the anomaly law must reproduce the
    # table built with the classical two-term formula
    L, theta, gen_bracket = tp2_generator_data()
    table = extend_bracket_table(L, theta, gen_bracket)
    p = coderivation_from_brackets(L, {2: table})
    _, p_ref, _ = tp2()
    assert p.cor == p_ref.cor


def test_extended_bracket_matches_graded_commutators():
    # same cross-check in the graded case: the extension of the generator
    # commutators agrees with the table of honest operator commutators
    A = exterior_algebra([("q", -1), ("r", -1)])
    dq = Derivation(A, 1, {("1", "q"): ONE, ("r", "q.r"): ONE})
    dr = Derivation(A, 1, {("1", "r"): ONE, ("q", "q.r"): -ONE})
    L, p_ref, t_ref = derivation_pair(A, [("u", "q", dq), ("v", "r", dr)])
    adeg = A.basis.degree
    by_gen = {"u": dq, "v": dr}
    gen_bracket = {}
    for x1 in ("u", "v"):
        for x2 in ("u", "v"):
            if x2 < x1:
                continue
            c = graded_commutator(by_gen[x1], by_gen[x2])
            vec = {}
            for xl, dl in (("u", "q"), ("v", "r")):
                for al, co in c({dl: ONE}).items():
                    s = -ONE if adeg[al] % 2 else ONE
                    vec[L.pair(al, xl)] = s * co
            vec = {k: v for k, v in vec.items() if v}
            if vec:
                gen_bracket[(x1, x2)] = vec
    pairing = {x: d.action for x, d in by_gen.items()}
    table = extend_bracket_table(L, pairing, gen_bracket)
    p = coderivation_from_brackets(L, {2: table}) if table else \
        Coderivation(L, {})
    assert p.cor == p_ref.cor


def test_extended_anchor_matches_scaled_action():
    L, theta, _ = tp2_generator_data()
    t1 = extend_anchor_level(L, {("u",): theta["u"], ("v",): theta["v"]}, 1)
    _, _, t_ref = tp2()
    assert {w: op.entries for w, op in t1.items()} == \
        {w: op.entries for w, op in t_ref.maps[1].items()}


# --------------------------------------------------- ordinary pair checks

def sl2_data():
    return LieRinehartData(SL2, SL2_TABLE, {})


def tp2_data():
    L, theta, gen_bracket = tp2_generator_data()
    table = extend_bracket_table(L, theta, gen_bracket)
    anchor = {w[0]: op for w, op in
              extend_anchor_level(L, {("u",): theta["u"],
                                      ("v",): theta["v"]}, 1).items()}
    return LieRinehartData(L, table, anchor)


def test_check_lie_rinehart_passes():
    assert check_lie_rinehart(sl2_data(), TruncationPolicy(3)) == []
    assert check_lie_rinehart(tp2_data(), TruncationPolicy(3)) == []


def test_check_lie_rinehart_flags_jacobi_failure():
    L, partial, _ = jacobi_violator()
    table = {args: dict(v) for j, tab in partial.cor.items()
             for args, v in tab.items()}
    d = LieRinehartData(L, table, {})
    rep = check_lie_rinehart(d, TruncationPolicy(3))
    assert any(r["axiom"] == "bracket coderivation squares to zero"
               for r in rep)


def test_check_lie_rinehart_flags_scaled_anchor():
    d = tp2_data()
    scaled = {w[0]: op.scale(2) for w, op in d.anchor.maps[1].items()}
    bad = LieRinehartData(d.L, d.bracket, scaled)
    rep = check_lie_rinehart(bad, TruncationPolicy(3))
    assert any(r["axiom"] == "anchor twisting identity" for r in rep)
    # the scaled anchor also breaks the anomaly law against the bracket
    assert any(r["axiom"] == "bracket anomaly law" for r in rep)


def test_check_lie_rinehart_flags_non_multilinear_anchor():
    d = tp2_data()
    anchor = {w[0]: op for w, op in d.anchor.maps[1].items()}
    anchor[("x|u")] = anchor[("x|u")].add(
        LinearMap(d.L.over.basis, d.L.over.basis, 0, {("x", "x"): ONE}))
    bad = LieRinehartData(d.L, d.bracket, anchor)
    rep = check_lie_rinehart(bad, TruncationPolicy(3))
    assert any(r["axiom"] == "anchor module-linearity" for r in rep)


def test_anchor_on_a_vanishing_bare_word_is_not_module_linear():
    # (th|x, 1|x) strips to (1|x, 1|x), which vanishes (x has odd
    # suspended degree): a linear anchor must be zero there, and no
    # rescaling of canonical words reaches that constraint
    q, _ = catalog_entry("quasi_sample")
    sh = quasi_to_sh(q)
    L, A = sh.L, sh.L.over
    assert anchor_multilinearity_report(L, sh.t) == []
    maps = {j: dict(tab) for j, tab in sh.t.maps.items()}
    w = ("th|x", "1|x")
    extra = LinearMap(A.basis, A.basis, 0, {("th", "th"): ONE})
    maps[2][w] = maps[2][w].add(extra) if w in maps[2] else extra
    rep = anchor_multilinearity_report(L, TwistingCochain(L, maps))
    assert rep
    assert {r["witness"] for r in rep} == {(2, w, 0, "th")}
    assert all(r["axiom"] == "anchor module-linearity" for r in rep)


def test_check_lie_rinehart_flags_broken_anomaly():
    # perturb the bracket on a scalar multiple of a generator only: the
    # coderivation still squares to zero degreewise here, but the scaling
    # law must notice
    d = tp2_data()
    table = {k: dict(v) for k, v in d.bracket.items()}
    key = (("x|u"), ("1|v"))
    for k, v in list(table.items()):
        if set(k) == set(key):
            v[g("u")] = v.get(g("u"), Q(0)) + 1
    bad = LieRinehartData(d.L, table, {w[0]: op for w, op in
                                       d.anchor.maps[1].items()})
    rep = check_lie_rinehart(bad, TruncationPolicy(3))
    assert any(r["axiom"] == "bracket anomaly law" for r in rep)


# ------------------------------------------------------ twisting reports

def test_check_twisting_cochain_reports():
    L, partial, t = tp2()
    assert check_twisting_cochain(L, t, partial, TruncationPolicy(3)) == []
    L2, partial2, t2 = tp2(scale=2)
    rep = check_twisting_cochain(L2, t2, partial2, TruncationPolicy(3))
    assert rep and all(r["level"] == 2 for r in rep)
    assert any(r["word"] == ("1|u", "1|v") for r in rep)


# ---------------------------------------------------- homotopy pair checks

def test_check_sh_lie_rinehart_passes():
    d = ShLieRinehartData(*tp2())
    assert check_sh_lie_rinehart(d, TruncationPolicy(3)) == []
    d = ShLieRinehartData(*exterior_pair())
    assert check_sh_lie_rinehart(d, TruncationPolicy(2)) == []


def test_check_sh_lie_rinehart_flags_invalid_dg_anchor():
    # nonzero base and module differentials with an anchor value that is
    # not a cycle: the residuals must show up on both routes
    d = ShLieRinehartData(*dg_anchor())
    rep = check_sh_lie_rinehart(d, TruncationPolicy(3))
    routes = {r["route"] for r in rep}
    assert "direct" in routes and "operators" in routes
    assert "cross-check" not in routes


def test_check_sh_lie_rinehart_routes_agree_on_failure():
    d = ShLieRinehartData(*jacobi_violator())
    rep = check_sh_lie_rinehart(d, TruncationPolicy(3))
    routes = {r["route"] for r in rep}
    assert "direct" in routes and "operators" in routes
    assert "cross-check" not in routes


# ----------------------------------------- construction and extraction

def roundtrip_case(case, W):
    L, partial, t = case
    d = ShLieRinehartData(L, partial, t)
    m = build_maurer_cartan(d, TruncationPolicy(W))
    back = extract_structure(m)
    assert table_residuals(m, back, TruncationPolicy(W)) == ([], [])
    assert back.partial.cor == partial.cor
    assert {j: {w: op.entries for w, op in tab.items()}
            for j, tab in back.t.maps.items()} == \
        {j: {w: op.entries for w, op in tab.items()}
         for j, tab in t.maps.items()}


def test_round_trip_extraction():
    roundtrip_case((SL2, SL2_PARTIAL, TwistingCochain(SL2, {})), 3)
    roundtrip_case(tp2(), 3)
    roundtrip_case(exterior_pair(), 2)
    # the contractible-base differentials round trip once the incompatible
    # anchor is dropped; with it the structure is invalid and build refuses
    L, partial, t = dg_anchor()
    roundtrip_case((L, partial, TwistingCochain(L, {})), 3)
    with pytest.raises(ValueError):
        build_maurer_cartan(ShLieRinehartData(L, partial, t),
                            TruncationPolicy(3))


def test_build_refuses_non_multilinear_anchor():
    L, partial, t = tp2()
    t1 = {w: op for w, op in t.maps[1].items()}
    t1[("x|u",)] = t1[("x|u",)].add(
        LinearMap(L.over.basis, L.over.basis, 0, {("x", "x"): ONE}))
    bad = ShLieRinehartData(L, partial, TwistingCochain(L, {1: t1}))
    with pytest.raises(ValueError):
        build_maurer_cartan(bad, TruncationPolicy(2))


def test_extraction_flags_tampered_structure():
    # the level-0 tables are pinned by the differentials, so corrupting
    # one cannot be absorbed into candidate brackets or anchors: the
    # rebuilt table differs from the tampered one by the tampering
    L, partial, t = exterior_pair()
    d = ShLieRinehartData(L, partial, t)
    m = build_maurer_cartan(d, TruncationPolicy(2))
    f = m.on_duals[0]["u"]
    from mdca.forms import FormTable
    m.on_duals[0]["u"] = f.add(FormTable(L, f.degree, {("q|u",): {"q.r": 1}}))
    back = extract_structure(m)
    assert table_residuals(m, back, TruncationPolicy(2)) == ([{
        "route": "extract", "axiom": "table consistency",
        "witness": {"flag": "dual table not reproduced", "witness": (0, "u")},
        "value": {("q|u",): {"q.r": 1}}}], [])


# ------------------------------------------------------------ quasi layer

def tp2_as_quasi():
    d = tp2_data()
    pairing = {w[0]: op for w, op in d.anchor.maps[1].items()}
    return QuasiLieRinehartData(d.L, d.bracket, pairing, {})


def test_quasi_validation_and_conversion():
    q = tp2_as_quasi()
    assert q.validation_report() == []
    sh = quasi_to_sh(q)
    _, p_ref, t_ref = tp2()
    assert sh.partial.cor == p_ref.cor
    assert {w: op.entries for w, op in sh.t.maps[1].items()} == \
        {w: op.entries for w, op in t_ref.maps[1].items()}
    assert 2 not in sh.t.maps


def test_quasi_mc_representations_agree():
    # the alternating-form formulas and the coalgebra operators must give
    # the same generator tables
    q = tp2_as_quasi()
    m = build_maurer_cartan(quasi_to_sh(q), TruncationPolicy(3))
    assert m.levels() == [0, 1, 2]
    assert quasi_model_disagreements(q, m, 3) == []


def test_jacobi_defect_trivial_for_ordinary_pair():
    assert reference_jacobi_defect(tp2_as_quasi()) == []


def test_jacobi_defect_identity_reports_a_negated_triple():
    # negating the triple of quasi_sample flips the sign of the
    # differentiated ternary bracket; the identity fixes its sign, so the
    # one triple is reported, as check reports the broken identities
    preset, lam, dmat, cs = QUASI_PARAMS
    q = build_quasi_sample(preset, lam, dmat,
                           {k: -c for k, c in cs.items()})
    [out] = reference_jacobi_defect(q)
    assert out["triple"] == ("x", "y", "z")
    assert out["lhs"] == out["rhs"] == {"1|x": -ONE}
    assert check_sh_lie_rinehart(quasi_to_sh(q), TruncationPolicy(4))


QUASI_GENS = ("x", "y", "z")
QUASI_PAIRS = (("x", "y"), ("x", "z"), ("y", "z"))


@st.composite
def random_quasi(draw):
    """Quasi data over the exterior line of build_quasi_sample: small
    integer generator brackets on x, y, z, anchor weights, differential
    and triple, with no identity imposed."""
    c = st.integers(-2, 2)
    bracket = {p: {g(x): Q(v) for x, v in zip(
        QUASI_GENS, draw(st.lists(c, min_size=3, max_size=3))) if v}
        for p in QUASI_PAIRS}
    return build_quasi_sample(
        bracket, {x: draw(c) for x in QUASI_GENS},
        {x: {y: draw(c) for y in QUASI_GENS} for x in QUASI_GENS},
        {p: draw(c) for p in QUASI_PAIRS})


def descended(q, policy):
    """The Maurer-Cartan algebra of q's conversion; the draw is dropped
    where some level does not descend."""
    assume(q.validation_report() == [])
    try:
        return build_maurer_cartan(quasi_to_sh(q), policy)
    except DescentError:
        assume(False)


@settings(max_examples=25, deadline=None)
@given(random_quasi())
def test_the_alternating_form_model_matches_the_built_tables(q):
    # D_0 .. D_2 agree generator by generator, and levels 3 and up of the
    # built algebra are zero like the model's
    policy = TruncationPolicy(4)
    m = descended(q, policy)
    assert m.levels() == [0, 1, 2, 3]
    assert quasi_model_disagreements(q, m, policy.W) == []


@settings(max_examples=25, deadline=None)
@given(random_quasi())
def test_the_jacobi_oracle_is_the_level_two_perturbation_residual(q):
    # on the bare word sx sy sz the level-2 residual is lhs + rhs, and it
    # is there exactly where the oracle reports the triple
    partial = quasi_to_sh(q).partial
    bare = tuple(g(x) for x in QUASI_GENS)
    residual = {r["word"]: r["value"] for r in check_coalgebra_perturbation(
        partial, q.L, TruncationPolicy(3), partial.denominator)
        if r["level"] == 2 and r["word"] == bare}
    oracle = reference_jacobi_defect(q)
    assert [r["triple"] for r in oracle] == \
        ([QUASI_GENS] if residual else [])
    for r in oracle:
        assert residual[bare] == vec_axpy(dict(r["lhs"]), ONE, r["rhs"])


# ------------------------------------------------------ one direct route

@pytest.mark.parametrize("case", ["jacobi_violator", "scaled_anchor"])
def test_lie_rinehart_check_is_the_direct_route(case):
    if case == "jacobi_violator":
        L, partial, _ = jacobi_violator()
        table = {args: dict(v) for j, tab in partial.cor.items()
                 for args, v in tab.items()}
        d = LieRinehartData(L, table, {})
    else:
        ok = tp2_data()
        d = LieRinehartData(ok.L, ok.bracket,
                            {w[0]: op.scale(2)
                             for w, op in ok.anchor.maps[1].items()})
    policy = TruncationPolicy(3)
    rep = check_lie_rinehart(d, policy)
    assert rep
    assert rep == [r for r in check_sh_lie_rinehart(d.as_sh(), policy)
                   if r["route"] == "direct"]
    assert all(set(r) == {"route", "axiom", "witness", "value"}
               for r in rep)


def test_square_residuals_carry_their_value():
    d, _ = catalog_entry("jacobi_violator")
    sh = d.as_sh()
    policy = TruncationPolicy(4)
    values = {(r["level"], r["form"], r["word"]): r["value"]
              for r in square_check(sh.L, sh.partial, sh.t, policy)}
    m = build_maurer_cartan(sh, policy)
    for rep in (check_sh_lie_rinehart(sh, policy),
                cli.run_check(ParsedInstance("mdca", m, policy), policy)):
        square = [r for r in rep if r["axiom"] == "square"]
        assert square
        for r in square:
            assert r["route"] == "operators"
            assert r["value"] == values[r["witness"]]


# ------------------------------------------- each generator built once

def test_dual_table_of_a_dotted_generator_is_its_own():
    # the 1-form of the generator `a.z` and the monomial of `a` and `z`
    # are both named dual:a.z; the table of `a.z` must be D_j of its own
    # dual 1-form (here D_1 of it is nonzero, D_1 of the monomial is zero)
    L = ModuleSpec(rational_algebra(),
                   GradedBasis([("a", 0), ("z", 0), ("a.z", 0)]))
    sh = LieRinehartData(L, {(g("a"), g("z")): {g("a.z"): ONE}}, {}).as_sh()
    policy = TruncationPolicy(3)
    m = build_maurer_cartan(sh, policy)
    duals = dual_one_forms(L)
    for j in range(policy.W):
        assert m.on_duals[j]["a.z"] == build_D(duals["a.z"], sh.partial,
                                               sh.t, j)
    monomial = cup(duals["a"], duals["z"])
    assert not m.on_duals[1]["a.z"].is_zero()
    assert build_D(monomial, sh.partial, sh.t, 1).is_zero()


def test_build_probes_each_generator_once_per_level(monkeypatch):
    # descent_check computes D_j of every cup generator (constant or dual
    # 1-form) once with build_D and tests that image once; the tables are
    # read from it
    calls = []
    real_D, real_multilinear = forms.build_D, forms.is_A_multilinear

    def build_D_counting(f, partial, t, j):
        calls.append(("build_D", j))
        return real_D(f, partial, t, j)

    def multilinear_counting(f):
        # tagged with the level of the build_D call it tests
        calls.append(("is_A_multilinear", calls[-1][1]))
        return real_multilinear(f)

    monkeypatch.setattr(forms, "build_D", build_D_counting)
    monkeypatch.setattr(forms, "is_A_multilinear", multilinear_counting)
    sh = ShLieRinehartData(*exterior_pair())
    policy = TruncationPolicy(3)
    build_maurer_cartan(sh, policy)
    n = len(multilinear_generators(sh.L, 1))
    assert len(calls) == 2 * n * policy.W
    for j in range(policy.W):
        assert calls.count(("build_D", j)) == n
        assert calls.count(("is_A_multilinear", j)) == n


def test_twisting_check_visits_each_word_of_its_level_once(monkeypatch):
    # the level-j residual can only be nonzero on words of length j.
    # exterior_pair has an anchor and a coderivation at level 1 only, so
    # level 1 ([d_A, t_1]) and level 2 (t_1 after del_1) have live
    # terms, and levels 3 and 4, where every term has a zero factor, are
    # not visited
    calls = []
    real = structures.twisting_residual

    def counting(L, t, partial, j, word):
        calls.append((j, word))
        return real(L, t, partial, j, word)

    monkeypatch.setattr(structures, "twisting_residual", counting)
    L, partial, t = exterior_pair()
    W = 4
    assert check_twisting_cochain(L, t, partial, TruncationPolicy(W)) == []
    assert sorted(calls) == sorted((j, w) for j in (1, 2)
                                   for w in words_of_length(L, j))


# ------------------------------------------------------ anchor premise

def non_derivation_anchor():
    """Rank-1 module e over Q[x]/(x^3) whose anchor N kills 1 and x and
    fixes x^2, which is not a derivation (N(x x) = x^2, N(x) x = 0), with
    the bracket [a e, b e] = (a N(b) - b N(a)) e."""
    A = truncated_polynomial("x", 3)
    L = ModuleSpec(A, GradedBasis([("e", 0)]))
    N = LinearMap(A.basis, A.basis, 0, {("x^2", "x^2"): ONE})
    bracket = {}
    for a in A.basis.labels:
        for b in A.basis.labels:
            v = multiply(A, {a: ONE}, N.apply({b: ONE}))
            vec = multiply(A, {b: ONE}, N.apply({a: ONE}))
            v = {k: v.get(k, 0) - vec.get(k, 0) for k in set(v) | set(vec)}
            bracket[(L.pair(a, "e"), L.pair(b, "e"))] = {
                L.pair(k, "e"): c for k, c in v.items() if c}
    return LieRinehartData(L, bracket, {"1|e": N})


def test_route_disagreement_carries_both_residual_counts(monkeypatch):
    # an operator route that misses the Jacobi failure the direct route
    # finds is itself a residual; its value holds the two counts
    sh = catalog_entry("jacobi_violator")[0].as_sh()
    policy = TruncationPolicy(4)
    monkeypatch.setattr(structures, "operator_route", lambda *args: [])
    rep = check_sh_lie_rinehart(sh, policy)
    n = len(rep) - 1
    assert n > 0 and all(r["route"] == "direct" for r in rep[:n])
    assert rep[n] == {"route": "cross-check",
                      "axiom": "route agreement",
                      "witness": (n, 0),
                      "value": {"direct": n, "operators": 0}}


def test_operator_route_names_a_non_derivation_anchor():
    # D_j is a derivation of the cup product only when every anchor value
    # is a derivation of A; the operator route reports that premise
    sh = non_derivation_anchor().as_sh()
    policy = TruncationPolicy(4)
    rep = check_sh_lie_rinehart(sh, policy)
    premise = [r for r in rep if r["axiom"] == "anchor value is a derivation"]
    assert premise == [{"route": "operators",
                        "axiom": "anchor value is a derivation",
                        "witness": (1, ("1|e",), "x", "x"),
                        "value": {"x^2": ONE}}]
    assert all(r["axiom"] != "route agreement" for r in rep)
    m = build_maurer_cartan(sh, policy)
    rep = cli.run_check(ParsedInstance("mdca", m, policy), policy)
    assert [r["witness"] for r in rep
            if r["axiom"] == "anchor value is a derivation"] == [
                (1, ("1|e",), "x", "x")]


def test_cohomology_refuses_a_non_derivation_anchor(tmp_path, capsys):
    d = non_derivation_anchor()
    sh = d.as_sh()
    with pytest.raises(SquareResidualError, match="not a derivation"):
        cohomology_ranks(sh.L, sh.partial, sh.t, TruncationPolicy(3))
    p = tmp_path / "n.json"
    p.write_text(emit_instance(d, TruncationPolicy(3)))
    assert cli.main(["cohomology", str(p)]) == 1
    assert "anchor value is not a derivation" in capsys.readouterr().out
