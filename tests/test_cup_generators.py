"""The operator route probes descent on the cup generators only.

Under the anchor premise every D_j is a derivation of the cup product;
cup products of A-multilinear forms are A-multilinear, and the cup
product is associative.  So D_j preserves multilinearity iff it does so
on the constants and the dual 1-forms.  The properties that argument
rests on are tested here, and the generator-only descent check is
compared with the former probe set (every cup monomial of the dual
1-forms), kept below as its oracle.
The fixture at the end does not descend although D squares to zero;
every verb and file kind must fail on it.
"""

import json
import random
from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from mdca import cli
from mdca.coalgebra import TruncationPolicy, word_degree, words_of_length
from mdca.forms import (FormTable, TwistingCochain, ambient_basis_forms,
                        build_D, constant_form, cup, descent_check,
                        dual_one_forms, is_A_multilinear, multilinear_basis,
                        multilinear_generators, square_check)
from mdca.graded import LinearMap, ONE
from mdca.instances import catalog_entry
from mdca.io_json import emit_instance
from mdca.structures import MdcaStructure, ShLieRinehartData

from operator_reference import (derivation_space, nonzero, reference_D,
                                reference_leibniz_check,
                                reference_square_check)
from test_live_terms import ALL_CASES, CASES, perturbed, random_q

# ------------------------------------------- the all-monomial oracle

def all_monomial_descent(L, partial, t, j, W):
    """Does level j fail to preserve multilinearity over the former probe
    set: the constants and every cup monomial of the dual 1-forms with
    at most W - j factors, with D_j from the Fraction reference."""
    return any(not is_A_multilinear(reference_D(f, partial, t, j))[0]
               for _, _, f in multilinear_generators(L, W - j))


DERIVATIONS = {}


def derivations(A, degree):
    key = (id(A), degree)
    if key not in DERIVATIONS:
        DERIVATIONS[key] = derivation_space(A, degree)
    return DERIVATIONS[key]


def with_derivation_anchor(rng, L, t):
    """t plus random multiples of derivations of A on random words at
    levels 1 and 2: the anchor premise keeps holding when it held."""
    A = L.over
    maps = {j: {w: dict(op.entries) for w, op in tab.items()}
            for j, tab in t.maps.items()}
    for j in (1, 2):
        for _ in range(rng.randint(0, 2)):
            w = rng.choice(words_of_length(L, j))
            basis = derivations(A, word_degree(L, w) - 1)
            if not basis:
                continue
            ent = maps.setdefault(j, {}).setdefault(w, {})
            scale = random_q(rng)
            for pair, c in rng.choice(basis).entries.items():
                ent[pair] = ent.get(pair, 0) + scale * c
    return TwistingCochain(L, {j: nonzero({
        w: LinearMap(A.basis, A.basis, word_degree(L, w) - 1, ent)
        for w, ent in tab.items()}) for j, tab in maps.items()})


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(CASES)), st.sampled_from([3, 4]),
       st.integers(0, 2**32 - 1))
def test_generator_descent_equals_the_all_monomial_oracle(name, W, seed):
    rng = random.Random(seed)
    L, partial, t = perturbed(rng, CASES[name])
    if rng.random() < 0.7:
        # keep the catalog anchor (a derivation) plus derivations, so
        # that the premise holds in most examples
        t = with_derivation_anchor(rng, L, CASES[name].t)
    if t.validation_report():
        return
    for j in range(W):
        assert (bool(descent_check(L, partial, t, j)["violations"])
                == all_monomial_descent(L, partial, t, j, W))


def test_the_oracle_comparison_sees_failing_levels():
    # the random inputs above reach both verdicts
    seen = set()
    for seed in range(12):
        rng = random.Random(seed)
        name = sorted(CASES)[seed % len(CASES)]
        L, partial, _ = perturbed(rng, CASES[name])
        t = with_derivation_anchor(rng, L, CASES[name].t)
        assert not t.validation_report()
        for j in range(1, 3):
            seen.add(bool(descent_check(L, partial, t, j)["violations"]))
    assert seen == {True, False}


def test_descent_failures_carry_their_defect():
    L, partial, t = fixture_tables()
    rep = descent_check(L, partial, t, 1)
    assert rep["violations"]
    for fail in rep["violations"]:
        assert set(fail) == {"route", "axiom", "witness", "value"}
        assert (fail["route"], fail["axiom"]) == ("operators", "descent")
        level, form, witness = fail["witness"]
        assert level == 1 and isinstance(form, str)
        assert set(witness) == {"word", "slot", "scalar"}
        assert fail["value"]


# ----------------------------------- properties the argument rests on

def property_case(name):
    L = catalog_entry(name)[0].L
    ambient, multi = {}, {}
    for side, fs in ((ambient, ambient_basis_forms(L, TruncationPolicy(2))),
                     (multi, multilinear_basis(L, TruncationPolicy(2)))):
        for _, f in fs:
            side.setdefault(f.degree, []).append(f)
    return L, ambient, multi


PROPERTY_CASES = {name: property_case(name) for name in sorted(CASES)}


def random_form(rng, L, by_degree):
    degree = rng.choice(sorted(by_degree))
    f = FormTable(L, degree, {})
    pool = by_degree[degree]
    for h in rng.sample(pool, min(len(pool), rng.randint(1, 2))):
        f = f.add(h.scale(Q(rng.randint(-3, 3), rng.randint(1, 3))))
    return f


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(sorted(PROPERTY_CASES)), st.integers(0, 2**32 - 1))
def test_cup_is_associative(name, seed):
    L, ambient, _ = PROPERTY_CASES[name]
    rng = random.Random(seed)
    f, g, h = (random_form(rng, L, ambient) for _ in range(3))
    assert cup(cup(f, g), h) == cup(f, cup(g, h))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(sorted(PROPERTY_CASES)), st.integers(0, 2**32 - 1))
def test_cup_of_multilinear_forms_is_multilinear(name, seed):
    L, _, multi = PROPERTY_CASES[name]
    rng = random.Random(seed)
    f, g = (random_form(rng, L, multi) for _ in range(2))
    assert is_A_multilinear(cup(f, g))[0]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(ALL_CASES)), st.sampled_from([3, 4]),
       st.integers(0, 2**32 - 1))
def test_the_anchor_premise_makes_every_level_a_cup_derivation(name, W,
                                                               seed):
    # random corestrictions, and an anchor whose values are derivations
    # of A by construction: each D_j is then a derivation of the cup
    # product, so the Leibniz rule holds on every pair of generators,
    # and the square on the generators fails exactly where the square
    # on their products fails
    rng = random.Random(seed)
    L, partial, _ = perturbed(rng, ALL_CASES[name])
    t = with_derivation_anchor(rng, L, ALL_CASES[name].t)
    assert t.validation_report() == []
    assert reference_leibniz_check(L, partial, t, W) == []
    assert ({r["level"]
             for r in square_check(L, partial, t, TruncationPolicy(W))}
            == {r["level"] for r in reference_square_check(
                L, partial, t, W, max_len=2)})


# --------------------------------------- a derivation that does not descend

def fixture_tables():
    """truncated_poly with x^2 d/dx added to the anchor value on x|u:
    still a derivation, and D squares to zero, but level 1 does not
    preserve multilinearity."""
    sh = catalog_entry("truncated_poly")[0].as_sh()
    L = sh.L
    maps = {j: dict(tab) for j, tab in sh.t.maps.items()}
    maps[1][("x|u",)] = maps[1][("x|u",)].add(
        LinearMap(L.over.basis, L.over.basis, 0, {("x^2", "x"): ONE}))
    return L, sh.partial, TwistingCochain(L, maps)


def fixture_files(tmp_path):
    """The fixture as an sh file, and as an mdca file holding D_j of the
    generators; both at W=3."""
    L, partial, t = fixture_tables()
    policy = TruncationPolicy(3)
    duals = dual_one_forms(L)
    m = MdcaStructure(
        L,
        {j: {al: build_D(constant_form(L, al), partial, t, j)
             for al in L.over.basis.labels} for j in range(policy.W)},
        {j: {xl: build_D(eps, partial, t, j) for xl, eps in duals.items()}
         for j in range(policy.W)})
    paths = {}
    for kind, data in (("sh", ShLieRinehartData(L, partial, t)),
                       ("mdca", m)):
        paths[kind] = tmp_path / (kind + ".json")
        paths[kind].write_text(emit_instance(data, policy))
    return paths


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def residuals_of(out):
    return json.loads(out[out.index("residuals:") + len("residuals:"):
                          out.index("elapsed:")])


def residual_axioms(out):
    return {r["axiom"] for r in residuals_of(out)}


def test_sh_fixture_fails_check_and_cohomology(tmp_path, capsys):
    paths = fixture_files(tmp_path)
    code, out = run(capsys, "check", str(paths["sh"]))
    assert code == 1
    assert {"descent", "anchor module-linearity",
            "bracket anomaly law"} <= residual_axioms(out)
    code, out = run(capsys, "cohomology", str(paths["sh"]))
    assert code == 1
    # the premise and the square hold: descent alone refuses
    assert "refused: level 1 does not preserve multilinearity" in out
    assert residual_axioms(out) == {"descent"}
    assert "betti:" not in out


def test_sh_fixture_roundtrip_gives_the_descent_residual(tmp_path,
                                                       capsys):
    # the build refuses at the first level that does not descend; the
    # residual is the operator route's first descent residual there
    paths = fixture_files(tmp_path)
    code, out = run(capsys, "check", str(paths["sh"]))
    descent = [r for r in residuals_of(out) if r["axiom"] == "descent"]
    code, out = run(capsys, "roundtrip", str(paths["sh"]))
    assert code == 1
    assert residuals_of(out) == [dict(descent[0], route="roundtrip")]


def test_mdca_fixture_fails_check_and_cohomology(tmp_path, capsys):
    paths = fixture_files(tmp_path)
    code, out = run(capsys, "check", str(paths["mdca"]))
    assert code == 1
    # both routes run on mdca input, and they agree
    assert {"descent", "anchor module-linearity"} <= residual_axioms(out)
    assert "route agreement" not in residual_axioms(out)
    code, out = run(capsys, "cohomology", str(paths["mdca"]))
    assert code == 1
    assert "refused: level 1 does not preserve multilinearity" in out
