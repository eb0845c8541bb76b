"""End-to-end acceptance suite.

Each test exercises one advertised guarantee of the library at desk
scale: exact square-zero checks, negative controls, descent of the level
differentials, lossless structure round trips, agreement of the two
verification routes, cohomology oracles, sign laws, bracket/coderivation
dictionaries and the quasi layer.
"""

import itertools
import random
import time
from fractions import Fraction as Q

import pytest

from mdca import cli
from mdca.coalgebra import (ModuleSpec, TruncationPolicy,
                            coderivation_from_brackets, normalize_word,
                            word_degree, words_of_length)
from mdca.forms import (FormTable, ambient_basis_forms, build_D,
                        cohomology_ranks, cup, descent_check,
                        dual_one_forms, is_A_multilinear,
                        multilinear_generators, square_check)
from mdca.graded import GradedBasis, ONE
from mdca.instances import catalog_entry
from mdca.structures import (LieRinehartData, build_maurer_cartan,
                             check_sh_lie_rinehart, extract_structure,
                             quasi_to_sh, table_residuals)
from operator_reference import (form_eval, quasi_model_disagreements,
                                reference_bra, reference_jacobi_defect,
                                reference_t)
from test_coalgebra import brackets_from_coderivation, perturbation_report

VALID_CATALOG = ["abelian", "heisenberg", "sl2", "exterior_pair",
                 "truncated_poly", "quasi_sample"]


def as_homotopy(name):
    data, policy = catalog_entry(name)
    if hasattr(data, "as_sh"):
        return data.as_sh(), policy
    if hasattr(data, "triple"):
        return quasi_to_sh(data), policy
    return data, policy


# 1 ------------------------------------------------- exact square-zero

def test_square_zero_under_ten_seconds():
    t0 = time.monotonic()
    for name in ("abelian", "heisenberg", "sl2", "exterior_pair"):
        sh, _ = as_homotopy(name)
        assert square_check(sh.L, sh.partial, sh.t,
                            TruncationPolicy(4)) == []
    assert time.monotonic() - t0 < 10.0


# 2 --------------------------------------------------- negative control

def test_jacobi_violator_level_two_residual():
    sh, _ = as_homotopy("jacobi_violator")
    rep = perturbation_report(sh.partial, sh.L, TruncationPolicy(4))
    word = ("1|x", "1|y", "1|z")
    hits = [r for r in rep if r["level"] == 2 and r["word"] == word]
    assert hits
    expected = {"1|x": -ONE, "1|y": -ONE, "1|z": -ONE}
    value = hits[0]["value"]
    assert value in (expected, {k: -v for k, v in expected.items()})


def test_jacobi_violator_exits_one(capsys):
    assert cli.main(["check", "catalog:jacobi_violator"]) == 1
    capsys.readouterr()


# 3 --------------------------------- descent of the sum, not the parts

def test_level_one_descends_but_summands_do_not():
    # D_1, the bracket operator plus the anchor operator, preserves
    # multilinearity; for genuine anchor data each operator alone does
    # not (the Fraction halves of operator_reference)
    sh, _ = as_homotopy("exterior_pair")
    rep = descent_check(sh.L, sh.partial, sh.t, 1)
    assert rep["violations"] == []
    failures = {"bracket": [], "anchor": []}
    for _, key, f in multilinear_generators(sh.L, 1):
        bra, tt = reference_bra(f, sh.partial, 1), reference_t(f, sh.t, 1)
        assert bra.add(tt) == rep["images"][key]
        for half, g in (("bracket", bra), ("anchor", tt)):
            ok, wit, _ = is_A_multilinear(g)
            if not ok:
                failures[half].append(wit)
    assert failures["bracket"] and failures["anchor"]
    for wits in failures.values():
        assert set(wits[0]) == {"word", "slot", "scalar"}


# 4 --------------------------------------------------- round trips

@pytest.mark.parametrize("name", VALID_CATALOG)
def test_structure_round_trips(name, capsys):
    assert cli.main(["roundtrip", "catalog:" + name, "--W", "4"]) == 0
    capsys.readouterr()


def test_round_trip_tables_exact():
    sh, policy = as_homotopy("sl2")
    m = build_maurer_cartan(sh, policy)
    back = extract_structure(m)
    assert table_residuals(m, back, policy) == ([], [])
    assert back.partial.cor == sh.partial.cor
    assert {w: op.entries for w, op in back.t.maps.get(1, {}).items()} == \
        {w: op.entries for w, op in sh.t.maps.get(1, {}).items()}
    m2 = build_maurer_cartan(back, policy)
    for j in m.levels():
        assert m.on_constants[j] == m2.on_constants[j]
        assert m.on_duals[j] == m2.on_duals[j]


# 5 --------------------------------------------------- route equivalence

def route_summary(report):
    """(clean?, first failing level) for each verification route."""
    def level_of(r):
        w = r["witness"]
        return w[0] if isinstance(w, tuple) and isinstance(w[0], int) \
            else None
    out = {}
    for route in ("direct", "operators"):
        levels = [level_of(r) for r in report if r.get("route") == route]
        out[route] = (not levels,
                      min((l for l in levels if l is not None),
                          default=None))
    return out


def perturbed_instances(count, seed=20260824):
    rng = random.Random(seed)
    for _ in range(count):
        name = rng.choice(["sl2", "heisenberg", "truncated_poly"])
        data, _ = catalog_entry(name)
        table = {k: dict(v) for k, v in data.bracket.items()}
        key = rng.choice(sorted(table))
        tgt = rng.choice(sorted(data.L.l_basis.labels))
        table[key][tgt] = table[key].get(tgt, Q(0)) + \
            Q(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
        if not table[key][tgt]:
            table[key][tgt] = ONE
        yield LieRinehartData(data.L, table,
                              dict(data.anchor.maps.get(1, {}) and
                                   {g: op for (g,), op in
                                    data.anchor.maps[1].items()})).as_sh()


def test_routes_agree_on_catalog_and_perturbations():
    policy = TruncationPolicy(3)
    cases = [as_homotopy(n)[0] for n in VALID_CATALOG]
    cases.append(as_homotopy("jacobi_violator")[0])
    cases += list(perturbed_instances(100))
    for sh in cases:
        rep = check_sh_lie_rinehart(sh, policy)
        assert not any(r["route"] == "cross-check" for r in rep)
        summary = route_summary(rep)
        assert summary["direct"][0] == summary["operators"][0]
        if not summary["direct"][0]:
            assert summary["direct"][1] == summary["operators"][1]


# 6 --------------------------- ambient square-zero on non-linear forms

@pytest.mark.parametrize("name", ["exterior_pair", "truncated_poly"])
def test_ambient_square_zero_beyond_multilinear_forms(name):
    sh, _ = as_homotopy(name)
    policy = TruncationPolicy(3)
    ambient = ambient_basis_forms(sh.L, policy)
    non_mult = [(n, f) for n, f in ambient if not is_A_multilinear(f)[0]]
    assert non_mult  # the probe set genuinely leaves the descended space
    assert square_check(sh.L, sh.partial, sh.t, policy) == []


# 7 ------------------------------------------------------- cohomology

def test_sl2_betti_numbers():
    sh, _ = as_homotopy("sl2")
    ranks = cohomology_ranks(sh.L, sh.partial, sh.t,
                             TruncationPolicy(4, (-3, 0)))
    assert {-d: r["rank"] for d, r in ranks.items()} == \
        {0: 1, 1: 0, 2: 0, 3: 1}


@pytest.mark.parametrize("n", [2, 3])
def test_abelian_betti_numbers_are_binomial(n):
    from math import comb
    from mdca.algebra import rational_algebra
    L = ModuleSpec(rational_algebra(),
                   GradedBasis([("g%d" % i, 0) for i in range(n)]))
    sh = LieRinehartData(L, {}, {}).as_sh()
    ranks = cohomology_ranks(sh.L, sh.partial, sh.t,
                             TruncationPolicy(n + 1, (-n, 0)))
    assert {-d: r["rank"] for d, r in ranks.items()} == \
        {k: comb(n, k) for k in range(n + 1)}


# 8 --------------------------------------------------------- sign laws

def random_form(L, rng):
    lengths = [0, 1, 2]
    while True:
        n = rng.choice(lengths)
        words = words_of_length(L, n)
        if not words:
            continue
        w = rng.choice(words)
        al = rng.choice(sorted(L.over.basis.labels))
        degree = L.over.basis.degree[al] - word_degree(L, w)
        c = Q(rng.choice([1, -1, 2, -3]), rng.choice([1, 2]))
        vals = {w: {al: c}}
        # sometimes a second entry of the same total degree
        if rng.random() < 0.5:
            w2 = rng.choice(words_of_length(L, rng.choice(lengths)))
            for al2 in sorted(L.over.basis.labels):
                if L.over.basis.degree[al2] - word_degree(L, w2) == degree:
                    vals.setdefault(w2, {})[al2] = ONE
                    break
        return FormTable(L, degree, vals)


def test_cup_graded_commutativity_on_random_pairs():
    sh, _ = as_homotopy("exterior_pair")
    rng = random.Random(7)
    for _ in range(1000):
        f = random_form(sh.L, rng)
        g = random_form(sh.L, rng)
        lhs = cup(f, g)
        s = -ONE if (f.degree % 2 and g.degree % 2) else ONE
        assert lhs == cup(g, f).scale(s)


def test_one_form_product_formula_on_random_pairs():
    sh, _ = as_homotopy("sl2")
    L = sh.L
    duals = dual_one_forms(L)
    unit = L.over.unit
    labels = sorted(L.l_basis.labels)
    names = sorted(duals)
    rng = random.Random(11)

    def scalar(form, g):
        return form.values.get((g,), {}).get(unit, Q(0))

    for _ in range(1000):
        a = duals[rng.choice(names)]
        b = duals[rng.choice(names)]
        gx = rng.choice(labels)
        gy = rng.choice(labels)
        lhs = form_eval(cup(a, b), [gx, gy]).get(unit, Q(0))
        rhs = -scalar(a, gx) * scalar(b, gy) + \
            scalar(b, gx) * scalar(a, gy)
        assert lhs == rhs


# 9 ------------------------------------- coderivation <-> bracket tables

def graded_module():
    from mdca.algebra import rational_algebra
    return ModuleSpec(rational_algebra(),
                      GradedBasis([("a0", 0), ("b0", 0), ("c0", 0),
                                   ("d0", 0), ("a1", 1), ("b1", 1),
                                   ("a2", 2), ("b2", 2), ("a3", 3)]))


def random_bracket_table(L, n, rng):
    labels = sorted(L.l_basis.labels)
    ldeg = L.l_basis.degree
    table = {}
    for args in itertools.combinations_with_replacement(labels, n):
        sgn, w = normalize_word(L, list(args))
        if sgn == 0 or w != args:
            continue
        target_degree = sum(ldeg[g] for g in args) + n - 2
        targets = [g for g in labels if ldeg[g] == target_degree]
        if not targets or rng.random() < 0.6:
            continue
        table[args] = {rng.choice(targets):
                       Q(rng.choice([1, -1, 2, -3]), rng.choice([1, 2]))}
    return table


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bracket_coderivation_dictionary_round_trips(n):
    L = graded_module()
    rng = random.Random(100 + n)
    hits = 0
    for _ in range(10):
        table = random_bracket_table(L, n, rng)
        if not table:
            continue
        partial = coderivation_from_brackets(L, {n: table})
        recovered = brackets_from_coderivation(partial, n)
        for args, vec in table.items():
            assert recovered.get(args) == vec
            hits += 1
        assert coderivation_from_brackets(
            L, {n: {k: v for k, v in recovered.items()}}).cor == partial.cor
    assert hits  # the random tables were not all empty


def test_sl2_bracket_is_the_binary_corestriction():
    sh, _ = as_homotopy("sl2")
    rec = brackets_from_coderivation(sh.partial, 2)
    assert rec[("1|e", "1|f")] == {"1|h": ONE}
    assert rec[("1|e", "1|h")] == {"1|e": Q(-2)}
    assert rec[("1|f", "1|h")] == {"1|f": Q(2)}


# 10 ------------------------------------------------------- quasi layer

def test_quasi_sample_multi_algebra_identity():
    q, policy = catalog_entry("quasi_sample")
    sh = quasi_to_sh(q)
    L = sh.L
    probes = ambient_basis_forms(L, TruncationPolicy(3))
    for _, f in probes:
        res = None
        for k in range(3):
            g = build_D(build_D(f, sh.partial, sh.t, 2 - k),
                        sh.partial, sh.t, k)
            res = g if res is None else res.add(g)
        assert all(len(w) > policy.W for w in res.values), \
            "D0 D2 + D1 D1 + D2 D0 != 0"


def test_quasi_sample_builders_agree_table_for_table():
    # the builder through the homotopy conversion against the
    # alternating-form model of the quasi data, generator by generator
    q, policy = catalog_entry("quasi_sample")
    m = build_maurer_cartan(quasi_to_sh(q), policy)
    assert m.levels() == list(range(policy.W))
    assert quasi_model_disagreements(q, m, policy.W) == []


def test_quasi_sample_defect_identity():
    q, _ = catalog_entry("quasi_sample")
    assert reference_jacobi_defect(q) == []
