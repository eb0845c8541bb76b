"""Every laden value is built from its bare generators by two laws.

Module-linearity (structures.extend_linearly, on coalgebra.stripped_slots)
extends anchors and forms; the anomaly law (structures.extend_corestriction)
extends corestrictions.  The checkers anomaly_report and the module-linearity
checks stay independent of the extenders, so they are the oracle here: on
random bare values with derivation-valued anchors the extension must satisfy
the anomaly law, must fail it once an anchor is not a derivation, and must
survive build followed by extract unchanged.
"""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

from mdca.algebra import (exterior_algebra, leibniz_defects,
                          truncated_polynomial)
from mdca.coalgebra import (Coderivation, ModuleSpec, TruncationPolicy,
                            word_degree, words_of_length)
from mdca.forms import TwistingCochain
from mdca.graded import GradedBasis, LinearMap
from mdca.structures import (ShLieRinehartData, anomaly_report,
                             build_maurer_cartan, extend_anchor_level,
                             extend_corestriction, extend_linearly,
                             extract_structure, table_residuals)

from operator_reference import derivation_space

# (algebra, module generators): the algebra of exterior_pair with even
# and with odd generators, Q[x]/(x^3) with one of each, and the exterior
# line
MODULES = {
    "exterior pair, even": (lambda: exterior_algebra([("q", -1), ("r", -1)]),
                            [("u", 0), ("v", 0)]),
    "exterior pair, odd": (lambda: exterior_algebra([("q", -1), ("r", -1)]),
                           [("u", -1), ("v", -1)]),
    "truncated poly": (lambda: truncated_polynomial("x", 3),
                       [("u", 0), ("v", -1)]),
    "exterior line": (lambda: exterior_algebra([("th", -1)]),
                      [("x", 0), ("y", 0), ("z", 0)]),
}
SPECS = {name: ModuleSpec(make(), GradedBasis(gens))
         for name, (make, gens) in MODULES.items()}
DERIVATIONS = {}


def derivations(A, degree):
    key = (id(A), degree)
    if key not in DERIVATIONS:
        DERIVATIONS[key] = derivation_space(A, degree)
    return DERIVATIONS[key]


def random_q(rng):
    return Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))


def bare_words(L, n):
    unit = L.over.unit
    return [w for w in words_of_length(L, n)
            if all(L.split(g)[0] == unit for g in w)]


def names(L, w):
    return tuple(L.split(g)[1] for g in w)


def random_derivation(rng, A, degree):
    """A random combination of derivations of A, or None."""
    basis = derivations(A, degree)
    if not basis:
        return None
    ent = {}
    for op in rng.sample(basis, rng.randint(1, len(basis))):
        c = random_q(rng)
        for k, v in op.entries.items():
            ent[k] = ent.get(k, 0) + c * v
    return LinearMap(A.basis, A.basis, degree, ent)


def non_derivations(A, degree):
    """Operators with one entry, of the given degree, that break Leibniz."""
    out = []
    for s in A.basis.labels:
        for t in A.basis.labels_of_degree(A.basis.degree[s] + degree):
            op = LinearMap(A.basis, A.basis, degree, {(t, s): 1})
            if leibniz_defects(A, op):
                out.append(op)
    return out


def perturbable(L, j):
    """The bare words of length j whose anchor degree admits an operator
    that is not a derivation."""
    return [w for w in bare_words(L, j)
            if non_derivations(L.over, word_degree(L, w) - 1)]


def random_level(rng, L, j, perturb=False):
    """The level-j anchor and the arity-(j + 1) corestriction, extended
    from random bare values; the anchor values on bare words are
    derivations, and with perturb one of them is not."""
    A = L.over
    base = {}
    for w in bare_words(L, j):
        op = random_derivation(rng, A, word_degree(L, w) - 1)
        if op is not None and rng.random() < 0.8:
            base[names(L, w)] = op
    if perturb:
        w = rng.choice(perturbable(L, j))
        bad = rng.choice(non_derivations(A, word_degree(L, w) - 1))
        key = names(L, w)
        base[key] = base[key].add(bad) if key in base else bad
    anchor = extend_anchor_level(L, base, j)
    bare = {}
    for w in bare_words(L, j + 1):
        vec = {g: random_q(rng) for g in L.sl_basis.labels
               if L.sl_degree(g) == word_degree(L, w) - 1
               and rng.random() < 0.5}
        if vec:
            bare[w] = vec
    return anchor, extend_corestriction(L, anchor, bare, j + 1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(MODULES)), st.sampled_from([1, 2]),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_extension_obeys_the_anomaly_law_iff_anchors_are_derivations(
        name, j, perturb, seed):
    L = SPECS[name]
    # every degree-1 operator on the exterior line is a derivation
    assume(not perturb or perturbable(L, j))
    rng = random.Random(seed)
    anchor, cor = random_level(rng, L, j, perturb)
    rep = anomaly_report(L, Coderivation(L, {j: cor}),
                         TwistingCochain(L, {j: anchor}), j)
    assert bool(rep) == perturb


@pytest.mark.parametrize("name", sorted(MODULES))
def test_the_random_levels_are_not_empty(name):
    # the law is tested on nonzero laden values, at both levels
    L = SPECS[name]
    for j in (1, 2):
        laden = set()
        for seed in range(5):
            anchor, cor = random_level(random.Random(seed), L, j)
            laden |= {w for w in cor if w not in bare_words(L, j + 1)}
        assert laden


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(MODULES)), st.sampled_from([3, 4]),
       st.integers(0, 2**32 - 1))
def test_extract_after_build_is_the_identity(name, W, seed):
    L = SPECS[name]
    rng = random.Random(seed)
    levels = {j: random_level(rng, L, j) for j in (1, 2)}
    t = TwistingCochain(L, {j: a for j, (a, _) in levels.items()})
    partial = Coderivation(L, {j: c for j, (_, c) in levels.items()})
    policy = TruncationPolicy(W)
    m = build_maurer_cartan(ShLieRinehartData(L, partial, t), policy)
    back = extract_structure(m)
    assert table_residuals(m, back, policy) == ([], [])
    assert back.partial.cor == partial.cor
    assert ({j: {w: op.entries for w, op in tab.items()}
             for j, tab in back.t.maps.items()}
            == {j: {w: op.entries for w, op in tab.items()}
                for j, tab in t.maps.items()})


def test_a_bare_key_must_name_generators():
    L = SPECS["exterior line"]
    op = derivations(L.over, 0)[0]
    with pytest.raises(ValueError, match="names no generator 'nope'"):
        extend_anchor_level(L, {("nope",): op}, 1)
    with pytest.raises(ValueError):
        extend_linearly(L, 0, {("x", "nope"): {"1": 1}}, 2, None)
