"""The direct route evaluates only terms whose factors are all live.

A term of a perturbation or twisting identity with a zero factor (an
empty corestriction or anchor level, or level 0 with a zero module
differential) is zero, so skipping it must leave every residual as it
is.  The all-terms oracles below evaluate every term, as the identities
are written.
"""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from mdca import cli, coalgebra, forms
from mdca.coalgebra import (Coderivation, TruncationPolicy,
                            check_coalgebra_perturbation, splittings,
                            word_degree, words_of_length)
from mdca.forms import TwistingCochain
from mdca.graded import LinearMap, ONE, compose, vec_axpy
from mdca.instances import catalog_entry
from mdca.structures import check_twisting_cochain, quasi_to_sh


def catalog_homotopy(name):
    data = catalog_entry(name)[0]
    if hasattr(data, "as_sh"):
        return data.as_sh()
    return quasi_to_sh(data) if hasattr(data, "triple") else data


# ------------------------------------------------------ all-terms oracles

def all_terms_perturbation(partial, L, W):
    """Residuals of sum_k del^k del^(j-k) over every k = 0..j, on the
    words of length j + 1, for every level j < W."""
    report = []
    for j in range(1, W):
        for w in words_of_length(L, j + 1):
            res = {}
            for k in range(j + 1):
                vec_axpy(res, ONE, partial.apply_level_vec(
                    k, partial.apply_level(j - k, w)))
            if res:
                report.append({"level": j, "word": w, "value": res})
    return report


def all_terms_twisting_residual(L, t, partial, j, word):
    """The level-j twisting residual with every term evaluated: every
    anchor level k = 1..j against level j - k of the coderivation, and
    every splitting into anchor levels k and j - k."""
    A = L.over
    out = {}
    op = t.value(j, word)
    if op is not None:
        vec_axpy(out, ONE, compose(A.diff, op).entries)
        s = -ONE if (word_degree(L, word) - 1) % 2 else ONE
        vec_axpy(out, -s, compose(op, A.diff).entries)
    for k in range(1, j + 1):
        for w2, c in partial.apply_level(j - k, word).items():
            op2 = t.value(k, w2)
            if op2 is not None:
                vec_axpy(out, c, op2.entries)
    for k in range(1, j):
        for sgn, w1, w2 in splittings(L, word, left_size=k):
            op1, op2 = t.value(k, w1), t.value(j - k, w2)
            if op1 is None or op2 is None:
                continue
            s = -1 if word_degree(L, w1) % 2 else 1
            vec_axpy(out, Q(sgn * s), compose(op1, op2).entries)
    return out


def all_terms_twisting(L, t, partial, W):
    report = []
    for j in range(1, W + 1):
        for w in words_of_length(L, j):
            res = all_terms_twisting_residual(L, t, partial, j, w)
            if res:
                report.append({"level": j, "word": w, "value": res})
    return report


# quasi_sample has a nonzero module differential, so level 0 takes part
CASES = {name: catalog_homotopy(name)
         for name in ("exterior_pair", "truncated_poly", "quasi_sample")}


def random_q(rng):
    return Q(rng.choice([-2, -1, 1, 2]), rng.randint(1, 2))


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
                vec[x] = vec.get(x, 0) + random_q(rng)
        for _ in range(rng.randint(0, 2)):
            w = rng.choice(words_of_length(L, j))
            shift = word_degree(L, w) - 1
            pairs = [(a, b) for a in A.basis.labels for b in A.basis.labels
                     if A.basis.degree[a] == A.basis.degree[b] + shift]
            if pairs:
                ent = maps.setdefault(j, {}).setdefault(w, {})
                pair = rng.choice(pairs)
                ent[pair] = ent.get(pair, 0) + random_q(rng)
    t = TwistingCochain(L, {j: {w: LinearMap(A.basis, A.basis,
                                             word_degree(L, w) - 1, ent)
                                for w, ent in tab.items()}
                            for j, tab in maps.items()})
    return L, Coderivation(L, cor), t


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(CASES)), st.sampled_from([3, 4]),
       st.integers(0, 2**32 - 1))
def test_perturbation_residuals_equal_the_all_terms_oracle(name, W, seed):
    L, partial, _ = perturbed(random.Random(seed), CASES[name])
    assert (check_coalgebra_perturbation(partial, L, TruncationPolicy(W))
            == all_terms_perturbation(partial, L, W))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(CASES)), st.sampled_from([3, 4]),
       st.integers(0, 2**32 - 1))
def test_twisting_residuals_equal_the_all_terms_oracle(name, W, seed):
    L, partial, t = perturbed(random.Random(seed), CASES[name])
    assert (check_twisting_cochain(L, t, partial, TruncationPolicy(W))
            == all_terms_twisting(L, t, partial, W))


# ---------------------------------------------------------- call counts

@pytest.mark.parametrize("name", ["sl2", "heisenberg"])
@pytest.mark.parametrize("verb", ["check", "roundtrip", "cohomology"])
def test_apply_level_runs_only_at_live_levels(name, verb, monkeypatch,
                                              capsys):
    # a Lie algebra has only level 1; every other level is zero
    calls = []
    real = Coderivation.apply_level

    def recording(self, j, word):
        calls.append((j, self.live(j)))
        return real(self, j, word)

    monkeypatch.setattr(Coderivation, "apply_level", recording)
    assert cli.main([verb, "catalog:" + name, "--W", "5"]) == 0
    capsys.readouterr()
    assert calls
    assert all(live for _, live in calls)


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
