"""Finite-dimensional differential graded commutative algebras over Q.

An algebra is given by an explicit basis, structure constants, a
distinguished unit basis element and a degree -1 differential.  A
derivation's Leibniz rule is tested on integer copies of its action and
of the structure constants.
"""

from fractions import Fraction as Q

from .graded import (GradedBasis, LinearMap, ONE, compose, denominator,
                     int_multiple, vec_axpy, vec_scale)


class AlgebraSpec:
    """Graded commutative unital dg algebra with structure constants.

    mult maps a label pair (i, j) to the sparse product vector i*j; pairs
    with zero product may be omitted.
    """

    def __init__(self, basis, unit, mult, diff=None):
        self.basis = basis
        self.unit = unit
        if unit not in basis.degree:
            raise ValueError("unit label %r not in basis" % (unit,))
        self.mult = {}
        for (i, j), vec in mult.items():
            v = {k: Q(c) for k, c in vec.items() if Q(c)}
            if v:
                self.mult[(i, j)] = v
        # the structure constants times mu, their least common
        # denominator, as Python ints keyed as mult: products through
        # int_mult come out mu times their value
        self.mu = denominator(c for v in self.mult.values()
                              for c in v.values())
        self.int_mult = {k: int_multiple(self.mu, v)
                         for k, v in self.mult.items()}
        if diff is None:
            diff = LinearMap.zero(basis, basis, -1)
        self.diff = diff

    def prod_basis(self, i, j):
        return self.mult.get((i, j), {})


def multiply(A, a, b):
    """Bilinear extension of the structure constants to elements."""
    out = {}
    for i, ci in a.items():
        if i not in A.basis.degree:
            raise ValueError("unknown label %r" % (i,))
        for j, cj in b.items():
            if j not in A.basis.degree:
                raise ValueError("unknown label %r" % (j,))
            vec_axpy(out, ci * cj, A.prod_basis(i, j))
    return out


def validate_algebra(A):
    """Check every AlgebraSpec invariant; returns a list of violations.

    Each violation is a dict naming the invariant and the witnessing basis
    tuple.  Empty list means the spec is a genuine dg commutative algebra.
    """
    report = []
    deg = A.basis.degree
    labels = A.basis.labels

    for (i, j), vec in A.mult.items():
        if i not in deg or j not in deg:
            report.append({"invariant": "mult labels", "witness": (i, j)})
            continue
        for k, c in vec.items():
            if deg[k] != deg[i] + deg[j]:
                report.append({"invariant": "degree additivity",
                               "witness": (i, j, k)})

    u = A.unit
    for a in labels:
        if A.prod_basis(u, a) != {a: ONE} or A.prod_basis(a, u) != {a: ONE}:
            report.append({"invariant": "unit law", "witness": (a,)})

    for i in labels:
        for j in labels:
            lhs = A.prod_basis(i, j)
            sgn = -ONE if (deg[i] % 2 and deg[j] % 2) else ONE
            rhs = vec_scale(sgn, A.prod_basis(j, i))
            if lhs != rhs:
                report.append({"invariant": "graded commutativity",
                               "witness": (i, j)})

    for i in labels:
        for j in labels:
            ij = A.prod_basis(i, j)
            for k in labels:
                lhs = multiply(A, ij, {k: ONE})
                rhs = multiply(A, {i: ONE}, A.prod_basis(j, k))
                if lhs != rhs:
                    report.append({"invariant": "associativity",
                                   "witness": (i, j, k)})

    if A.diff.degree != -1:
        report.append({"invariant": "diff degree -1", "witness": ()})
    if not compose(A.diff, A.diff).is_zero():
        report.append({"invariant": "diff squares to zero", "witness": ()})
    for i in labels:
        for j in labels:
            lhs = A.diff.apply(A.prod_basis(i, j))
            rhs = multiply(A, A.diff.column(i), {j: ONE})
            sgn = -ONE if deg[i] % 2 else ONE
            vec_axpy(rhs, sgn, multiply(A, {i: ONE}, A.diff.column(j)))
            if lhs != rhs:
                report.append({"invariant": "Leibniz rule of diff",
                               "witness": (i, j)})
    return report


class Derivation:
    """Degree-homogeneous derivation of an AlgebraSpec."""

    def __init__(self, of, degree, action):
        self.of = of
        self.degree = int(degree)
        if isinstance(action, LinearMap):
            if action.degree != self.degree:
                raise ValueError("action degree mismatch")
            self.action = action
        else:
            self.action = LinearMap(of.basis, of.basis, self.degree, action)

    def __call__(self, vec):
        return self.action.apply(vec)

    def __eq__(self, other):
        return (isinstance(other, Derivation) and self.degree == other.degree
                and self.action == other.action)

    def is_zero(self):
        return self.action.is_zero()

    def leibniz_defect(self, i, j):
        """d(ij) - d(i) j - (-1)^(|d||i|) i d(j) on basis elements."""
        A = self.of
        out = self(A.prod_basis(i, j))
        vec_axpy(out, -ONE, multiply(A, self({i: ONE}), {j: ONE}))
        sgn = ONE if (self.degree % 2 and A.basis.degree[i] % 2) else -ONE
        return vec_axpy(out, sgn, multiply(A, {i: ONE}, self({j: ONE})))

    def leibniz_violations(self):
        """The basis pairs (i, j) with a nonzero leibniz_defect, found on
        integer copies: the action times s, the least common denominator
        of its entries, and the structure constants times mu
        (AlgebraSpec.int_mult).  Every term of the defect then comes out
        mu * s times its rational value, and so does the defect."""
        A = self.of
        cols = self.action.int_columns(
            denominator(self.action.entries.values()))
        mult = A.int_mult
        odd = self.degree % 2
        bad = []
        for i in A.basis.labels:
            di = cols.get(i, {})
            sgn = 1 if odd and A.basis.degree[i] % 2 else -1
            for j in A.basis.labels:
                out = {}
                for m, c in mult.get((i, j), {}).items():
                    vec_axpy(out, c, cols.get(m, {}))
                for k, c in di.items():
                    vec_axpy(out, -c, mult.get((k, j), {}))
                for k, c in cols.get(j, {}).items():
                    vec_axpy(out, sgn * c, mult.get((i, k), {}))
                if out:
                    bad.append((i, j))
        return bad

    def leibniz_defects(self):
        """(pair, leibniz_defect) of each pair of leibniz_violations: the
        value of every derivation residual the library reports (the
        anchor premise, the quasi pairing and triple)."""
        return [(pair, self.leibniz_defect(*pair))
                for pair in self.leibniz_violations()]


def graded_commutator(d1, d2):
    """[d1, d2] = d1 d2 - (-1)^(|d1||d2|) d2 d1, again a derivation."""
    if d1.of is not d2.of and d1.of.basis != d2.of.basis:
        raise ValueError("derivations over different algebras")
    sgn = -ONE if (d1.degree % 2 and d2.degree % 2) else ONE
    m = compose(d1.action, d2.action).add(
        compose(d2.action, d1.action).scale(-sgn))
    out = Derivation(d1.of, d1.degree + d2.degree, m)
    bad = out.leibniz_violations()
    if bad:
        raise ValueError("graded commutator is not a derivation: Leibniz "
                         "fails on %r" % (bad[0],))
    return out


# --- convenience constructors used by the catalog and the tests ---

def rational_algebra():
    """The ground field Q as a one-dimensional algebra."""
    b = GradedBasis([("1", 0)])
    return AlgebraSpec(b, "1", {("1", "1"): {"1": ONE}})


def exterior_algebra(gens):
    """Free graded commutative algebra on odd generators.

    gens: list of (label, odd degree).  Basis words are sorted label
    subsets, joined by '.'; the empty word is the unit "1".
    """
    gens = [(str(l), int(d)) for l, d in gens]
    for _, d in gens:
        if d % 2 == 0:
            raise ValueError("exterior generators must be odd")
    order = {l: n for n, (l, _) in enumerate(gens)}
    degree = dict(gens)
    words = [()]
    for l, _ in gens:
        words += [w + (l,) for w in words]

    def name(w):
        return ".".join(w) if w else "1"

    basis = GradedBasis([(name(w), sum(degree[l] for l in w)) for w in words])
    mult = {}
    for w1 in words:
        for w2 in words:
            if set(w1) & set(w2):
                mult[(name(w1), name(w2))] = {}
                continue
            merged = sorted(w1 + w2, key=order.get)
            # Koszul sign of sorting the concatenation (all gens odd)
            sign = 1
            cat = w1 + w2
            for i in range(len(cat)):
                for j in range(i + 1, len(cat)):
                    if order[cat[i]] > order[cat[j]]:
                        sign = -sign
            mult[(name(w1), name(w2))] = {name(tuple(merged)): Q(sign)}
    return AlgebraSpec(basis, "1", mult)


def truncated_polynomial(var, n, degree=0):
    """Q[var]/(var^n) with the generator in an even degree (default 0)."""
    if degree % 2:
        raise ValueError("truncated polynomial generator must be even")
    names = ["1"] + [var if k == 1 else "%s^%d" % (var, k)
                     for k in range(1, n)]
    basis = GradedBasis([(names[k], k * degree) for k in range(n)])
    mult = {}
    for i in range(n):
        for j in range(n):
            mult[(names[i], names[j])] = (
                {names[i + j]: ONE} if i + j < n else {})
    return AlgebraSpec(basis, "1", mult)
