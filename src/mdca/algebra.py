"""Finite-dimensional differential graded commutative algebras over Q.

An algebra is given by an explicit basis, structure constants, a
distinguished unit basis element and a degree -1 differential.  A
derivation of A is a homogeneous LinearMap on its basis; one kernel
(leibniz_defects) tests the Leibniz rule of every such operator, the
differential's included, on integer copies of the operator and of the
structure constants.
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
    report += [{"invariant": "Leibniz rule of diff", "witness": pair}
               for pair, _ in leibniz_defects(A, A.diff)]
    return report


def leibniz_defects(A, op):
    """The Leibniz defects op(ij) - op(i) j - (-1)^(|op||i|) i op(j) of a
    homogeneous operator on A, at the basis pairs (i, j) where they do
    not vanish, in basis order: [((i, j), {label: Fraction})].  op is a
    derivation of A exactly when the list is empty.

    The defects are found on integer copies: op times e, the least
    common denominator of its entries, and the structure constants times
    mu (AlgebraSpec.int_mult).  Every term then comes out mu * e times
    its rational value, and so does the defect, which is divided back
    once."""
    e = denominator(op.entries.values())
    cols = op.int_columns(e)
    mult = A.int_mult
    scale = A.mu * e
    odd = op.degree % 2
    out = []
    for i in A.basis.labels:
        di = cols.get(i, {})
        sgn = 1 if odd and A.basis.degree[i] % 2 else -1
        for j in A.basis.labels:
            acc = {}
            for m, c in mult.get((i, j), {}).items():
                vec_axpy(acc, c, cols.get(m, {}))
            for k, c in di.items():
                vec_axpy(acc, -c, mult.get((k, j), {}))
            for k, c in cols.get(j, {}).items():
                vec_axpy(acc, sgn * c, mult.get((i, k), {}))
            if acc:
                out.append(((i, j), {k: Q(c, scale)
                                     for k, c in acc.items()}))
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
