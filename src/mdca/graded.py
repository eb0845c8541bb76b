"""Exact rational graded linear algebra.

Scalars are ``fractions.Fraction`` (always reduced, positive denominator).
Vectors over a basis are sparse dicts ``{label: Fraction}`` with no zero
entries stored.  Grading is homological throughout; differentials have
degree -1.  Row reduction (``row_echelon``) eliminates over the integers,
fraction-free, and writes back the reduced row echelon form as
``Fraction``s with every pivot 1.
"""

from fractions import Fraction
from math import gcd, lcm


Q = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def vec_add(u, v):
    out = dict(u)
    for k, c in v.items():
        s = out.get(k, ZERO) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def vec_scale(c, u):
    if not c:
        return {}
    return {k: c * x for k, x in u.items()}

def vec_axpy(out, c, u):
    """In-place out += c*u for accumulation loops."""
    if not c:
        return out
    for k, x in u.items():
        s = out.get(k, ZERO) + c * x
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def vec_sub(u, v):
    return vec_add(u, vec_scale(-ONE, v))


def koszul_sign(perm, degs):
    """Sign of reordering graded items.

    ``perm[i]`` is the original index of the item that ends up at position
    ``i``; ``degs`` are the degrees in the original order.  The sign is the
    product of (-1)^(d_a*d_b) over all pairs transposed by the reordering.
    """
    n = len(perm)
    if len(degs) != n:
        raise ValueError("perm/degs length mismatch")
    if sorted(perm) != list(range(n)):
        raise ValueError("not a permutation")
    sign = 1
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j] and degs[perm[i]] % 2 and degs[perm[j]] % 2:
                sign = -sign
    return sign


class GradedBasis:
    """Finite ordered list of generators with integer degrees."""

    def __init__(self, gens):
        self.gens = [(str(lbl), int(d)) for lbl, d in gens]
        self.degree = {lbl: d for lbl, d in self.gens}
        if len(self.degree) != len(self.gens):
            raise ValueError("duplicate labels in basis")
        self.index = {lbl: i for i, (lbl, _) in enumerate(self.gens)}

    @property
    def labels(self):
        return [lbl for lbl, _ in self.gens]

    def __len__(self):
        return len(self.gens)

    def __eq__(self, other):
        return isinstance(other, GradedBasis) and self.gens == other.gens

    def labels_of_degree(self, d):
        return [lbl for lbl, dd in self.gens if dd == d]


class LinearMap:
    """Sparse degree-homogeneous linear map between graded bases.

    entries: {(target_label, source_label): Fraction}, zeros omitted.
    """

    def __init__(self, source, target, degree, entries):
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.entries = {}
        for (t, s), c in entries.items():
            c = Q(c)
            if not c:
                continue
            if target.degree[t] != source.degree[s] + self.degree:
                raise ValueError(
                    "entry (%s,%s) breaks homogeneity of degree %d"
                    % (t, s, self.degree))
            self.entries[(t, s)] = c
        # column view for fast application
        self._cols = {}
        for (t, s), c in self.entries.items():
            self._cols.setdefault(s, {})[t] = c

    @classmethod
    def zero(cls, source, target, degree):
        return cls(source, target, degree, {})

    @classmethod
    def identity(cls, basis):
        return cls(basis, basis, 0, {(l, l): ONE for l in basis.labels})

    def apply(self, vec):
        out = {}
        for s, c in vec.items():
            col = self._cols.get(s)
            if col:
                vec_axpy(out, c, col)
        return out

    def column(self, s):
        return dict(self._cols.get(s, {}))

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, LinearMap) and self.source == other.source
                and self.target == other.target and self.degree == other.degree
                and self.entries == other.entries)

    def add(self, other):
        if other.degree != self.degree:
            raise ValueError("degree mismatch in sum")
        ent = dict(self.entries)
        for k, c in other.entries.items():
            s = ent.get(k, ZERO) + c
            if s:
                ent[k] = s
            else:
                ent.pop(k, None)
        return LinearMap(self.source, self.target, self.degree, ent)

    def scale(self, c):
        c = Q(c)
        return LinearMap(self.source, self.target, self.degree,
                         {k: c * v for k, v in self.entries.items()})


def compose(f, g):
    """f after g; degrees add."""
    if g.target != f.source:
        raise ValueError("basis mismatch: g.target != f.source")
    ent = {}
    for (m, s), c in g.entries.items():
        col = f._cols.get(m)
        if not col:
            continue
        for t, c2 in col.items():
            k = (t, s)
            v = ent.get(k, ZERO) + c2 * c
            if v:
                ent[k] = v
            else:
                ent.pop(k, None)
    return LinearMap(g.source, f.target, f.degree + g.degree, ent)


def row_echelon(rows, ncols):
    """In-place exact row reduction; returns list of pivot column indices.

    ``rows`` holds ``ncols`` rationals each.  On return they are the
    reduced row echelon form as ``Fraction``s: row ``r`` has its pivot,
    equal to 1, in the ``r``-th returned column, zeros in every other
    pivot column, and the rows after the rank are zero.  Pivoting is
    deterministic: first nonzero entry in column order, so kernel bases
    are reproducible run to run.

    The elimination itself runs on integers.  Each row is scaled to
    clear its denominators, Bareiss forward elimination divides every
    update exactly by the previous pivot, and back-substitution keeps
    each updated row primitive (its entries divided by their gcd).
    """
    m = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (den // x.denominator) for x in row])
    piv_cols = []
    r = 0
    prev = 1
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        top = m[r]
        p = top[c]
        for i in range(r + 1, len(m)):
            low = m[i]
            a = low[c]
            # Sylvester's identity: every entry stays a minor of the
            # input, so the division by the previous pivot is exact
            m[i] = [(p * x - a * y) // prev for x, y in zip(low, top)]
        prev = p
        piv_cols.append(c)
        r += 1
    for k in range(r - 1, -1, -1):
        pc = piv_cols[k]
        g = gcd(*m[k]) if m[k][pc] > 0 else -gcd(*m[k])
        top = m[k] = [x // g for x in m[k]]
        p = top[pc]
        for i in range(k):
            a = m[i][pc]
            if a:
                low = [p * x - a * y for x, y in zip(m[i], top)]
                g = gcd(*low)
                m[i] = [x // g for x in low]
    for i, pc in enumerate(piv_cols):
        p = m[i][pc]
        rows[i] = [Fraction(x, p) if x else ZERO for x in m[i]]
    for i in range(r, len(rows)):
        rows[i] = [ZERO] * ncols
    return piv_cols


def kernel_of_rows(rows, ncols):
    """(rank, kernel basis as coefficient lists) of the matrix given by rows."""
    rows = [list(row) for row in rows]
    piv_cols = row_echelon(rows, ncols)
    rank = len(piv_cols)
    pivots = set(piv_cols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(piv_cols):
            if rows[r][fc]:
                v[pc] = -rows[r][fc]
        basis.append(v)
    return rank, basis


def rank_and_kernel(f, degree_window):
    """Per-source-degree (rank, kernel basis) of a LinearMap, exact.

    Returns {degree: (rank, [kernel vectors over f.source])} for each degree
    in the inclusive window.
    """
    dmin, dmax = degree_window
    out = {}
    for d in range(dmin, dmax + 1):
        src = f.source.labels_of_degree(d)
        tgt = f.target.labels_of_degree(d + f.degree)
        rows = [[f.entries.get((t, s), ZERO) for s in src] for t in tgt]
        if not src:
            out[d] = (0, [])
            continue
        if not rows:
            rows = [[ZERO] * len(src)]
        rank, kb = kernel_of_rows(rows, len(src))
        vecs = [{s: c for s, c in zip(src, v) if c} for v in kb]
        out[d] = (rank, vecs)
    return out
