"""Exact rational graded linear algebra.

Scalars are ``fractions.Fraction`` (always reduced, positive denominator).
Vectors over a basis are sparse dicts ``{label: Fraction}`` with no zero
entries stored.  Grading is homological throughout; differentials have
degree -1.  Row reduction (``row_echelon``) eliminates over the integers,
fraction-free, and writes back the reduced row echelon form as
``Fraction``s with every pivot 1.

``rank_modulo`` gives only a rank, over the prime field of PRIME: it
is a lower bound on the rank over Q, and a caller that knows an upper
bound which meets it has the rank over Q without a reduced form.  It
packs each row into one Python int, a 64-bit slot per column, so that a
row update is one big-integer multiply-add.

The vector helpers and ``compose_axpy`` are type-generic: Python ints in
give ints out, so a loop over tables scaled to integers
(``int_multiple``) never builds a ``Fraction``.
"""

import sys
from array import array
from fractions import Fraction
from math import gcd, lcm


Q = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# the one modulus of rank_modulo: the largest prime below 2**25, so
# that one row update adds less than PRIME**2 < 2**50 to a slot
PRIME = 33554393
# rank_modulo packs a row into one int, column c in bits
# SLOT_BITS * c to SLOT_BITS * (c + 1) - 1; a slot reduced modulo PRIME
# takes SLOT_BUDGET updates (2**14) before it could overflow
SLOT_BITS = 64
SLOT_BUDGET = ((1 << SLOT_BITS) - PRIME) // (PRIME - 1) ** 2


def vec_scale(c, u):
    """c times u, as a new dict; a sign c = +-1 copies or negates the
    entries instead of multiplying them."""
    if c == 1:
        return dict(u)
    if c == -1:
        return {k: -x for k, x in u.items()}
    if not c:
        return {}
    return {k: c * x for k, x in u.items()}


def vec_axpy(out, c, u):
    """In-place out += c*u for accumulation loops."""
    if not c:
        return out
    for k, x in u.items():
        s = out.get(k)
        s = c * x if s is None else s + c * x
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def vec_sub(u, v):
    return vec_axpy(dict(u), -1, v)


def vec_pack(u, offset):
    """An integer vector as one Python int, the sum of u[k] * 2**offset[k].
    Packing is linear, so a sum of multiples of packed vectors is the
    packed sum, in one big-integer multiply-add per vector."""
    return sum(x << offset[k] for k, x in u.items())


def vec_unpack(x, labels, bits):
    """The vector that vec_pack packed into x with labels[i] at offset
    bits * i, given every entry in the balanced range -2**(bits - 1) to
    2**(bits - 1) - 1.  In that range the entries are unique: slot by
    slot from the lowest, the low bits of x give an entry, and a
    negative one borrows 1 from the slot above.  So x is 0 exactly when
    every entry is."""
    full = 1 << bits
    half = full >> 1
    out = {}
    for k in labels:
        if not x:
            break
        c = x & full - 1
        if c >= half:
            c -= full
        if c:
            out[k] = c
        x = (x - c) >> bits
    return out


def denominator(coeffs):
    """Least common denominator of an iterable of rationals (1 if empty)."""
    return lcm(*{c.denominator for c in coeffs})


def int_multiple(s, vec):
    """s times a vector of rationals, as Python ints; s must be a multiple
    of every denominator (denominator), else ValueError."""
    out = {}
    for k, c in vec.items():
        q, r = divmod(s, c.denominator)
        if r:
            raise ValueError("%r does not clear the denominator of %r"
                             % (s, c))
        out[k] = c.numerator * q
    return out


class GradedBasis:
    """Finite ordered list of generators with integer degrees."""

    def __init__(self, gens):
        self.gens = [(str(lbl), int(d)) for lbl, d in gens]
        self.degree = {lbl: d for lbl, d in self.gens}
        if len(self.degree) != len(self.gens):
            raise ValueError("duplicate labels in basis")

    @property
    def labels(self):
        return [lbl for lbl, _ in self.gens]

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

    def apply(self, vec):
        out = {}
        for s, c in vec.items():
            col = self._cols.get(s)
            if col:
                vec_axpy(out, c, col)
        return out

    def column(self, s):
        return dict(self._cols.get(s, {}))

    def int_columns(self, s):
        """s times this map, by integer columns {source: {target: int}}
        (int_multiple)."""
        return {src: int_multiple(s, col) for src, col in self._cols.items()}

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


def compose_axpy(out, c, f_cols, g_cols):
    """In-place out += c * (f after g), every map by its columns
    {source: {target: coefficient}}; columns of out may be left empty."""
    for s, col in g_cols.items():
        acc = out.setdefault(s, {})
        for m, x in col.items():
            f_col = f_cols.get(m)
            if f_col:
                vec_axpy(acc, c * x, f_col)
    return out


def compose(f, g):
    """f after g; degrees add."""
    if g.target != f.source:
        raise ValueError("basis mismatch: g.target != f.source")
    cols = compose_axpy({}, 1, f._cols, g._cols)
    return LinearMap(g.source, f.target, f.degree + g.degree,
                     {(t, s): c for s, col in cols.items()
                      for t, c in col.items()})


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


def _packed(residues):
    """One int holding the given residues, entry c in slot c."""
    return int.from_bytes(array("Q", residues).tobytes(), sys.byteorder)


def _reduced(x, ncols):
    """The residues modulo PRIME of the ncols slots of a packed row."""
    p = PRIME
    return [v % p for v in memoryview(
        x.to_bytes(ncols * SLOT_BITS // 8, sys.byteorder)).cast("Q")]


def rank_modulo(rows, ncols):
    """Rank over the field with PRIME elements of an integer matrix given
    by rows of ncols entries; rows is left as it is.

    A lower bound on the rank over Q: an r x r minor that is nonzero
    modulo PRIME is a nonzero integer.  It is below the rank r over Q
    only where PRIME divides every r x r minor.

    Each row is one Python int with column c in slot c, SLOT_BITS wide,
    so a row update x += (PRIME - a) * pivot is one multiply-add on
    ints.  Each new row is reduced against the pivot rows in the order
    they were found; a pivot row holds residues, 1 at its pivot and 0 in
    the columns of the earlier pivots, so the update leaves those at 0
    modulo PRIME.  A slot is reduced modulo PRIME only where the row
    becomes a pivot, and after SLOT_BUDGET updates, before it could
    overflow into the next slot.  Stops once the pivots fill the
    columns.
    """
    p = PRIME
    mask = (1 << SLOT_BITS) - 1
    pivots = []
    for row in rows:
        if len(pivots) == ncols:
            break
        x = _packed([v % p for v in row])
        budget = SLOT_BUDGET
        for shift, top in pivots:
            a = (x >> shift & mask) % p
            if a:
                if not budget:
                    x = _packed(_reduced(x, ncols))
                    budget = SLOT_BUDGET
                x += (p - a) * top
                budget -= 1
        residues = _reduced(x, ncols)
        x = _packed(residues)
        if x:
            # the first nonzero slot holds the lowest set bit
            c = ((x & -x).bit_length() - 1) // SLOT_BITS
            inv = pow(residues[c], -1, p)
            pivots.append((c * SLOT_BITS,
                           _packed([v * inv % p for v in residues])))
    return len(pivots)


def kernel_of_rows(rows, ncols):
    """(rank, kernel basis as coefficient lists) of the matrix given by
    rows."""
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
