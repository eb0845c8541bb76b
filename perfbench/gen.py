"""Seeded Lie algebra instances in a random rational basis.

The structure constants of gl_n, sl_n and the Heisenberg algebra are
written in their standard basis, moved to a basis drawn from the seed and
checked for the Jacobi identity exactly before they are emitted through
the public API (ModuleSpec, LieRinehartData, io_json.emit_instance).  The
program under test only ever sees the emitted files.

The change of basis is P = L U with L unit lower and U unit upper
triangular, both dense with entries from a small fixed set of rationals.
So det P = 1, and every seed gives a dense basis in which almost every
structure constant is nonzero: the amount of work varies little from
seed to seed, while the numbers differ.
"""

import random
from fractions import Fraction as Q

from mdca.algebra import rational_algebra
from mdca.coalgebra import ModuleSpec, TruncationPolicy
from mdca.graded import GradedBasis
from mdca.io_json import emit_instance
from mdca.structures import LieRinehartData

# nonzero off-diagonal entries of the triangular factors
ENTRIES = (Q(1), Q(-1), Q(2), Q(-2), Q(1, 2), Q(-1, 2))


def bracket(c, u, v):
    """[u, v] of coordinate vectors under structure constants c."""
    out = {}
    for a, ca in u.items():
        for b, cb in v.items():
            for t, ct in c.get((a, b), {}).items():
                out[t] = out.get(t, 0) + ca * cb * ct
    return {t: x for t, x in out.items() if x}


def gl_constants(n):
    """Standard basis E_ij of gl_n (index i*n + j) and its brackets
    [E_ij, E_km] = d_jk E_im - d_mi E_kj, as {(a, b): {c: coeff}}."""
    def idx(i, j):
        return i * n + j
    c = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for m in range(n):
                    vec = {}
                    if j == k:
                        vec[idx(i, m)] = vec.get(idx(i, m), 0) + 1
                    if m == i:
                        vec[idx(k, j)] = vec.get(idx(k, j), 0) - 1
                    vec = {t: Q(v) for t, v in vec.items() if v}
                    if vec:
                        c[(idx(i, j), idx(k, m))] = vec
    return n * n, c


def sl_constants(n):
    """sl_n in the basis E_ij (i != j), H_i = E_ii - E_(i+1)(i+1)."""
    _, cgl = gl_constants(n)
    # basis of sl_n as gl_n coordinate vectors
    basis = []
    for i in range(n):
        for j in range(n):
            if i != j:
                basis.append({i * n + j: Q(1)})
    for i in range(n - 1):
        basis.append({i * n + i: Q(1), (i + 1) * (n + 1): Q(-1)})

    def coords(x):
        # off-diagonal entries map to E_ij; a traceless diagonal
        # diag(d_1..d_n) is sum_i (d_1 + ... + d_i) H_i
        out = {}
        k = 0
        for i in range(n):
            for j in range(n):
                if i != j:
                    if x.get(i * n + j):
                        out[k] = x[i * n + j]
                    k += 1
        partial = Q(0)
        for i in range(n - 1):
            partial += x.get(i * (n + 1), Q(0))
            if partial:
                out[k + i] = partial
        return out

    c = {}
    for a, u in enumerate(basis):
        for b, v in enumerate(basis):
            vec = coords(bracket(cgl, u, v))
            if vec:
                c[(a, b)] = vec
    return len(basis), c


def heisenberg_constants():
    return 3, {(0, 1): {2: Q(1)}, (1, 0): {2: Q(-1)}}


ALGEBRAS = {
    "gl2": lambda: gl_constants(2),
    "gl3": lambda: gl_constants(3),
    "sl2": lambda: sl_constants(2),
    "sl3": lambda: sl_constants(3),
    "heisenberg": heisenberg_constants,
}


def random_basis(dim, rng):
    """Columns of P = L U: the new basis vectors in old coordinates,
    and P^-1, both exact."""
    low = [[rng.choice(ENTRIES) if i > j else Q(int(i == j))
            for j in range(dim)] for i in range(dim)]
    up = [[rng.choice(ENTRIES) if i < j else Q(int(i == j))
           for j in range(dim)] for i in range(dim)]
    P = [[sum(low[i][k] * up[k][j] for k in range(dim))
          for j in range(dim)] for i in range(dim)]
    return P, invert(P)


def invert(M):
    n = len(M)
    rows = [list(M[i]) + [Q(int(i == j)) for j in range(n)]
            for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        piv = rows[c][c]
        rows[c] = [x / piv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [r[n:] for r in rows]


def change_basis(dim, c, P, Pinv):
    """Structure constants c'(a, b) = P^-1 [P e_a, P e_b]."""
    out = {}
    for a in range(dim):
        for b in range(dim):
            old = {}
            for i in range(dim):
                if not P[i][a]:
                    continue
                for j in range(dim):
                    if not P[j][b]:
                        continue
                    for t, ct in c.get((i, j), {}).items():
                        old[t] = old.get(t, 0) + P[i][a] * P[j][b] * ct
            new = {}
            for t, ct in old.items():
                if ct:
                    for k in range(dim):
                        if Pinv[k][t]:
                            new[k] = new.get(k, 0) + Pinv[k][t] * ct
            new = {k: v for k, v in new.items() if v}
            if new:
                out[(a, b)] = new
    return out


def jacobi_defects(dim, c):
    """Triples (a, b, d) whose cyclic Jacobi sum is nonzero."""
    bad = []
    for a in range(dim):
        for b in range(a + 1, dim):
            for d in range(b + 1, dim):
                tot = {}
                for x, y, z in ((a, b, d), (b, d, a), (d, a, b)):
                    inner = bracket(c, {x: Q(1)}, {y: Q(1)})
                    for t, v in bracket(c, inner, {z: Q(1)}).items():
                        tot[t] = tot.get(t, 0) + v
                if any(tot.values()):
                    bad.append((a, b, d))
    return bad


def instance_text(name, seed, W):
    """Canonical instance file of algebra `name` in the basis drawn from
    `seed`, with truncation W.  Raises if Jacobi fails."""
    dim, c = ALGEBRAS[name]()
    rng = random.Random("%s:%d" % (name, seed))
    P, Pinv = random_basis(dim, rng)
    c = change_basis(dim, c, P, Pinv)
    bad = jacobi_defects(dim, c)
    if bad:
        raise ValueError("%s in basis %d breaks Jacobi at %r"
                         % (name, seed, bad[0]))
    labels = ["b%d" % a for a in range(dim)]
    L = ModuleSpec(rational_algebra(),
                   GradedBasis([(x, 0) for x in labels]))
    table = {("1|" + labels[a], "1|" + labels[b]):
             {"1|" + labels[t]: v for t, v in vec.items()}
             for (a, b), vec in c.items() if a < b}
    return emit_instance(LieRinehartData(L, table, {}), TruncationPolicy(W))
