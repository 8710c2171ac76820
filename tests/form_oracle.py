"""The dense route to form stabilizers, kept as a test oracle.

It builds the full n x n form matrix kappa(u, [e_a, e_b]) over the basis
indices of P from ``bracket_basis``, takes its kernel with
``linalg.nullspace`` in one piece and reads the rref rows off directly. It
shares no block splitting, ``bracket_into`` table or per-block elimination
with ``stabilizer.form_stabilizer``.
"""

from __future__ import annotations

from fractions import Fraction

from quasired import linalg
from quasired.rootsys import AlgebraElement, RootSystem, killing_functional
from quasired.seaweed import SubalgebraBasis
from quasired.stabilizer import Subspace


def subspace_from_vectors(r: RootSystem, vectors) -> Subspace:
    """The span of dense vectors, as a Subspace in canonical rref."""
    rows, _ = linalg.rref([list(v) for v in vectors])
    return Subspace(r, tuple(tuple(row) for row in rows))


def dense_form_stabilizer(P: SubalgebraBasis, u: AlgebraElement) -> Subspace:
    r = P.spec.system()
    idx = sorted({k for p in P.elements for k in p.coords})
    w = killing_functional(r, u)
    n = len(idx)
    M = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            val = 0
            for k, c in r.bracket_basis(idx[a], idx[b]):
                val += c * w[k]
            M[a][b] = val
            M[b][a] = -val
    vecs = []
    for c in linalg.nullspace(M, n):
        dense = [Fraction(0)] * r.dim
        for k, v in zip(idx, c):
            dense[k] = v
        vecs.append(tuple(dense))
    # rref rows placed on increasing indices are still in rref
    return Subspace(r, tuple(vecs))
