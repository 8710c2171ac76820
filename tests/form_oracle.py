"""The dense route to form stabilizers and kernels, kept as a test oracle.

It builds the full n x n form matrix kappa(u, [e_a, e_b]) over the basis
indices of P from ``bracket_basis``, takes its kernel with ``dense_kernel``
in one piece and reads the rref rows off directly. It shares no block
splitting, ``bracket_into`` table, form pattern or sparse elimination with
``stabilizer.form_stabilizer``; only the dense ``linalg._eliminate`` loop.
"""

from __future__ import annotations

from math import lcm

from quasired import linalg
from quasired.rootsys import AlgebraElement, RootSystem, killing_functional
from quasired.seaweed import SubalgebraBasis
from quasired.stabilizer import Subspace, _sparse_int_row


def subspace_from_vectors(r: RootSystem, vectors) -> Subspace:
    """The span of dense vectors, as a Subspace in canonical rref."""
    rows, _ = linalg.rref([list(v) for v in vectors])
    return Subspace(r, tuple(_sparse_int_row(enumerate(row)) for row in rows))


def dense_kernel(rows, ncols: int) -> tuple[list[list[int]], list[int]]:
    """rref basis of the right kernel as primitive integer rows and their
    pivots, from one dense Gauss-Jordan elimination of the whole matrix."""
    red, pivots = linalg._eliminate(rows, True)
    den = lcm(*(r[p] for r, p in zip(red, pivots)))
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [0] * ncols
        v[f] = den
        for r, p in zip(red, pivots):
            v[p] = -r[f] * (den // r[p])
        basis.append(v)
    return linalg._eliminate(basis, True)


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
    red, _ = dense_kernel(M, n)
    # rref rows placed on increasing indices are still in rref
    return Subspace(r, tuple(_sparse_int_row(zip(idx, c)) for c in red))
