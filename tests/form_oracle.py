"""The dense route to form stabilizers and kernels, kept as a test oracle.

It takes P as any basis of algebra elements p_1..p_n, builds the full
n x n form matrix kappa(u, [p_a, p_b]) with ``bracket_coords``, takes its
kernel with ``dense_kernel`` in one piece and reduces the kernel vectors,
mapped back through the p_a, to the canonical rref rows. It shares no block
splitting, ``bracket_into`` table, form pattern or sparse elimination with
``stabilizer.form_stabilizer``; only the dense ``linalg._eliminate`` loop.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from quasired import linalg
from quasired.rootsys import AlgebraElement, RootSystem, bracket_coords, killing_coords
from quasired.seaweed import BiparabolicSpec, biparabolic_basis
from quasired.stabilizer import Subspace, _sparse_int_row


def subspace_from_vectors(r: RootSystem, vectors) -> Subspace:
    """The span of dense vectors, as a Subspace in canonical rref."""
    rows, _ = linalg.rref([list(v) for v in vectors])
    return Subspace(r, tuple(_sparse_int_row(enumerate(row)) for row in rows))


def subspace_elements(S: Subspace) -> tuple[AlgebraElement, ...]:
    """The canonical rref rows of S as elements: each integer row divided by
    its leading entry."""
    return tuple(
        AlgebraElement(S.system, [(k, Fraction(v, row[0][1])) for k, v in row])
        for row in S.int_rows
    )


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


def basis_elements(spec: BiparabolicSpec) -> list[AlgebraElement]:
    """The Chevalley basis vectors e_i of the spec's basis, as elements."""
    r = spec.system()
    return [AlgebraElement(r, [(i, 1)]) for i in biparabolic_basis(spec)]


def dense_form_stabilizer(elements, u: AlgebraElement) -> Subspace:
    """The stabilizer of kappa(u, .) restricted to the span of the
    independent elements, each scaled to a primitive integer vector first
    (which keeps the span)."""
    r = u.system
    w = killing_coords(r, u.coords.items())
    ps = [
        list(zip(p.coords, linalg._primitive_int_row(list(p.coords.values()))))
        for p in elements
    ]
    n = len(ps)
    M = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            val = sum(c * w.get(k, 0) for k, c in bracket_coords(r, ps[a], ps[b]).items())
            M[a][b] = val
            M[b][a] = -val
    red, _ = dense_kernel(M, n)
    vecs = []
    for kr in red:
        v = [0] * r.dim
        for ca, p in zip(kr, ps):
            if ca:
                for k, c in p:
                    v[k] += ca * c
        vecs.append(v)
    return subspace_from_vectors(r, vecs)
