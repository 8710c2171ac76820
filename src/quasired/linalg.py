"""Exact linear algebra: one fraction-free integer elimination core,
kernels and sparse operators.

Matrices are plain lists of rows with int or Fraction entries. Each row is
scaled to a primitive integer row and eliminated by fraction-free integer
cross multiplication, dividing out each new row's content, so no Fraction is
built inside the loop. Only ``rref`` and ``nullspace`` return rationals, and
only for their output rows. Everything here is deterministic and exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Row = list[Fraction]

# sparse column format: col j -> list of (row i, value); values int or Fraction
SparseCols = dict[int, list[tuple[int, int | Fraction]]]


def _primitive_int_row(row) -> list[int]:
    """Clear denominators and divide out the content of a rational row."""
    if all(type(x) is int for x in row):
        ints = list(row)
    else:
        den = lcm(*{x.denominator for x in row})
        ints = [x.numerator * (den // x.denominator) for x in row]
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _eliminate(rows, reduce: bool) -> tuple[list[list[int]], list[int]]:
    """Fraction-free echelon form of the rows, as primitive integer rows.

    Returns (nonzero echelon rows, pivot columns). With ``reduce`` each pivot
    column is also cleared above its pivot, which gives the reduced echelon
    form up to one integer scale per row; without it only the rows below are
    eliminated, which is all ``rank`` needs.
    """
    work = [r for r in map(_primitive_int_row, rows) if any(r)]
    pivots: list[int] = []
    top = 0
    for col in range(len(work[0]) if work else 0):
        sel = None
        for i in range(top, len(work)):
            if work[i][col]:
                sel = i
                break
        if sel is None:
            continue
        work[top], work[sel] = work[sel], work[top]
        prow = work[top]
        piv = prow[col]
        for i in range(0 if reduce else top + 1, len(work)):
            f = work[i][col]
            if not f or i == top:
                continue
            # integer cross elimination, then re-reduce the content
            new = [piv * a - f * b for a, b in zip(work[i], prow)]
            g = gcd(*new)
            work[i] = [v // g for v in new] if g > 1 else new
        pivots.append(col)
        top += 1
        if top == len(work):
            break
    return work[:top], pivots


def rank(rows) -> int:
    """Rank over the rationals."""
    return len(_eliminate(rows, False)[1])


def rref(rows) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form with unit pivots.

    Returns (reduced nonzero rows, pivot column indices). The result is the
    canonical representative of the row space, so two bases of the same
    subspace reduce to identical output.
    """
    red, pivots = _eliminate(rows, True)
    return [[Fraction(v, r[p]) for v in r] for r, p in zip(red, pivots)], pivots


def _kernel(rows, ncols: int) -> tuple[list[list[int]], list[int]]:
    """Reduced echelon basis of the right kernel as primitive integer rows
    and their pivots; dividing each row by its pivot entry gives the rows of
    ``nullspace``."""
    red, pivots = _eliminate(rows, True)
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
    return _eliminate(basis, True)


def nullspace(rows, ncols: int) -> list[Row]:
    """Canonical (rref) basis of the right kernel of the matrix."""
    red, pivots = _kernel(rows, ncols)
    return [[Fraction(v, r[p]) for v in r] for r, p in zip(red, pivots)]


# ---------------------------------------------------------------------------
# sparse matrices

def sparse_square(cols: SparseCols, dim: int) -> SparseCols:
    out: SparseCols = {}
    for j, col in cols.items():
        acc: dict[int, int | Fraction] = {}
        for k, a in col:
            for i, b in cols.get(k, ()):
                acc[i] = acc.get(i, 0) + b * a
        ent = [(i, c) for i, c in sorted(acc.items()) if c]
        if ent:
            out[j] = ent
    return out


def sparse_to_rows(cols: SparseCols, dim: int) -> list[list[int | Fraction]]:
    rows = [[0] * dim for _ in range(dim)]
    for j, col in cols.items():
        for i, a in col:
            rows[i][j] = a
    return rows


def kernel_stabilizes(cols: SparseCols, dim: int) -> bool:
    """Whether ker(M) == ker(M^2), i.e. the 0-eigenvalue carries no nilpotency."""
    r1 = rank(sparse_to_rows(cols, dim))
    r2 = rank(sparse_to_rows(sparse_square(cols, dim), dim))
    return r1 == r2
