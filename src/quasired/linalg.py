"""Exact linear algebra: one fraction-free integer elimination core and
kernels.

Matrices are plain lists of rows with int or Fraction entries. Each row is
scaled to a primitive integer row and eliminated by fraction-free integer
cross multiplication, dividing out each new row's content, so no Fraction is
built inside the loop. ``rank`` and ``rref`` run a dense column-order loop,
which is fastest on the small dense matrices they get; kernels are taken by
a sparse loop with a pivot order chosen for sparsity. That loop returns a
raw kernel basis, which depends on the pivot order; each caller that
publishes a kernel reduces it once, to the canonical rref. Only ``rref`` and
``nullspace`` return rationals, and only for their output rows. Everything
here is deterministic and exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Row = list[Fraction]


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


def _markowitz(work: dict[int, dict[int, int]], cols: dict[int, set[int]]) -> tuple[int, int]:
    """The (row, column) of a nonzero entry of least Markowitz cost
    (other entries in its row) * (other rows with its column), first found
    on ties."""
    best = None
    for t, row in work.items():
        rc = len(row) - 1
        for c in row:
            cost = rc * (len(cols[c]) - 1)
            if best is None or cost < best[0]:
                if not cost:
                    return t, c
                best = (cost, t, c)
    return best[1], best[2]


def _kernel(
    rows: list[dict[int, int]], ncols: int, order=()
) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """A basis of the right kernel of a sparse integer matrix, not reduced.

    ``rows`` are sparse rows {column: nonzero int} and are consumed. Each
    step takes as pivot the next (row, column) of ``order`` whose entry is
    still nonzero, or else an entry of least Markowitz cost, and clears its
    column from every other row by fraction-free cross multiplication. Any
    sequence of nonzero pivots is exact. Returns the basis, one integer
    vector per free column f (a column no pivot took) in column order, which
    is nonzero at f and zero at every other free column, and the pivots
    taken, which serve as ``order`` for a matrix of the same pattern. The
    basis depends on the pivots taken and its span does not; ``rref`` or
    ``_eliminate`` of it is the canonical basis.
    """
    work = {t: row for t, row in enumerate(rows) if row}
    cols: dict[int, set[int]] = {}  # column -> the rows with an entry there
    for t, row in work.items():
        for j in row:
            if j in cols:
                cols[j].add(t)
            else:
                cols[j] = {t}
    done: list[tuple[int, dict[int, int]]] = []
    taken = []
    hints = iter(order)
    while work:
        for t, c in hints:
            if t in work and c in work[t]:
                break
        else:
            t, c = _markowitz(work, cols)
        taken.append((t, c))
        prow = work.pop(t)
        a = prow[c]
        hit, cols[c] = cols[c], {t}
        for s in hit:
            if s == t:
                continue
            row = rows[s]
            f = row[c]
            for j in row:
                row[j] *= a
            for j, v in prow.items():
                if j in row:
                    x = row[j] - f * v
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                        cols[j].discard(s)
                else:
                    row[j] = -f * v
                    cols[j].add(s)
            if not row:
                del work[s]
                continue
            g = gcd(*row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
        done.append((c, prow))
    # each reduced row is a * x_p + sum e * x_f over free columns f
    hits: dict[int, list[tuple[int, int, int]]] = {}
    for p, row in done:
        a = row[p]
        for f, e in row.items():
            if f != p:
                hits.setdefault(f, []).append((p, a, e))
    pivots = {p for p, _ in done}
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        on = hits.get(f, ())
        den = lcm(*(a for _, a, _ in on))
        v = [0] * ncols
        v[f] = den
        for p, a, e in on:
            v[p] = -e * (den // a)
        basis.append(v)
    return basis, taken


def nullspace(rows, ncols: int) -> list[Row]:
    """Canonical (rref) basis of the right kernel of the matrix."""
    sparse = [
        {j: v for j, v in enumerate(_primitive_int_row(r)) if v} for r in rows
    ]
    return rref(_kernel(sparse, ncols)[0])[0]


def kernel_stabilizes(cols: dict[int, dict], dim: int) -> bool:
    """Whether ker(M) == ker(M^2) for the dim x dim matrix M given by its
    columns {j: {i: M[i][j]}}, i.e. the 0-eigenvalue carries no nilpotency.
    ker(M) lies in ker(M^2), so they are equal when their dimensions are."""
    square: dict[int, dict] = {}
    for j, col in cols.items():
        acc = square[j] = {}
        for k, a in col.items():
            for i, b in cols.get(k, {}).items():
                acc[i] = acc.get(i, 0) + b * a

    def nullity(m) -> int:
        # of the transpose, whose rows are the columns, each made primitive
        nz = [{i: v for i, v in col.items() if v} for col in m.values()]
        rows = [dict(zip(c, _primitive_int_row(list(c.values())))) for c in nz]
        return len(_kernel(rows, dim)[0])

    return nullity(cols) == nullity(square)
