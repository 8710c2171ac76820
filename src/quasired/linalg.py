"""Exact linear algebra: one fraction-free integer elimination core,
kernels, sparse operators and minimal polynomials.

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


def nullspace(rows, ncols: int) -> list[Row]:
    """Canonical (rref) basis of the right kernel of the matrix."""
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
    return rref(basis)[0]


def in_rowspace(red_rows, pivots, vec) -> bool:
    """Whether vec lies in the span of an rref basis."""
    v = [Fraction(x) for x in vec]
    for r, p in zip(red_rows, pivots):
        if v[p]:
            f = v[p]
            v = [a - f * b for a, b in zip(v, r)]
    return not any(v)


# ---------------------------------------------------------------------------
# sparse matrices and matrix polynomials

def sparse_matvec(cols: SparseCols, v: list) -> list:
    n = len(v)
    out = [Fraction(0)] * n
    for j, vj in enumerate(v):
        if vj:
            for i, a in cols.get(j, ()):
                out[i] += a * vj
    return out


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


# ---------------------------------------------------------------------------
# univariate polynomials over Q, coefficients low to high

Poly = list[Fraction]


def poly_trim(p: Poly) -> Poly:
    while p and not p[-1]:
        p.pop()
    return p


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out)


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    while len(a) >= len(b) and any(a):
        if not a[-1]:
            a.pop()
            continue
        d = len(a) - len(b)
        c = a[-1] * inv
        q[d] = c
        for i, y in enumerate(b):
            a[d + i] -= c * y
        a.pop()
    return poly_trim(q), poly_trim(a)


def poly_monic(p: Poly) -> Poly:
    if not p:
        return []
    lead = p[-1]
    return [c / lead for c in p]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    a, b = list(a), list(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return poly_monic(a)


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return []
    g = poly_gcd(a, b)
    q, r = poly_divmod(poly_mul(a, b), g)
    assert not r
    return poly_monic(q)


def poly_derivative(p: Poly) -> Poly:
    return [c * i for i, c in enumerate(p)][1:]


def is_squarefree(p: Poly) -> bool:
    if len(p) <= 2:
        return True
    return len(poly_gcd(p, poly_derivative(p))) <= 1


class Echelon:
    """Incremental row echelon table keyed by pivot column."""

    def __init__(self) -> None:
        self.rows: dict[int, list[Fraction]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, vec) -> list[Fraction]:
        v = [Fraction(x) for x in vec]
        while True:
            pc = next((i for i, x in enumerate(v) if x), None)
            if pc is None or pc not in self.rows:
                return v
            r = self.rows[pc]
            f = v[pc] / r[pc]
            v = [a - f * b for a, b in zip(v, r)]

    def insert(self, vec) -> bool:
        """Reduce vec and keep it if independent; returns True if kept."""
        v = self.reduce(vec)
        pc = next((i for i, x in enumerate(v) if x), None)
        if pc is None:
            return False
        self.rows[pc] = _primitive_int_fractions(v)
        return True

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))


def _primitive_int_fractions(v) -> list[Fraction]:
    return [Fraction(x) for x in _primitive_int_row(v)]


def _local_minpoly(cols: SparseCols, v0: list[Fraction], rows_sink=None) -> Poly:
    """Minimal polynomial of the vector v0 under the sparse operator.

    Krylov vectors are rescaled to primitive integer vectors to keep the
    arithmetic small; the scales are folded back into the coefficients.
    """
    dim = len(v0)
    ech: list[tuple[int, list[Fraction], dict[int, Fraction]]] = []
    scale = Fraction(1)
    scales: list[Fraction] = []
    v = [Fraction(x) for x in v0]
    step = 0
    while True:
        scales.append(scale)
        r = list(v)
        combo = {step: Fraction(1)}
        for pc, prow, pcombo in ech:
            if r[pc]:
                f = r[pc] / prow[pc]
                r = [a - f * b for a, b in zip(r, prow)]
                for k, c in pcombo.items():
                    combo[k] = combo.get(k, Fraction(0)) - f * c
        if not any(r):
            coeffs = [Fraction(0)] * (step + 1)
            for k, c in combo.items():
                coeffs[k] = c * scales[k]
            p = poly_monic(poly_trim(coeffs))
            if rows_sink is not None:
                for _, prow, _ in ech:
                    rows_sink.insert(prow)
            return p
        pc = next(i for i, x in enumerate(r) if x)
        ech.append((pc, r, combo))
        w = sparse_matvec(cols, v)
        ints = _primitive_int_row(w)
        # recover the rescale factor from any nonzero coordinate
        fac = Fraction(1)
        for a, b in zip(w, ints):
            if b:
                fac = Fraction(a) / b
                break
        v = [Fraction(x) for x in ints]
        scale = scale / fac
        step += 1
        assert step <= dim, "krylov iteration exceeded the dimension"


def minimal_polynomial(cols: SparseCols, dim: int) -> Poly:
    """Monic minimal polynomial of a sparse operator, as lcm of local ones."""
    seen = Echelon()
    m: Poly = [Fraction(1)]
    for k in range(dim):
        e = [Fraction(0)] * dim
        e[k] = Fraction(1)
        if len(seen) and seen.contains(e):
            continue
        local = _local_minpoly(cols, e, rows_sink=seen)
        m = poly_lcm(m, local)
        if len(seen) >= dim or len(m) == dim + 1:
            break
    return m
