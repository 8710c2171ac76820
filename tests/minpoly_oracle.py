"""Minimal polynomials of sparse operators, kept as a test oracle.

An independent route to semisimplicity: ad x is semisimple exactly when the
minimal polynomial of ad x is squarefree. It runs Krylov iterations with its
own Fraction elimination, so it shares nothing with ``linalg``'s integer
core beyond the primitive-row scaling. Polynomials over Q are coefficient
lists, low degree to high.
"""

from __future__ import annotations

from fractions import Fraction

from quasired.linalg import _primitive_int_row

Poly = list[Fraction]
# an operator by its nonzero columns, {j: {i: entry}} with int or Fraction
# entries, as ``ad_columns`` gives it for a row
Cols = dict[int, dict[int, int | Fraction]]


def sparse_matvec(cols: Cols, v: list) -> list:
    n = len(v)
    out = [Fraction(0)] * n
    for j, vj in enumerate(v):
        if vj:
            for i, a in cols.get(j, {}).items():
                out[i] += a * vj
    return out


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


def _local_minpoly(cols: Cols, v0: list[Fraction], rows_sink=None) -> Poly:
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


def minimal_polynomial(cols: Cols, dim: int) -> Poly:
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
