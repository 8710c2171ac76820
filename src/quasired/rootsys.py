"""Simple root systems and their Chevalley bases over exact rationals.

Structure constants, pairings, coroot coefficients and Killing values on the
Chevalley basis are all integers and are stored as plain ints. Every one of
them derives from the Cartan pairings <beta, alpha_i^v> that root generation
carries for each positive root beta, and from the symmetrizer d (with
(alpha_i, alpha_i) = 2 d_i):
    (lam, beta) = sum_i lam_i d_i <beta, alpha_i^v>,
    <lam, beta^v> = 2 (lam, beta) / (beta, beta).
The Killing values follow in closed form rather than from a trace:
    kappa(h_i, h_j) = 2 * sum over beta > 0 of <beta, alpha_i^v> <beta, alpha_j^v>,
    kappa(x_a, x_{-a}) (a, a) = kappa(h_1, h_1) d_1 for every root a,
since kappa is a multiple of the invariant form (Bourbaki, Lie VI 1.1), and
kappa vanishes on every other pair of basis vectors.

A root is an integer coefficient tuple over the simple roots alpha_1..alpha_l.
Simple roots are numbered as in Bourbaki; for G2 the convention here takes
alpha_1 long and alpha_2 short, so the highest root is 2*alpha_1 + 3*alpha_2.

The Chevalley basis of the algebra is indexed
    0 .. n-1            x_beta for the n positive roots in (height, lex) order,
    n .. n+l-1          h_1 .. h_l (simple coroots),
    n+l .. 2n+l-1       x_{-beta} in the same root order,
so dim = 2n + l. Structure constant signs are fixed by the extraspecial-pair
convention over that root order, which makes every table reproducible; one
integer pass over that order fills N_{a,b} for every ordered pair of roots
(Carter, Simple Groups of Lie Type, 4.1-4.2).

A vector of the algebra is a row: a tuple of (basis index, value) pairs in
increasing index order, each value a nonzero int or Fraction, as
``RootSystem.checked_row`` makes it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import sub

Root = tuple[int, ...]
Row = tuple[tuple[int, int | Fraction], ...]


def _exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    assert rem == 0
    return q


# Largest classical rank, so that every query ends: at rank 40 a cold cascade,
# index or classify takes about 0.5 s and a cold one-trial verify about 1 s on
# A40 and 3 s on B40, C40 and D40 (CPython 3.11, one core), and the cost
# grows steeply beyond.
MAX_CLASSICAL_RANK = 40

_FAMILY_BOUNDS = {
    "A": (1, MAX_CLASSICAL_RANK),
    "B": (2, MAX_CLASSICAL_RANK),
    "C": (3, MAX_CLASSICAL_RANK),
    "D": (4, MAX_CLASSICAL_RANK),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True)
class SimpleType:
    """A simple Lie type: family letter A..G plus the rank."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in _FAMILY_BOUNDS:
            raise ValueError(f"unknown family {self.family!r}")
        if type(self.rank) is not int:
            raise ValueError(f"rank {self.rank!r} is not an int")
        lo, hi = _FAMILY_BOUNDS[self.family]
        if not lo <= self.rank <= hi:
            raise ValueError(f"rank {self.rank} out of range for family {self.family}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    def checked_subset(self, subset) -> frozenset[int]:
        """The subset of simple roots as a frozenset; ValueError unless every
        element is an int within 1..rank. A float or a bool equal to an index
        passes the range test alone, and would then be cached and printed as
        itself."""
        sub = frozenset(subset)
        if _INT.issuperset(map(type, sub)) and sub <= _one_to(self.rank):
            return sub
        # ints by value, then the rest by repr: mixed types do not compare
        shown = sorted(sub, key=lambda v: (type(v) is not int, v if type(v) is int else repr(v)))
        raise ValueError(f"subset [{', '.join(map(repr, shown))}] not within 1..{self.rank}")


@cache
def _one_to(n: int) -> frozenset[int]:
    """{1, ..., n}, built once per n: the full subset of a rank-n system,
    and what every subset check compares against."""
    return frozenset(range(1, n + 1))


_INT = frozenset({int})
_NUMBER = frozenset({int, Fraction})


def _cartan_and_symmetrizer(t: SimpleType) -> tuple[list[list[int]], list[int]]:
    l = t.rank
    C = [[2 if i == j else 0 for j in range(l)] for i in range(l)]
    if t.family == "E":
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        edges += [(i, i + 1) for i in range(5, l - 1)]
    elif t.family == "D":
        edges = [(i, i + 1) for i in range(l - 2)] + [(l - 3, l - 1)]
    else:
        edges = [(i, i + 1) for i in range(l - 1)]
    for i, j in edges:
        C[i][j] = C[j][i] = -1
    d = [1] * l
    if t.family == "B":
        C[l - 2][l - 1] = -2  # <alpha_{l-1}, alpha_l^v>, alpha_l short
        d = [2] * (l - 1) + [1]
    elif t.family == "C":
        C[l - 1][l - 2] = -2  # alpha_l long
        d = [1] * (l - 1) + [2]
    elif t.family == "F":
        C[1][2] = -2  # alpha_1, alpha_2 long
        d = [2, 2, 1, 1]
    elif t.family == "G":
        C[0][1] = -3  # alpha_1 long
        d = [3, 1]
    return C, d


class RootSystem:
    """Immutable root and Chevalley tables for one simple type.

    Construction fills the root list, its pairings and its norms eagerly;
    every other table (coroots, subsystems, brackets, Killing values; cascades in
    :mod:`quasired.cascade`) is memoized on first use with
    ``functools.cache`` on the function that computes it, keyed by what
    determines it (the basis or root index, the subset), and its
    ``cache_info()`` (e.g. ``RootSystem.bracket_row.cache_info()``) reports
    the size. The caches hold ``self``, which is harmless: instances are
    shared via :func:`build_root_system` and never freed.
    """

    def __init__(self, stype: SimpleType):
        self.type = stype
        self.rank = stype.rank
        self.cartan, self.symmetrizer = C, d = _cartan_and_symmetrizer(stype)
        # (alpha_i, alpha_j) = d_j C[i][j] is symmetric: every norm and pairing rests on it
        assert all(d[j] * C[i][j] == d[i] * C[j][i] for i in range(self.rank) for j in range(i))
        pairings = self._generate_positive()
        self.positive_roots: tuple[Root, ...] = tuple(sorted(pairings, key=lambda r: (sum(r), r)))
        # <beta, alpha_i^v> for i = 1..l, per positive root beta in root order
        self._pairings = tuple(tuple(pairings[b]) for b in self.positive_roots)
        # (beta, beta) per positive root beta in root order
        self._norms = tuple(self._form(b, p) for p, b in enumerate(self.positive_roots))
        self.n_pos = len(self.positive_roots)
        self.dim = 2 * self.n_pos + self.rank
        self.pos_index = {r: i for i, r in enumerate(self.positive_roots)}
        # the basis index of x_{-a} at the index of x_a; h_m at its own
        lo, hi = self.n_pos, self.n_pos + self.rank
        self._opp = (*range(hi, self.dim), *range(lo, hi), *range(lo))

    # -- root-level queries -------------------------------------------------

    def simple_root(self, i: int) -> Root:
        """The simple root alpha_i, 1-based; ValueError unless i is an int
        within 1..rank, checked as the one-element subset {i}."""
        (i,) = self.type.checked_subset((i,))
        return tuple(int(j == i) for j in range(1, self.rank + 1))

    def is_root(self, v: Root) -> bool:
        return v in self.pos_index or tuple(-c for c in v) in self.pos_index

    def is_positive(self, v: Root) -> bool:
        return v in self.pos_index

    def negative(self, v: Root) -> Root:
        return tuple(-c for c in v)

    def _form(self, lam: Root, p: int) -> int:
        """(lam, beta) for the positive root beta at index p."""
        return sum(m * d * c for m, d, c in zip(lam, self.symmetrizer, self._pairings[p]))

    def _positive_index(self, a: Root) -> tuple[int, int]:
        """(p, sign) with a = sign * positive_roots[p]; ValueError unless a is a root."""
        k = self.idx_x(a)
        return (k, 1) if k < self.n_pos else (k - self.n_pos - self.rank, -1)

    def norm2(self, a: Root) -> int:
        """(a, a) for a root a."""
        return self._norms[self._positive_index(a)[0]]

    def pairing(self, lam: Root, alpha: Root) -> int:
        """The integer <lam, alpha^v> = lam(h_alpha)."""
        p, sign = self._positive_index(alpha)
        return sign * _exact_div(2 * self._form(lam, p), self._norms[p])

    def root_sum(self, a: Root, b: Root) -> Root | None:
        """a + b when that is again a root, else None; ValueError unless a
        and b are roots."""
        if not (self.is_root(a) and self.is_root(b)):
            raise ValueError("arguments must be roots")
        s = tuple(x + y for x, y in zip(a, b))
        return s if self.is_root(s) else None

    def coroot_coeffs(self, a: Root) -> tuple[int, ...]:
        """h_a expanded over the simple coroots h_1..h_l; h_{-a} = -h_a."""
        p, sign = self._positive_index(a)
        return tuple(sign * c for c in self._coroots()[p])

    @cache
    def _coroots(self) -> tuple[tuple[int, ...], ...]:
        """h_beta = sum_i 2 d_i beta_i / (beta, beta) h_i over h_1..h_l, per
        positive root beta in root order."""
        d = self.symmetrizer
        return tuple(
            tuple(_exact_div(2 * m * di, n) for m, di in zip(b, d))
            for b, n in zip(self.positive_roots, self._norms)
        )

    # -- subsets of simple roots ---------------------------------------------

    def full_subset(self) -> frozenset[int]:
        return _one_to(self.rank)

    def support(self, a: Root) -> frozenset[int]:
        return frozenset(i + 1 for i, c in enumerate(a) if c)

    def components(self, subset) -> tuple[frozenset[int], ...]:
        """Connected components of a subset of simple roots, by least index;
        ValueError unless the subset lies within 1..rank."""
        return self._components(self.type.checked_subset(subset))

    def _components(self, subset: frozenset[int]) -> tuple[frozenset[int], ...]:
        left = set(subset)
        comps = []
        while left:
            seed = min(left)
            comp = {seed}
            frontier = [seed]
            while frontier:
                i = frontier.pop()
                for j in list(left):
                    if j not in comp and self.cartan[i - 1][j - 1] != 0:
                        comp.add(j)
                        frontier.append(j)
            comps.append(frozenset(comp))
            left -= comp
        comps.sort(key=min)
        return tuple(comps)

    def is_connected(self, subset) -> bool:
        return len(self.components(subset)) == 1

    def subsystem_positive(self, subset) -> tuple[Root, ...]:
        """Positive roots supported on the given simple roots; ValueError
        unless the subset lies within 1..rank, checked before the cache sees
        it."""
        return self._subsystem_positive(self.type.checked_subset(subset))

    @cache
    def _subsystem_positive(self, subset: frozenset[int]) -> tuple[Root, ...]:
        outside = [i for i in range(self.rank) if i + 1 not in subset]
        return tuple(r for r in self.positive_roots if not any(r[i] for i in outside))

    def highest_root(self, subset) -> Root:
        """The highest root of the subsystem generated by a connected subset."""
        sub = frozenset(subset)
        if not sub:
            raise ValueError("empty subset has no highest root")
        if not self.is_connected(sub):
            raise ValueError(f"subset {sorted(sub)} is not connected")
        # root order is (height, lex): the highest root comes last, alone at its height
        roots = self.subsystem_positive(sub)
        assert len(roots) == 1 or sum(roots[-2]) < sum(roots[-1])
        return roots[-1]

    # -- root generation ------------------------------------------------------

    def _generate_positive(self) -> dict[Root, list[int]]:
        """Grow the roots by height: b + alpha_i is a root iff p > <b, alpha_i^v>,
        p the length of the alpha_i-string below b (0 unless b[i] > 0). Each root
        carries its pairings; adding alpha_i adds row i of the Cartan matrix.
        Returns every positive root with its pairings."""
        C = self.cartan
        pairings: dict[Root, list[int]] = {
            tuple(int(i == j) for j in range(self.rank)): C[i] for i in range(self.rank)
        }
        layer = list(pairings)
        while layer:
            nxt = []
            for b in layer:
                pb = pairings[b]
                for i, bi in enumerate(b):
                    p = 0
                    while p < bi and b[:i] + (bi - p - 1,) + b[i + 1 :] in pairings:
                        p += 1
                    if p > pb[i]:
                        g = b[:i] + (bi + 1,) + b[i + 1 :]
                        if g not in pairings:
                            pairings[g] = [x + y for x, y in zip(pb, C[i])]
                            nxt.append(g)
            layer = nxt
        return pairings

    # -- structure constants --------------------------------------------------

    @cache
    def _struct_table(self) -> tuple[dict[int, tuple[int, int]], ...]:
        """Every [x_a, x_b] = N_{a,b} x_{a+b} with a + b a root, over basis
        indices: {j: (k, N)} at position i for [e_i, e_j] = N e_k.

        Positive sums g are visited in (height, lex) order. The extraspecial
        pair (a, b) of g (least first root) gets p + 1, p the length of the
        a-string below b, which the lower entries [x_{-a}, x_{b - ka}] walk;
        every other positive pair (al, be) summing to g follows from the
        Jacobi relation on (a, b, -al, -be), whose mixed-sign constants
        belong to lower sums.
        """
        roots, order, opp = self.positive_roots, self.pos_index, self._opp
        nrm = self._norms + (0,) * self.rank + self._norms
        table: tuple[dict[int, tuple[int, int]], ...] = tuple({} for _ in range(self.dim))
        shared: dict[tuple[int, int], tuple[int, int]] = {}  # one tuple per (k, N)

        def put(a: int, b: int, g: int, n: int) -> None:
            # N_{b,a} = N_{-a,-b} = -N_{a,b}; for a + b + c = 0,
            # N_{a,b}/(c,c) = N_{b,c}/(a,a) = N_{c,a}/(b,b)
            c = opp[g]
            for x, y, z, v in (
                (a, b, g, n),
                (b, c, opp[a], _exact_div(n * nrm[a], nrm[g])),
                (c, a, opp[b], _exact_div(n * nrm[b], nrm[g])),
            ):
                for i, j, k in ((x, y, z), (opp[y], opp[x], opp[z])):
                    table[i][j] = shared.setdefault((k, v), (k, v))
                    table[j][i] = shared.setdefault((k, -v), (k, -v))

        for g in range(self.rank, self.n_pos):  # height >= 2
            top = roots[g]
            # a first root a before b = g - a has at most half the height of g
            (a, b), *rest = [
                (a, b)
                for a in range(bisect_right(roots, sum(top) // 2, key=sum))
                if (b := order.get(tuple(map(sub, top, roots[a])), -1)) > a
            ]
            n, t, down = 1, b, table[opp[a]]
            while t in down:  # [x_{-a}, x_t] = N x_{t - a}
                n, t = n + 1, down[t][0]
            put(a, b, g, n)
            for al, be in rest:
                # N_{al,be} N_{a,b} / (g,g) = N_{b,-al} N_{a,-be} / (b-al, b-al)
                #   - N_{a,-al} N_{b,-be} / (a-al, a-al), a term vanishing
                #   (with its norm read as 1) where its difference is not a root
                t1 = t2 = 0
                n1 = n2 = 1
                if e := table[b].get(opp[al]):
                    t1, n1 = e[1] * table[a][opp[be]][1], nrm[e[0]]
                if e := table[a].get(opp[al]):
                    t2, n2 = e[1] * table[b][opp[be]][1], nrm[e[0]]
                put(al, be, g, _exact_div(nrm[g] * (t1 * n2 - t2 * n1), n1 * n2 * n))
        return table

    def struct_const(self, a: Root, b: Root) -> int:
        """[x_a, x_b] = N_{a,b} x_{a+b}; ValueError unless a, b, a + b are roots."""
        e = self._struct_table()[self.idx_x(a)].get(self.idx_x(b))
        if e is None:
            raise ValueError(f"{a} + {b} is not a root")
        return e[1]

    # -- Chevalley basis indexing ----------------------------------------------

    def idx_x(self, a: Root) -> int:
        if (p := self.pos_index.get(a)) is not None:
            return p
        if (p := self.pos_index.get(self.negative(a))) is not None:
            return self.n_pos + self.rank + p
        raise ValueError(f"{a} is not a root")

    def idx_h(self, i: int) -> int:
        """The basis index of h_i; ValueError as for ``simple_root``."""
        (i,) = self.type.checked_subset((i,))
        return self.n_pos + i - 1

    def index_root(self, idx: int) -> Root | None:
        """The root carried by a basis index, or None for a Cartan index."""
        if idx < self.n_pos:
            return self.positive_roots[idx]
        if idx < self.n_pos + self.rank:
            return None
        return self.negative(self.positive_roots[idx - self.n_pos - self.rank])

    def checked_row(self, items) -> Row:
        """The row of the (basis index, value) pairs in items: the values of
        a repeated index summed, zeros dropped, in index order. ValueError
        unless every index is an int within 0..dim-1 and every value an int
        or a Fraction, tested by type: a bool or a float passes a range
        test, and a float is not exact."""
        acc: dict[int, int | Fraction] = {}
        for i, c in items:
            if type(i) is not int or not 0 <= i < self.dim:
                raise ValueError(f"basis index {i!r} not within 0..{self.dim - 1}")
            if type(c) not in _NUMBER:
                raise ValueError(f"value {c!r} at basis index {i} is not an int or a Fraction")
            acc[i] = acc.get(i, 0) + c
        return tuple(sorted((i, c) for i, c in acc.items() if c))

    @cache
    def bracket_row(self, i: int) -> dict[int, tuple[tuple[int, int], ...]]:
        """Every nonzero bracket [e_i, e_j] as {j: ((k, c), ...)} in increasing
        j, with c the integer coefficient of e_k: N_{a,b} from the structure
        table for two roots, h_a for the opposite root, and the Cartan integers
        <b, alpha_m^v> between a root vector and h_m."""
        lo, hi = self.n_pos, self.n_pos + self.rank
        if lo <= i < hi:  # [h_m, x_b] = <b, alpha_m^v> x_b
            cs = [(p, c) for p, pb in enumerate(self._pairings) if (c := pb[i - lo])]
            return {**{p: ((p, c),) for p, c in cs}, **{p + hi: ((p + hi, -c),) for p, c in cs}}
        p, sign = (i, 1) if i < lo else (i - hi, -1)  # x_a with a = sign * beta_p
        row = {j: (e,) for j, e in self._struct_table()[i].items()}
        # [x_a, x_{-a}] = h_a, and [x_a, h_m] = -<a, alpha_m^v> x_a
        h_a = self._coroots()[p]
        row[self._opp[i]] = tuple((lo + k, sign * c) for k, c in enumerate(h_a) if c)
        for m, c in enumerate(self._pairings[p]):
            if c:
                row[lo + m] = ((i, -sign * c),)
        return dict(sorted(row.items()))

    @cache
    def bracket_into(self, k: int) -> tuple[tuple[int, int, int], ...]:
        """Every (i, j, c), in increasing order, with c != 0 the coefficient
        of e_k in [e_i, e_j]: ``bracket_row`` inverted for one target."""
        lo, hi = self.n_pos, self.n_pos + self.rank
        out = []
        if lo <= k < hi:
            # [x_a, x_{-a}] = h_a
            for p, h_a in enumerate(self._coroots()):
                c = h_a[k - lo]
                if c:
                    out += [(p, p + hi, c), (p + hi, p, -c)]
            return tuple(sorted(out))
        p, sign = (k, 1) if k < lo else (k - hi, -1)  # x_g with g = sign * beta_p
        for m, c in enumerate(self._pairings[p]):
            if c:
                out += [(lo + m, k, sign * c), (k, lo + m, -sign * c)]
        # [e_i, e_j] for each [x_{-g}, e_i] = N e_t, with e_j = x_{-t} the opposite of e_t
        table, opp = self._struct_table(), self._opp
        out += [(i, opp[t], table[i][opp[t]][1]) for i, (t, _) in table[opp[k]].items()]
        return tuple(sorted(out))

    @cache
    def killing_row(self, i: int) -> tuple[tuple[int, int], ...]:
        """Every (j, kappa(e_i, e_j)) with a nonzero value: the one opposite
        root index for a root vector, the Cartan block for h_i."""
        lo = self.n_pos
        if lo <= i < lo + self.rank:
            return tuple((lo + j, v) for j, v in enumerate(self._killing_h()[i - lo]) if v)
        j = self._opp[i]
        scale = self._killing_h()[0][0] * self.symmetrizer[0]
        return ((j, _exact_div(scale, self._norms[min(i, j)])),)

    @cache
    def _killing_h(self) -> tuple[tuple[int, ...], ...]:
        """kappa(h_i, h_j) = 2 * sum over beta > 0 of <beta, alpha_i^v><beta, alpha_j^v>."""
        vals = self._pairings
        return tuple(
            tuple(2 * sum(v[i] * v[j] for v in vals) for j in range(self.rank))
            for i in range(self.rank)
        )


@cache
def build_root_system(t: SimpleType) -> RootSystem:
    """Shared immutable root system for a simple type."""
    return RootSystem(t)


# ---------------------------------------------------------------------------
# operations on rows


def killing_coords(r: RootSystem, items) -> dict:
    """kappa(x, .) as {j: kappa(x, e_j)} for x the sum of c e_i over the (i, c)
    in items, in the numbers the c are given in; cancelled entries stay as 0."""
    f: dict = {}
    for i, c in items:
        for j, v in r.killing_row(i):
            f[j] = f.get(j, 0) + c * v
    return f


def bracket_coords(r: RootSystem, xs, ys) -> dict:
    """[x, y] as {k: coefficient of e_k} for x, y the sums of c e_i over the
    (i, c) in xs and in ys (read once per entry of xs); cancelled entries stay 0."""
    acc: dict = {}
    for i, ci in xs:
        row = r.bracket_row(i)
        for j, cj in ys:
            terms = row.get(j)
            if terms:
                cij = ci * cj
                for k, c in terms:
                    acc[k] = acc.get(k, 0) + cij * c
    return acc


def bracket(r: RootSystem, x, y) -> Row:
    """[x, y] of two rows, as a row: bilinear over the Chevalley basis table."""
    x, y = r.checked_row(x), r.checked_row(y)
    return r.checked_row(bracket_coords(r, x, y).items())


def killing(r: RootSystem, x, y):
    """Killing form kappa(x, y) = tr(ad x ad y) of two rows, exactly."""
    x, y = r.checked_row(x), r.checked_row(y)
    f = killing_coords(r, x)
    return sum(c * f.get(k, 0) for k, c in y)


def ad_columns(r: RootSystem, x) -> dict[int, dict]:
    """The nonzero columns {j: {k: entry}} of ad x for a row x, column j
    being [x, e_j]."""
    xs = r.checked_row(x)
    cols = {}
    for j in range(r.dim):
        col = {k: v for k, v in bracket_coords(r, xs, ((j, 1),)).items() if v}
        if col:
            cols[j] = col
    return cols
