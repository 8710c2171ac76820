"""Simple root systems and their Chevalley bases over exact rationals.

Structure constants, pairings, coroot coefficients and Killing values on the
Chevalley basis are all integers and are stored as plain ints. The Killing
values follow in closed form from the roots rather than from a trace:
    kappa(h_i, h_j) = 2 * sum over beta > 0 of <beta, alpha_i^v> <beta, alpha_j^v>,
    kappa(x_a, x_{-a}) = kappa(h_a, h_a) / 2,
and kappa vanishes on every other pair of basis vectors.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .linalg import SparseCols

Root = tuple[int, ...]


def _exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    assert rem == 0
    return q


# Largest classical rank, so that every query ends: at rank 40 a cold cascade,
# index or classify takes about 2 s and a cold one-trial verify on A40 about
# 4 s (CPython 3.11, one core), and the cost grows steeply beyond.
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
        lo, hi = _FAMILY_BOUNDS[self.family]
        if not lo <= self.rank <= hi:
            raise ValueError(f"rank {self.rank} out of range for family {self.family}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


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

    Construction fills the root list eagerly; every other table (norms,
    coroots, subsystems, brackets, Killing values; cascades in
    :mod:`quasired.cascade`) is memoized on first use with
    ``functools.cache`` on the function that computes it, and its
    ``cache_info()`` (e.g. ``RootSystem.bracket_row.cache_info()``) reports
    the size. The caches hold ``self``, which is harmless: instances are
    shared via :func:`build_root_system` and never freed.
    """

    def __init__(self, stype: SimpleType):
        self.type = stype
        self.rank = stype.rank
        self.cartan, self.symmetrizer = _cartan_and_symmetrizer(stype)
        # bilinear form on the root lattice: (alpha_i, alpha_j) = d_j * C[i][j]
        self.bilinear = [
            [self.symmetrizer[j] * self.cartan[i][j] for j in range(self.rank)]
            for i in range(self.rank)
        ]
        for i in range(self.rank):
            for j in range(self.rank):
                assert self.bilinear[i][j] == self.bilinear[j][i]
        pairings = self._generate_positive()
        self.positive_roots: tuple[Root, ...] = tuple(sorted(pairings, key=lambda r: (sum(r), r)))
        # <beta, alpha_i^v> for i = 1..l, per positive root beta in root order
        self._pairings = tuple(tuple(pairings[b]) for b in self.positive_roots)
        self.n_pos = len(self.positive_roots)
        self.dim = 2 * self.n_pos + self.rank
        self.pos_index = {r: i for i, r in enumerate(self.positive_roots)}
        self._pos_set = frozenset(self.positive_roots)

    # -- root-level queries -------------------------------------------------

    def simple_root(self, i: int) -> Root:
        """The simple root alpha_i, 1-based."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"simple root index {i} out of range")
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    def is_root(self, v: Root) -> bool:
        if v in self._pos_set:
            return True
        return tuple(-c for c in v) in self._pos_set

    def is_positive(self, v: Root) -> bool:
        return v in self._pos_set

    def negative(self, v: Root) -> Root:
        return tuple(-c for c in v)

    @staticmethod
    def height(v: Root) -> int:
        return sum(v)

    @cache
    def norm2(self, v: Root) -> int:
        return self.bilinear_value(v, v)

    def bilinear_value(self, u: Root, v: Root) -> int:
        B = self.bilinear
        tot = 0
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    if b:
                        tot += a * b * B[i][j]
        return tot

    def pairing(self, lam: Root, alpha: Root) -> int:
        """The integer <lam, alpha^v> = lam(h_alpha)."""
        if not self.is_root(alpha):
            raise ValueError(f"{alpha} is not a root")
        return _exact_div(2 * self.bilinear_value(lam, alpha), self.norm2(alpha))

    def root_sum(self, a: Root, b: Root) -> Root | None:
        s = tuple(x + y for x, y in zip(a, b))
        return s if self.is_root(s) else None

    @cache
    def coroot_coeffs(self, a: Root) -> tuple[int, ...]:
        """h_a expanded over the simple coroots h_1..h_l; h_{-a} = -h_a."""
        da2 = self.norm2(a)  # = 2 d_a, sign-independent
        return tuple(_exact_div(2 * m * d, da2) for m, d in zip(a, self.symmetrizer))

    # -- subsets of simple roots ---------------------------------------------

    def full_subset(self) -> frozenset[int]:
        return frozenset(range(1, self.rank + 1))

    def support(self, a: Root) -> frozenset[int]:
        return frozenset(i + 1 for i, c in enumerate(a) if c)

    def components(self, subset) -> tuple[frozenset[int], ...]:
        """Connected components of a subset of simple roots, by least index."""
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
        """Positive roots supported on the given simple roots."""
        return self._subsystem_positive(frozenset(subset))

    @cache
    def _subsystem_positive(self, subset: frozenset[int]) -> tuple[Root, ...]:
        return tuple(r for r in self.positive_roots if self.support(r) <= subset)

    def highest_root(self, subset) -> Root:
        """The highest root of the subsystem generated by a connected subset."""
        sub = frozenset(subset)
        if not sub:
            raise ValueError("empty subset has no highest root")
        if not sub <= self.full_subset():
            raise ValueError(f"subset {sorted(sub)} not within 1..{self.rank}")
        if not self.is_connected(sub):
            raise ValueError(f"subset {sorted(sub)} is not connected")
        roots = self.subsystem_positive(sub)
        top = max(self.height(r) for r in roots)
        tops = [r for r in roots if self.height(r) == top]
        assert len(tops) == 1
        return tops[0]

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

    def _string_p(self, a: Root, b: Root) -> int:
        p = 0
        cur = tuple(x - y for x, y in zip(b, a))
        while self.is_root(cur):
            p += 1
            cur = tuple(x - y for x, y in zip(cur, a))
        return p

    @cache
    def _struct_table(self) -> tuple[dict[int, int], ...]:
        """N_{a,b} for every ordered pair of roots a, b whose sum is a root,
        as {idx_x(b): N_{a,b}} at position idx_x(a).

        Positive sums g are visited in (height, lex) order. The extraspecial
        pair of g (least first root) gets p + 1; every other positive pair
        (al, be) summing to g follows from the Jacobi relation on
        (a, b, -al, -be), whose mixed-sign constants belong to lower sums.
        """
        table: tuple[dict[int, int], ...] = tuple({} for _ in range(self.dim))
        idx, neg, norm2, order = self.idx_x, self.negative, self.norm2, self.pos_index

        def N(x: Root, y: Root) -> int:
            return table[idx(x)].get(idx(y), 0)

        def put(a: Root, b: Root, n: int) -> None:
            # N_{b,a} = N_{-a,-b} = -N_{a,b}; for a + b + c = 0,
            # N_{a,b}/(c,c) = N_{b,c}/(a,a) = N_{c,a}/(b,b)
            c = neg(tuple(x + y for x, y in zip(a, b)))
            cc = norm2(c)
            for x, y, v in (
                (a, b, n),
                (b, c, _exact_div(n * norm2(a), cc)),
                (c, a, _exact_div(n * norm2(b), cc)),
            ):
                i, j, mi, mj = idx(x), idx(y), idx(neg(x)), idx(neg(y))
                table[i][j] = table[mj][mi] = v
                table[j][i] = table[mi][mj] = -v

        for g in self.positive_roots[self.rank :]:  # height >= 2
            pairs = []
            for a in self.positive_roots[: order[g]]:
                b = tuple(x - y for x, y in zip(g, a))
                if order.get(b, -1) > order[a]:
                    pairs.append((a, b))
            (a, b), *rest = pairs
            put(a, b, self._string_p(a, b) + 1)
            for al, be in rest:
                # N_{al,be} N_{a,b} / (g,g) = N_{b,-al} N_{a,-be} / (b-al, b-al)
                #   - N_{a,-al} N_{b,-be} / (a-al, a-al), a term vanishing
                #   where its difference is not a root
                t1 = N(b, neg(al)) * N(a, neg(be))
                t2 = N(a, neg(al)) * N(b, neg(be))
                n1 = norm2(tuple(x - y for x, y in zip(b, al)))
                n2 = norm2(tuple(x - y for x, y in zip(a, al)))
                num = norm2(g) * (t1 * n2 - t2 * n1)
                put(al, be, _exact_div(num, n1 * n2 * N(a, b)))
        return table

    def struct_const(self, a: Root, b: Root) -> int:
        """[x_a, x_b] = N_{a,b} x_{a+b}; ValueError unless a, b, a + b are roots."""
        n = self._struct_table()[self.idx_x(a)].get(self.idx_x(b))
        if n is None:
            raise ValueError(f"{a} + {b} is not a root")
        return n

    # -- Chevalley basis indexing ----------------------------------------------

    def idx_x(self, a: Root) -> int:
        if a in self._pos_set:
            return self.pos_index[a]
        na = self.negative(a)
        if na in self._pos_set:
            return self.n_pos + self.rank + self.pos_index[na]
        raise ValueError(f"{a} is not a root")

    def idx_h(self, i: int) -> int:
        if not 1 <= i <= self.rank:
            raise ValueError(f"coroot index {i} out of range")
        return self.n_pos + i - 1

    def index_root(self, idx: int) -> Root | None:
        """The root carried by a basis index, or None for a Cartan index."""
        if idx < self.n_pos:
            return self.positive_roots[idx]
        if idx < self.n_pos + self.rank:
            return None
        return self.negative(self.positive_roots[idx - self.n_pos - self.rank])

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
        a = self.index_root(i)
        # x_a with a = sign * beta_p; x_{-a} has index opp
        p, sign, opp = (i, 1, i + hi) if i < lo else (i - hi, -1, i - hi)
        row = {
            j: ((self.idx_x(tuple(x + y for x, y in zip(a, self.index_root(j)))), n),)
            for j, n in self._struct_table()[i].items()
        }
        # [x_a, x_{-a}] = h_a, and [x_a, h_m] = -<a, alpha_m^v> x_a
        row[opp] = tuple((lo + k, c) for k, c in enumerate(self.coroot_coeffs(a)) if c)
        for m, c in enumerate(self._pairings[p]):
            if c:
                row[lo + m] = ((i, -sign * c),)
        return dict(sorted(row.items()))

    def bracket_basis(self, i: int, j: int) -> tuple[tuple[int, int], ...]:
        """Sparse bracket of two basis vectors, with integer coefficients."""
        return self.bracket_row(i).get(j, ())

    @cache
    def bracket_into(self, k: int) -> tuple[tuple[int, int, int], ...]:
        """Every (i, j, c), in increasing order, with c != 0 the coefficient
        of e_k in [e_i, e_j]: ``bracket_basis`` inverted for one target."""
        lo, hi = self.n_pos, self.n_pos + self.rank
        out = []
        g = self.index_root(k)
        if g is None:
            # [x_a, x_{-a}] = h_a
            for p, a in enumerate(self.positive_roots):
                c = self.coroot_coeffs(a)[k - lo]
                if c:
                    out += [(p, p + hi, c), (p + hi, p, -c)]
            return tuple(sorted(out))
        p, sign = (k, 1) if k < lo else (k - hi, -1)  # g = sign * beta_p
        for m, c in enumerate(self._pairings[p]):
            if c:
                out += [(lo + m, k, sign * c), (k, lo + m, -sign * c)]
        table = self._struct_table()
        for i in [*range(lo), *range(hi, self.dim)]:
            b = tuple(x - y for x, y in zip(g, self.index_root(i)))
            if self.is_root(b):
                j = self.idx_x(b)
                out.append((i, j, table[i][j]))
        return tuple(sorted(out))

    @cache
    def killing_row(self, i: int) -> tuple[tuple[int, int], ...]:
        """Every (j, kappa(e_i, e_j)) with a nonzero value: the one opposite
        root index for a root vector, the Cartan block for h_i."""
        lo, hi = self.n_pos, self.n_pos + self.rank
        if lo <= i < hi:
            return tuple((lo + j, v) for j, v in enumerate(self._killing_h()[i - lo]) if v)
        j = i + hi if i < lo else i - hi
        return ((j, self._killing_root(self.positive_roots[min(i, j)])),)

    @cache
    def _killing_h(self) -> tuple[tuple[int, ...], ...]:
        """kappa(h_i, h_j) = 2 * sum over beta > 0 of <beta, alpha_i^v><beta, alpha_j^v>."""
        vals = self._pairings
        return tuple(
            tuple(2 * sum(v[i] * v[j] for v in vals) for j in range(self.rank))
            for i in range(self.rank)
        )

    @cache
    def _killing_root(self, a: Root) -> int:
        """kappa(x_a, x_{-a}) = kappa(h_a, h_a) / 2 for a positive root a."""
        K = self._killing_h()
        co = self.coroot_coeffs(a)
        h2 = sum(ci * cj * K[i][j] for i, ci in enumerate(co) for j, cj in enumerate(co))
        assert h2 % 2 == 0
        return h2 // 2


@cache
def build_root_system(t: SimpleType) -> RootSystem:
    """Shared immutable root system for a simple type."""
    return RootSystem(t)


# ---------------------------------------------------------------------------
# elements of the Lie algebra


class AlgebraElement:
    """Sparse exact-rational vector over the Chevalley basis."""

    __slots__ = ("system", "coords")

    def __init__(self, system: RootSystem, coords=()):
        items = coords.items() if isinstance(coords, dict) else coords
        acc: dict[int, Fraction] = {}
        for i, c in items:
            if type(c) is not Fraction:
                c = Fraction(c)
            if not c:
                continue
            if i in acc:
                c += acc[i]
                if not c:
                    del acc[i]
                    continue
            acc[i] = c
        self.system = system
        self.coords = acc

    def __bool__(self) -> bool:
        return bool(self.coords)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.system is other.system
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((id(self.system), tuple(sorted(self.coords.items()))))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.system is not other.system:
            raise ValueError("elements live over different root systems")
        return AlgebraElement(self.system, [*self.coords.items(), *other.coords.items()])

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.system, {i: -c for i, c in self.coords.items()})

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __mul__(self, scalar) -> "AlgebraElement":
        s = Fraction(scalar)
        return AlgebraElement(self.system, {i: c * s for i, c in self.coords.items()})

    __rmul__ = __mul__

    def get(self, i: int) -> Fraction:
        return self.coords.get(i, Fraction(0))

    def dense(self) -> list[Fraction]:
        v = [Fraction(0)] * self.system.dim
        for i, c in self.coords.items():
            v[i] = c
        return v

    def __repr__(self) -> str:
        rs = self.system
        parts = []
        for i in sorted(self.coords):
            c = self.coords[i]
            r = rs.index_root(i)
            if r is None:
                parts.append(f"{c}*h{i - rs.n_pos + 1}")
            else:
                parts.append(f"{c}*x{r}")
        return " + ".join(parts) if parts else "0"


def x_vector(r: RootSystem, a: Root) -> AlgebraElement:
    """The Chevalley generator x_a."""
    return AlgebraElement(r, [(r.idx_x(a), Fraction(1))])


def h_vector(r: RootSystem, i: int) -> AlgebraElement:
    """The simple coroot h_i."""
    return AlgebraElement(r, [(r.idx_h(i), Fraction(1))])


def h_of_root(r: RootSystem, a: Root) -> AlgebraElement:
    """The coroot h_a = [x_a, x_{-a}] as an element."""
    return AlgebraElement(
        r,
        [(r.idx_h(k + 1), Fraction(c)) for k, c in enumerate(r.coroot_coeffs(a))],
    )


# ---------------------------------------------------------------------------
# spec-level operations


def root_sum(r: RootSystem, a: Root, b: Root) -> Root | None:
    """a + b when that is again a root, else None."""
    if not (r.is_root(a) and r.is_root(b)):
        raise ValueError("arguments must be roots")
    return r.root_sum(a, b)


def pairing(r: RootSystem, lam: Root, alpha: Root) -> int:
    return r.pairing(lam, alpha)


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


def bracket(r: RootSystem, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Lie bracket, extended bilinearly from the Chevalley basis table."""
    if x.system is not r or y.system is not r:
        raise ValueError("elements do not belong to the given root system")
    return AlgebraElement(r, bracket_coords(r, x.coords.items(), y.coords.items()))


def killing_functional(r: RootSystem, u: AlgebraElement) -> list:
    """Dense vector w with w[k] = kappa(u, e_k); untouched entries are int 0."""
    w: list = [0] * r.dim
    for j, v in killing_coords(r, u.coords.items()).items():
        w[j] = v
    return w


def killing(r: RootSystem, x: AlgebraElement, y: AlgebraElement) -> Fraction:
    """Killing form kappa(x, y) = tr(ad x ad y), exactly."""
    if x.system is not r or y.system is not r:
        raise ValueError("elements do not belong to the given root system")
    f = killing_coords(r, x.coords.items())
    return sum((c * f.get(k, 0) for k, c in y.coords.items()), Fraction(0))


def ad_columns(r: RootSystem, x: AlgebraElement) -> SparseCols:
    """Sparse column map of ad x."""
    xs = x.coords.items()
    cols: SparseCols = {}
    for j in range(r.dim):
        ent = [(k, v) for k, v in sorted(bracket_coords(r, xs, ((j, 1),)).items()) if v]
        if ent:
            cols[j] = ent
    return cols


def highest_root(r: RootSystem, subset) -> Root:
    return r.highest_root(subset)
