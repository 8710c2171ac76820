"""Stabilizers of linear forms and machine-checkable torus certificates.

The stabilizer of the form kappa(u, .) restricted to a subalgebra P is the
kernel of the matrix kappa(u, [P_i, P_j]); everything is computed exactly,
in integers. kappa(u, .) is scaled to a primitive integer functional w, and
the matrix is sum_k w_k C_k with C_k the integer constants of
``bracket_into(k)``. Its nonzero pattern depends only on the support of w,
and in a certificate search that support is fixed by the spec: every entry
is one w_k = (coefficient) * kappa(x_eps, x_-eps) times a constant, never 0.
So the pattern is compiled once per search, on the first trial: the blocks
(the connected components of the pattern), their cells and a sparse pivot
order for each. Later trials multiply their weights into the cells and
eliminate each block in that order. Any pivot order is exact, because a
pivot that is 0 for some draw is replaced and each block's kernel basis is
re-reduced to its canonical rref; ``rank`` and ``rref`` keep the dense loop.
The kernel is the direct sum of the block kernels. Each block's rref rows
vanish outside the block, so in the union of all of them no row has a
nonzero entry in another row's pivot column; ordered by pivot, the union is
therefore the canonical rref of the whole kernel, the rows one elimination
of the full matrix would give. A ``Subspace`` stores only these rows, as
sparse primitive integer rows with positive leading entries, which makes
them canonical. The abelian and Killing checks and the comparison in
``reverify_certificate`` run on them, and they stay integers until a
certificate prints each entry divided by its row's leading entry. A parsed
row must start with 1/1, so it equals exactly the row that was printed.

A torus certificate packages a coefficient draw whose stabilizer passes
three exact checks: its dimension equals the index, it is abelian, and the
Killing form restricted to it is nondegenerate. For the full stabilizer of a
form on a biparabolic these three imply that every element is semisimple
(the argument is in ``_attempt``), so the stabilizer is a torus and
witnesses quasi-reductivity; exhausted draws prove nothing by themselves.
``is_semisimple_element`` stays as the direct check anyone can run on a
single element.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import linalg
from .rootsys import (
    AlgebraElement,
    RootSystem,
    SimpleType,
    ad_columns,
    bracket_coords,
    build_root_system,
    killing_coords,
)
from .seaweed import (
    BiparabolicSpec,
    CoefficientVector,
    SubalgebraBasis,
    biparabolic_basis,
    build_u,
    sample_cv,
    seaweed_index,
)


def _sparse_int_row(entries) -> tuple[tuple[int, int], ...]:
    """Rational (index, value) pairs in index order, not all zero, as a
    sparse primitive integer row with a positive leading entry, zeros
    dropped."""
    nz = [(k, v) for k, v in entries if v]
    ints = linalg._primitive_int_row([v for _, v in nz])
    if ints[0] < 0:
        ints = [-v for v in ints]
    return tuple(zip([k for k, _ in nz], ints))


class Subspace:
    """A subspace of the ambient algebra, by its reduced echelon basis.

    ``int_rows`` are sparse primitive integer rows of (index, value) in index
    order, each with a positive leading entry; dividing a row by that entry
    gives a row of the canonical rref, so equal subspaces have equal rows.
    ``rows`` and ``elements()`` build the rational views on each call.
    """

    __slots__ = ("system", "int_rows")

    def __init__(self, system: RootSystem, int_rows) -> None:
        self.system = system
        self.int_rows = int_rows

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The canonical rref rows as dense Fraction rows."""
        return tuple(tuple(e.dense()) for e in self.elements())

    @property
    def dim(self) -> int:
        return len(self.int_rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.system is other.system
            and self.int_rows == other.int_rows
        )

    def __hash__(self) -> int:
        return hash((id(self.system), self.int_rows))

    def __repr__(self) -> str:
        return f"Subspace({self.system.type}, dim={self.dim})"

    def elements(self) -> tuple[AlgebraElement, ...]:
        return tuple(
            AlgebraElement(self.system, [(k, Fraction(v, x[0][1])) for k, v in x])
            for x in self.int_rows
        )

    def contains(self, x: AlgebraElement) -> bool:
        return linalg.rank([*self.rows, x.dense()]) == self.dim


@dataclass
class _Block:
    """One connected block of a form pattern: its sorted basis indices, its
    cells above the diagonal as (row, column, weight index, constant), whose
    entry is weight * constant (and minus that below the diagonal), cells
    with several terms as (row, column, ((weight index, constant), ...)),
    and the pivots the first elimination took."""

    idx: tuple[int, ...]
    cells: list[tuple[int, int, int, int]]
    sums: list[tuple[int, int, tuple[tuple[int, int], ...]]]
    order: list[tuple[int, int]] | None = None

    def kernel(self, w: dict[int, int]) -> list[tuple[tuple[int, int], ...]]:
        """The kernel rows of the block under the weights w, as sparse
        primitive integer rows over basis indices with positive leading
        entries."""
        rows: list[dict[int, int]] = [{} for _ in self.idx]
        for a, b, k, c in self.cells:
            v = w[k] * c
            rows[a][b] = v
            rows[b][a] = -v
        for a, b, terms in self.sums:
            v = sum(w[k] * c for k, c in terms)
            if v:
                rows[a][b] = v
                rows[b][a] = -v
        red, pivots, taken = linalg._kernel(rows, len(self.idx), self.order or ())
        if self.order is None:
            self.order = taken
        idx = self.idx
        return [
            tuple((idx[t], v if kr[p] > 0 else -v) for t, v in enumerate(kr) if v)
            for kr, p in zip(red, pivots)
        ]


@dataclass
class _FormPattern:
    """The form matrix kappa(u, [e_a, e_b]) over the basis of P for every u
    whose functional kappa(u, .) has the given support: the rows of indices
    in no cell, which lie in every kernel, and the blocks left to eliminate."""

    support: tuple[int, ...]
    fixed: list[tuple[tuple[int, int], ...]]
    blocks: list[_Block]


def _form_pattern(P: SubalgebraBasis, support: tuple[int, ...]) -> _FormPattern:
    r = P.spec.system()
    idx = sorted({k for p in P.elements for k in p.coords})
    # span(P) lies in the span of the e_idx, so it is that span exactly when
    # the elements are independent; single basis vectors on distinct indices are
    if len(idx) != P.dim or (
        any(len(p.coords) != 1 for p in P.elements)
        and linalg.rank([p.dense() for p in P.elements]) != P.dim
    ):
        raise ValueError("span(P) must be spanned by Chevalley basis vectors")
    # terms[i][j]: the (k, c) with c the e_k coefficient of [e_i, e_j]; the
    # pattern is symmetric, as kappa(u, [e_j, e_i]) = -kappa(u, [e_i, e_j])
    terms: dict[int, dict[int, list[tuple[int, int]]]] = {i: {} for i in idx}
    for k in support:
        for i, j, c in r.bracket_into(k):
            if i in terms and j in terms:
                terms[i].setdefault(j, []).append((k, c))
    fixed, blocks = [], []
    seen: set[int] = set()
    for start in idx:
        if start in seen:
            continue
        seen.add(start)
        block = [start]
        for i in block:  # grows into the connected component of start
            for j in terms[i]:
                if j not in seen:
                    seen.add(j)
                    block.append(j)
        block.sort()
        local = {i: t for t, i in enumerate(block)}
        cells, sums = [], []
        for i in block:
            for j, ts in terms[i].items():
                if i > j:
                    continue
                if len(ts) == 1:
                    cells.append((local[i], local[j], *ts[0]))
                else:
                    sums.append((local[i], local[j], tuple(ts)))
        if not cells and not sums:
            fixed.append(((start, 1),))
        elif len(block) == 2 and not sums:
            continue  # [[0, a], [-a, 0]] with a = w_k * c != 0: no kernel
        else:
            blocks.append(_Block(tuple(block), cells, sums))
    return _FormPattern(support, fixed, blocks)


def form_stabilizer(P: SubalgebraBasis, u: AlgebraElement) -> Subspace:
    """Stabilizer of the restricted form: all x in span(P) with
    kappa(u, [x, p]) = 0 for every p in P.

    span(P) must be spanned by Chevalley basis vectors, as every biparabolic
    is. The form pattern (module docstring) is compiled for the support of
    kappa(u, .) and kept in ``P.form_pattern`` until a call with another
    support replaces it.
    """
    r = P.spec.system()
    if u.system is not r:
        raise ValueError("form element lives over a different root system")
    den = lcm(*[c.denominator for c in u.coords.values()])
    f = killing_coords(  # den * kappa(u, .) on the basis, in ints
        r, [(i, c.numerator * (den // c.denominator)) for i, c in u.coords.items()]
    )
    g = gcd(*f.values())
    w = {j: f[j] // g for j in sorted(f) if f[j]}
    support = tuple(w)
    pattern = P.form_pattern
    if pattern is None or pattern.support != support:
        pattern = _form_pattern(P, support)
        object.__setattr__(P, "form_pattern", pattern)
    rows = list(pattern.fixed)
    for block in pattern.blocks:
        rows += block.kernel(w)
    # ordered by pivot, the block rows are the canonical rref of the kernel
    # (module docstring)
    rows.sort()
    return Subspace(r, tuple(rows))


def killing_radical_on(S: Subspace) -> Subspace:
    """The radical of the Killing form restricted to S, i.e. S intersected
    with its Killing orthogonal; zero exactly when the restriction is
    nondegenerate."""
    r = S.system
    rows = S.int_rows
    gram = []
    for x in rows:
        f = killing_coords(r, x)
        gram.append(
            {b: v for b, y in enumerate(rows) if (v := sum(c * f.get(j, 0) for j, c in y))}
        )
    vecs = []
    for kr in linalg._kernel(gram, len(rows))[0]:
        acc: dict[int, int] = {}
        for cj, x in zip(kr, rows):
            if cj:
                for k, v in x:
                    acc[k] = acc.get(k, 0) + cj * v
        # the rows of S and of the kernel are in rref up to one scale each, so
        # the combination is zero in every other radical row's pivot column;
        # its leading entry is its pivot
        vecs.append(_sparse_int_row(sorted(acc.items())))
    return Subspace(r, tuple(vecs))


def is_abelian(S: Subspace) -> bool:
    rows = S.int_rows
    r = S.system
    for a, x in enumerate(rows):
        for y in rows[a + 1 :]:
            if any(bracket_coords(r, x, y).values()):
                return False
    return True


def is_semisimple_element(x: AlgebraElement) -> bool:
    """Whether x is a semisimple element of its algebra.

    Uses the exact kernel criterion: ad x is semisimple iff
    ker(ad x) = ker((ad x)^2). Equivalent to the minimal polynomial of ad x
    being squarefree, but much cheaper on large types; the two routes are
    cross-checked in the test suite.
    """
    if not x:
        return True
    r = x.system
    return linalg.kernel_stabilizes(ad_columns(r, x), r.dim)


@dataclass(frozen=True)
class CertChecks:
    dim_equals_index: bool
    abelian: bool
    killing_nondegenerate: bool

    @property
    def all_true(self) -> bool:
        return self.dim_equals_index and self.abelian and self.killing_nondegenerate


@dataclass(frozen=True)
class TorusCertificate:
    """Self-contained witness of quasi-reductivity for one coefficient draw.

    ``checks`` is None on a certificate parsed from text: it stays unverified
    until ``reverify_certificate`` has recomputed it.
    """

    spec: BiparabolicSpec
    cv: CoefficientVector
    stab: Subspace
    checks: CertChecks | None
    trial: int


def _attempt(
    spec: BiparabolicSpec,
    cv: CoefficientVector,
    trial: int,
    P: SubalgebraBasis,
    index: int,
):
    """Run the three certificate checks on the stabilizer S of one draw;
    P and index are ``biparabolic_basis`` and ``seaweed_index`` of spec.

    The checks are dim S == index, S abelian, and a nondegenerate Killing
    restriction to S. They imply that every element of S is semisimple, so
    S is a torus, under one hypothesis: S is the full stabilizer q^lambda
    that ``form_stabilizer`` returns for the biparabolic q.

    * q^lambda is the Lie algebra of the algebraic stabilizer Q^lambda
      (characteristic 0), so it contains the semisimple and the nilpotent
      Jordan part of each of its elements (Humphreys, Linear Algebraic
      Groups, section 15).
    * In an abelian S, the nilpotent part n of any x in S commutes with all
      of S. So ad n ad y is nilpotent and kappa(n, y) = 0 for every y in S.
    * That puts n in the Killing radical of S, which the third check proved
      to be 0; hence x is semisimple.
    """
    S = form_stabilizer(P, build_u(spec, cv))
    if S.dim != index:
        return None, CertChecks(False, False, False)
    if not is_abelian(S):
        return None, CertChecks(True, False, False)
    if killing_radical_on(S).dim != 0:
        return None, CertChecks(True, True, False)
    checks = CertChecks(True, True, True)
    return TorusCertificate(spec, cv, S, checks, trial), checks


def certify_quasi_reductive(
    spec: BiparabolicSpec, trials: int = 20, seed: int = 0
) -> TorusCertificate | None:
    """Search seeded random coefficient draws for a torus certificate.

    A returned certificate proves quasi-reductivity; exhausting the trials
    proves nothing and is reported as None.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    P, index = biparabolic_basis(spec), seaweed_index(spec)
    rng = random.Random(seed)
    for t in range(trials):
        cv = sample_cv(spec, rng)
        cert, _ = _attempt(spec, cv, t, P, index)
        if cert is not None:
            return cert
    return None


def reverify_certificate(cert: TorusCertificate) -> bool:
    """Recompute the stabilizer from (spec, cv) and re-run the three checks."""
    spec = cert.spec
    fresh, checks = _attempt(
        spec, cert.cv, cert.trial, biparabolic_basis(spec), seaweed_index(spec)
    )
    return (
        fresh is not None
        and checks.all_true
        and fresh.stab == cert.stab
    )


# ---------------------------------------------------------------------------
# canonical text serialization


def _subset_text(s) -> str:
    return ",".join(str(i) for i in sorted(s)) if s else "-"


def _parse_subset(txt: str) -> frozenset[int]:
    txt = txt.strip()
    if txt in ("", "-"):
        return frozenset()
    return frozenset(int(p) for p in txt.split(","))


def certificate_to_text(cert: TorusCertificate) -> str:
    lines = ["quasired certificate v1"]
    lines.append(f"type: {cert.spec.ambient.family}{cert.spec.ambient.rank}")
    lines.append(f"pi1: {_subset_text(cert.spec.pi1)}")
    lines.append(f"pi2: {_subset_text(cert.spec.pi2)}")
    for name, entries in (("a", cert.cv.a), ("b", cert.cv.b)):
        parts = [
            f"{'+'.join(str(i) for i in sorted(k))}={v.numerator}/{v.denominator}"
            for k, v in entries
        ]
        lines.append(f"{name}: " + "; ".join(parts))
    lines.append(f"stabilizer-dim: {cert.stab.dim}")
    lines.append(f"trial: {cert.trial}")
    for x in cert.stab.int_rows:
        # each entry divided by the positive leading entry, in lowest terms
        lead = x[0][1]
        parts = []
        for k, v in x:
            g = gcd(v, lead)
            parts.append(f"{k}={v // g}/{lead // g}")
        lines.append("row: " + ",".join(parts))
    return "\n".join(lines) + "\n"


def _parse_fraction(txt: str) -> Fraction:
    num, _, den = txt.partition("/")
    if int(den) == 0:
        raise ValueError(f"zero denominator in {txt!r}")
    return Fraction(int(num), int(den))


def certificate_from_text(text: str) -> TorusCertificate:
    """Parse the canonical text form; malformed text raises ValueError."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines or lines[0].strip() != "quasired certificate v1":
        raise ValueError("unrecognized certificate header")
    fields = {}
    rows = []
    for line in lines[1:]:
        key, _, val = line.partition(":")
        key = key.strip()
        if key == "row":
            rows.append(val.strip())
        else:
            fields[key] = val.strip()
    missing = {"type", "pi1", "pi2"} - fields.keys()
    if missing:
        raise ValueError(f"missing certificate fields {sorted(missing)}")
    m = re.fullmatch(r"([A-G])(\d+)", fields["type"])
    if not m:
        raise ValueError(f"bad type field {fields['type']!r}")
    stype = SimpleType(m.group(1), int(m.group(2)))
    spec = BiparabolicSpec(
        stype, _parse_subset(fields["pi1"]), _parse_subset(fields["pi2"])
    )

    def parse_coeffs(txt):
        out = {}
        if not txt:
            return out
        for part in txt.split(";"):
            part = part.strip()
            if not part:
                continue
            key, _, val = part.partition("=")
            sup = frozenset(int(p) for p in key.split("+"))
            out[sup] = _parse_fraction(val)
        return out

    cv = CoefficientVector.from_maps(
        parse_coeffs(fields.get("a", "")), parse_coeffs(fields.get("b", ""))
    )
    r = build_root_system(stype)
    int_rows = []
    for row in rows:
        entries = {}
        for part in row.split(","):
            key, _, val = part.partition("=")
            k = int(key)
            if not 0 <= k < r.dim:
                raise ValueError(f"row index {k} out of range 0..{r.dim - 1}")
            if k in entries:
                raise ValueError(f"row index {k} repeated in {row!r}")
            entries[k] = _parse_fraction(val)
        nz = sorted((k, v) for k, v in entries.items() if v)
        # a printed row is an rref row: its first nonzero entry is 1/1
        if not nz or nz[0][1] != 1:
            raise ValueError(f"row {row!r} does not start with 1/1")
        int_rows.append(_sparse_int_row(nz))
    if int(fields.get("stabilizer-dim", len(rows))) != len(rows):
        raise ValueError(f"stabilizer-dim {fields['stabilizer-dim']} over {len(rows)} rows")
    stab = Subspace(r, tuple(int_rows))
    return TorusCertificate(spec, cv, stab, None, int(fields.get("trial", 0)))
