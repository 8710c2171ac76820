"""Stabilizers of linear forms and machine-checkable torus certificates.

The stabilizer of the form kappa(u, .) restricted to a subalgebra P is the
kernel of the matrix kappa(u, [P_i, P_j]); everything is computed exactly,
and the form matrix is kept integral. It is built only from the brackets
that land on the support of kappa(u, .), and it splits into blocks, the
connected components of its nonzero pattern. The kernel is the direct sum
of the block kernels. Each block's rref rows vanish outside the block, so
in the union of all of them no row has a nonzero entry in another row's
pivot column; ordered by pivot, the union is therefore the canonical rref
of the whole kernel, the rows one elimination of the full matrix would give.
The abelian and Killing checks run on the same rows as primitive integer
vectors; only the returned rows are Fractions. A torus certificate packages a
coefficient draw whose stabilizer passes three exact checks: its dimension
equals the index, it is abelian, and the Killing form restricted to it is
nondegenerate. For the full stabilizer of a form on a biparabolic these
three imply that every element is semisimple (the argument is in
``_attempt``), so the stabilizer is a torus and witnesses quasi-reductivity;
exhausted draws prove nothing by themselves. ``is_semisimple_element`` stays
as the direct check anyone can run on a single element.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .rootsys import (
    AlgebraElement,
    RootSystem,
    SimpleType,
    ad_columns,
    build_root_system,
    killing_functional,
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


# the zero of every dense row built here; scans skip it by identity before
# falling back to a truth test, which is slow on Fractions
_ZERO = Fraction(0)


@dataclass(frozen=True)
class Subspace:
    """A subspace of the ambient algebra, rows in reduced echelon form."""

    system: RootSystem
    rows: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def elements(self) -> tuple[AlgebraElement, ...]:
        return tuple(
            AlgebraElement(self.system, [(k, c) for k, c in enumerate(row) if c])
            for row in self.rows
        )

    def contains(self, x: AlgebraElement) -> bool:
        return linalg.rank([*self.rows, x.dense()]) == self.dim


def form_stabilizer(P: SubalgebraBasis, u: AlgebraElement) -> Subspace:
    """Stabilizer of the restricted form: all x in span(P) with
    kappa(u, [x, p]) = 0 for every p in P.

    span(P) must be spanned by Chevalley basis vectors, as every biparabolic
    is; the form matrix kappa(u, [e_a, e_b]) is then built over those basis
    indices from ``bracket_into`` on the support of kappa(u, .), scaled to a
    primitive integer functional, which leaves the kernel alone. The matrix
    splits into the connected blocks of its nonzero pattern, and the rref
    kernel of each block is computed on its own, in integers.
    """
    r = P.spec.system()
    if u.system is not r:
        raise ValueError("form element lives over a different root system")
    idx = sorted({k for p in P.elements for k in p.coords})
    if len(idx) != P.dim:
        raise ValueError("span(P) must be spanned by Chevalley basis vectors")
    w = killing_functional(r, u)
    supp = [k for k, v in enumerate(w) if v]
    M: dict[int, dict[int, int]] = {i: {} for i in idx}
    for k, wk in zip(supp, linalg._primitive_int_row([w[k] for k in supp])):
        for i, j, c in r.bracket_into(k):
            if i in M and j in M:
                M[i][j] = M[i].get(j, 0) + wk * c
    seen: set[int] = set()
    by_pivot = {}
    for start in idx:
        if start in seen:
            continue
        seen.add(start)
        block = [start]
        for i in block:  # grows into the connected component of start
            for j, v in M[i].items():
                if v and j not in seen:
                    seen.add(j)
                    block.append(j)
        if len(block) == 2:
            continue  # [[0, a], [-a, 0]] with a != 0: no kernel
        block.sort()
        rows = [[M[i].get(j, 0) for j in block] for i in block]
        for kr, p in zip(*linalg._kernel(rows, len(block))):
            dense = [_ZERO] * r.dim
            for t, v in enumerate(kr):
                if v:
                    dense[block[t]] = Fraction(v, kr[p])
            by_pivot[block[p]] = tuple(dense)
    # ordered by pivot, the block rows are the canonical rref of the kernel
    # (module docstring)
    return Subspace(r, tuple(by_pivot[p] for p in sorted(by_pivot)))


def _int_rows(S: Subspace) -> list[list[tuple[int, int]]]:
    """The rows of S as sparse primitive integer rows of (index, value)."""
    out = []
    for row in S.rows:
        supp = [k for k, v in enumerate(row) if v is not _ZERO and v]
        out.append(list(zip(supp, linalg._primitive_int_row([row[k] for k in supp]))))
    return out


def killing_radical_on(S: Subspace) -> Subspace:
    """The radical of the Killing form restricted to S, i.e. S intersected
    with its Killing orthogonal; zero exactly when the restriction is
    nondegenerate."""
    r = S.system
    rows = _int_rows(S)
    lo, hi = r.n_pos, r.n_pos + r.rank
    gram = []
    for x in rows:
        # kappa(x, .) on the basis: opposite root indices and the Cartan block
        f: dict[int, int] = {}
        for i, c in x:
            opposite = range(lo, hi) if lo <= i < hi else (i + hi if i < lo else i - hi,)
            for j in opposite:
                f[j] = f.get(j, 0) + c * r.killing_basis(i, j)
        gram.append([sum(c * f.get(j, 0) for j, c in y) for y in rows])
    vecs = []
    for kr in linalg._kernel(gram, len(rows))[0]:
        acc: dict[int, int] = {}
        for cj, x in zip(kr, rows):
            if cj:
                for k, v in x:
                    acc[k] = acc.get(k, 0) + cj * v
        # the rows of S and of the kernel are in rref up to one scale each, so
        # the combination is zero in every other radical row's pivot column;
        # dividing by its own pivot entry gives the rref row
        piv = acc[min(k for k, v in acc.items() if v)]
        dense = [_ZERO] * r.dim
        for k, v in acc.items():
            if v:
                dense[k] = Fraction(v, piv)
        vecs.append(tuple(dense))
    return Subspace(r, tuple(vecs))


def is_abelian(S: Subspace) -> bool:
    rows = _int_rows(S)
    r = S.system
    for a, x in enumerate(rows):
        for y in rows[a + 1 :]:
            acc: dict[int, int] = {}
            for i, ci in x:
                for j, cj in y:
                    for k, c in r.bracket_basis(i, j):
                        acc[k] = acc.get(k, 0) + ci * cj * c
            if any(acc.values()):
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
        and fresh.stab.rows == cert.stab.rows
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
    for row in cert.stab.rows:
        parts = [
            f"{k}={v.numerator}/{v.denominator}" for k, v in enumerate(row) if v
        ]
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
    dense_rows = []
    for row in rows:
        dense = [_ZERO] * r.dim
        for part in row.split(","):
            key, _, val = part.partition("=")
            k = int(key)
            if not 0 <= k < r.dim:
                raise ValueError(f"row index {k} out of range 0..{r.dim - 1}")
            dense[k] = _parse_fraction(val)
        dense_rows.append(tuple(dense))
    stab = Subspace(r, tuple(dense_rows))
    return TorusCertificate(spec, cv, stab, None, int(fields.get("trial", 0)))
