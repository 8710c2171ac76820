"""Stabilizers of linear forms and machine-checkable torus certificates.

The stabilizer of the form kappa(u, .) restricted to a subalgebra P is the
kernel of the matrix kappa(u, [P_i, P_j]); everything is computed exactly,
and the form matrix is kept integral. A torus certificate packages a
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
    bracket,
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


def subspace_from_vectors(r: RootSystem, vectors) -> Subspace:
    rows, _ = linalg.rref([list(v) for v in vectors])
    return Subspace(r, tuple(tuple(row) for row in rows))


def form_stabilizer(P: SubalgebraBasis, u: AlgebraElement) -> Subspace:
    """Stabilizer of the restricted form: all x in span(P) with
    kappa(u, [x, p]) = 0 for every p in P.

    span(P) must be spanned by Chevalley basis vectors, as every biparabolic
    is; the form matrix kappa(u, [e_a, e_b]) is then built over those basis
    indices straight from the integer structure constants. kappa(u, .) is
    scaled to a primitive integer functional, which leaves the kernel alone.
    """
    r = P.spec.system()
    if u.system is not r:
        raise ValueError("form element lives over a different root system")
    idx = sorted({k for p in P.elements for k in p.coords})
    if len(idx) != P.dim:
        raise ValueError("span(P) must be spanned by Chevalley basis vectors")
    w = linalg._primitive_int_row(killing_functional(r, u))
    n = len(idx)
    M = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            val = 0
            for k, c in r.bracket_basis(idx[a], idx[b]):
                val += c * w[k]
            if val:
                M[a][b] = val
                M[b][a] = -val
    vecs = []
    for c in linalg.nullspace(M, n):
        dense = [Fraction(0)] * r.dim
        for k, v in zip(idx, c):
            dense[k] = v
        vecs.append(tuple(dense))
    # rref rows placed on increasing indices are still in rref
    return Subspace(r, tuple(vecs))


def killing_radical_on(S: Subspace) -> Subspace:
    """The radical of the Killing form restricted to S, i.e. S intersected
    with its Killing orthogonal; zero exactly when the restriction is
    nondegenerate."""
    r = S.system
    els = S.elements()
    n = len(els)
    # one functional kappa(s_i, .) per basis element, dotted with every element
    gram = []
    for x in els:
        w = killing_functional(r, x)
        gram.append([sum(w[k] * c for k, c in y.coords.items()) for y in els])
    kernel = linalg.nullspace(gram, n)
    vecs = []
    for c in kernel:
        dense = [Fraction(0)] * r.dim
        for cj, x in zip(c, els):
            if cj:
                for k, v in x.coords.items():
                    dense[k] += cj * v
        vecs.append(tuple(dense))
    # rref combinations (the kernel basis) of rref rows (those of S) are in rref
    return Subspace(r, tuple(vecs))


def is_abelian(S: Subspace) -> bool:
    els = S.elements()
    r = S.system
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            if bracket(r, els[i], els[j]):
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


def _attempt(spec: BiparabolicSpec, cv: CoefficientVector, trial: int):
    """Run the three certificate checks on the stabilizer S of one draw.

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
    u = build_u(spec, cv)
    P = biparabolic_basis(spec)
    S = form_stabilizer(P, u)
    if S.dim != seaweed_index(spec):
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
    rng = random.Random(seed)
    for t in range(trials):
        cv = sample_cv(spec, rng)
        cert, _ = _attempt(spec, cv, t)
        if cert is not None:
            return cert
    return None


def reverify_certificate(cert: TorusCertificate) -> bool:
    """Recompute the stabilizer from (spec, cv) and re-run the three checks."""
    fresh, checks = _attempt(cert.spec, cert.cv, cert.trial)
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
        dense = [Fraction(0)] * r.dim
        for part in row.split(","):
            key, _, val = part.partition("=")
            k = int(key)
            if not 0 <= k < r.dim:
                raise ValueError(f"row index {k} out of range 0..{r.dim - 1}")
            dense[k] = _parse_fraction(val)
        dense_rows.append(tuple(dense))
    stab = Subspace(r, tuple(dense_rows))
    return TorusCertificate(spec, cv, stab, None, int(fields.get("trial", 0)))
