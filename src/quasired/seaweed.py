"""Standard biparabolic (seaweed) subalgebras and their special elements.

The standard biparabolic of a pair (pi1, pi2) of subsets of simple roots is
spanned by the positive root vectors of pi2, the whole Cartan, and the
negative root vectors of pi1; the parabolic attached to a subset pi' is the
case (pi1, pi2) = (pi', full). Its index is evaluated from the exact rank of
the stacked cascade eps vectors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .cascade import Subset, _cascade, half_difference_roots, kostant_cascade, tilde_pi
from .rootsys import (
    AlgebraElement,
    Root,
    RootSystem,
    SimpleType,
    _one_to,
    build_root_system,
    killing_coords,
    x_vector,
)


@dataclass(frozen=True)
class BiparabolicSpec:
    """A standard biparabolic q(pi1, pi2) inside a fixed simple type.

    ``pi1`` and ``pi2`` are checked once, here, by
    ``SimpleType.checked_subset``; code holding a spec trusts them and reads
    ``cascade._cascade`` and ``RootSystem._subsystem_positive`` directly."""

    ambient: SimpleType
    pi1: Subset
    pi2: Subset

    def __post_init__(self) -> None:
        object.__setattr__(self, "pi1", self.ambient.checked_subset(self.pi1))
        object.__setattr__(self, "pi2", self.ambient.checked_subset(self.pi2))

    def system(self) -> RootSystem:
        return build_root_system(self.ambient)

    def transpose(self) -> "BiparabolicSpec":
        return BiparabolicSpec(self.ambient, self.pi2, self.pi1)


def parabolic(ambient: SimpleType, subset) -> BiparabolicSpec:
    """The standard parabolic attached to a subset of simple roots."""
    return BiparabolicSpec(ambient, subset, _one_to(ambient.rank))


def biparabolic_basis(spec: BiparabolicSpec) -> tuple[int, ...]:
    """The indices of the Chevalley basis vectors spanning the biparabolic,
    in increasing order: n+ of pi2, the Cartan, n- of pi1."""
    r = spec.system()
    pos, hi = r.pos_index, r.n_pos + r.rank
    return (
        *[pos[a] for a in r._subsystem_positive(spec.pi2)],
        *range(r.n_pos, hi),
        *[pos[a] + hi for a in r._subsystem_positive(spec.pi1)],
    )


def seaweed_index(spec: BiparabolicSpec) -> int:
    """Index of the biparabolic: (rk - dim E) + (k1 + k2 - dim E), where E is
    the span of the eps vectors of both cascades."""
    r = spec.system()
    c1 = _cascade(r, spec.pi1)
    c2 = _cascade(r, spec.pi2)
    joint = [list(n.eps) for n in c1.nodes + c2.nodes]
    dim_e = linalg.rank(joint) if joint else 0
    return (r.rank - dim_e) + (len(c1) + len(c2) - dim_e)


@dataclass(frozen=True)
class CoefficientVector:
    """Nonzero coefficients keyed by cascade node supports: a for the pi2
    cascade, b for the pi1 cascade."""

    a: tuple[tuple[Subset, Fraction], ...]
    b: tuple[tuple[Subset, Fraction], ...]

    @staticmethod
    def from_maps(a: dict, b: dict) -> "CoefficientVector":
        mk = lambda m: tuple(
            sorted(
                ((frozenset(k), Fraction(v)) for k, v in m.items()),
                key=lambda kv: sorted(kv[0]),
            )
        )
        return CoefficientVector(mk(a), mk(b))


class _Slot(NamedTuple):
    """Where one cascade node's coefficient goes: its support, the basis
    index of its vector in u, and the one entry (dual, kappa) of that
    index's ``killing_row``."""

    support: Subset
    index: int
    dual: int
    kappa: int


def _draw_layout(spec: BiparabolicSpec) -> tuple[tuple[_Slot, ...], tuple[_Slot, ...]]:
    """The slots of the a coefficients (the pi2 cascade, on x_-eps) and of
    the b coefficients (the pi1 cascade, on x_eps), in the order
    ``sample_cv`` draws them."""
    r = spec.system()

    def slots(pi, shift):
        out = []
        for n in _cascade(r, pi).nodes:
            i = r.pos_index[n.eps] + shift
            ((j, kappa),) = killing_coords(r, [(i, 1)]).items()
            out.append(_Slot(n.support, i, j, kappa))
        return tuple(out)

    # n_pos + rank is idx_x(-a) - idx_x(a) for every positive root a
    return slots(spec.pi2, r.n_pos + r.rank), slots(spec.pi1, 0)


def _draw(n: int, rng: random.Random) -> list[int]:
    """n random integers in [-50, 50] without 0, redrawing each 0: the values
    ``rng.randint(-50, 50)`` gives, read as it reads them, from
    ``getrandbits(7)`` with each value of 101 or more redrawn."""
    out = []
    while len(out) < n:
        v = rng.getrandbits(7)
        if v < 101 and v != 50:
            out.append(v - 50)
    return out


def _draw_cv(a: tuple[_Slot, ...], b: tuple[_Slot, ...], ds: list[int]) -> CoefficientVector:
    """The coefficient vector of the draw ds over the slots a + b."""
    return CoefficientVector.from_maps(
        {s.support: d for s, d in zip(a, ds)},
        {s.support: d for s, d in zip(b, ds[len(a):])},
    )


def sample_cv(spec: BiparabolicSpec, rng: random.Random) -> CoefficientVector:
    """Random integer coefficients in [-50, 50] without 0, one per node."""
    a, b = _draw_layout(spec)
    return _draw_cv(a, b, _draw(len(a) + len(b), rng))


def _checked_maps(spec: BiparabolicSpec, cv: CoefficientVector):
    r = spec.system()
    c1 = _cascade(r, spec.pi1)
    c2 = _cascade(r, spec.pi2)
    am, bm = dict(cv.a), dict(cv.b)
    if set(am) != set(n.support for n in c2.nodes):
        raise ValueError("coefficient keys for a must match the pi2 cascade")
    if set(bm) != set(n.support for n in c1.nodes):
        raise ValueError("coefficient keys for b must match the pi1 cascade")
    for m in (am, bm):
        for k, v in m.items():
            if v == 0:
                raise ValueError(f"zero coefficient at node {sorted(k)}")
    return r, c1, c2, am, bm


def build_u(spec: BiparabolicSpec, cv: CoefficientVector) -> AlgebraElement:
    """The element sum(a_K x_{-eps_K}, K in pi2 cascade) +
    sum(b_L x_{eps_L}, L in pi1 cascade)."""
    r, *_, am, bm = _checked_maps(spec, cv)
    a, b = _draw_layout(spec)
    coords = [(s.index, am[s.support]) for s in a] + [(s.index, bm[s.support]) for s in b]
    return AlgebraElement(r, coords)


def build_u_minus(spec: BiparabolicSpec) -> AlgebraElement:
    """Sum of x_{-eps} over the pi2 cascade eps not lying in the positive
    subsystem of pi1."""
    r = spec.system()
    pos1 = set(r._subsystem_positive(spec.pi1))
    eps = [n.eps for n in _cascade(r, spec.pi2).nodes if n.eps not in pos1]
    return AlgebraElement(r, [(r.idx_x(r.negative(e)), 1) for e in eps])


# ---------------------------------------------------------------------------
# explicit stabilizer elements for well-interlaced cascades


def _coroot_ratio(r: RootSystem, mid: Root, up: Root, lo: Root) -> Fraction:
    """The scalar c with h_mid = c*(h_up - h_lo), solved exactly; a ValueError
    when h_mid is not proportional to the difference."""
    hu, hl = r.coroot_coeffs(up), r.coroot_coeffs(lo)
    diff = [[u - l] for u, l in zip(hu, hl)]
    (c,) = _solve_exact(diff, list(r.coroot_coeffs(mid)))
    assert c != 0
    return c


def interlaced_torus_elements(
    spec: BiparabolicSpec, cv: CoefficientVector
) -> list[AlgebraElement]:
    """Commuting semisimple stabilizer elements of the form attached to cv.

    One element per shared cascade node (a two-term x_eps + rho x_{-eps}),
    plus one per node of either cascade whose eps is a half-difference root
    of the other cascade, with the correcting coefficients solved from the
    structure constants so that the bracket with u(a, b) drops into the
    nilpotent radical.
    """
    r, c1, c2, am, bm = _checked_maps(spec, cv)
    out: list[AlgebraElement] = []
    shared = c1.supports() & c2.supports()
    for n in c1.nodes:
        if n.support in shared:
            rho = am[n.support] / bm[n.support]
            out.append(x_vector(r, n.eps) + rho * x_vector(r, r.negative(n.eps)))
    half2 = {h: (up, lo) for h, up, lo in half_difference_roots(c2)}
    half1 = {h: (up, lo) for h, up, lo in half_difference_roots(c1)}
    for m in c1.nodes:
        if m.eps in half2:
            up, lo = half2[m.eps]
            out.append(_half_element(r, 1, m.eps, up, lo, am, bm[m.support]))
    for n in c2.nodes:
        if n.eps in half1:
            up, lo = half1[n.eps]
            out.append(_half_element(r, -1, n.eps, up, lo, bm, am[n.support]))
    return out


def _half_element(r, sign, eps, up, lo, coeffs, own) -> AlgebraElement:
    """x_{s eps} + lam x_{-s eps} + mu x_{s eps_up} + nu x_{s eps_lo}, s = sign,
    for a node whose eps is the half-difference root (eps_up - eps_lo)/2 of
    the other cascade, whose node coefficients are ``coeffs``; ``own`` is the
    node's coefficient. Sign -1 mirrors sign +1: roots negated, maps swapped."""
    bar = tuple((u + l) // 2 for u, l in zip(up.eps, lo.eps))
    assert r.is_root(bar)
    signed = lambda a: a if sign > 0 else r.negative(a)
    tau1 = r.struct_const(signed(eps), signed(r.negative(up.eps)))
    tau2 = r.struct_const(signed(r.negative(eps)), signed(r.negative(lo.eps)))
    c = _coroot_ratio(r, eps, up.eps, lo.eps)
    lam = -Fraction(tau1) * coeffs[up.support] / (Fraction(tau2) * coeffs[lo.support])
    mu = c * lam * own / coeffs[up.support]
    nu = -c * lam * own / coeffs[lo.support]
    terms = ((eps, 1), (r.negative(eps), lam), (up.eps, mu), (lo.eps, nu))
    return AlgebraElement(r, [(r.idx_x(signed(a)), k) for a, k in terms])


# ---------------------------------------------------------------------------
# the rank-two stabilizer element of the exceptional reduction step


@dataclass(frozen=True)
class RankTwoData:
    """Cascade bookkeeping for a connected rank-two subset containing the
    simple root attached to the lowest root: the subset's highest-root coroot
    decomposes over four full-cascade nodes j0..j3, with alpha_i1 = eps_{j1}
    and 2*alpha_i2 = eps_{j0} - eps_{j1} - eps_{j2} - eps_{j3}."""

    i1: int
    i2: int
    nodes: tuple[int, int, int, int]  # indexes into the full cascade
    c: tuple[Fraction, Fraction, Fraction, Fraction]


def rank2_data(r: RootSystem, subset) -> RankTwoData:
    sub = frozenset(subset)
    if r.type.family not in ("F", "E"):
        raise ValueError("rank-two reduction applies to types F4 and E6..E8 only")
    if len(sub) != 2 or not r.is_connected(sub):
        raise ValueError("subset must be a connected pair of simple roots")
    _, attach = tilde_pi(r, r.full_subset())
    if attach not in sub:
        raise ValueError("subset must contain the simple root attached to the lowest root")
    i2 = attach
    (i1,) = sub - {i2}
    full = kostant_cascade(r, r.full_subset())
    eps = full.eps_set
    a1 = r.simple_root(i1)
    a2 = r.simple_root(i2)
    try:
        j1 = eps.index(a1)
    except ValueError:
        raise ValueError(f"alpha_{i1} is not a cascade highest root") from None
    twice = tuple(2 * x for x in a2)
    found = None
    for j0 in range(len(eps)):
        if j0 == j1:
            continue
        for j2 in range(len(eps)):
            if j2 in (j0, j1):
                continue
            for j3 in range(j2 + 1, len(eps)):
                if j3 in (j0, j1):
                    continue
                cand = tuple(
                    eps[j0][t] - eps[j1][t] - eps[j2][t] - eps[j3][t]
                    for t in range(r.rank)
                )
                if cand == twice:
                    found = (j0, j1, j2, j3)
                    break
            if found:
                break
        if found:
            break
    if not found:
        raise ValueError("no four-node eps decomposition exists for this pair")
    # solve h_{eps(subset)} = sum c_k h_{eps_{j_k}}
    top = r.highest_root(sub)
    rows = [list(t) for t in zip(*[r.coroot_coeffs(eps[j]) for j in found])]
    sol = _solve_exact(rows, list(r.coroot_coeffs(top)))
    return RankTwoData(i1, i2, found, tuple(sol))


def _solve_exact(rows, target):
    ncols = len(rows[0])
    aug = [row + [t] for row, t in zip(rows, target)]
    red, pivots = linalg.rref(aug)
    sol = [Fraction(0)] * ncols
    for row, p in zip(red, pivots):
        if p == ncols:
            raise ValueError("inconsistent linear system")
        sol[p] = row[ncols]
    # verify (the system is overdetermined)
    for row, t in zip(rows, target):
        assert sum(c * s for c, s in zip(row, sol)) == t
    return sol


def rank2_stabilizer_element(
    r: RootSystem, subset, cv: CoefficientVector
) -> AlgebraElement:
    """Semisimple stabilizer element for the parabolic of a connected rank-two
    subset containing the attachment root, built from the four-node eps
    decomposition with all coefficients solved exactly."""
    data = rank2_data(r, subset)
    spec = parabolic(r.type, subset)
    _, c1, c2, am, bm = _checked_maps(spec, cv)
    full = kostant_cascade(r, r.full_subset())
    eps = full.eps_set
    j0, j1, j2, j3 = data.nodes
    a_of = lambda j: am[full.nodes[j].support]
    top = r.highest_root(frozenset(subset))
    b = bm[frozenset(subset)]
    head = tuple(x - y for x, y in zip(eps[j0], top))  # eps_j0 - eps_subset
    beta2 = tuple(x - y for x, y in zip(head, eps[j2]))
    beta3 = tuple(x - y for x, y in zip(head, eps[j3]))
    assert r.is_positive(beta2) and r.is_positive(beta3)
    tau1 = r.struct_const(beta2, r.negative(eps[j0]))
    tau2 = r.struct_const(r.negative(top), r.negative(eps[j2]))
    tau3 = r.struct_const(beta3, r.negative(eps[j0]))
    tau4 = r.struct_const(r.negative(top), r.negative(eps[j3]))
    tau5 = r.struct_const(beta2, r.negative(eps[j3]))
    tau6 = r.struct_const(beta3, r.negative(eps[j2]))
    tau0 = r.struct_const(r.negative(eps[j1]), top)
    cond = Fraction(tau2 * tau5, tau1) + Fraction(tau4 * tau6, tau3)
    assert cond != 0, "degenerate structure constant configuration"
    mus = [b * ck / a_of(j) for ck, j in zip(data.c, data.nodes)]
    lam2 = -a_of(j2) * Fraction(tau2) / (a_of(j0) * Fraction(tau1))
    lam3 = -a_of(j3) * Fraction(tau4) / (a_of(j0) * Fraction(tau3))
    nu = -(lam2 * a_of(j3) * tau5 + lam3 * a_of(j2) * tau6) / (b * tau0)
    assert nu != 0
    out = x_vector(r, r.negative(top))
    out = out + lam2 * x_vector(r, beta2) + lam3 * x_vector(r, beta3)
    for mu, j in zip(mus, data.nodes):
        out = out + mu * x_vector(r, eps[j])
    out = out + nu * x_vector(r, r.negative(eps[j1]))
    return out
