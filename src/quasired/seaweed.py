"""Standard biparabolic (seaweed) subalgebras and their special elements.

The standard biparabolic of a pair (pi1, pi2) of subsets of simple roots is
spanned by the positive root vectors of pi2, the whole Cartan, and the
negative root vectors of pi1; the parabolic attached to a subset pi' is the
case (pi1, pi2) = (pi', full). Its index is given by the cascade formula,
with the dimension of the span of both cascades' eps counted from their
blocks by ``cascade.meet_dim``, with no elimination. The coroot
coefficients of the explicit torus elements (``_coroot_ratio`` and
``rank2_data``) are single pairings, read off the strong orthogonality of the
cascade's eps, with no elimination either.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .cascade import Subset, _cascade, interlacing, kostant_cascade, meet_dim, tilde_pi
from .rootsys import (
    Root,
    RootSystem,
    Row,
    SimpleType,
    _one_to,
    build_root_system,
    killing_coords,
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
    """Index of the biparabolic by the cascade formula (Tauvel-Yu):
    (rk - dim E) + (k1 + k2 - dim E), where E is the span of the eps of both
    cascades, of sizes k1 and k2. Each cascade's eps are independent, so
    dim E = k1 + k2 - m with m = ``cascade.meet_dim``, a count of the
    cascades' blocks, and the index is rk - k1 - k2 + 2m."""
    r = spec.system()
    c1 = _cascade(r, spec.pi1)
    c2 = _cascade(r, spec.pi2)
    return r.rank - len(c1) - len(c2) + 2 * meet_dim(c1, c2)


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


def build_u(spec: BiparabolicSpec, cv: CoefficientVector) -> Row:
    """The row of sum(a_K x_{-eps_K}, K in pi2 cascade) +
    sum(b_L x_{eps_L}, L in pi1 cascade)."""
    r, *_, am, bm = _checked_maps(spec, cv)
    a, b = _draw_layout(spec)
    return r.checked_row(
        [(s.index, am[s.support]) for s in a] + [(s.index, bm[s.support]) for s in b]
    )


# ---------------------------------------------------------------------------
# explicit stabilizer elements for well-interlaced cascades


def _coroot_ratio(r: RootSystem, mid: Root, up: Root, lo: Root) -> Fraction:
    """The scalar c with h_mid = c*(h_up - h_lo), for the eps of two cascade
    nodes up and lo; a ValueError when h_mid is not such a multiple.

    The eps are strongly orthogonal, so <eps_up, up^v> = 2 and
    <eps_up, lo^v> = 0, and pairing the identity with eps_up gives
    c = <eps_up, mid^v> / 2; the identity itself is then checked
    coordinate by coordinate."""
    c = Fraction(r.pairing(up, mid), 2)
    hm, hu, hl = r.coroot_coeffs(mid), r.coroot_coeffs(up), r.coroot_coeffs(lo)
    if c == 0 or any(m != c * (u - l) for m, u, l in zip(hm, hu, hl)):
        raise ValueError(f"h of {mid} is not a multiple of h of {up} less h of {lo}")
    return c


def interlaced_torus_elements(spec: BiparabolicSpec, cv: CoefficientVector) -> list[Row]:
    """Commuting semisimple stabilizer elements of the form attached to cv,
    as rows.

    One element per entry of ``interlacing``: per shared cascade node a
    two-term x_eps + rho x_{-eps}, and per node of either cascade whose eps
    is a half-difference root of the other cascade a four-term one, with
    the correcting coefficients solved from the structure constants so that
    the bracket with u(a, b) drops into the nilpotent radical.
    """
    r, c1, c2, am, bm = _checked_maps(spec, cv)
    shared, half12, half21 = interlacing(c1, c2)
    out = []
    for n in shared:
        rho = am[n.support] / bm[n.support]
        out.append(r.checked_row([(r.idx_x(n.eps), 1), (r.idx_x(r.negative(n.eps)), rho)]))
    out += [_half_element(r, 1, m.eps, up, lo, am, bm[m.support]) for m, up, lo in half12]
    out += [_half_element(r, -1, n.eps, up, lo, bm, am[n.support]) for n, up, lo in half21]
    return out


def _half_element(r, sign, eps, up, lo, coeffs, own) -> Row:
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
    return r.checked_row([(r.idx_x(signed(a)), k) for a, k in terms])


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
    """The four full-cascade nodes and coroot coefficients of a connected
    rank-two subset containing the attachment root, read off the cascade's
    strong orthogonality: <eps_a, eps_b^v> is 2 when a = b and 0 otherwise.

    Pairing 2*alpha_i2 = eps_j0 - eps_j1 - eps_j2 - eps_j3 with each eps^v
    shows that j0 is the one node with <alpha_i2, eps^v> = 1 and that j2 < j3
    are the nodes other than j1 with -1; pairing h_top = sum c_k h_{eps_jk}
    with eps_jk gives c_k = <eps_jk, top^v> / 2. Both identities are then
    checked exactly, and a ValueError reports a pair without them."""
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
    eps = kostant_cascade(r, r.full_subset()).eps_set
    a2 = r.simple_root(i2)
    try:
        j1 = eps.index(r.simple_root(i1))
    except ValueError:
        raise ValueError(f"alpha_{i1} is not a cascade highest root") from None
    pairs = [r.pairing(a2, e) for e in eps]
    j0s = [j for j, p in enumerate(pairs) if p == 1]
    lows = [j for j, p in enumerate(pairs) if p == -1 and j != j1]
    nodes = (*j0s, j1, *lows)
    if (len(j0s), len(lows)) != (1, 2) or any(
        e0 - e1 - e2 - e3 != 2 * a for e0, e1, e2, e3, a in zip(*(eps[j] for j in nodes), a2)
    ):
        raise ValueError("no four-node eps decomposition exists for this pair")
    top = r.highest_root(sub)
    c = tuple(Fraction(r.pairing(eps[j], top), 2) for j in nodes)
    hs = [r.coroot_coeffs(eps[j]) for j in nodes]
    if any(t != sum(ck * h[i] for ck, h in zip(c, hs)) for i, t in enumerate(r.coroot_coeffs(top))):
        raise ValueError("h of the subset's top root is not a combination of the nodes' coroots")
    return RankTwoData(i1, i2, nodes, c)


def rank2_stabilizer_element(r: RootSystem, subset, cv: CoefficientVector) -> Row:
    """The row of a semisimple stabilizer element for the parabolic of a
    connected rank-two subset containing the attachment root, built from the
    four-node eps decomposition and coroot coefficients of ``rank2_data``."""
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
    terms = [(r.negative(top), 1), (beta2, lam2), (beta3, lam3)]
    terms += [(eps[j], mu) for mu, j in zip(mus, data.nodes)]
    terms.append((r.negative(eps[j1]), nu))
    return r.checked_row([(r.idx_x(a), c) for a, c in terms])
