"""Kostant cascades of strongly orthogonal roots and derived combinatorics.

The cascade of a subset of simple roots is built by the classical recursion:
the empty set gives the empty cascade, a disconnected set the union over its
components, and a connected set contributes itself as a node together with
the cascade of the simple roots orthogonal to its highest root. Node order is
depth first with components taken in least-index order, so it is stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from . import linalg
from .rootsys import Root, RootSystem

Subset = frozenset[int]


@dataclass(frozen=True)
class CascadeNode:
    """One cascade entry: a connected support set with its highest root data.

    ``eps`` is the highest root of the support subsystem, ``gamma`` the roots
    of that subsystem pairing strictly positively with eps (their root spaces
    span a Heisenberg algebra centered at the eps root space), and ``gamma0``
    is gamma without eps itself.
    """

    support: Subset
    eps: Root
    gamma: frozenset[Root]
    gamma0: frozenset[Root]


@dataclass(frozen=True)
class Cascade:
    """Ordered cascade of a subset of simple roots, in its root system:
    equal subsets of different systems give unequal cascades."""

    source: Subset
    nodes: tuple[CascadeNode, ...]
    system: RootSystem = field(repr=False)

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def eps_set(self) -> tuple[Root, ...]:
        return tuple(n.eps for n in self.nodes)

    def supports(self) -> frozenset[Subset]:
        return frozenset(n.support for n in self.nodes)


def _cascade_nodes(r: RootSystem, subset: Subset) -> tuple[CascadeNode, ...]:
    if not subset:
        return ()
    comps = r.components(subset)
    if len(comps) > 1:
        out: tuple[CascadeNode, ...] = ()
        for c in comps:
            out += _cascade_nodes(r, c)
        return out
    eps = r.highest_root(subset)
    gamma = frozenset(a for a in r.subsystem_positive(subset) if r.pairing(a, eps) > 0)
    node = CascadeNode(subset, eps, gamma, gamma - {eps})
    t = frozenset(i for i in subset if r.pairing(r.simple_root(i), eps) == 0)
    return (node,) + _cascade_nodes(r, t)


def kostant_cascade(r: RootSystem, subset) -> Cascade:
    """Cascade of pairwise strongly orthogonal highest roots below a subset;
    ValueError unless the subset lies within 1..rank, checked before the
    cache sees it."""
    return _cascade(r, r.type.checked_subset(subset))


@cache
def _cascade(r: RootSystem, subset: Subset) -> Cascade:
    return Cascade(subset, _cascade_nodes(r, subset), r)


def _check_source_root(c: Cascade, alpha: Root) -> None:
    r = c.system
    if not (r.is_positive(alpha) and r.support(alpha) <= c.source):
        raise ValueError(f"{alpha} is not a positive root of the cascade source")


def k_plus(c: Cascade, alpha: Root) -> CascadeNode:
    """The unique cascade node whose gamma set contains the positive root."""
    _check_source_root(c, alpha)
    hits = [n for n in c.nodes if alpha in n.gamma]
    assert len(hits) == 1, "gamma sets must partition the positive roots"
    return hits[0]


def k_minus_set(c: Cascade, alpha: Root) -> tuple[CascadeNode, ...]:
    """All cascade nodes whose eps can be added to the root, in node order."""
    _check_source_root(c, alpha)
    r = c.system
    return tuple(n for n in c.nodes if r.root_sum(n.eps, alpha) is not None)


@cache
def half_difference_roots(
    c: Cascade,
) -> tuple[tuple[Root, CascadeNode, CascadeNode], ...]:
    """Positive roots equal to half a difference of two cascade eps.

    Each entry carries the pair of nodes (upper, lower) realizing the root as
    (eps_upper - eps_lower)/2. The upper node is always the one covering the
    root, and the realization is unique: the lower eps is forced to equal
    eps_upper - 2*root. The lower node also always absorbs the root (it lies
    in the k_minus set), though in type B of odd rank that set can contain a
    second node as well.
    """
    r = c.system
    out = []
    seen: set[Root] = set()
    for up in c.nodes:
        for lo in c.nodes:
            if up is lo:
                continue
            diff = tuple(a - b for a, b in zip(up.eps, lo.eps))
            if any(d % 2 for d in diff):
                continue
            half = tuple(d // 2 for d in diff)
            if r.is_positive(half):
                assert half not in seen
                seen.add(half)
                out.append((half, up, lo))
    out.sort(key=lambda t: (r.height(t[0]), t[0]))
    for half, up, lo in out:
        assert k_plus(c, half).support == up.support
        assert any(n.support == lo.support for n in k_minus_set(c, half))
    return tuple(out)


def tilde_delta_plus(
    r: RootSystem,
) -> tuple[tuple[Root, CascadeNode, CascadeNode], ...]:
    """Half-difference roots for the full simple system (empty in ADE types)."""
    return half_difference_roots(kostant_cascade(r, r.full_subset()))


@dataclass(frozen=True)
class InterlaceCounts:
    dim_intersection: int
    shared_nodes: int
    half_in_second: int
    half_in_first: int

    @property
    def combinatorial_total(self) -> int:
        return self.shared_nodes + self.half_in_second + self.half_in_first


def _half_root_set(c: Cascade) -> frozenset[Root]:
    return frozenset(h for h, _, _ in half_difference_roots(c))


def well_interlaced(r: RootSystem, pi1, pi2) -> tuple[bool, InterlaceCounts]:
    """Whether the two cascades are well-interlaced.

    Compares the dimension of the intersection of the two eps spans against
    the count of shared nodes plus the nodes of either cascade whose eps is a
    half-difference root of the other. Node identity is support equality; the
    intersection dimension comes from an exact rank of the stacked eps
    vectors.
    """
    c1 = kostant_cascade(r, pi1)
    c2 = kostant_cascade(r, pi2)
    k1, k2 = len(c1), len(c2)
    joint = [list(n.eps) for n in c1.nodes] + [list(n.eps) for n in c2.nodes]
    dim_inter = k1 + k2 - linalg.rank(joint) if joint else 0
    shared = len(c1.supports() & c2.supports())
    half2 = _half_root_set(c2)
    half1 = _half_root_set(c1)
    tilde12 = sum(1 for n in c1.nodes if n.eps in half2)
    tilde21 = sum(1 for n in c2.nodes if n.eps in half1)
    counts = InterlaceCounts(dim_inter, shared, tilde12, tilde21)
    return dim_inter == counts.combinatorial_total, counts


def tilde_pi(r: RootSystem, subset) -> tuple[Subset, int | None]:
    """Simple roots of a connected subset orthogonal to its highest root.

    Those are exactly the supports of the cascade below the top node. For the
    full system of an exceptional type the complement is a single simple root
    (the one attached to the lowest root in the extended Dynkin diagram),
    returned as second value.
    """
    sub = frozenset(subset)
    if not sub:
        raise ValueError("subset must be nonempty")
    if not r.is_connected(sub):
        raise ValueError(f"subset {sorted(sub)} is not connected")
    tail = frozenset().union(*(n.support for n in kostant_cascade(r, sub).nodes[1:]))
    attach = None
    if sub == r.full_subset() and r.type.family in ("E", "F", "G"):
        rest = sub - tail
        assert len(rest) == 1
        attach = next(iter(rest))
    return tail, attach


def condition_star(r: RootSystem, pi1, pi2) -> bool:
    """Whether every cross pair of simple roots sits under distinct nodes of
    the full cascade. Requires the two subsets to be orthogonal to each other."""
    s1, s2 = frozenset(pi1), frozenset(pi2)
    if any(c & s1 and c & s2 for c in r.components(s1 | s2)):
        raise ValueError("subsets must not be connected to each other")
    full = kostant_cascade(r, r.full_subset())
    for a in s1:
        na = k_plus(full, r.simple_root(a))
        for b in s2:
            if k_plus(full, r.simple_root(b)).support == na.support:
                return False
    return True
