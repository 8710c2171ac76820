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

from .rootsys import Root, RootSystem

Subset = frozenset[int]


@dataclass(frozen=True)
class CascadeNode:
    """One cascade entry: a connected support set and ``eps``, the highest
    root of its subsystem. A node is exactly this pair; every other fact
    about it is derived on demand (``Cascade.gamma``, ``interlacing``)."""

    support: Subset
    eps: Root


@dataclass(frozen=True)
class Cascade:
    """Ordered cascade of a subset of simple roots, in its root system:
    equal subsets of different systems give unequal cascades. ``pairs``
    holds its two-root ``blocks`` in node order, derived once when it is
    built; it is left out of equality, hashing and repr."""

    source: Subset
    nodes: tuple[CascadeNode, ...]
    system: RootSystem = field(repr=False)
    pairs: tuple[Subset, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pairs", tuple(b for b in blocks(self) if len(b) == 2))

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def eps_set(self) -> tuple[Root, ...]:
        return tuple(n.eps for n in self.nodes)

    def supports(self) -> frozenset[Subset]:
        return frozenset(n.support for n in self.nodes)

    def in_gamma(self, n: CascadeNode, alpha: Root) -> bool:
        """Whether the positive root lies in node n's gamma set: its support
        lies within n's support and it pairs strictly positively with n's
        eps. Gamma is defined here alone."""
        return self.system.pairing(alpha, n.eps) > 0 and self.system.support(alpha) <= n.support

    def gamma(self, n: CascadeNode) -> frozenset[Root]:
        """The roots ``in_gamma`` of node n: their root spaces span a
        Heisenberg algebra centered at the eps root space, and over the
        nodes they partition the positive roots of the source. Derived on
        each call."""
        return frozenset(a for a in self.system._subsystem_positive(n.support) if self.in_gamma(n, a))


def _cascade_nodes(r: RootSystem, subset: Subset) -> tuple[CascadeNode, ...]:
    if not subset:
        return ()
    comps = r._components(subset)
    if len(comps) > 1:
        out: tuple[CascadeNode, ...] = ()
        for c in comps:
            out += _cascade_nodes(r, c)
        return out
    eps = r.highest_root(subset)
    t = frozenset(i for i in subset if r.pairing(r.simple_root(i), eps) == 0)
    return (CascadeNode(subset, eps),) + _cascade_nodes(r, t)


def kostant_cascade(r: RootSystem, subset) -> Cascade:
    """Cascade of pairwise strongly orthogonal highest roots below a subset;
    ValueError unless the subset lies within 1..rank, checked before the
    cache sees it."""
    return _cascade(r, r.type.checked_subset(subset))


@cache
def _cascade(r: RootSystem, subset: Subset) -> Cascade:
    return Cascade(subset, _cascade_nodes(r, subset), r)


def blocks(c: Cascade) -> tuple[Subset, ...]:
    """Each node's block, in node order: the roots of its support that lie in
    no later node's support, which are exactly the roots of its support not
    orthogonal to its eps, in sum(|support|) steps. ``Cascade`` stores its
    two-root blocks as ``pairs`` when it is built.

    The blocks describe the span E of the eps: in simple-root coordinates, E
    is the set of vectors that vanish off the source and are constant on
    every block. For a connected S with highest root eps, block D and
    T = S - D, w_0 of S is s_eps w_0 of T. So w_0 of the source is the product
    of the commuting reflections s_eps over the nodes, and its -1-eigenspace
    is E, of dimension k = len(c). Also w_0 alpha_i = -alpha_sigma(i) for an
    involution sigma of the source, so that eigenspace is the set of
    sigma-invariant vectors on the source, of dimension the number of
    sigma-orbits. The recursion gives sigma_S = sigma_T on T, so sigma maps
    each block to itself, and no block is empty, since eps is not orthogonal
    to itself; with k blocks and k orbits, each block is one orbit. Hence
    the blocks partition the source, and each one holds one root, or two:
    the ends of a type-A support of rank at least 2."""
    later: Subset = frozenset()
    out = []
    for n in reversed(c.nodes):
        out.append(n.support - later)
        later |= n.support
    out.reverse()
    return tuple(out)


def meet_dim(c1: Cascade, c2: Cascade) -> int:
    """dim(E1 & E2) for the eps spans Ei of two cascades of one system, from
    their two-root blocks ``Cascade.pairs``: a vector of both spans is
    constant on each connected part of the graph on the union of the sources
    whose edges join the two roots of each pair, and vanishes on a part that
    leaves the intersection of the sources. So the dimension is the number
    of parts that lie inside the intersection; a root in no pair is a part
    by itself."""
    part: dict[int, Subset] = {}
    for b in c1.pairs + c2.pairs:
        i, j = b
        merged = part.get(i, b) | part.get(j, b)
        part.update(dict.fromkeys(merged, merged))
    inside = c1.source & c2.source
    return len(inside - part.keys()) + sum(p <= inside for p in set(part.values()))


def _check_source_root(c: Cascade, alpha: Root) -> None:
    r = c.system
    if not (r.is_positive(alpha) and r.support(alpha) <= c.source):
        raise ValueError(f"{alpha} is not a positive root of the cascade source")


def k_plus(c: Cascade, alpha: Root) -> CascadeNode:
    """The unique cascade node whose gamma set contains the positive root."""
    _check_source_root(c, alpha)
    hits = [n for n in c.nodes if c.in_gamma(n, alpha)]
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
    out.sort(key=lambda t: (sum(t[0]), t[0]))
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


def interlacing(c1: Cascade, c2: Cascade) -> tuple[list, list, list]:
    """Where two cascades interlace, as three lists: the nodes of c1 whose
    support is also a node support of c2; each (node, upper, lower) of c1
    whose eps is the half-difference root (eps_upper - eps_lower)/2 of c2;
    and the same for the nodes of c2 against c1. Node identity is support
    equality, and every list follows node order."""
    others = c2.supports()

    def halves(c, other):
        half = {h: (up, lo) for h, up, lo in half_difference_roots(other)}
        return [(n, *half[n.eps]) for n in c.nodes if n.eps in half]

    return [n for n in c1.nodes if n.support in others], halves(c1, c2), halves(c2, c1)


def well_interlaced(r: RootSystem, pi1, pi2) -> tuple[bool, InterlaceCounts]:
    """Whether the two cascades are well-interlaced.

    Compares the dimension of the intersection of the two eps spans,
    ``meet_dim``, against the lengths of the three ``interlacing`` lists.
    """
    c1 = kostant_cascade(r, pi1)
    c2 = kostant_cascade(r, pi2)
    dim_inter = meet_dim(c1, c2)
    counts = InterlaceCounts(dim_inter, *map(len, interlacing(c1, c2)))
    return dim_inter == counts.combinatorial_total, counts


def tilde_pi(r: RootSystem, subset) -> tuple[Subset, int | None]:
    """Simple roots of a connected subset orthogonal to its highest root.

    Those are the subset less the top node's block, and exactly the supports
    of the cascade below the top node. For the full system of an exceptional
    type that block is a single simple root (the one attached to the lowest
    root in the extended Dynkin diagram), returned as second value.
    """
    sub = frozenset(subset)
    if not sub:
        raise ValueError("subset must be nonempty")
    if not r.is_connected(sub):
        raise ValueError(f"subset {sorted(sub)} is not connected")
    top = blocks(kostant_cascade(r, sub))[0]
    attach = None
    if sub == r.full_subset() and r.type.family in ("E", "F", "G"):
        (attach,) = top
    return sub - top, attach


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
