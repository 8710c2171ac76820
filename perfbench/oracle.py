"""Answers the benchmark checks the program against, derived without it.

Nothing here imports ``quasired`` or its tests. The facts come from the
classification of quasi-reductive parabolics (Baur-Moreau, arXiv:0812.4275,
and the flag criterion it cites for types B and D) and from the closed-form
sizes of Kostant cascades:

* the whole algebra, and every parabolic of types A and C, is quasi-reductive;
* in types B and D the parabolic of a flag of isotropic subspaces fails
  exactly when two adjacent dimensions are odd, after dropping a last
  dimension that is odd and equal to N/2;
* in G2, F4, E7 and E8 a parabolic fails exactly when one of the connected
  components of its subset is in a short failing list (additivity);
* in E6 it fails exactly when alpha_2 is an isolated component, or the subset
  is one of two exceptional rank-five sets;
* a cascade has one node per component cascade: ceil(m/2) for A_m,
  2*floor(m/2) for D_m, 4, 7, 8 for E6, E7, E8, and m for every component
  with a multiple bond (B_m, C_m, F4, G2).

Simple roots are numbered as in Bourbaki; for G2 alpha_1 is the long root.
"""

from __future__ import annotations

_FAILING_CONNECTED = {
    ("G", 2): [{1}],
    ("F", 4): [{1}],
    ("E", 7): [{1}, {4}, {6}, {1, 3, 4}, {4, 5, 6}, {1, 3, 4, 5, 6}],
    ("E", 8): [
        {1}, {4}, {6}, {8},
        {1, 3, 4}, {4, 5, 6}, {6, 7, 8},
        {1, 3, 4, 5, 6}, {4, 5, 6, 7, 8},
        {1, 3, 4, 5, 6, 7, 8},
    ],
}
_E6_EXCEPTIONS = [{1, 2, 3, 4, 6}, {1, 2, 4, 5, 6}]


def dynkin_edges(family: str, rank: int) -> list[tuple[int, int, int]]:
    """Edges (i, j, bond multiplicity) of the Bourbaki Dynkin diagram."""
    if family in "ABC":
        edges = [(i, i + 1, 1) for i in range(1, rank)]
        if family in "BC" and rank >= 2:
            edges[-1] = (rank - 1, rank, 2)
        return edges
    if family == "D":
        return [(i, i + 1, 1) for i in range(1, rank - 1)] + [(rank - 2, rank, 1)]
    if family == "E":
        chain = [(1, 3, 1)] + [(i, i + 1, 1) for i in range(3, rank)]
        return chain + [(2, 4, 1)]
    if family == "F":
        return [(1, 2, 1), (2, 3, 2), (3, 4, 1)]
    if family == "G":
        return [(1, 2, 3)]
    raise ValueError(f"unknown family {family!r}")


def components(family: str, rank: int, subset) -> list[frozenset[int]]:
    """Connected components of a subset of simple roots."""
    sub = set(subset)
    adj = {i: set() for i in sub}
    for i, j, _ in dynkin_edges(family, rank):
        if i in sub and j in sub:
            adj[i].add(j)
            adj[j].add(i)
    comps, seen = [], set()
    for start in sorted(sub):
        if start in seen:
            continue
        comp, todo = set(), [start]
        while todo:
            v = todo.pop()
            if v not in comp:
                comp.add(v)
                todo.extend(adj[v] - comp)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def _component_cascade_size(family: str, rank: int, comp: frozenset[int]) -> int:
    m = len(comp)
    edges = [(i, j, b) for i, j, b in dynkin_edges(family, rank) if i in comp and j in comp]
    if any(b > 1 for _, _, b in edges):
        return m  # B_m, C_m, F4 and G2 all have a cascade of size m
    degree = {v: 0 for v in comp}
    for i, j, _ in edges:
        degree[i] += 1
        degree[j] += 1
    branch = [v for v in comp if degree[v] == 3]
    if not branch:
        return (m + 1) // 2  # A_m
    arms = sorted(_arm_length(edges, branch[0], nb) for nb in _neighbours(edges, branch[0]))
    if arms[:2] == [1, 1]:
        return 2 * (m // 2)  # D_m
    return {(1, 2, 2): 4, (1, 2, 3): 7, (1, 2, 4): 8}[tuple(arms)]


def _neighbours(edges, v) -> list[int]:
    return [j for i, j, _ in edges if i == v] + [i for i, j, _ in edges if j == v]


def _arm_length(edges, centre: int, first: int) -> int:
    prev, cur, length = centre, first, 1
    while True:
        nxt = [w for w in _neighbours(edges, cur) if w != prev]
        if not nxt:
            return length
        prev, cur, length = cur, nxt[0], length + 1


def cascade_size(family: str, rank: int, subset) -> int:
    """Number of nodes of the Kostant cascade of a subset of simple roots."""
    return sum(
        _component_cascade_size(family, rank, c) for c in components(family, rank, subset)
    )


def _flag_dims(family: str, rank: int, subset) -> tuple[int, list[int]]:
    """(N, isotropic dimensions) of the flag a B or D parabolic stabilizes."""
    if family == "B":
        return 2 * rank + 1, [i for i in range(1, rank + 1) if i not in subset]
    dims = [i for i in range(1, rank - 1) if i not in subset]
    fork_out = [i for i in (rank - 1, rank) if i not in subset]
    if len(fork_out) == 2:
        dims += [rank - 1, rank]
    elif fork_out:
        dims.append(rank)
    return 2 * rank, dims


def is_quasi_reductive(family: str, rank: int, subset) -> bool:
    """Whether the standard parabolic of the subset is quasi-reductive."""
    sub = set(subset)
    if sub == set(range(1, rank + 1)) or family in "AC":
        return True
    if family in "BD":
        n, dims = _flag_dims(family, rank, sub)
        if dims[-1] % 2 == 1 and 2 * dims[-1] == n:
            dims = dims[:-1]
        return not any(a % 2 == 1 and b % 2 == 1 for a, b in zip(dims, dims[1:]))
    comps = components(family, rank, sub)
    if (family, rank) == ("E", 6):
        return frozenset({2}) not in comps and sub not in _E6_EXCEPTIONS
    failing = _FAILING_CONNECTED[(family, rank)]
    return not any(set(c) in failing for c in comps)
