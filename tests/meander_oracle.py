"""The index of a type-A seaweed by its meander graph, kept as a test oracle.

Dergachev-Kirillov (J. Lie Theory 2000): a subset of the simple roots of
A_n cuts 1..n+1 into the blocks of a composition, where i and i+1 share a
block exactly when alpha_i is in the subset. The meander of (pi1, pi2) joins
i and s+t-i inside each block [s, t] of pi1's composition, and likewise for
pi2. Every vertex then has at most one edge from each side, so the graph
falls into cycles and paths (an isolated vertex is a path), and the index
of the seaweed is 2C + P - 1. Nothing here reads a cascade or a root system.
"""

from __future__ import annotations


def blocks(n: int, subset) -> list[tuple[int, int]]:
    """The blocks [s, t] of 1..n+1 that a subset of 1..n cuts out."""
    out, start = [], 1
    for i in range(1, n + 2):
        if i not in subset:
            out.append((start, i))
            start = i + 1
    return out


def _arcs(n: int, subset) -> dict[int, int]:
    """Each vertex's partner under its block's reflection i -> s+t-i; the
    middle vertex of an odd block has none."""
    return {i: s + t - i for s, t in blocks(n, subset) for i in range(s, t + 1) if 2 * i != s + t}


def meander_index(n: int, pi1, pi2) -> int:
    """2C + P - 1 for the meander of the seaweed q(pi1, pi2) of A_n."""
    top, bottom = _arcs(n, set(pi1)), _arcs(n, set(pi2))
    seen: set[int] = set()
    cycles = paths = 0
    for v in range(1, n + 2):
        if v in seen:
            continue
        # walk from v one way, alternating sides, then from v the other way
        ends = 0
        for first, second in ((top, bottom), (bottom, top)):
            w, sides = v, (first, second)
            while w in sides[0] and sides[0][w] != v:
                w = sides[0][w]
                seen.add(w)
                sides = sides[::-1]
            if w in sides[0]:  # back at v: the component is a cycle
                break
            ends += 1
        seen.add(v)
        if ends == 2:
            paths += 1
        else:
            cycles += 1
    return 2 * cycles + paths - 1
