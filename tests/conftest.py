from fractions import Fraction

from quasired.cascade import kostant_cascade
from quasired.rootsys import RootSystem, SimpleType, build_root_system
from quasired.stabilizer import _back_substitute


def system(family: str, rank: int) -> RootSystem:
    return build_root_system(SimpleType(family, rank))


def reflection_closure(cartan) -> set[tuple[int, ...]]:
    """Independent oracle: close the simple roots under all simple
    reflections s_i(b) = b - <b, alpha_i^v> alpha_i."""
    l = len(cartan)
    simples = [tuple(1 if j == i else 0 for j in range(l)) for i in range(l)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for b in frontier:
            for i in range(l):
                pair = sum(b[j] * cartan[j][i] for j in range(l))
                img = list(b)
                img[i] -= pair
                t = tuple(img)
                if any(t) and t not in roots:
                    roots.add(t)
                    new.append(t)
        frontier = new
    return {r for r in roots if all(c >= 0 for c in r)}


def root_set(cartan) -> frozenset[tuple[int, ...]]:
    """Every root, positive and negative, from ``reflection_closure``."""
    pos = reflection_closure(cartan)
    return frozenset(pos | {tuple(-c for c in r) for r in pos})


def string_below(roots, a, b) -> int:
    """The length p of the a-string below b: the largest p with b - p*a a
    root, found by stepping down from b through the given set of roots (a
    root string has no gaps)."""
    p = 0
    while tuple(y - (p + 1) * x for x, y in zip(a, b)) in roots:
        p += 1
    return p


def jacobi_defect(rs, i, j, k):
    """Sum of the three cyclic double brackets on basis indices; must vanish."""
    acc = {}
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        for m, cm in rs.bracket_row(b).get(c, ()):
            for q, cq in rs.bracket_row(a).get(m, ()):
                acc[q] = acc.get(q, Fraction(0)) + cm * cq
    return {q: v for q, v in acc.items() if v}


def x_row(rs, a):
    """The row of the Chevalley generator x_a."""
    return rs.checked_row([(rs.idx_x(a), 1)])


def h_row(rs, i):
    """The row of the simple coroot h_i."""
    return rs.checked_row([(rs.idx_h(i), 1)])


def scaled(rs, c, row):
    """The row c * row."""
    return rs.checked_row([(i, c * v) for i, v in row])


def dense(rs, row) -> list:
    """The row as a list of its dim entries."""
    v = [0] * rs.dim
    for i, c in row:
        v[i] = c
    return v


def build_u_minus(spec):
    """The row of the sum of x_{-eps} over the eps of the pi2 cascade that
    do not lie in the positive subsystem of pi1."""
    r = spec.system()
    pos1 = set(r.subsystem_positive(spec.pi1))
    eps = [n.eps for n in kostant_cascade(r, spec.pi2).nodes if n.eps not in pos1]
    return r.checked_row([(r.idx_x(r.negative(e)), 1) for e in eps])


def raw_kernel(block, w):
    """A basis of a compiled block's kernel under the weights w, not
    reduced: its ``core_kernel`` vectors, each extended over all its steps
    in their order."""
    vecs = block.core_kernel(w)
    _back_substitute(vecs, w, block.steps)
    return vecs
