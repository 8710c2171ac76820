"""Stabilizers of linear forms and machine-checkable torus certificates.

The stabilizer of the form kappa(u, .) restricted to the biparabolic of a
spec is the kernel of the skew matrix M = kappa(u, [e_i, e_j]) over the
basis of the spec, the indices ``biparabolic_basis`` lists; everything is
computed exactly, in integers. kappa(u, .) is scaled to a primitive integer
functional w, and M is sum_k w_k C_k with C_k the integer constants of
``bracket_into(k)``. ``form_stabilizer`` fills M for its one u, summing
each cell's terms, and takes its kernel by ``linalg._kernel``. A certificate
search instead compiles M once, before its first trial, and does most of
the kernel work there: the spec fixes the support of w, every weight
w_k = (coefficient) * kappa(x_eps, x_-eps) is nonzero and every cell is one
term w_k * c (``_form_pattern`` says why), so no draw cancels a cell. The
compiled pattern belongs to that search alone.

The compile peels leaf pairs off the pattern graph, by the leaf-removal rule
of Karp and Sipser for matchings (FOCS 1981). Take a live vertex v whose
only live neighbour is u, and remove v and u. This is exact for a skew
matrix whose cells are nonzero. Row v of the live matrix is
M[v][u] x_u = 0, so x_u = 0. Row u gives x_v = sum_s M[u][s] x_s / M[v][u]
over the other live neighbours s of u. No other live row involves v, and
x_u = 0, so the rest of x lies in the kernel of M restricted to the
remaining vertices. Each vector of that kernel therefore extends in exactly
one way, and dim ker M = (isolated vertices) + dim ker(core), where the
isolated vertices and the core (the vertices with edges) are what is left
when no leaf remains. Each block, a connected component of the pattern, is
compiled to its isolated vertices, its core and its steps; a block that
peels to nothing has no kernel and is dropped.

The compile also 2-colours each core, once: no draw cancels a cell, so a
colouring of the pattern holds for every trial. If the core splits into
halves X and Y, then M[X][X] = M[Y][Y] = 0, and M x = 0 is M[X][Y] x_Y = 0
together with M[Y][X] x_X = 0. So the core's kernel is ker M[Y][X] on X
plus ker M[X][Y] on Y, and as M[Y][X] = -M[X][Y]^T, the first of these has
dimension |X| - rank M[X][Y]. The core is eliminated as the system M[X][Y],
X the smaller half, and then as M[Y][X] only when that dimension is
positive: a core with equal halves and a full-rank M[X][Y] costs one
elimination of half its size. A core with an odd cycle is the one system
M[core][core].

A trial multiplies its weights into the cells of each system of the core
and takes a raw basis of its kernel by ``linalg._kernel``, in the pivot
order the first trial took for that system (any order is exact: a pivot
that is 0 for some draw is replaced, and only the span of the basis is
used). It starts from those vectors and the unit vectors of the isolated
vertices, and extends each over the steps in an order that puts every step
after the later-peeled steps it reads, a back-substitution: the block's raw
kernel. The compile also records each block's Killing positions, those
whose basis index has a Killing partner among the indices the blocks keep,
and moves the steps those positions depend on, its Killing steps, to the
front of that order, found by one reverse pass over the steps; across the
verify benchmarks' non-quasi-reductive parabolics these are 0-4 of each
block's 4-15 steps. The kernel is the direct sum of the block kernels. To
publish it, each block's vectors are reduced once, by ``linalg._eliminate``,
to their canonical rref. Each block's rref rows
vanish outside the block, so in the union of all of them no row has a
nonzero entry in another row's pivot column; ordered by pivot,
the union is therefore the canonical rref of the whole kernel, the rows one
elimination of the full matrix would give. A ``Subspace`` stores only these
rows, as sparse primitive integer rows with positive leading entries, which
makes them canonical. They stay integers until a certificate prints each
entry divided by its row's leading entry. A parsed row must start with 1/1,
so it equals exactly the row that was printed.

A torus certificate packages a coefficient draw whose stabilizer passes
three exact checks, which a trial runs in this order: its dimension equals
the index, the Killing form restricted to it is nondegenerate, and it is
abelian. For the full stabilizer of a form on a biparabolic these three
imply that every element is semisimple (the argument is in ``_attempt``),
so the stabilizer is a torus and witnesses quasi-reductivity; exhausted
draws prove nothing by themselves.
``is_semisimple_element`` stays as the direct check anyone can run on a
single row, such as a row of a ``Subspace``.

A certificate trial is integer-only from the draw to the verdict. Once per
search, ``seaweed._draw_layout`` lists the cascade nodes in the order
``sample_cv`` draws them, each with the basis index of its vector in u and
the one entry (j, kappa) of that vector's ``killing_row``. A trial draws one
integer d per node with the rng calls of ``sample_cv`` and scales the
weights d * kappa to a primitive integer functional w by
``linalg._primitive_int_row``, the one scaling ``form_stabilizer`` also
applies to kappa(u, .): w is what it computes for ``build_u`` of the draw,
without building u or any Fraction. The three checks run on the raw block
kernels, each on only what it reads (``_attempt`` says why that is exact):
dim S is counted before any back-substitution, the Killing check extends
the vectors over the Killing steps alone and reads them at the Killing
positions, and only a trial that passes it extends them over the other
steps for the abelian check. Only a trial that certifies reduces them to
the canonical rows and builds its ``CoefficientVector``. The Killing check
takes the ``linalg.rank`` of the integer Gram matrix rather than the
radical that ``killing_radical_on`` builds: the vectors are independent, so
the radical is 0 exactly when that rank is dim S. By Duflo and Vergne the
abelian check cannot fail once dim S is the index; it stays as an
independent exact check. ``reverify_certificate`` runs none of this: it
checks ``form_stabilizer`` of ``build_u`` of the parsed coefficients with
``seaweed_index``, ``is_abelian`` and ``killing_radical_on``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import linalg
from .rootsys import RootSystem, SimpleType, ad_columns, bracket_coords, killing_coords
from .seaweed import (
    BiparabolicSpec,
    CoefficientVector,
    _checked_maps,
    _draw,
    _draw_cv,
    _draw_layout,
    biparabolic_basis,
    build_u,
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
    """

    __slots__ = ("system", "int_rows")

    def __init__(self, system: RootSystem, int_rows) -> None:
        self.system = system
        self.int_rows = int_rows

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


@dataclass
class _Block:
    """One block of a search's form pattern, peeled (module docstring).

    ``idx`` are the sorted basis indices its kernel rows can be nonzero on:
    the vertices left live by peeling and the v of each step; every kernel
    vector is 0 on the others. The positions below are into ``idx``.
    ``isolated`` are the live vertices with no live neighbour. The core, the
    live vertices with one or more, is eliminated as ``systems``, each
    (rows, cols, cells, order): the submatrix M[rows][cols], whose cells are
    (row, column, weight index, constant) with entry weight * constant, rows
    and columns counted in rows and cols, and the pivot order its first
    elimination took, filled in place and kept as long as the pattern, which
    one search owns. A core with an odd cycle is one system (core, core);
    a core 2-coloured into halves X, the smaller, and Y is (X, Y) and then
    (Y, X), the second eliminated only when its kernel, of dimension
    |X| - rank M[X][Y], is not 0 (module docstring). ``steps`` are the
    peeled pairs as (v, weight index, constant, rest): M[v][u] is
    weight * constant, and rest lists the cells (s, weight index, constant)
    of M[u][s] over the neighbours s of u that were live then and are in
    ``idx``. A pair whose u had no other live neighbour gives x_v = 0 and is
    left out. Each step reads only live vertices and the v of steps peeled
    after it, so the steps are listed in an order that puts every step
    after those, last peeled first as ``_peel_blocks`` lists them.

    ``killing`` are the Killing positions, those whose basis index has a
    ``_killing_pairs`` partner in the pattern, and the first ``split``
    steps are the Killing steps, the ones these positions depend on; both
    are recorded by ``_killing_first``, and a block it has not seen has
    none."""

    idx: tuple[int, ...]
    isolated: list[int]
    systems: tuple[tuple[list[int], list[int], list[tuple[int, int, int, int]], list], ...]
    steps: list[tuple[int, int, int, list[tuple[int, int, int]]]]
    killing: list[int] = field(default_factory=list)
    split: int = 0

    def raw_kernel(self, w: dict[int, int]) -> list[list[int]]:
        """A basis of the block's kernel under the weights w, not reduced:
        the ``core_kernel`` vectors, each extended over all the steps."""
        vecs = self.core_kernel(w)
        _back_substitute(vecs, w, self.steps)
        return vecs

    def core_kernel(self, w: dict[int, int]) -> list[list[int]]:
        """Integer vectors over the positions of ``idx``, the core's kernel
        basis from ``linalg._kernel`` of each system and the unit vectors of
        the isolated vertices, not yet extended over any step: as many as
        the dimension of the block's kernel."""
        n = len(self.idx)
        vecs = []
        rank = None
        for rows, cols, cells, order in self.systems:
            if rank == len(cols):  # (Y, X) after a rank-|X| M[X][Y]
                continue
            m: list[dict[int, int]] = [{} for _ in rows]
            for a, b, k, c in cells:
                m[a][b] = w[k] * c
            basis, taken = linalg._kernel(m, len(cols), order)
            if not order:
                order += taken
            rank = len(taken)
            for kr in basis:
                x = [0] * n
                for t, v in zip(cols, kr):
                    x[t] = v
                vecs.append(x)
        for t in self.isolated:
            x = [0] * n
            x[t] = 1
            vecs.append(x)
        return vecs


def _back_substitute(vecs: list[list[int]], w: dict[int, int], steps) -> None:
    """Extend each vector in place over the steps, in their order:
    x_u = 0 and x_v = sum_s M[u][s] x_s / M[v][u], scaling x by the reduced
    denominator, which is positive, to keep it integral."""
    for x in vecs:
        for v, k, c, rest in steps:
            num = 0
            for s, j, e in rest:
                if x[s]:
                    num += w[j] * e * x[s]
            if num:
                d = w[k] * c
                g = gcd(num, d) if d > 0 else -gcd(num, d)
                if d != g:
                    x[:] = [y * (d // g) for y in x]
                x[v] = num // g


def _form_pattern(spec: BiparabolicSpec, support):
    """The form matrix kappa(u, [e_a, e_b]) over the basis of the spec for
    every u whose functional kappa(u, .) has the given support, compiled for
    a certificate search: the root system of the spec, the matrix's peeled
    blocks that have a kernel, and the ``_killing_pairs`` of the blocks'
    ``idx``, outside which every kernel vector is 0. The support is the duals of the
    search's slots, root-vector indices; a bracket of two basis vectors has
    at most one root-vector component, so each cell is one term w_k * c."""
    r = spec.system()
    # terms[i][j]: the (k, c) with c the e_k coefficient of [e_i, e_j]; the
    # pattern is symmetric, as kappa(u, [e_j, e_i]) = -kappa(u, [e_i, e_j])
    terms: dict[int, dict[int, tuple[int, int]]] = {i: {} for i in biparabolic_basis(spec)}
    for k in sorted(support):
        for i, j, c in r.bracket_into(k):
            if i in terms and j in terms:
                terms[i][j] = (k, c)
    blocks = tuple(_peel_blocks(terms))
    kpairs = _killing_pairs(r, {i for block in blocks for i in block.idx})
    paired = {i for i, _, _ in kpairs}
    for block in blocks:
        _killing_first(block, paired)
    return r, blocks, kpairs


def _peel_blocks(terms: dict[int, dict[int, tuple[int, int]]]) -> list[_Block]:
    """The blocks of the skew pattern terms, whose cell terms[i][j] is the
    one (weight index, constant) of M[i][j], peeled (module docstring)."""
    live = {i: len(t) for i, t in terms.items()}  # live vertex: live neighbours
    steps = {}  # v -> (step number, v, u, the other live neighbours of u)
    leaves = [i for i, d in live.items() if d == 1]
    for v in leaves:  # grows as peeling makes new leaves
        if live.get(v) != 1:
            continue
        for u in terms[v]:
            if u in live:
                break
        del live[v], live[u]
        rest = []
        for s in terms[u]:
            d = live.get(s)
            if d is not None:
                rest.append(s)
                live[s] = d - 1
                if d == 2:
                    leaves.append(s)
        if rest:  # else x_v = 0 in every kernel vector
            steps[v] = (len(steps), v, u, rest)
    # the blocks are the connected components of the pattern; one that
    # peels to nothing has no kernel, and no live vertex to start from
    blocks = []
    seen: set[int] = set()
    for start in live:
        if start in seen:
            continue
        seen.add(start)
        block = [start]
        for i in block:  # grows into the connected component of start
            for j in terms[i]:
                if j not in seen:
                    seen.add(j)
                    block.append(j)
        # every kernel vector is 0 on the u of each step and on the v of a
        # pair left out of steps
        kept = sorted([i for i in block if i in live or i in steps])
        core = [i for i in kept if live.get(i)]
        mine = sorted([steps[i] for i in kept if i in steps], reverse=True)  # last first
        local = {i: t for t, i in enumerate(kept)}
        back = []
        for _, v, u, rest in mine:
            tu = terms[u]  # x_s = 0 for the s of rest that are not kept
            rest = [(local[s], *tu[s]) for s in rest if s in local]
            back.append((local[v], *terms[v][u], rest))
        systems = []
        for rows, cols in _core_systems(core, terms, live):
            at = {j: b for b, j in enumerate(cols)}
            cells = [
                (a, at[j], *terms[i][j]) for a, i in enumerate(rows) for j in terms[i] if j in at
            ]
            systems.append(([local[i] for i in rows], [local[j] for j in cols], cells, []))
        blocks.append(_Block(
            tuple(kept),
            [local[i] for i in kept if live.get(i) == 0],
            tuple(systems),
            back,
        ))
    return blocks


def _killing_first(block: _Block, paired: set[int]) -> None:
    """Record the block's Killing positions, those of ``idx`` in paired, and
    move its Killing steps, the ones those positions depend on, to the front
    of ``steps`` in their order, the other steps after them in theirs. One
    reverse pass finds them: a step is a Killing step when its v is a
    Killing position or is read by a later Killing step. The new order
    still puts every step after the ones it reads."""
    block.killing = [t for t, i in enumerate(block.idx) if i in paired]
    need = set(block.killing)
    first, later = [], []
    for step in reversed(block.steps):
        if step[0] in need:
            first.append(step)
            for s, _, _ in step[3]:
                need.add(s)
        else:
            later.append(step)
    first.reverse()
    block.split = len(first)
    first += reversed(later)
    block.steps = first


def _core_systems(core: list[int], terms, live: dict[int, int]):
    """The (rows, cols) of the systems the core of a block is eliminated as
    (``_Block``): (core, core) if the core has an odd cycle, else its halves
    (X, Y) and then (Y, X), X the smaller, both in core order."""
    if not core:
        return []
    side: dict[int, int] = {}
    for start in core:
        if start in side:
            continue
        side[start] = 0
        queue = [start]
        for i in queue:  # grows over the core's component of start
            for j in terms[i]:
                if live.get(j):  # a live vertex with a live neighbour
                    if j not in side:
                        side[j] = 1 - side[i]
                        queue.append(j)
                    elif side[j] == side[i]:
                        return [(core, core)]
    x, y = sorted(([i for i in core if side[i] == s] for s in (0, 1)), key=len)
    return [(x, y), (y, x)]


def form_stabilizer(spec: BiparabolicSpec, u) -> Subspace:
    """Stabilizer of the restricted form of the row u: all x in the span of
    the basis of the spec with kappa(u, [x, p]) = 0 for every p in that
    basis.

    Fills the integer form matrix sum_k w_k C_k over the basis of the spec
    (module docstring), dropping the cells whose terms cancel, and reduces
    its kernel once.
    """
    r = spec.system()
    f = killing_coords(r, r.checked_row(u))
    support = [j for j in f if f[j]]
    basis = biparabolic_basis(spec)
    at = {i: t for t, i in enumerate(basis)}
    rows: list[dict[int, int]] = [{} for _ in at]
    for k, w in zip(support, linalg._primitive_int_row([f[j] for j in support])):
        for i, j, c in r.bracket_into(k):
            if i in at and j in at:
                rows[at[i]][at[j]] = rows[at[i]].get(at[j], 0) + w * c
    kernel, _ = linalg._kernel([{j: v for j, v in row.items() if v} for row in rows], len(at))
    return Subspace(r, _canonical_rows([(basis, kernel)]))


def _canonical_rows(raw) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The Subspace rows of the span of raw kernels, as (idx, vectors) pairs
    over disjoint sorted indices: each pair's vectors reduced once, in pivot
    order (module docstring)."""
    rows = []
    for idx, vecs in raw:
        red, pivots = linalg._eliminate(vecs, True)
        rows += [
            tuple((idx[t], v if kr[p] > 0 else -v) for t, v in enumerate(kr) if v)
            for kr, p in zip(red, pivots)
        ]
    return tuple(sorted(rows))


def _killing_pairs(r: RootSystem, kept: set[int]) -> tuple[tuple[int, int, int], ...]:
    """Every (i, j, kappa(e_i, e_j)) with a nonzero value and i, j in kept."""
    kappa = [(i, killing_coords(r, [(i, 1)])) for i in sorted(kept)]
    return tuple((i, j, v) for i, f in kappa for j, v in f.items() if j in kept)


def _killing_gram(pairs, rows) -> list[list[int]]:
    """The integer Gram matrix kappa(x, y) over the sparse rows x, y of
    (index, value) pairs, from the ``_killing_pairs`` of their indices."""
    # hits[i]: the (a, entry) of every row a with a nonzero entry at index i
    hits: dict[int, list[tuple[int, int]]] = {}
    for a, x in enumerate(rows):
        for i, v in x:
            hits.setdefault(i, []).append((a, v))
    gram = [[0] * len(rows) for _ in rows]
    for i, j, k in pairs:
        for a, x in hits.get(i, ()):
            for b, y in hits.get(j, ()):
                gram[a][b] += k * x * y
    return gram


def killing_radical_on(S: Subspace) -> Subspace:
    """The radical of the Killing form restricted to S, i.e. S intersected
    with its Killing orthogonal; zero exactly when the restriction is
    nondegenerate."""
    rows = S.int_rows
    pairs = _killing_pairs(S.system, {i for x in rows for i, _ in x})
    gram = [{b: v for b, v in enumerate(g) if v} for g in _killing_gram(pairs, rows)]
    basis, _ = linalg._kernel(gram, len(rows))
    vecs = []
    for kr in linalg._eliminate(basis, True)[0]:
        acc: dict[int, int] = {}
        for cj, x in zip(kr, rows):
            if cj:
                for k, v in x:
                    acc[k] = acc.get(k, 0) + cj * v
        # the rows of S and the reduced kernel rows are in rref up to one
        # scale each, so the combination is zero in every other radical
        # row's pivot column; its leading entry is its pivot
        vecs.append(_sparse_int_row(sorted(acc.items())))
    return Subspace(S.system, tuple(vecs))


def _commuting(r: RootSystem, rows) -> bool:
    """Whether the sparse rows of (index, value) pairwise commute."""
    for a, x in enumerate(rows):
        for y in rows[a + 1 :]:
            if any(bracket_coords(r, x, y).values()):
                return False
    return True


def is_abelian(S: Subspace) -> bool:
    return _commuting(S.system, S.int_rows)


def is_semisimple_element(r: RootSystem, x) -> bool:
    """Whether the row x is a semisimple element of the algebra of r.

    Uses the exact kernel criterion: ad x is semisimple iff
    ker(ad x) = ker((ad x)^2). Equivalent to the minimal polynomial of ad x
    being squarefree, but much cheaper on large types; the two routes are
    cross-checked in the test suite.
    """
    return linalg.kernel_stabilizes(ad_columns(r, x), r.dim)


@dataclass(frozen=True)
class CertChecks:
    """Which of the three certificate checks one trial passed. A trial runs
    them in the order dim S == index, a nondegenerate Killing restriction,
    S abelian, each only when the one before it passed (``_attempt``), so a
    field is True only when its check ran and passed: a trial that fails
    the Killing check has ``abelian`` False without an abelian check."""

    dim_equals_index: bool
    abelian: bool
    killing_nondegenerate: bool

    @property
    def all_true(self) -> bool:
        return self.dim_equals_index and self.abelian and self.killing_nondegenerate


@dataclass(frozen=True)
class TorusCertificate:
    """Self-contained witness of quasi-reductivity for one coefficient draw:
    a searched one passed all three checks, and a parsed one passes them
    when ``reverify_certificate`` says so."""

    spec: BiparabolicSpec
    cv: CoefficientVector
    stab: Subspace
    trial: int


def _attempt(pattern, index: int, slots, ds) -> tuple[Subspace | None, CertChecks]:
    """The three certificate checks of one draw of a search, and its
    stabilizer S when it passes them all. slots is the ``_draw_layout`` of
    the spec, a then b, ds holds one nonzero int per slot, index is
    ``seaweed_index`` of the spec and pattern is ``_form_pattern`` of the
    spec for the slots' dual indices. Those indices are
    distinct, so the weights d * kappa, scaled by
    ``linalg._primitive_int_row``, are the functional ``form_stabilizer``
    computes for ``build_u`` of the draw (module docstring), and their
    support is the pattern's.

    The checks, in order, are dim S == index, a nondegenerate Killing
    restriction to S (the integer Gram matrix kappa(x, y) over a basis of S
    has full rank), and S abelian; each runs only when the one before it
    passed, and each reads only what it needs of the raw block kernels,
    which together are a basis of S: each block's vectors are independent,
    and the blocks' ``idx`` are disjoint. None of the checks depends on the
    basis: dim S is the number of vectors, the rank of a Gram matrix does
    not change under a change of basis, and S is abelian exactly when the
    vectors pairwise commute.

    * dim S is counted before any back-substitution: it is the number of
      ``core_kernel`` vectors, one per isolated vertex and per core kernel
      vector, and extending a vector over the steps does not change it.
    * The Gram matrix X K X^T reads a vector only at the Killing positions
      of its block, where K has its ``_killing_pairs``, and those entries
      depend only on the block's Killing steps (``_killing_first``). So the
      vectors are extended over those steps alone, and the Gram matrix is
      built from them restricted to the Killing positions. Extending over
      the other steps afterwards changes a vector there only by one
      positive integer factor, which leaves the rank of the Gram matrix as
      it is.
    * Only a trial whose Gram matrix has full rank extends its vectors over
      the remaining steps, checks that they pairwise commute and, passing,
      reduces them to the canonical rows of S.

    The order loses nothing: a form whose stabilizer has dimension the
    index is regular, and by Duflo and Vergne (C. R. Acad. Sci. Paris,
    1969) the stabilizer of a regular form is abelian, so the abelian check
    cannot fail once the first check passed. It stays as an independent
    exact check.

    The checks imply that every element of S is semisimple, so S is a
    torus, under one hypothesis: S is the full stabilizer q^lambda of the
    form on the biparabolic q.

    * q^lambda is the Lie algebra of the algebraic stabilizer Q^lambda
      (characteristic 0), so it contains the semisimple and the nilpotent
      Jordan part of each of its elements (Humphreys, Linear Algebraic
      Groups, section 15).
    * In an abelian S, the nilpotent part n of any x in S commutes with all
      of S. So ad n ad y is nilpotent and kappa(n, y) = 0 for every y in S.
    * That puts n in the Killing radical of S, which the Killing check
      proved to be 0; hence x is semisimple.
    """
    r, blocks, kpairs = pattern
    ws = linalg._primitive_int_row([d * s.kappa for s, d in zip(slots, ds)])
    w = dict(zip([s.dual for s in slots], ws))
    raw = [block.core_kernel(w) for block in blocks]
    if sum(map(len, raw)) != index:
        return None, CertChecks(False, False, False)
    for b, xs in zip(blocks, raw):
        _back_substitute(xs, w, b.steps[: b.split])
    rows = [[(b.idx[t], x[t]) for t in b.killing if x[t]] for b, xs in zip(blocks, raw) for x in xs]
    if linalg.rank(_killing_gram(kpairs, rows)) != len(rows):
        return None, CertChecks(True, False, False)
    for b, xs in zip(blocks, raw):
        _back_substitute(xs, w, b.steps[b.split :])
    rows = [[(b.idx[t], v) for t, v in enumerate(x) if v] for b, xs in zip(blocks, raw) for x in xs]
    if not _commuting(r, rows):
        return None, CertChecks(True, False, True)
    S = Subspace(r, _canonical_rows((b.idx, xs) for b, xs in zip(blocks, raw)))
    return S, CertChecks(True, True, True)


# Most trials one search may take, so that every search ends; the CLI's
# default is 20.
MAX_TRIALS = 1000


def certify_quasi_reductive(
    spec: BiparabolicSpec, trials: int = 20, seed: int = 0
) -> TorusCertificate | None:
    """Search seeded random coefficient draws for a torus certificate.

    Trial t draws what the t-th ``sample_cv`` call on ``random.Random(seed)``
    draws, and only a certifying trial builds its ``CoefficientVector``.
    A returned certificate proves quasi-reductivity; exhausting the trials
    proves nothing and is reported as None. A trial's stabilizer must have
    dimension ``seaweed_index(spec)``, which the search computes itself.
    """
    if type(trials) is not int:
        raise ValueError(f"the trial count {trials!r} is not an int")
    if trials < 1:
        raise ValueError("at least one trial is required")
    if trials > MAX_TRIALS:
        raise ValueError(f"at most {MAX_TRIALS} trials are allowed, not {trials}")
    index = seaweed_index(spec)
    a, b = _draw_layout(spec)
    slots = a + b
    pattern = _form_pattern(spec, [s.dual for s in slots])
    rng = random.Random(seed)
    for t in range(trials):
        ds = _draw(len(slots), rng)
        S, checks = _attempt(pattern, index, slots, ds)
        if checks.all_true:
            return TorusCertificate(spec, _draw_cv(a, b, ds), S, t)
    return None


def reverify_certificate(cert: TorusCertificate) -> bool:
    """Recompute the stabilizer from (spec, cv) and re-run the three checks.

    It calls only ``form_stabilizer``, ``build_u``, ``seaweed_index``,
    ``is_abelian`` and ``killing_radical_on``: none of the search's compile,
    peeling or trial runs, so a defect there cannot pass its certificates."""
    spec = cert.spec
    S = form_stabilizer(spec, build_u(spec, cert.cv))
    return (
        S == cert.stab
        and S.dim == seaweed_index(spec)
        and is_abelian(S)
        and killing_radical_on(S).dim == 0
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


_CERT_HEADER = "quasired certificate v1"
# the lines after the header, in this order and each once; the rows follow
_CERT_FIELDS = ("type", "pi1", "pi2", "a", "b", "stabilizer-dim", "trial")


def certificate_to_text(cert: TorusCertificate) -> str:
    spec = cert.spec
    coeffs = lambda entries: "; ".join(
        f"{'+'.join(str(i) for i in sorted(k))}={v.numerator}/{v.denominator}"
        for k, v in entries
    )
    values = {
        "type": str(spec.ambient),
        "pi1": _subset_text(spec.pi1),
        "pi2": _subset_text(spec.pi2),
        "a": coeffs(cert.cv.a),
        "b": coeffs(cert.cv.b),
        "stabilizer-dim": cert.stab.dim,
        "trial": cert.trial,
    }
    lines = [_CERT_HEADER] + [f"{key}: {values[key]}" for key in _CERT_FIELDS]
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


def _parse_coeffs(txt: str) -> dict[frozenset[int], Fraction]:
    out = {}
    for part in filter(None, (p.strip() for p in txt.split(";"))):
        key, _, val = part.partition("=")
        sup = frozenset(int(p) for p in key.split("+"))
        if sup in out:
            raise ValueError(f"coefficient key {key.strip()!r} repeated")
        out[sup] = _parse_fraction(val)
    return out


def certificate_from_text(text: str) -> TorusCertificate:
    """Parse the canonical text form: the header, one line for each of
    ``_CERT_FIELDS`` in that order, then the ``row:`` lines; blank lines are
    skipped. Any other layout or malformed value raises ValueError, and so do
    coefficient keys that are not the supports of the spec's cascades, so a
    parsed certificate can always be re-verified. Each value must be written
    as ``certificate_to_text`` writes it, so printing a parsed certificate
    gives back its text up to blank lines and spaces around keys and
    values."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines or lines[0].strip() != _CERT_HEADER:
        raise ValueError("unrecognized certificate header")
    n = len(_CERT_FIELDS)
    keyed = [(k.strip(), v.strip()) for k, _, v in (l.partition(":") for l in lines[1:])]
    for i, want in enumerate(_CERT_FIELDS + ("row",) * (len(keyed) - n)):
        got = keyed[i][0] if i < len(keyed) else None
        if got != want:
            raise ValueError(f"certificate line {i + 2}: expected {want!r}, got {got!r}")
    fields, rows = dict(keyed[:n]), [v for _, v in keyed[n:]]
    m = re.fullmatch(r"([A-G])(\d+)", fields["type"])
    if not m:
        raise ValueError(f"bad type field {fields['type']!r}")
    stype = SimpleType(m.group(1), int(m.group(2)))
    spec = BiparabolicSpec(
        stype, _parse_subset(fields["pi1"]), _parse_subset(fields["pi2"])
    )
    cv = CoefficientVector.from_maps(_parse_coeffs(fields["a"]), _parse_coeffs(fields["b"]))
    r, *_ = _checked_maps(spec, cv)
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
    if int(fields["stabilizer-dim"]) != len(rows):
        raise ValueError(f"stabilizer-dim {fields['stabilizer-dim']} over {len(rows)} rows")
    trial = int(fields["trial"])
    if not 0 <= trial < MAX_TRIALS:
        raise ValueError(f"trial {trial} out of range 0..{MAX_TRIALS - 1}")
    cert = TorusCertificate(spec, cv, Subspace(r, tuple(int_rows)), trial)
    printed = certificate_to_text(cert).splitlines()[1:]
    for (key, value), line in zip(keyed, printed):
        want = line.partition(": ")[2]
        if value != want:
            raise ValueError(f"{key} value {value!r} is not written as printed: {want!r}")
    return cert
