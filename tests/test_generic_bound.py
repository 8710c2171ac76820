"""``seaweed_index`` against Dixmier's definition of the index, with no
cascade involved: ind q = min dim q^lambda over lambda in q*, and the forms
that reach it are dense. So no form may have a stabilizer smaller than the
index, and a random one reaches it.

The forms are lambda = kappa(u, .) restricted to q, with u a random integer
combination of the Killing duals of q's basis: x_-a / kappa(x_a, x_-a) for a
root vector x_a of q, and the dual basis of the h_i through the inverse of
the Killing Gram matrix on h, read off ``linalg.rref``. So lambda takes the
drawn integers on q's basis, and every integer point of q* can be drawn.
These forms have cells of several terms, which no certificate search's form
has, so they also drive ``form_stabilizer``'s term-summing fill on every
type.

Every pair of every type up to rank 5 runs in tier-1, which samples 200 E6,
100 E7 and 40 E8 pairs; every E6 and every E7 pair run under the ``ci``
marker (``pytest -m ci``).
"""

import itertools
import random
from fractions import Fraction

import pytest

from conftest import system
from quasired import linalg
from quasired.classify import _subsets_sorted as subsets
from quasired.rootsys import SimpleType
from quasired.seaweed import BiparabolicSpec, biparabolic_basis, seaweed_index
from quasired.stabilizer import form_stabilizer

MAX_DRAWS = 3
PAIR_TYPES = [("G", 2), ("F", 4), ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
              ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("C", 3), ("C", 4), ("C", 5),
              ("D", 4), ("D", 5),
              pytest.param("E", 6, marks=pytest.mark.ci), pytest.param("E", 7, marks=pytest.mark.ci)]
# seeded samples of the pairs of the larger exceptional types, for tier-1
SAMPLES = [("E", 6, 200), ("E", 7, 100), ("E", 8, 40)]


def killing_duals(r) -> dict:
    """For each basis index i of g, the row of the e with kappa(e, e_j) = 1
    for j = i and 0 for every other basis index j."""
    lo, l = r.n_pos, r.rank
    gram = [[0] * l for _ in range(l)]
    for i in range(l):
        for j, v in r.killing_row(lo + i):
            gram[i][j - lo] = v
    red, _ = linalg.rref([row + [int(i == j) for j in range(l)] for i, row in enumerate(gram)])
    inv = [row[l:] for row in red]
    duals = {lo + i: tuple((lo + j, v) for j, v in enumerate(inv[i]) if v) for i in range(l)}
    for i in range(r.dim):
        if i not in duals:
            ((j, v),) = r.killing_row(i)
            duals[i] = ((j, Fraction(1, v)),)
    return duals


def generic_form(spec, duals, rng):
    """The row of u = sum c_i dual(i) over q's basis, c_i drawn in [-50, 50]."""
    r = spec.system()
    return r.checked_row(
        (j, rng.randint(-50, 50) * v) for i in biparabolic_basis(spec) for j, v in duals[i]
    )


def check_generic_bound(spec, duals, rng) -> None:
    """No draw falls below the index, and one of at most MAX_DRAWS reaches it."""
    index = seaweed_index(spec)
    dims = []
    for _ in range(MAX_DRAWS):
        dims.append(form_stabilizer(spec, generic_form(spec, duals, rng)).dim)
        assert dims[-1] >= index, (sorted(spec.pi1), sorted(spec.pi2), index, dims)
        if dims[-1] == index:
            return
    raise AssertionError(f"no draw reached index {index}: {dims} at {sorted(spec.pi1)}, {sorted(spec.pi2)}")


def test_killing_duals_are_dual():
    r = system("B", 3)
    duals = killing_duals(r)
    for i, j in itertools.product(range(r.dim), repeat=2):
        value = sum(c * v for k, c in duals[i] for m, v in r.killing_row(k) if m == j)
        assert value == (i == j), (i, j)


@pytest.mark.parametrize("family,rank", PAIR_TYPES)
def test_generic_forms_reach_the_index_on_every_pair(family, rank):
    r = system(family, rank)
    st = SimpleType(family, rank)
    duals = killing_duals(r)
    rng = random.Random(f"generic:{family}{rank}")
    subs = subsets(rank)
    for p1, p2 in itertools.product(subs, subs):
        check_generic_bound(BiparabolicSpec(st, p1, p2), duals, rng)


@pytest.mark.parametrize("family,rank,size", SAMPLES)
def test_generic_forms_reach_the_index_on_sampled_pairs(family, rank, size):
    r = system(family, rank)
    st = SimpleType(family, rank)
    duals = killing_duals(r)
    rng = random.Random(f"generic:{family}{rank}")
    pairs = list(itertools.product(subsets(rank), repeat=2))
    for p1, p2 in rng.sample(pairs, size):
        check_generic_bound(BiparabolicSpec(st, p1, p2), duals, rng)
