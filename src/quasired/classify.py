"""Quasi-reductivity classification of standard parabolic subalgebras.

The decision procedure is:
  * the full subset gives the whole (reductive) algebra;
  * types A and C are always quasi-reductive;
  * types B and D translate the subset into an isotropic flag and apply the
    consecutive-odd-dimension criterion;
  * G2, F4, E7 and E8 split into connected components, each checked against
    the known list of failing connected subsets (additivity holds there since
    the cascade has full rank);
  * E6 fails exactly when alpha_2 is an isolated component or the subset is
    one of two exceptional rank-five sets (additivity fails just for those).

The failing-subset lists are the classification theorem; indices are always
recomputed from the cascade rank formula. Torus dimensions are read from the
filled ``torus_dim`` cells of the vendored ``data/golden/non_qr_<type>.csv``.
The test suite cross-checks the lists against certificates and the flag
criterion, and re-derives every torus cell from generic stabilizers.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass
from functools import cache
from importlib import resources

from .cascade import kostant_cascade, tilde_delta_plus, tilde_pi
from .rootsys import (
    _FAMILY_BOUNDS,
    _INT,
    RootSystem,
    SimpleType,
    _cartan_and_symmetrizer,
    _one_to,
    build_root_system,
)
from .seaweed import parabolic, seaweed_index

Subset = frozenset[int]

# the vendored reference tables, shipped as package data
_GOLDEN_DIR = resources.files(__package__).joinpath("data/golden")

# connected subsets whose parabolic fails to be quasi-reductive
_FAILING_CONNECTED: dict[tuple[str, int], tuple[Subset, ...]] = {
    ("G", 2): (frozenset({1}),),
    ("F", 4): (frozenset({1}),),
    ("E", 7): (
        frozenset({1}), frozenset({4}), frozenset({6}),
        frozenset({1, 3, 4}), frozenset({4, 5, 6}), frozenset({1, 3, 4, 5, 6}),
    ),
    ("E", 8): (
        frozenset({1}), frozenset({4}), frozenset({6}), frozenset({8}),
        frozenset({1, 3, 4}), frozenset({4, 5, 6}), frozenset({6, 7, 8}),
        frozenset({1, 3, 4, 5, 6}), frozenset({4, 5, 6, 7, 8}),
        frozenset({1, 3, 4, 5, 6, 7, 8}),
    ),
}

# E6: a parabolic fails exactly when alpha_2 is isolated or the subset is one
# of the two rank-five exceptions
_E6_EXTRA: tuple[Subset, ...] = (
    frozenset({1, 2, 3, 4, 6}),
    frozenset({1, 2, 4, 5, 6}),
)


@cache
def _torus_dims(t: SimpleType) -> dict[Subset, int]:
    """The filled ``torus_dim`` cells of the vendored ``non_qr_<type>.csv``,
    keyed by subset; {} for a type with no table."""
    table = _GOLDEN_DIR.joinpath(f"non_qr_{str(t).lower()}.csv")
    if not table.is_file():
        return {}
    rows = csv.DictReader(table.read_text().splitlines())
    return {
        frozenset(map(int, row["subset"].split())): int(row["torus_dim"])
        for row in rows
        if row["torus_dim"]
    }


@dataclass(frozen=True)
class FlagSpec:
    """A flag of isotropic subspace dimensions inside an orthogonal space."""

    N: int
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if not _INT.issuperset(map(type, (self.N, *self.dims))):
            raise ValueError(f"N and dims must be ints, not {self.N!r}, {self.dims!r}")
        if not self.dims or self.dims[0] < 1:
            raise ValueError("a flag needs at least one subspace, each of dimension 1 or more")
        if list(self.dims) != sorted(set(self.dims)):
            raise ValueError("dims must be strictly increasing")
        if self.dims[-1] > self.N // 2:
            raise ValueError("isotropic dimension exceeds N/2")

    @property
    def scanned(self) -> tuple[int, ...]:
        """The dimensions the flag criterion scans: all of them, less the last
        when it is odd and equals N/2."""
        if self.dims[-1] % 2 == 1 and 2 * self.dims[-1] == self.N:
            return self.dims[:-1]
        return self.dims


def dkt_flag_test(f: FlagSpec) -> bool:
    """Flag criterion: no two adjacent dimensions of ``f.scanned`` are both
    odd."""
    dims = f.scanned
    return not any(a % 2 == 1 and b % 2 == 1 for a, b in zip(dims, dims[1:]))


def pi_to_flag(t: SimpleType, subset) -> FlagSpec:
    """Dictionary from a proper subset of simple roots of an orthogonal type
    to the isotropic flag its parabolic stabilizes."""
    if t.family not in ("B", "D"):
        raise ValueError("flag dictionary applies to types B and D only")
    return _flag(t, t.checked_subset(subset))


def _flag(t: SimpleType, sub: Subset) -> FlagSpec:
    """``pi_to_flag`` of a subset already checked."""
    l = t.rank
    if sub == _one_to(l):
        raise ValueError("the full subset corresponds to no proper flag")
    if t.family == "B":
        dims = sorted(i for i in range(1, l + 1) if i not in sub)
        return FlagSpec(2 * l + 1, tuple(dims))
    dims = sorted(i for i in range(1, l - 1) if i not in sub)
    fork_out = [i for i in (l - 1, l) if i not in sub]
    if len(fork_out) == 2:
        dims += [l - 1, l]
    elif len(fork_out) == 1:
        dims += [l]
    return FlagSpec(2 * l, tuple(dims))


def single_root_test(t: SimpleType, i: int) -> bool:
    """Quasi-reductivity of the parabolic attached to one simple root: the
    root must be a half-difference root, itself a cascade highest root, or
    independent from the set of cascade highest roots: unequal on some block
    of the cascade (``cascade.blocks``), so on one of its two-root blocks
    ``Cascade.pairs``, since a one-root block is never unequal."""
    r = build_root_system(t)
    alpha = r.simple_root(i)
    c = kostant_cascade(r, r.full_subset())
    if alpha in c.eps_set:
        return True
    if any(alpha == h for h, _, _ in tilde_delta_plus(r)):
        return True
    return any(len({alpha[j - 1] for j in b}) > 1 for b in c.pairs)


@dataclass(frozen=True)
class Verdict:
    """Classification result with a replayable rule trace."""

    family: str
    rank: int
    subset: tuple[int, ...]
    quasi_reductive: bool
    index: int
    trace: tuple[str, ...]
    # torus part of a generic stabilizer, read from the vendored non_qr table;
    # None when quasi-reductive, when the cell is blank or there is no table
    torus_dim: int | None = None

    def to_dict(self) -> dict:
        d = {
            "family": self.family,
            "rank": self.rank,
            "subset": list(self.subset),
            "qr": self.quasi_reductive,
            "index": self.index,
            "trace": list(self.trace),
        }
        if self.torus_dim is not None:
            d["torus_dim"] = self.torus_dim
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _fmt(subset) -> str:
    return "{" + ",".join(str(i) for i in sorted(subset)) + "}"


def classify_parabolic(t: SimpleType, subset) -> Verdict:
    r = build_root_system(t)
    spec = parabolic(t, subset)
    sub = spec.pi1
    idx = seaweed_index(spec)
    trace: list[str] = []

    if sub == r.full_subset():
        trace.append("whole-algebra: reductive")
        qr = True
    elif t.family in ("A", "C"):
        trace.append("type-AC: always quasi-reductive")
        qr = True
    elif t.family in ("B", "D"):
        flag = _flag(t, sub)
        qr = dkt_flag_test(flag)
        trace.append(
            "dkt-flag: N={} dims=({}) scanned=({}) -> {}".format(
                flag.N,
                ",".join(map(str, flag.dims)),
                ",".join(map(str, flag.scanned)),
                "qr" if qr else "not-qr",
            )
        )
    elif (t.family, t.rank) in _FAILING_CONNECTED:
        failing = _FAILING_CONNECTED[(t.family, t.rank)]
        comps = r._components(sub)
        trace.append(
            "component-split: " + " | ".join(_fmt(c) for c in comps)
        )
        qr = True
        for c in comps:
            if c in failing:
                qr = False
                trace.append(f"component {_fmt(c)}: in failing list")
            else:
                trace.append(f"component {_fmt(c)}: allowed")
    else:  # E6
        comps = r._components(sub)
        qr = True
        if any(c == frozenset({2}) for c in comps):
            qr = False
            trace.append("e6-rule: alpha_2 is an isolated component")
        if sub in _E6_EXTRA:
            qr = False
            trace.append(f"e6-rule: exceptional rank-five subset {_fmt(sub)}")
        if qr:
            trace.append("e6-rule: no isolated alpha_2 and not exceptional")
    torus = None if qr else _torus_dims(t).get(sub)
    return Verdict(
        t.family, t.rank, tuple(sorted(sub)), qr, idx, tuple(trace), torus
    )


# ---------------------------------------------------------------------------
# reduction step to the subsystem orthogonal to the highest root


@dataclass(frozen=True)
class ReductionStep:
    """Relabelling of the tail subsystem for the transitivity reduction:
    ``mapping[k]`` is the ambient index of the k-th simple root (1-based) of
    the tail in its own Bourbaki numbering."""

    subtype: SimpleType
    mapping: tuple[int, ...]
    subset: Subset  # the input subset, relabelled into the subtype numbering


def identify_subsystem(r: RootSystem, subset) -> tuple[SimpleType, tuple[int, ...]]:
    """Bourbaki type and labelling of a connected subset of simple roots.

    Returns (type, mapping) with mapping[k-1] the ambient index of the new
    simple root alpha_k. Both come from the Cartan tables, not from the
    diagram's shape: for each family in ``_FAMILY_BOUNDS`` that admits the
    subset's size, a depth-first search places the labels 1, 2, ... in turn,
    trying ambient roots of the same degree in increasing order (next to the
    image of a placed neighbour, if there is one), and keeps the first mapping
    under which the family's ``_cartan_and_symmetrizer`` matrix equals
    ``r.cartan`` on the subset. Ties (diagram automorphisms) thus break
    toward the lexicographically smallest mapping.
    """
    sub = sorted(frozenset(subset))
    if not sub or not r.is_connected(sub):
        raise ValueError("subset must be nonempty and connected")
    C, n = r.cartan, len(sub)
    nbrs = {a: [b for b in sub if b != a and C[a - 1][b - 1]] for a in sub}

    def extend(mapping: list[int], T: list[list[int]], deg: list[int]):
        k = len(mapping)
        if k == n:
            return tuple(mapping)
        prev = next((a for a in range(k) if T[k][a]), None)
        for c in sub if prev is None else nbrs[mapping[prev]]:
            if c not in mapping and len(nbrs[c]) == deg[k] and all(
                T[k][a] == C[c - 1][m - 1] and T[a][k] == C[m - 1][c - 1]
                for a, m in enumerate(mapping)
            ):
                found = extend(mapping + [c], T, deg)
                if found:
                    return found
        return None

    for family, (lo, hi) in _FAMILY_BOUNDS.items():
        if lo <= n <= hi:
            t = SimpleType(family, n)
            T, _ = _cartan_and_symmetrizer(t)
            degrees = [sum(map(bool, row)) - 1 for row in T]  # less the diagonal
            mapping = extend([], T, degrees)
            if mapping:
                return t, mapping
    raise AssertionError(f"no Bourbaki type fits the subset {sub}")


def transitivity_descend(t: SimpleType, subset) -> ReductionStep:
    """Reduce the classification of a parabolic to the tail subsystem
    orthogonal to the highest root, available whenever the attachment root is
    avoided. The verdict inside the tail equals the ambient verdict."""
    if t.family not in ("E", "F", "G"):
        raise ValueError("descent applies to exceptional types only")
    r = build_root_system(t)
    sub = t.checked_subset(subset)
    tail, attach = tilde_pi(r, r.full_subset())
    if attach in sub:
        raise ValueError(
            f"subset contains the attachment root alpha_{attach}; no descent"
        )
    if not sub <= tail:
        raise ValueError("subset must avoid the attachment root")
    subtype, mapping = identify_subsystem(r, tail)
    inv = {old: new + 1 for new, old in enumerate(mapping)}
    return ReductionStep(subtype, mapping, frozenset(inv[i] for i in sub))


# ---------------------------------------------------------------------------
# enumerations


# Largest rank whose 2^rank subsets the enumerations build up front
MAX_ENUMERATED_RANK = 10


def _subsets_sorted(rank: int):
    """Every subset of 1..rank, smaller subsets first, each size in lex
    order; ValueError above ``MAX_ENUMERATED_RANK``."""
    if rank > MAX_ENUMERATED_RANK:
        raise ValueError(f"enumerating 2^{rank} subsets: ranks up to {MAX_ENUMERATED_RANK} only")
    full = range(1, rank + 1)
    return [frozenset(c) for k in range(rank + 1) for c in itertools.combinations(full, k)]


def enumerate_verdicts(t: SimpleType) -> list[Verdict]:
    """Classify every subset of simple roots, smaller subsets first."""
    return [classify_parabolic(t, s) for s in _subsets_sorted(t.rank)]


def enumerate_index_zero(t: SimpleType) -> list[Subset]:
    """All subsets whose parabolic has index zero (Frobenius parabolics)."""
    out = []
    for s in _subsets_sorted(t.rank):
        if seaweed_index(parabolic(t, s)) == 0:
            out.append(s)
    return out


def non_qr_subsets(t: SimpleType) -> list[Verdict]:
    return [v for v in enumerate_verdicts(t) if not v.quasi_reductive]
