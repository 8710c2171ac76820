import itertools

from meander_oracle import blocks, meander_index
from quasired.classify import _subsets_sorted
from quasired.rootsys import SimpleType, _one_to
from quasired.seaweed import BiparabolicSpec, seaweed_index


def test_blocks_are_the_composition():
    assert blocks(4, set()) == [(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]
    assert blocks(4, {1, 2, 3, 4}) == [(1, 5)]
    assert blocks(4, {2, 3}) == [(1, 1), (2, 4), (5, 5)]


def test_meander_index_known_values():
    for n in range(1, 9):
        full = _one_to(n)
        assert meander_index(n, full, full) == n  # sl_{n+1} itself
        assert meander_index(n, set(), full) == n // 2  # its Borel
        assert meander_index(n, set(), set()) == n  # the Cartan
    # one cycle through all four vertices, then one path through them
    assert meander_index(3, {1, 3}, {1, 2, 3}) == 1
    assert meander_index(3, {1, 3}, {2}) == 0


def test_seaweed_index_equals_the_meander_index_on_every_pair_to_a7():
    checked = 0
    for n in range(1, 8):
        st = SimpleType("A", n)
        subs = _subsets_sorted(n)
        for p1, p2 in itertools.product(subs, subs):
            assert seaweed_index(BiparabolicSpec(st, p1, p2)) == meander_index(n, p1, p2), (n, p1, p2)
            checked += 1
    assert checked == 21_844
