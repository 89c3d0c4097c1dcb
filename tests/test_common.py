"""The coset partition behind H^1 and Out R, on small cyclic groups."""

import pytest

from sqfree.common import cosets
from sqfree.errors import WitnessRejected


def _add(n):
    return lambda a, b: (a + b) % n


def test_cosets_of_a_cyclic_subgroup_are_keyed_by_their_least_element():
    assert cosets(range(12), [0, 4, 8], _add(12)) == {x: x % 4 for x in range(12)}
    # the walk order does not move the keys
    assert cosets(reversed(range(12)), [8, 0, 4], _add(12)) == {x: x % 4 for x in range(12)}


def test_an_empty_subgroup_is_refused():
    with pytest.raises(WitnessRejected):
        cosets(range(4), [], _add(4))


def test_overlapping_cosets_that_cover_are_refused():
    # H = {0, 1, 3, 4} is no subgroup of Z/8: its translates by 0, 2 and 7
    # cover Z/8, so only the rule that each coset is new elements sees it
    H, add = [0, 1, 3, 4], _add(8)
    assert {add(x, h) for x in (0, 2, 7) for h in H} == set(range(8))
    with pytest.raises(WitnessRejected):
        cosets(range(8), H, add)
