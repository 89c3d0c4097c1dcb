"""Standard small semigroups and fields used by tests, demos and the docs."""

from itertools import product

from .coeff import FiniteField, Quaternions
from .sgrp import SquareFreeSemigroup


def single():
    """One idempotent, nothing else."""
    return SquareFreeSemigroup.make(1, [(1, 1)], [])


def t2():
    """Two idempotents joined by one arrow 1 -> 2."""
    return SquareFreeSemigroup.make(2, [(1, 1), (2, 2), (1, 2)], [])


def a3():
    """Path 1 -> 2 -> 3 with the composite arrow present."""
    return SquareFreeSemigroup.make(
        3,
        [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (1, 3)],
        [(1, 2, 3)],
    )


def mu(n):
    """Full matrix-unit semigroup on n idempotents."""
    return SquareFreeSemigroup.make(
        n,
        list(product(range(1, n + 1), repeat=2)),
        list(product(range(1, n + 1), repeat=3)),
    )


def two_cycle():
    """Arrows both ways between two idempotents, but no composition.

    The two arrow products vanish, so the classes stay singletons and the
    two arrow automorphisms of a cocycle are linked only through gauge
    conjugation; their exponent sum is a gauge invariant.
    """
    return SquareFreeSemigroup.make(2, [(1, 1), (2, 2), (1, 2), (2, 1)], [])


def double_t2():
    """Disjoint union of two copies of t2; has a component-swapping automorphism."""
    return SquareFreeSemigroup.make(
        4,
        [(1, 1), (2, 2), (3, 3), (4, 4), (1, 2), (3, 4)],
        [],
    )


def gf(q):
    """GF(q) for the orders used around here, with pinned moduli."""
    table = {
        2: (2, 1, None),
        3: (3, 1, None),
        4: (2, 2, (1, 1, 1)),
        5: (5, 1, None),
        8: (2, 3, (1, 1, 0, 1)),
        9: (3, 2, (1, 0, 1)),
    }
    if q not in table:
        raise ValueError(f"no pinned modulus for GF({q})")
    p, k, modulus = table[q]
    return FiniteField(p, k, modulus)


def quaternions():
    return Quaternions()
