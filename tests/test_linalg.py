"""The Gauss-Jordan eliminator against an oracle that eliminates nothing.

Invertibility is decided by the cofactor determinant, solutions are checked
by multiplying back, and row-reduced bases by enumerating both spans. Every
2x2 and 3x3 matrix over GF(2), every 2x2 over GF(3) and 200 seeded 4x4
matrices over GF(5) are covered.
"""

import random
from itertools import product

import pytest

from sqfree.errors import NotInvertible
from sqfree.linalg import mat_inv, row_reduce, solve


def _all_matrices(n, p):
    for entries in product(range(p), repeat=n * n):
        yield tuple(tuple(entries[r * n : r * n + n]) for r in range(n))


def _seeded_matrices(n, p, count, seed):
    rng = random.Random(seed)
    return [tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n)) for _ in range(count)]


CASES = {
    "GF2-2x2": (2, list(_all_matrices(2, 2))),
    "GF2-3x3": (2, list(_all_matrices(3, 2))),
    "GF3-2x2": (3, list(_all_matrices(2, 3))),
    "GF5-4x4-seeded": (5, _seeded_matrices(4, 5, 200, seed=5)),
}


def _det(A, p):
    """Cofactor expansion along the first row."""
    if len(A) == 1:
        return A[0][0] % p
    return sum(
        (-1) ** c * A[0][c] * _det([row[:c] + row[c + 1 :] for row in A[1:]], p) for c in range(len(A))
    ) % p


def _product(A, B, p):
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)) for row in A)


def _identity(n):
    return tuple(tuple(int(r == c) for c in range(n)) for r in range(n))


def _span(vecs, p, width):
    """Every F_p combination of vecs, enumerated."""
    out = {(0,) * width}
    for v in vecs:
        out = {tuple((x + c * y) % p for x, y in zip(w, v)) for w in out for c in range(p)}
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_mat_inv_refuses_exactly_the_zero_determinants(case):
    p, matrices = CASES[case]
    for A in matrices:
        if _det(A, p) == 0:
            with pytest.raises(NotInvertible):
                mat_inv(A, p)
        else:
            assert _product(A, mat_inv(A, p), p) == _identity(len(A)), A


@pytest.mark.parametrize("case", sorted(CASES))
def test_solve_multiplies_back_to_a_random_right_side(case):
    p, matrices = CASES[case]
    rng = random.Random(case)
    for A in matrices:
        n, width = len(A), rng.randrange(4)
        B = tuple(tuple(rng.randrange(-p, 2 * p) for _ in range(width)) for _ in range(n))
        X = solve(A, B, p)
        if _det(A, p) == 0:
            assert X is None, A
        else:
            assert len(X) == n and all(len(row) == width for row in X)
            assert _product(A, X, p) == tuple(tuple(b % p for b in row) for row in B), (A, B)


def _assert_reduced_basis(vecs, p):
    width = len(vecs[0])
    basis = row_reduce(vecs, p)
    leads = [next(c for c, x in enumerate(row) if x) for row in basis]
    assert leads == sorted(set(leads))
    for row, lead in zip(basis, leads):
        assert isinstance(row, tuple) and row[lead] == 1
        assert all(0 <= x < p for x in row)
        assert [other[lead] for other in basis] == [int(other is row) for other in basis]
    assert _span(basis, p, width) == _span([[x % p for x in v] for v in vecs], p, width)


@pytest.mark.parametrize("case", ["GF2-2x2", "GF2-3x3", "GF3-2x2"])
def test_row_reduce_gives_the_reduced_basis_of_the_same_span(case):
    p, matrices = CASES[case]
    for A in matrices:
        _assert_reduced_basis(A, p)


def test_row_reduce_reads_unreduced_repeated_and_zero_rows():
    _assert_reduced_basis([(4, -1, 0), (0, 0, 0), (1, 2, 0), (4, -1, 0), (-2, 2, 3)], 3)
    _assert_reduced_basis([(0, 0), (0, 0)], 3)
    assert row_reduce([], 3) == []


@pytest.mark.parametrize("case", sorted(CASES))
def test_row_reduce_rank_is_full_exactly_when_the_determinant_is_not_zero(case):
    p, matrices = CASES[case]
    for A in matrices:
        assert (len(row_reduce(A, p)) == len(A)) == (_det(A, p) != 0), A
