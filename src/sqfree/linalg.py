"""Dense matrices over Z/p; one Gauss-Jordan column step gives span bases, solves, inverses and ranks.

Matrices are tuples of row tuples of ints reduced mod p; vectors are tuples.
"""

from operator import mul

from .errors import NotInvertible


def identity_matrix(n):
    return tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))


def mat_vec(A, v, p):
    return tuple(sum(map(mul, row, v)) % p for row in A)


def mat_mul(A, B, p):
    cols = list(zip(*B))
    return tuple(tuple(sum(map(mul, row, col)) % p for col in cols) for row in A)


def _pivot(rows, rank, col, p):
    """Move the first row from rank on nonzero at col to rank, scale it to 1 there, clear col elsewhere; or False."""
    pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
    if pivot is None:
        return False
    inv = pow(rows[pivot][col], -1, p)
    row = [x * inv % p for x in rows[pivot]]
    rows[pivot], rows[rank] = rows[rank], row
    for r, other in enumerate(rows):
        if r != rank and other[col]:
            f = other[col]
            rows[r] = [(x - f * y) % p for x, y in zip(other, row)]
    return True


def row_reduce(vecs, p):
    """Reduced row-echelon basis of the span of the given vectors, in lead order."""
    # equal rows add nothing to the span, so each is reduced once
    rows = [list(v) for v in dict.fromkeys(tuple([x % p for x in v]) for v in vecs)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        rank += _pivot(rows, rank, col, p)
    return [tuple(row) for row in rows[:rank]]


def solve(A, B, p):
    """X with A X = B for a square A over Z/p, read off [A | B]; None when A is singular."""
    rows, n = [[x % p for x in a] + [x % p for x in b] for a, b in zip(A, B)], len(A)
    for col in range(n):
        if not _pivot(rows, col, col, p):
            return None
    return tuple(tuple(row[n:]) for row in rows)


def mat_inv(A, p):
    """The inverse of A over Z/p; raises NotInvertible when A is singular."""
    X = solve(A, identity_matrix(len(A)), p)
    if X is None:
        raise NotInvertible(f"singular matrix mod {p}")
    return X
