"""Dense matrices over Z/p, just enough for unit tests and map composition.

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


def row_reduce(vecs, p):
    """Reduced row-echelon basis of the span of the given vectors."""
    # equal rows add nothing to the span, so each is reduced once
    rows = dict.fromkeys(tuple([x % p for x in v]) for v in vecs)
    lead = {}
    for row in rows:
        for pivot_col, pivot_row in lead.items():
            if row[pivot_col]:
                f = row[pivot_col]
                row = [(x - f * y) % p for x, y in zip(row, pivot_row)]
        col = next((c for c, x in enumerate(row) if x), None)
        if col is None:
            continue
        inv = pow(row[col], -1, p)
        row = [x * inv % p for x in row]
        for pivot_col in list(lead):
            other = lead[pivot_col]
            if other[col]:
                f = other[col]
                lead[pivot_col] = [(x - f * y) % p for x, y in zip(other, row)]
        lead[col] = row
    return [tuple(lead[c]) for c in sorted(lead)]


def mat_inv(A, p):
    """Gauss-Jordan over Z/p; raises when the matrix is singular."""
    n = len(A)
    aug = [list(A[r]) + [1 if c == r else 0 for c in range(n)] for r in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] % p), None)
        if pivot is None:
            raise NotInvertible(f"singular matrix mod {p}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [x * inv % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)
