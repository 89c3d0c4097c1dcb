"""Dense matrices over Z/p; one Gauss-Jordan column step gives span bases, solves, inverses and ranks.

Matrices are tuples of row tuples of ints reduced mod p; vectors are tuples.
Over Z/n, n not prime, one diagonal form by extended-gcd steps gives
solutions and kernels instead, and an echelon (Howell) form of a lattice
gives, slot by slot, the values its elements can take there.
"""

from math import gcd
from operator import add, mul

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


def _gcd_step(a, b):
    """(s, t, u, v) with s a + t b = gcd(a, b), u a + v b = 0 and s v - t u = 1, for a > 0.

    When a divides b it is (1, 0, -b/a, 1), which leaves a's row or column
    as it is; diagonal_form's loops end on that.
    """
    if b % a == 0:
        return 1, 0, -(b // a), 1
    s0, s1, t0, t1, r0, r1 = 1, 0, 0, 1, a, b
    while r1:
        f = r0 // r1
        r0, r1, s0, s1, t0, t1 = r1, r0 - f * r1, s1, s0 - f * s1, t1, t0 - f * t1
    return s0, t0, -(b // r0), a // r0


def _combine(x, y, s, t, u, v, n):
    """The rows (s x + t y, u x + v y) mod n."""
    return [(s * a + t * b) % n for a, b in zip(x, y)], [(u * a + v * b) % n for a, b in zip(x, y)]


def diagonal_form(A, cols, n):
    """(steps, d, V) with steps(A) V = diag(d) over Z/n, for A with cols columns and any number of rows.

    Extended-gcd row and column steps (Cohen, A Course in Computational
    Algebraic Number Theory, 2.4), each pivot the least entry left. A step
    (r, i, s, t, u, v) replaces rows r and i by s r + t i and u r + v i, of
    determinant -1 or 1; V is a list of columns, also unimodular. A pivot
    only falls, so each loop ends. d holds the nonzero pivots; the rows and
    columns from len(d) on are zero.
    """
    A = [[x % n for x in row] for row in A]
    rows, steps, d = len(A), [], []
    V = [[int(r == c) for c in range(cols)] for r in range(cols)]
    for r in range(min(rows, cols)):
        least = min(((A[i][j], i, j) for j in range(r, cols) for i in range(r, rows) if A[i][j]), default=None)
        if least is None:
            break
        _, i, j = least
        if i != r:
            A[r], A[i] = A[i], A[r]
            steps.append((r, i, 0, 1, 1, 0))
        if j != r:
            for row in A:
                row[r], row[j] = row[j], row[r]
            V[r], V[j] = V[j], V[r]
        moved = True
        while moved:
            for i in range(r + 1, rows):
                if A[i][r]:
                    s, t, u, v = step = _gcd_step(A[r][r], A[i][r])
                    if t:
                        A[r], A[i] = _combine(A[r], A[i], s, t, u, v, n)
                    else:
                        A[i] = [(u * x + y) % n for x, y in zip(A[r], A[i])]
                    steps.append((r, i, *step))
            moved = False
            for j in range(r + 1, cols):
                if A[r][j]:
                    s, t, u, v = _gcd_step(A[r][r], A[r][j])
                    moved = moved or t != 0
                    if moved:
                        for row in A:
                            row[r], row[j] = (s * row[r] + t * row[j]) % n, (u * row[r] + v * row[j]) % n
                    else:
                        # column r is zero below the pivot and stays as it is
                        A[r][j] = 0
                    V[r], V[j] = _combine(V[r], V[j], s, t, u, v, n)
        d.append(A[r][r])
    return steps, d, V


def solve_mod(form, b, n):
    """One x with A x = b over Z/n, read off A's diagonal_form; None when there is none."""
    steps, d, V = form
    c = [y % n for y in b]
    for r, i, s, t, u, v in steps:
        c[r], c[i] = (s * c[r] + t * c[i]) % n, (u * c[r] + v * c[i]) % n
    if any(c[len(d):]):
        return None
    x = [0] * len(V)
    for di, ci, column in zip(d, c, V):
        g = gcd(di, n)
        if ci % g:
            return None
        m = n // g
        f = ci // g * pow(di // g, -1, m) % m
        x = [(y + f * z) % n for y, z in zip(x, column)]
    return tuple(x)


def kernel_mod(form, n):
    """(generator, order) pairs, order above 1, whose cyclic groups sum directly to the kernel of A over Z/n.

    The kernel has prod gcd(d_i, n) * n^(free columns) elements.
    """
    _, d, V = form
    out = []
    for i, column in enumerate(V):
        g = gcd(d[i], n) if i < len(d) else n
        if g > 1:
            out.append((tuple(x * (n // g) % n for x in column), g))
    return out


def echelon_mod(gens, n):
    """(slot, row, d) steps in slot order, an echelon form of the span over Z/n of kernel_mod's (g_i, order_i) pairs.

    At each slot the rows nonzero there fold into one row h by unimodular
    _gcd_step pairs, d = gcd(h[slot], n), and (n/d) h, zero at slot, goes
    on with the other rows. So the rows of the steps at slots >= s span
    exactly the elements zero before s, and these take the values d Z at a
    step's slot s and 0 at any other (a Howell form: Howell, Spans in the
    module (Z_m)^s, 1986).
    """
    rows, steps = [row for row in ([x % n for x in g] for g, _ in gens) if any(row)], []
    for slot in range(len(rows[0]) if rows else 0):
        live = [row for row in rows if row[slot]]
        if not live:
            continue
        h, rows = live[0], [row for row in rows if not row[slot]]
        for row in live[1:]:
            h, row = _combine(h, row, *_gcd_step(h[slot], row[slot]), n)
            rows.append(row)
        d = gcd(h[slot], n)
        steps.append((slot, tuple(h), d))
        rows = [row for row in rows + [[x * (n // d) % n for x in h]] if any(row)]
    return steps


def span_mod(gens, cols, n):
    """Every sum of c_i g_i over Z/n, 0 <= c_i < order_i, for kernel_mod's pairs (g_i, order_i) of cols entries: a mixed-radix walk."""
    wrap, out = list(range(n)) * 2, [(0,) * cols]
    for g, order in gens:
        steps = [tuple(c * x % n for x in g) for c in range(order)]
        out = [tuple(map(wrap.__getitem__, map(add, y, z))) for y in out for z in steps]
    return out
