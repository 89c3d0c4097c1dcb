"""Dense matrices over Z/p; one Gauss-Jordan column step gives span bases, solves, inverses and ranks.

Matrices are tuples of row tuples of ints reduced mod p; vectors are tuples.
Over Z/n, n not prime, one echelon (Howell) form by extended-gcd row
steps gives instead, slot by slot, the values a lattice's elements can take
there; of the rows (column j of A | e_j) it gives solutions of A x = b and
the kernel of A too.
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

    When a divides b it is (1, 0, -b/a, 1), which leaves a's row as it is
    and clears b's.
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


def echelon_mod(rows, n):
    """(slot, row, d) steps in slot order, an echelon form of the span of the rows over Z/n.

    At each slot the rows nonzero there fold into one row h by unimodular
    _gcd_step pairs, d = gcd(h[slot], n), and (n/d) h, zero at slot, goes
    on with the other rows. So the rows of the steps at slots >= s span
    exactly the elements zero before s, and these take the values d Z at a
    step's slot s and 0 at any other (a Howell form: Howell, Spans in the
    module (Z_m)^s, 1986). Every element is sum c_i h_i, 0 <= c_i < n/d_i,
    in one way, so the span has prod n/d_i elements.
    """
    rows, steps = [row for row in ([x % n for x in r] for r in rows) if any(row)], []
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


def step_mod(v, step, want, n):
    """v plus the multiple of the step's row h that takes v[slot] to want; None unless want is in v[slot] + d Z."""
    slot, h, d = step
    if (want - v[slot]) % d:
        return None
    m = n // d
    f = (want - v[slot]) % n // d * pow(h[slot] // d, -1, m) % m
    return [(x + f * y) % n for x, y in zip(v, h)] if f else v


def solve_mod(steps, b, m, n):
    """One x with A x = b over Z/n for m unknowns; None when there is none.

    steps is echelon_mod of the m rows (column j of A | e_j), whose span is
    every (A x, x). Reducing (-b, 0) to zero on A's slots, those before the
    cut len(b), by the steps there leaves (0, x) with A x = b. The steps
    from the cut on, cut from their rows' first len(b) entries, are an
    echelon form of A's kernel.
    """
    cut, v = len(b), [-y % n for y in b] + [0] * m
    for step in steps:
        if step[0] >= cut:
            break
        v = step_mod(v, step, 0, n)
        if v is None:
            return None
    return None if any(v[:cut]) else tuple(v[cut:])


def span_mod(steps, cols, n):
    """Every sum of c_i h_i over Z/n, 0 <= c_i < n/d_i, for echelon_mod's steps (slot, h_i, d_i): a mixed-radix walk."""
    wrap, out = list(range(n)) * 2, [(0,) * cols]
    for _, h, d in steps:
        multiples = [tuple(c * x % n for x in h) for c in range(n // d)]
        out = [tuple(map(wrap.__getitem__, map(add, y, z))) for y in out for z in multiples]
    return out
