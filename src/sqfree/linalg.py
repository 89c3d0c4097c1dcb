"""Dense matrices over Z/p; one Gauss-Jordan column step gives span bases, solves, inverses and ranks.

Matrices are tuples of row tuples of ints reduced mod p; vectors are tuples.
Over Z/n, n not prime, a subgroup of (Z/n)^width is a Lattice: one echelon
(Howell) form by extended-gcd row steps, which gives its order, membership,
least members under a key, the list of its elements, solutions of A x = b
(of the rows (column j of A | e_j)), its split into an image and a kernel,
and the least member of each class of a quotient by a sublattice.
"""

from math import gcd, prod
from operator import add, mul

from .errors import NotInvertible, WitnessRejected


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


def _step(v, step, want, n):
    """v plus the multiple of the step's row h that takes v[slot] to want; None unless want is in v[slot] + d Z."""
    slot, h, d = step
    if (want - v[slot]) % d:
        return None
    f = (want - v[slot]) % n // d * pow(h[slot] // d, -1, n // d) % (n // d)
    return [(x + f * y) % n for x, y in zip(v, h)] if f else v


class Lattice:
    """A subgroup L of (Z/n)^width, held as the (slot, h, d) steps of an echelon (Howell) form; not changed once built.

    Lattice.span folds the rows nonzero at each slot into one row h by
    unimodular _gcd_step pairs, d = gcd(h[slot], n), and carries (n/d) h,
    zero at slot, on with the other rows. So the step rows h from slot s on
    span exactly the members zero before s, which take the values d Z at s
    (Howell, Spans in the module (Z_m)^s, 1986), and each member is
    sum c_i h_i, 0 <= c_i < n/d_i, in one way: rows are the h_i, order is |L|.
    """

    def __init__(self, n, width, steps):
        self.n, self.width, self._steps = n, width, tuple(steps)
        self.rows, self.order = tuple(h for _, h, _ in self._steps), prod(n // d for _, _, d in self._steps)

    @classmethod
    def span(cls, rows, n, width):
        """The Lattice the rows span over Z/n."""
        rows, steps = [row for row in ([x % n for x in r] for r in rows) if any(row)], []
        for slot in range(width):
            live = [row for row in rows if row[slot]]
            if not live:
                continue
            h, rows = live[0], [row for row in rows if not row[slot]]
            for row in live[1:]:
                s, t, u, v = _gcd_step(h[slot], row[slot])
                h, row = [(s * a + t * b) % n for a, b in zip(h, row)], [(u * a + v * b) % n for a, b in zip(h, row)]
                rows.append(row)
            d = gcd(h[slot], n)
            steps.append((slot, tuple(h), d))
            rows = [row for row in rows + [[x * (n // d) % n for x in h]] if any(row)]
        return cls(n, width, steps)

    def least(self, v, key):
        """The member of v + L whose keys are least slot by slot: each step (s, h, d) takes v_s to its least key in v_s + d Z."""
        n = self.n
        v = [x % n for x in v]
        for step in self._steps:
            s, _, d = step
            v = _step(v, step, min(((v[s] + d * t) % n for t in range(n // d)), key=key), n)
        return tuple(v)

    def contains(self, v):
        return self.solve(v) is not None

    def elements(self):
        """Every member once, sum c_i h_i for 0 <= c_i < n/d_i: a mixed-radix walk."""
        n, wrap, out = self.n, list(range(self.n)) * 2, [(0,) * self.width]
        for _, h, d in self._steps:
            multiples = [tuple(c * x % n for x in h) for c in range(n // d)]
            out = [tuple(map(wrap.__getitem__, map(add, y, z))) for y in out for z in multiples]
        return out

    def solve(self, b):
        """One x with (b, x) in L, else None: (-b, 0) reduced to zero on b's slots leaves (0, x).

        L spanned by the rows (column j of A | e_j) holds every (A x, x), so x solves A x = b.
        """
        n, cut, v = self.n, len(b), [-y % self.n for y in b] + [0] * (self.width - len(b))
        for step in self._steps:
            if v is None or step[0] >= cut:
                break
            v = _step(v, step, 0, n)
        return None if v is None or any(v[:cut]) else tuple(v[cut:])

    def split(self, cut):
        """(L's image on the slots before cut, L's members zero there, on the slots from cut on): the steps cut in two."""
        head = [(s, h[:cut], d) for s, h, d in self._steps if s < cut]
        tail = [(s - cut, h[cut:], d) for s, h, d in self._steps if s >= cut]
        return Lattice(self.n, cut, head), Lattice(self.n, self.width - cut, tail)

    def reps(self, start, sub, key):
        """sub.least of each class of (start + L) / sub, by one walk over L's slots, for sub inside L.

        At L's step (s, h, d), with d' that of sub's step at s (n if none), each v branches into the d'/d classes
        v_s + d t mod d', t < d'/d (t = 0 is v), each taken to its least key in v_s + d' Z by sub's step, which keeps
        every earlier slot. A sub step where L has none, or a d that does not divide d', is WitnessRejected.
        """
        n, at = self.n, {step[0]: step for step in sub._steps}
        if not at.keys() <= {s for s, _, _ in self._steps}:
            raise WitnessRejected("a step of the sublattice falls at a slot where the lattice has none")
        out = [[x % n for x in start]]
        for s, h, d in self._steps:
            d_sub = at[s][2] if s in at else n
            if d_sub % d:
                raise WitnessRejected(f"the sublattice takes {d_sub}Z at slot {s}, outside the lattice's {d}Z")
            out += [_step(v, (s, h, d), (v[s] + d * t) % n, n) for v in out for t in range(1, d_sub // d)]
            if s in at:
                out = [_step(v, at[s], min(((v[s] + d_sub * t) % n for t in range(n // d_sub)), key=key), n) for v in out]
        return [tuple(v) for v in out]
