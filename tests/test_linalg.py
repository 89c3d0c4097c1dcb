"""The Gauss-Jordan eliminator and the Z/n Lattice against an oracle that eliminates nothing.

Invertibility is decided by the cofactor determinant, solutions are checked
by multiplying back, and row-reduced bases by enumerating both spans. Every
2x2 and 3x3 matrix over GF(2), every 2x2 over GF(3) and 200 seeded 4x4
matrices over GF(5) are covered. Over Z/n, solutions and kernels are
checked against every vector of (Z/n)^m, m <= 3, and each Lattice
operation against the enumerated lattice, its sublattices and the classes
of its quotients.
"""

import random
from itertools import product
from math import gcd, prod

import pytest

from sqfree.errors import NotInvertible, WitnessRejected
from sqfree.linalg import Lattice, _gcd_step, mat_inv, row_reduce, solve


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


MODULI = tuple(range(1, 16))


def _apply(A, x, n):
    return tuple(sum(a * y for a, y in zip(row, x)) % n for row in A)


def test_gcd_step_is_unimodular_and_keeps_a_dividing_pivot():
    # a pivot that divides an entry is left as it is (t = 0), and the
    # entry is cleared
    for a in range(1, 25):
        for b in range(0, 50):
            s, t, u, v = _gcd_step(a, b)
            assert (s * a + t * b, u * a + v * b, s * v - t * u) == (gcd(a, b), 0, 1), (a, b)
            if b % a == 0:
                assert (s, t, v) == (1, 0, 1), (a, b)


@pytest.mark.parametrize("n", MODULI)
def test_z_mod_n_solutions_and_kernels_match_every_vector(n):
    # zero to four rows, entries unreduced and negative too; right sides
    # from the image and at random, so both answers of solve occur. The
    # kernel is the tail of the split at the cut
    rng = random.Random(n)
    outcomes = set()
    for m in (1, 2, 3):
        vectors = list(product(range(n), repeat=m))
        for _ in range(80 if m < 3 else 30):
            A = [[rng.randrange(-n, 2 * n) for _ in range(m)] for _ in range(rng.randrange(5))]
            image = {}
            for x in vectors:
                image.setdefault(_apply(A, x, n), []).append(x)
            kernel = image[(0,) * len(A)]
            form = Lattice.span(_block(A, m), n, len(A) + m)
            tail = form.split(len(A))[1]
            listed = tail.elements()
            assert all(d < n for _, _, d in tail._steps) and tail.width == m
            assert len(listed) == len(set(listed)) == len(kernel) == tail.order, (A, n)
            assert set(listed) == set(kernel), (A, n)
            for b in [rng.choice(list(image)), tuple(rng.randrange(n) for _ in A)]:
                x = form.solve([y + n * rng.randrange(-1, 2) for y in b])
                assert (x is None) == (b not in image), (A, b, n)
                if x is not None:
                    assert len(x) == m and all(0 <= y < n for y in x)
                    assert _apply(A, x, n) == b, (A, b, n)
                outcomes.add(x is None)
    assert outcomes == ({False} if n == 1 else {False, True})


def test_z_mod_n_solve_reads_its_steps():
    # 2 x = b over Z/6: the row (2 | 1) has d = 2 at slot 0 and leaves
    # 3 (2, 1) = (0, 3), so the kernel is {0, 3} and b must be even
    form = Lattice.span(_block([[2]], 1), 6, 2)
    assert form._steps == ((0, (2, 1), 2), (1, (0, 3), 3))
    assert form.solve([4]) in {(2,), (5,)} and form.solve([3]) is None
    # a zero matrix and a matrix without rows leave every column free: the
    # kernel's steps are the unit rows
    for A in ([[0, 6]], []):
        form = Lattice.span(_block(A, 2), 6, len(A) + 2)
        assert form._steps == ((len(A), (0,) * len(A) + (1, 0), 1), (len(A) + 1, (0,) * len(A) + (0, 1), 1))
        assert form.solve([0] * len(A)) == (0, 0)
    assert Lattice.span(_block([[0, 6]], 2), 6, 3).solve([1]) is None
    # over Z/1 there are no steps, and the one solution is m zeros
    form = Lattice.span(_block([[1, 2]], 2), 1, 3)
    assert form._steps == () and form.solve([5]) == (0, 0)


def _block(A, m):
    """The m rows (column j of A | e_j) whose Lattice solve reads."""
    return [[row[j] for row in A] + [int(j == k) for k in range(m)] for j in range(m)]


def span_of(rows, m, n):
    """Every sum of multiples of the rows over Z/n, by closing under each row's cyclic group."""
    out = {(0,) * m}
    for g in rows:
        multiples = [tuple(c * x % n for x in g) for c in range(n // gcd(n, *g))]
        out = {tuple((a + b) % n for a, b in zip(x, y)) for x in out for y in multiples}
    return out


@pytest.mark.parametrize("n", MODULI)
def test_echelon_mod_steps_span_every_sublattice_zero_before_their_slot(n):
    # about 200 seeded generator sets of up to 3 vectors, unreduced and
    # negative entries too; for every s the step rows at slots >= s must
    # span exactly the elements of the enumerated lattice zero before s,
    # each once, so the lattice has prod n/d elements
    rng = random.Random(n)
    for _ in range(200):
        m = rng.randrange(1, 4)
        gens = [[rng.choice((0, rng.randrange(-n, 2 * n))) for _ in range(m)] for _ in range(rng.randrange(4))]
        steps = Lattice.span(gens, n, m)._steps
        lattice = span_of(gens, m, n)
        assert len(lattice) == prod(n // d for _, _, d in steps), (gens, n)
        assert [slot for slot, _, _ in steps] == sorted({slot for slot, _, _ in steps}), (gens, n)
        for slot, row, d in steps:
            assert len(row) == m and all(0 <= x < n for x in row) and row[slot], (gens, n)
            assert not any(row[:slot]) and d == gcd(row[slot], n), (gens, n)
        for s in range(m + 1):
            listed = Lattice(n, m, [step for step in steps if step[0] >= s]).elements()
            assert len(listed) == len(set(listed)), (gens, n, s)
            assert set(listed) == {x for x in lattice if not any(x[:s])}, (gens, n, s)


def test_echelon_mod_reads_its_steps():
    # over Z/6, (2, 4) and (3, 0) fold to (1, 2) = 3 (3, 0) - (2, 4), and the
    # rest, -3 (2, 4) + 2 (3, 0), is zero; (6, 12) is zero already, so only
    # (0, 3) is left for slot 1
    L = Lattice.span([(2, 4), (3, 0), (6, 12), (0, 3)], 6, 2)
    assert L._steps == ((0, (1, 2), 1), (1, (0, 3), 3)) and L.rows == [(1, 2), (0, 3)] and L.order == 12
    assert Lattice.span([], 6, 2)._steps == Lattice.span([(0, 0)], 6, 2)._steps == Lattice.span([(1, 2)], 1, 2)._steps == ()
    assert Lattice.span([], 6, 2).elements() == [(0, 0)]


def _random_gens(rng, n, m):
    """Up to 3 generators of width m over Z/n, unreduced and negative entries too, zeros likely."""
    return [[rng.choice((0, rng.randrange(-n, 2 * n))) for _ in range(m)] for _ in range(rng.randrange(4))]


def _least_by(members, key):
    return min(members, key=lambda v: [key[x] for x in v])


@pytest.mark.parametrize("n", MODULI)
def test_lattice_operations_match_the_enumerated_lattice(n):
    # order, contains on every vector, least under a seeded injective key
    # (so the least member is unique), elements, and the split at every cut
    rng = random.Random(100 + n)
    key = rng.sample(range(1, 10 * n + 1), n)
    for _ in range(40):
        m = rng.randrange(1, 4)
        gens = _random_gens(rng, n, m)
        L, lattice = Lattice.span(gens, n, m), span_of(gens, m, n)
        assert L.order == len(lattice) and L.width == m and L.n == n, (gens, n)
        listed = L.elements()
        assert len(listed) == len(set(listed)) and set(listed) == lattice, (gens, n)
        assert span_of(L.rows, m, n) == lattice, (gens, n)
        vectors = list(product(range(n), repeat=m))
        assert {v for v in vectors if L.contains(v)} == lattice, (gens, n)
        for _ in range(5):
            v = [rng.randrange(-n, 2 * n) for _ in range(m)]
            coset = {tuple((x + y) % n for x, y in zip(v, z)) for z in lattice}
            assert L.least(v, key.__getitem__) == _least_by(coset, key), (gens, n, v)
        for cut in range(m + 1):
            head, tail = L.split(cut)
            assert (head.width, tail.width) == (cut, m - cut)
            assert set(head.elements()) == {x[:cut] for x in lattice}, (gens, n, cut)
            assert set(tail.elements()) == {x[cut:] for x in lattice if not any(x[:cut])}, (gens, n, cut)
            assert head.order * tail.order == L.order, (gens, n, cut)


@pytest.mark.parametrize("n", MODULI)
def test_lattice_reps_match_the_classes_of_the_listing(n):
    # sub is spanned by random multiples of sums of L's generators, so it
    # lies in L; start is affine. The walk must give sub's least member of
    # each class of (start + L) / sub, each once, as the partition of the
    # listed coset start + L gives them; sub = L gives one class
    rng = random.Random(200 + n)
    key = rng.sample(range(1, 10 * n + 1), n)
    for _ in range(40):
        m = rng.randrange(1, 4)
        gens = _random_gens(rng, n, m)
        coefficients = [[rng.randrange(n) for _ in gens] for _ in range(rng.randrange(3))]
        combos = [[sum(c * g[j] for c, g in zip(cs, gens)) for j in range(m)] for cs in coefficients]
        L, sub = Lattice.span(gens, n, m), Lattice.span(combos, n, m)
        start = [rng.randrange(-n, 2 * n) for _ in range(m)]
        members, inner = span_of(gens, m, n), span_of(combos, m, n)
        assert inner <= members
        coset = {tuple((x + y) % n for x, y in zip(start, z)) for z in members}
        classes = {}
        for v in coset:
            rep = _least_by({tuple((x + y) % n for x, y in zip(v, b)) for b in inner}, key)
            classes.setdefault(rep, []).append(v)
        got = L.reps(start, sub, key.__getitem__)
        assert len(got) == len(set(got)) == len(classes) == L.order // sub.order, (gens, combos, n)
        assert set(got) == set(classes), (gens, combos, start, n)
        assert all(sub.least(r, key.__getitem__) == r for r in got)
        assert L.reps(start, L, key.__getitem__) == [L.least(start, key.__getitem__)]


@pytest.mark.parametrize("n", MODULI)
def test_lattice_reps_refuses_a_sub_it_can_tell_is_not_inside(n):
    # a refusal always means sub is not inside L; a sub inside L is never
    # refused (previous test)
    rng = random.Random(300 + n)
    refused = 0
    for _ in range(60):
        m = rng.randrange(1, 4)
        L, sub = Lattice.span(_random_gens(rng, n, m), n, m), Lattice.span(_random_gens(rng, n, m), n, m)
        try:
            L.reps([0] * m, sub, range(n).__getitem__)
        except WitnessRejected:
            refused += 1
            assert not set(sub.elements()) <= set(L.elements()), (L._steps, sub._steps, n)
    assert refused > 0 or n == 1


def test_lattice_reps_refusals_name_the_slot():
    # a sub step at a slot where L has none; a sub value 1 at slot 0 where L reaches 2Z only
    with pytest.raises(WitnessRejected, match="^a step of the sublattice falls at a slot where the lattice has none$"):
        Lattice.span([], 4, 2).reps([0, 0], Lattice.span([(0, 1)], 4, 2), range(4).__getitem__)
    with pytest.raises(WitnessRejected, match=r"^the sublattice takes 1Z at slot 0, outside the lattice's 2Z$"):
        Lattice.span([(2, 0)], 4, 2).reps([0, 0], Lattice.span([(1, 0)], 4, 2), range(4).__getitem__)
