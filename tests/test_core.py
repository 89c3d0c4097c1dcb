"""Differential tests: the structure-constant core against the dict product.

The dict-based `mul` stays the reference product. Every routine that now
runs on the prime-field core (products, unit and idempotent enumeration,
automorphism checks, Inn R lookups) is compared here with a scan written
on `mul` alone.
"""

import random
from itertools import product

import pytest

from sqfree.autos import (
    InnerWitness,
    RingAut,
    aut_r_bruteforce,
    check_ring_automorphism,
    inner_group,
    is_inner,
    tau,
    unit_inverse,
)
from sqfree.cohom import TwoCocycle, act, random_gauge
from sqfree.common import ValidationReport
from sqfree.errors import NotInvertible
from sqfree.fixtures import a3, double_t2, gf, mu, single, t2, two_cycle
from sqfree.linalg import mat_inv, mat_vec
from sqfree.twring import (
    TwistedRing,
    enumerate_elements,
    enumerate_idempotents,
    enumerate_units,
    from_vector,
    identity_element,
    linear_basis,
    mul,
    to_vector,
)
from test_autos import aut_r_linear_filter, reference_aut_r
from test_twring import random_ring_element

FIXTURES = {
    "single": single,
    "t2": t2,
    "a3": a3,
    "mu2": lambda: mu(2),
    "two_cycle": two_cycle,
    "double_t2": double_t2,
}
FIELDS = (2, 3, 4, 8, 9)
# the dict-product reference scans cost about 1ms per element
SCAN_LIMIT = 729


def gauged_ring(name, q, seed):
    S, F = FIXTURES[name](), gf(q)
    c = act(S, random_gauge(S, F, random.Random(seed)), TwoCocycle.trivial(S, F), check=False)
    return TwistedRing(S, F, c)


def frobenius_ring(q):
    F = gf(q)
    return TwistedRing(t2(), F, TwoCocycle.trivial(t2(), F).replace_alpha((1, 2), F.frobenius(1)))


def corrupted_ring():
    # e_1 s_12 = 2 s_12 breaks the unit law: not a cocycle, and not associative
    S, F = a3(), gf(3)
    return TwistedRing(S, F, TwoCocycle.trivial(S, F).replace_xi((1, 1, 2), F.element(2)), check=False)


GRID = [(name, q) for name in FIXTURES for q in FIELDS]
RINGS = [pytest.param(lambda n=n, q=q: gauged_ring(n, q, f"{n}/GF{q}"), id=f"{n}-GF{q}") for n, q in GRID]
RINGS += [
    pytest.param(lambda: frobenius_ring(4), id="t2-GF4-frob"),
    pytest.param(lambda: frobenius_ring(9), id="t2-GF9-frob"),
    pytest.param(corrupted_ring, id="a3-GF3-corrupted"),
]


def ref_idempotents(R):
    return [x for x in enumerate_elements(R) if mul(R, x, x) == x]


def ref_units(R):
    """Left-regular matrix rank on dict products, then both products re-checked."""
    one = identity_element(R)
    basis = linear_basis(R)
    out = []
    for x in enumerate_elements(R):
        cols = [to_vector(R, mul(R, x, b)) for b in basis]
        A = tuple(zip(*cols))
        try:
            y = from_vector(R, mat_vec(mat_inv(A, R.D.p), to_vector(R, one), R.D.p))
        except NotInvertible:
            continue
        if mul(R, x, y) == one and mul(R, y, x) == one:
            out.append(x)
    return out


@pytest.mark.parametrize("make", RINGS)
def test_core_product_matches_dict_mul(make):
    R = make()
    core = R.core
    rng = random.Random(7)
    for _ in range(30):
        x, y = random_ring_element(R, rng), random_ring_element(R, rng)
        assert core.mul(to_vector(R, x), to_vector(R, y)) == to_vector(R, mul(R, x, y))
    assert core.one == to_vector(R, identity_element(R))


@pytest.mark.parametrize("make", RINGS)
def test_enumerators_match_dict_scan(make):
    R = make()
    if R.D.q ** len(R.S.support) > SCAN_LIMIT:
        pytest.skip("reference scan too long")
    assert enumerate_idempotents(R) == ref_idempotents(R)
    assert enumerate_units(R) == ref_units(R)


def test_check_ring_automorphism_matches_linear_filter():
    S, F = t2(), gf(2)
    R = TwistedRing(S, F, TwoCocycle.trivial(S, F))
    N = len(linear_basis(R))
    oracle = {f.matrix for f in aut_r_linear_filter(R)}
    verdicts = {}
    for flat in product(range(2), repeat=N * N):
        M = tuple(flat[r * N : (r + 1) * N] for r in range(N))
        verdicts[M] = check_ring_automorphism(R, RingAut(R, M)).ok
    assert {M for M, ok in verdicts.items() if ok} == oracle
    assert len(oracle) == 2


def ref_check(R, f):
    """check_ring_automorphism written on RingAut.apply and dict products."""
    report = ValidationReport()
    try:
        mat_inv(f.matrix, R.D.p)
    except NotInvertible:
        report.add("not_bijective", ())
    one = identity_element(R)
    if f.apply(one) != one:
        report.add("identity_moved", (), f"1 -> {f.apply(one)!r}")
    basis = linear_basis(R)
    for x in basis:
        for y in basis:
            if f.apply(mul(R, x, y)) != mul(R, f.apply(x), f.apply(y)):
                report.add("multiplicativity", (repr(x), repr(y)))
    return report


@pytest.mark.parametrize(
    "make",
    [
        lambda: gauged_ring("a3", 2, "a3"),
        lambda: gauged_ring("mu2", 3, "mu2"),
        lambda: gauged_ring("double_t2", 2, "double_t2"),
        lambda: frobenius_ring(4),
        corrupted_ring,
    ],
)
def test_check_ring_automorphism_reports_match_dict_reference(make):
    """Same violations in the same order, on automorphisms and perturbed maps."""
    R = make()
    p, rng = R.D.p, random.Random(9)
    # the tuple search, which needs no valid cocycle, also serves the corrupted ring
    candidates = [RingAut.identity(R)] + reference_aut_r(R)[-5:]
    for f in list(candidates):
        M = [list(row) for row in f.matrix]
        for _ in range(4):
            r, c = rng.randrange(len(M)), rng.randrange(len(M))
            M[r][c] = (M[r][c] + rng.randrange(1, p)) % p
            candidates.append(RingAut(R, tuple(map(tuple, M))))
    for f in candidates:
        assert check_ring_automorphism(R, f).violations == ref_check(R, f).violations


def first_unit_witness(R, f, units):
    for u in units:
        w = InnerWitness((u,), (unit_inverse(R, u),))
        if tau(R, w) == f:
            return w
    return None


@pytest.mark.parametrize(
    "make",
    [
        lambda: gauged_ring("t2", 2, 1),
        lambda: gauged_ring("t2", 3, 2),
        lambda: gauged_ring("mu2", 2, 3),
        lambda: gauged_ring("a3", 2, 4),
        lambda: gauged_ring("two_cycle", 3, 5),
        lambda: frobenius_ring(4),
    ],
)
def test_is_inner_returns_the_first_unit_witness(make):
    R = make()
    units = enumerate_units(R)
    candidates = aut_r_bruteforce(R)
    assert {f.matrix for f in inner_group(R)} <= {f.matrix for f in candidates}
    for f in candidates:
        assert is_inner(R, f) == first_unit_witness(R, f, units)
