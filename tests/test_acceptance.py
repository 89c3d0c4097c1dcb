"""End-to-end acceptance suite: ten criteria, one line each.

Every expected number comes from a hand derivation or an independent naive
oracle (several are frozen in the unit suites with their derivations);
nothing is tuned to the implementation. Each criterion enforces its own
wall-clock budget.
"""

import random
import time
from itertools import product

from sqfree.autos import (
    check_ring_automorphism,
    is_inner,
    iso_from_witness,
    phi_map,
    section_automorphism,
    sigma,
    verify_ses,
)
from sqfree.cohom import (
    GaugeElement,
    TwoCocycle,
    act,
    boundary,
    first_cohomology,
    gauge_mul,
    normalize,
    one_coboundaries,
    one_cocycles,
    random_cochain,
    random_gauge,
    relabel,
    trivialize_on_blocks,
    verify_one_cocycle,
    verify_two_cocycle,
)
from sqfree.fixtures import a3, gf, mu, quaternions, single, t2
from sqfree.sgrp import automorphisms as semigroup_automorphisms
from sqfree.sgrp import is_normal_automorphism, sim_classes
from sqfree.twring import (
    TwistedRing,
    check_associativity,
    is_d_algebra,
    mul,
    tensor_ring,
)
from test_cohom import is_constant_one
from test_twring import random_ring_element

FIXTURES = (("t2", t2), ("a3", a3), ("mu2", lambda: mu(2)), ("mu3", lambda: mu(3)))


def random_valid_cocycle(S, F, rng):
    """Difference-pattern coefficient twists, then a gauge scramble of xi."""
    ms = {i: rng.randrange(F.k) for i in range(1, S.n + 1)}
    c0 = TwoCocycle(
        {(i, j): F.frobenius(ms[i] - ms[j]) for (i, j) in S.support},
        {t: F.one for t in S.comp},
    )
    return act(S, random_gauge(S, F, rng), c0, check=False)


def report_line(n, text, started):
    print(f"PASS {n}: {text} ({time.monotonic() - started:.1f}s)")


def test_01_cocycle_validity_matches_basis_associativity():
    started = time.monotonic()
    rng = random.Random(101)
    for _, make in FIXTURES:
        S = make()
        for q in (2, 3, 4):
            F = gf(q)
            for _ in range(50):
                c = random_valid_cocycle(S, F, rng)
                assert verify_two_cocycle(S, c).ok
                assert check_associativity(TwistedRing(S, F, c, check=False)).ok
            if q == 2:
                # GF(2) has a single unit, so no single-entry xi corruption
                # can exist, let alone break the identities
                continue
            done = 0
            while done < 50:
                c = random_valid_cocycle(S, F, rng)
                t = rng.choice(sorted(S.comp))
                v = rng.choice([u for u in F.units() if u != c.xi[t]])
                bad = c.replace_xi(t, v)
                rep = verify_two_cocycle(S, bad)
                if rep.ok:
                    continue  # unpinned entry (the a3 apex); resample
                flagged = [tuple(vi.where) for vi in rep.violations if vi.kind == "three_chain"]
                assert flagged, rep.as_json()
                arep = check_associativity(TwistedRing(S, F, bad, check=False))
                assert not arep.ok
                failed = {tuple(vi.where) for vi in arep.violations}
                assert all(chain in failed for chain in flagged)
                done += 1
    assert time.monotonic() - started < 60
    report_line(1, "cocycle validity <-> exhaustive basis associativity", started)


def test_02_boundary_nilpotence():
    started = time.monotonic()
    rng = random.Random(202)
    for _, make in FIXTURES:
        S = make()
        for q in (4, 9):
            F = gf(q)
            for m in (0, 1, 2):
                for _ in range(34):
                    phi = random_cochain(S, m, F, rng)
                    assert is_constant_one(boundary(S, boundary(S, phi)))
    assert time.monotonic() - started < 10
    report_line(2, "boundary of a boundary is constantly 1 for m in {0,1,2}", started)


def test_03_transformed_ring_isomorphism_witnesses():
    started = time.monotonic()
    rng = random.Random(303)
    F = gf(4)
    for _, make in FIXTURES:
        S = make()
        auts = semigroup_automorphisms(S)
        for _ in range(25):
            R1 = TwistedRing(S, F, random_valid_cocycle(S, F, rng))
            g = random_gauge(S, F, rng)
            phi = auts[rng.randrange(len(auts))]
            R2 = TwistedRing(S, F, act(S, g, relabel(S, phi, R1.c), check=False))
            w = (phi, gauge_mul(S, g, R2.normalizer))
            f = iso_from_witness(R1, R2, w)
            x, y = random_ring_element(R2, rng), random_ring_element(R2, rng)
            assert f.apply(mul(R2, x, y)) == mul(R1, f.apply(x), f.apply(y))
    assert time.monotonic() - started < 30
    report_line(3, "gauge-plus-relabel witnesses induce ring isomorphisms", started)


def test_04_normalization_and_block_trivialization():
    started = time.monotonic()
    rng = random.Random(404)
    F = gf(4)
    for S in (mu(2), mu(3)):
        for _ in range(5):
            c = act(S, random_gauge(S, F, rng), TwoCocycle.trivial(S, F), check=False)
            normal, g = normalize(S, c)
            assert act(S, g, c) == normal
            assert all(normal.xi[(i, i, i)] == F.one for i in range(1, S.n + 1))
            assert normal.is_normal()
            flat, h = trivialize_on_blocks(S, normal)
            assert act(S, h, normal) == flat
            for cls in sim_classes(S):
                inside = set(cls)
                for (i, j), a in flat.alpha.items():
                    if i in inside and j in inside:
                        assert a.is_identity()
                for t, v in flat.xi.items():
                    if set(t) <= inside:
                        assert v == F.one
    assert time.monotonic() - started < 10
    report_line(4, "normalize and trivialize_on_blocks with verified witnesses", started)


def test_05_h1_matches_naive_oracle():
    started = time.monotonic()
    S, F = t2(), gf(4)
    base = TwoCocycle.trivial(S, F)
    sup = sorted(S.support)
    naive_z1 = set()
    candidates = 0
    for mus in product(F.automorphisms(), repeat=2):
        for vals in product(F.units(), repeat=3):
            g = GaugeElement(dict(zip((1, 2), mus)), dict(zip(sup, vals)))
            candidates += 1
            if act(S, g, base, check=False) == base:
                naive_z1.add(g.canonical_key())
    assert candidates == 108
    res = first_cohomology(S, base)
    z1 = one_cocycles(S, base)
    assert {g.canonical_key() for g in z1} == naive_z1
    assert (res.order, res.z1_order, res.b1_order) == (2, 6, 3)
    assert (len(z1), len(one_coboundaries(S, base))) == (6, 3)
    for q, want in ((4, 2), (8, 3)):
        assert first_cohomology(single(), TwoCocycle.trivial(single(), gf(q))).order == want
    assert time.monotonic() - started < 10
    report_line(5, "first cohomology matches the naive 108-candidate oracle", started)


def test_06_lambda_is_a_monomorphism():
    started = time.monotonic()
    for q in (4, 2):
        S, F = t2(), gf(q)
        base = TwoCocycle.trivial(S, F)
        R = TwistedRing(S, F, base)
        b1_keys = {g.canonical_key() for g in one_coboundaries(S, base)}
        z1 = one_cocycles(S, base)
        assert z1
        for g in z1:
            witness = is_inner(R, sigma(R, g))
            assert (witness is not None) == (g.canonical_key() in b1_keys)
    assert time.monotonic() - started < 30
    report_line(6, "sigma lands in Inn exactly on coboundaries", started)


def test_07_exact_sequence_on_four_rings():
    started = time.monotonic()
    frob = TwoCocycle.trivial(t2(), gf(4)).replace_alpha((1, 2), gf(4).frobenius(1))
    rows = (
        (t2(), gf(2), None, (1, 1, 1)),
        (single(), gf(4), None, (2, 1, 2)),
        (t2(), gf(4), frob, (2, 1, 2)),
        (mu(2), gf(2), None, (1, 1, 1)),
    )
    for S, F, c, triple in rows:
        rep = verify_ses(TwistedRing(S, F, c or TwoCocycle.trivial(S, F)))
        assert rep.exact
        assert (rep.h1_order, rep.stab_order, rep.out_order) == triple
        assert rep.out_order == rep.h1_order * rep.stab_order
    assert time.monotonic() - started < 300
    report_line(7, "cohomology-automorphism sequence exact on all four rings", started)


def test_08_splitting_for_trivial_cocycles():
    started = time.monotonic()
    for q in (2, 3):
        S, F = mu(2), gf(q)
        R = TwistedRing(S, F, TwoCocycle.trivial(S, F))
        auts = semigroup_automorphisms(S)
        assert len(auts) == 2
        sections = {phi: section_automorphism(R, phi) for phi in auts}
        for phi, sec in sections.items():
            assert check_ring_automorphism(R, sec).ok
            # the section realizes phi on the diagonal exactly
            for i in range(1, S.n + 1):
                assert sec.apply(R.basis(i, i)) == R.basis(phi(i), phi(i))
        for a in auts:
            for b in auts:
                assert sections[a].compose(sections[b]) == sections[a * b]
        # the sequence's own splitting check, over its actual third term
        rep = verify_ses(R)
        assert rep.exact and rep.split_ok is True
        for phi in auts:
            if is_normal_automorphism(S, phi):
                assert phi_map(R, sections[phi]) == phi
    assert time.monotonic() - started < 60
    report_line(8, "basis-permutation section splits the trivial-cocycle sequence", started)


def test_09_d_algebra_and_tensor_comparison():
    started = time.monotonic()
    F = gf(4)
    frob = TwoCocycle.trivial(t2(), F).replace_alpha((1, 2), F.frobenius(1))
    R = TwistedRing(t2(), F, frob)
    g = is_d_algebra(R)
    assert g is not None
    out = act(t2(), g, R.c)
    assert all(a.is_identity() for a in out.alpha.values())
    assert all(v.is_central() for v in out.xi.values())
    for S, D in ((t2(), F), (mu(2), gf(3)), (t2(), quaternions())):
        _, comparison = tensor_ring(S, D, TwoCocycle.trivial(S, D))
        assert comparison.check_on_generators().ok
    assert time.monotonic() - started < 10
    report_line(9, "d-algebra witness found and tensor comparison multiplicative", started)


def test_10_quaternion_backend_sanity():
    started = time.monotonic()
    S, H = t2(), quaternions()
    v = H.element((1, 1, 0, 0))
    base = TwoCocycle(
        {
            (1, 1): H.identity_automorphism(),
            (2, 2): H.identity_automorphism(),
            (1, 2): H.inner_automorphism(v),
        },
        {t: H.one for t in S.comp},
    )
    assert verify_two_cocycle(S, base).ok
    g = GaugeElement(
        {1: H.inner_automorphism(H.i), 2: H.inner_automorphism(H.j)},
        {(1, 1): H.one, (2, 2): v, (1, 2): H.j},
    )
    out = act(S, g, base)
    w = H.element((1, -1, 0, 0))
    # hand expansion of the non-commutative factor order: eta(e2) = 1+i gives
    # zeta(s12, e2) = j^(-1) (1+i) j = 1-i, not 1+i
    assert out.xi[(1, 2, 2)] == w
    assert out.xi[(2, 2, 2)] == w
    assert out.xi[(1, 1, 2)] == H.one
    assert out.xi[(1, 1, 1)] == H.one
    assert out.alpha[(2, 2)] == H.inner_automorphism(w)
    assert out.alpha[(1, 2)] == H.inner_automorphism(v)
    assert out.alpha[(1, 1)].is_identity()
    assert verify_two_cocycle(S, out).ok
    normal, eta = normalize(S, out)
    assert normal.is_normal()
    assert act(S, eta, out) == normal
    assert verify_one_cocycle(S, base, GaugeElement.identity(S, H))
    assert not verify_one_cocycle(S, base, g)
    # eta(e1) must be central and eta(s12) a central multiple of 1+i, so
    # this is the smallest nontrivial fixer
    fixing = GaugeElement({1: H.inner_automorphism(v), 2: H.identity_automorphism()},
                          {(1, 1): H.one, (2, 2): H.one, (1, 2): v})
    assert verify_one_cocycle(S, base, fixing)
    assert time.monotonic() - started < 5
    report_line(10, "quaternion verification path matches the hand oracle", started)
