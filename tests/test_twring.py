import random

import pytest

from sqfree.autos import iso_from_witness
from sqfree.cohom import (
    GaugeElement,
    TwoCocycle,
    act,
    gauge_mul,
    random_gauge,
    relabel,
    verify_two_cocycle,
)
from sqfree.common import Bounds
from sqfree.errors import (
    InfiniteBackend,
    InvalidCocycle,
    InvalidInput,
    MixedBackends,
    MixedRings,
    NonCentralXi,
    SearchBoundExceeded,
    WitnessRejected,
)
from sqfree.fixtures import a3, double_t2, gf, mu, quaternions, single, t2, two_cycle
from sqfree.sgrp import SemigroupAutomorphism, automorphisms
from sqfree.twring import (
    RingElement,
    TwistedRing,
    check_associativity,
    enumerate_elements,
    enumerate_idempotents,
    enumerate_units,
    from_vector,
    identity_element,
    is_d_algebra,
    linear_basis,
    mul,
    tensor_ring,
    to_vector,
)


def random_ring_element(R, rng):
    return RingElement(R, {p: R.D.random_element(rng) for p in R.S.support})


def frob_ring(q=4):
    # alpha = Frobenius across the single arrow of T2
    F = gf(q)
    c = TwoCocycle.trivial(t2(), F).replace_alpha((1, 2), F.frobenius(1))
    return TwistedRing(t2(), F, c)


def quat_conj_ring():
    Q = quaternions()
    tw = Q.inner_automorphism(Q.element((1, 1, 0, 0)))
    c = TwoCocycle.trivial(t2(), Q).replace_alpha((1, 2), tw)
    return TwistedRing(t2(), Q, c)


def test_scalar_absorption():
    R = frob_ring()
    g = R.D.gen
    s12 = R.basis(1, 2)
    assert mul(R, s12, R.element({(2, 2): g})) == R.element({(1, 2): g**2})
    assert s12.rscale(g) == R.element({(1, 2): g**2})
    assert mul(R, s12, s12).is_zero()


def test_matrix_units_table():
    S, F = mu(2), gf(3)
    R = TwistedRing(S, F, TwoCocycle.trivial(S, F))
    for i, j in S.support:
        for k, l in S.support:
            got = mul(R, R.basis(i, j), R.basis(k, l))
            assert got == (R.basis(i, l) if j == k else R.zero())


def test_quaternion_conjugation_twist():
    R = quat_conj_ring()
    Q = R.D
    # (1+i) j (1+i)^-1 = k
    assert R.basis(1, 2).rscale(Q.j) == R.element({(1, 2): Q.k})


def test_identity_element_two_sided():
    for S, F in ((t2(), gf(2)), (mu(2), gf(3))):
        R = TwistedRing(S, F, TwoCocycle.trivial(S, F))
        u = identity_element(R)
        for x in enumerate_elements(R):
            assert mul(R, u, x) == x
            assert mul(R, x, u) == x
    R = frob_ring()
    u = identity_element(R)
    rng = random.Random(21)
    for _ in range(50):
        x = random_ring_element(R, rng)
        assert mul(R, u, x) == x == mul(R, x, u)


def test_element_algebra():
    R = frob_ring()
    g = R.D.gen
    x = R.element({(1, 1): g, (1, 2): R.D.one})
    y = R.element({(1, 2): g})
    assert (x + y).coeffs[(1, 2)] == R.D.one + g
    assert x - x == R.zero()
    # additive cancellation drops the entry instead of storing zero
    assert (1, 2) not in (y - y).coeffs
    assert hash(x) == hash(R.element({(1, 2): R.D.one, (1, 1): g}))


def test_mixed_rings_rejected():
    R2, R4 = frob_ring(2), frob_ring(4)
    with pytest.raises(MixedRings):
        R2.basis(1, 1) + R4.basis(1, 1)
    with pytest.raises(MixedRings):
        mul(R2, R4.basis(1, 1), R4.basis(1, 1))


def test_element_rejects_stray_pair():
    R = frob_ring()
    with pytest.raises(InvalidInput):
        R.element({(2, 1): R.D.one})


def test_construction_normalizes():
    S, F = single(), gf(4)
    c = TwoCocycle({(1, 1): F.identity_automorphism()}, {(1, 1, 1): F.gen})
    R = TwistedRing(S, F, c)
    assert R.c.is_normal()
    assert act(S, R.normalizer, c, check=False) == R.c
    # and e is then genuinely idempotent
    assert mul(R, R.basis(1, 1), R.basis(1, 1)) == R.basis(1, 1)


def test_construction_rejects_invalid():
    S, F = t2(), gf(4)
    bad = TwoCocycle.trivial(S, F).replace_xi((1, 1, 2), F.gen)
    with pytest.raises(InvalidCocycle):
        TwistedRing(S, F, bad)


def test_construction_refuses_a_cocycle_over_another_backend():
    # with or without the cocycle check; such a ring used to build, and the
    # mismatch surfaced in whichever operation read the cocycle first
    S = t2()
    for D, other in ((gf(4), gf(8)), (gf(4), quaternions()), (quaternions(), gf(4))):
        for check in (True, False):
            with pytest.raises(MixedBackends, match="^cocycle over another backend than the ring$"):
                TwistedRing(S, D, TwoCocycle.trivial(S, other), check=check)
    # an empty cocycle has no backend, and is still refused as invalid
    with pytest.raises(InvalidCocycle):
        TwistedRing(S, gf(4), TwoCocycle({}, {}))


def test_associativity_on_valid_fixtures():
    for S in (t2(), a3(), mu(2)):
        for q in (2, 3, 4):
            F = gf(q)
            R = TwistedRing(S, F, TwoCocycle.trivial(S, F))
            assert check_associativity(R).ok
    assert check_associativity(frob_ring()).ok
    assert check_associativity(quat_conj_ring()).ok


def test_associativity_detects_corruption():
    """A unit-padded xi corruption breaks reassociation at a triple naming it."""
    S, F = a3(), gf(4)
    bad = TwoCocycle.trivial(S, F).replace_xi((1, 1, 2), F.gen)
    assert not verify_two_cocycle(S, bad).ok
    R = TwistedRing(S, F, bad, check=False)
    report = check_associativity(R)
    assert not report.ok
    assert any((1, 2) in v.where for v in report.violations)


def basis_product(R):
    return R.basis(1, 1) * R.basis(1, 2)


@pytest.mark.parametrize(
    "probe, backend",
    [
        (check_associativity, "GF4"),
        (is_d_algebra, "GF4"),
        (check_associativity, "quaternions"),
        (basis_product, "GF4"),
        (basis_product, "quaternions"),
        (enumerate_units, "GF4"),
    ],
)
def test_unchecked_ring_refuses_a_cocycle_off_the_domain(probe, backend):
    # an empty or a partial cocycle is refused as verify_two_cocycle reports
    # it, not as a KeyError from reading its values
    S, D = t2(), gf(4) if backend == "GF4" else quaternions()
    trivial = TwoCocycle.trivial(S, D)
    missing = TwoCocycle({p: a for p, a in trivial.alpha.items() if p != (1, 2)}, trivial.xi)
    for c in (TwoCocycle({}, {}), missing):
        with pytest.raises(InvalidCocycle) as refused:
            probe(TwistedRing(S, D, c, check=False))
        assert refused.value.args[0] == verify_two_cocycle(S, c).as_json()


def test_validity_matches_associativity_on_xi_edits():
    # single-entry xi edits break Eq-2 style chain identities exactly when
    # they break reassociation of decorated basis triples
    rng = random.Random(7)
    for S, F in ((t2(), gf(4)), (mu(2), gf(3))):
        base = TwoCocycle.trivial(S, F)
        comp = sorted(S.comp)
        for _ in range(20):
            t = comp[rng.randrange(len(comp))]
            c = base.replace_xi(t, F.random_unit(rng))
            R = TwistedRing(S, F, c, check=False)
            assert verify_two_cocycle(S, c).ok == check_associativity(R).ok


def test_iso_identity_witness():
    S, F = t2(), gf(4)
    R = TwistedRing(S, F, TwoCocycle.trivial(S, F))
    f = iso_from_witness(R, R, GaugeElement.identity(S, F))
    rng = random.Random(8)
    for _ in range(10):
        x = random_ring_element(R, rng)
        assert f.apply(x) == x


def test_iso_frobenius_to_trivial():
    """Gauging away the arrow twist gives the map g s12 -> g^2 s12."""
    S, F = t2(), gf(4)
    R1 = frob_ring()
    R2 = TwistedRing(S, F, TwoCocycle.trivial(S, F))
    g = GaugeElement(
        {1: F.frobenius(1), 2: F.identity_automorphism()},
        {p: F.one for p in S.support},
    )
    f = iso_from_witness(R1, R2, g)
    assert f.apply(R2.element({(1, 2): F.gen})) == R1.element({(1, 2): F.gen**2})
    assert f.apply(R2.basis(2, 2)) == R1.basis(2, 2)


def test_iso_swap_relabel():
    S, F = mu(2), gf(4)
    R = TwistedRing(S, F, TwoCocycle.trivial(S, F))
    swap = SemigroupAutomorphism((2, 1))
    f = iso_from_witness(R, R, (swap, GaugeElement.identity(S, F)))
    assert f.apply(R.basis(1, 2)) == R.basis(2, 1)
    assert f.apply(R.basis(1, 1)) == R.basis(2, 2)


def test_iso_random_witnesses():
    from sqfree.cohom import random_gauge

    rng = random.Random(9)
    cases = []
    for S in (t2(), a3(), mu(2)):
        F = gf(4)
        c = TwoCocycle.trivial(S, F)
        if S.n == 2 and (1, 2) in S.support and (2, 1) not in S.support:
            c = c.replace_alpha((1, 2), F.frobenius(1))
        cases.append((S, F, c))
    for S, F, c1 in cases:
        R1 = TwistedRing(S, F, c1)
        phis = automorphisms(S)
        for _ in range(5):
            g = random_gauge(S, F, rng)
            phi = phis[rng.randrange(len(phis))]
            c2 = act(S, g, relabel(S, phi, R1.c), check=False)
            R2 = TwistedRing(S, F, c2)
            w = (phi, gauge_mul(S, g, R2.normalizer))
            f = iso_from_witness(R1, R2, w)
            x, y = random_ring_element(R2, rng), random_ring_element(R2, rng)
            assert f.apply(x + y) == f.apply(x) + f.apply(y)
            assert f.apply(mul(R2, x, y)) == mul(R1, f.apply(x), f.apply(y))


def test_iso_witness_rejected():
    S, F = t2(), gf(4)
    R1 = frob_ring()
    R2 = TwistedRing(S, F, TwoCocycle.trivial(S, F))
    with pytest.raises(WitnessRejected):
        iso_from_witness(R1, R2, GaugeElement.identity(S, F))


class ReferenceRingMap:
    """The element-level witness map R2 -> R1: a coefficient twist per idempotent plus basis images.

    d s_ij -> mu_i(d) eta(ij) s_phi(i)phi(j), written on dict elements and
    RingElement arithmetic alone, as a reference for iso_from_witness.
    """

    def __init__(self, R1, R2, phi, g):
        self.source = R2
        self.target = R1
        self.mu = {i: g.mu[i] for i in range(1, R2.S.n + 1)}
        self.images = {p: R1.element({phi.pair(p): g.eta[p]}) for p in R2.S.support}

    def apply(self, x):
        assert x.ring == self.source
        out = self.target.zero()
        for p, d in x.coeffs.items():
            out = out + self.images[p].lscale(self.mu[p[0]](d))
        return out


ISO_FIXTURES = {
    "single": single,
    "t2": t2,
    "a3": a3,
    "mu2": lambda: mu(2),
    "two_cycle": two_cycle,
    "double_t2": double_t2,
}


def random_witness_pair(S, F, rng):
    """(R1, R2, phi, g): R1 has a gauged difference-pattern cocycle, R2 its random image.

    (phi, g) carries R1's cocycle to R2's normalized one.
    """
    ms = {i: rng.randrange(F.k) for i in range(1, S.n + 1)}
    base = TwoCocycle(
        {(i, j): F.frobenius(ms[i] - ms[j]) for (i, j) in S.support},
        {t: F.one for t in S.comp},
    )
    R1 = TwistedRing(S, F, act(S, random_gauge(S, F, rng), base, check=False))
    phis = automorphisms(S)
    phi = phis[rng.randrange(len(phis))]
    g = random_gauge(S, F, rng)
    R2 = TwistedRing(S, F, act(S, g, relabel(S, phi, R1.c), check=False))
    return R1, R2, phi, gauge_mul(S, g, R2.normalizer)


@pytest.mark.parametrize("q", (2, 3, 4, 8, 9))
@pytest.mark.parametrize("name", sorted(ISO_FIXTURES))
def test_iso_matches_element_level_reference(name, q):
    S, F = ISO_FIXTURES[name](), gf(q)
    rng = random.Random(f"iso-{name}-{q}")
    for _ in range(3):
        R1, R2, phi, g = random_witness_pair(S, F, rng)
        ref = ReferenceRingMap(R1, R2, phi, g)
        witness = g if phi.is_identity() else (phi, g)
        f = iso_from_witness(R1, R2, witness)
        for b in linear_basis(R2):
            assert f.apply(b) == ref.apply(b)
        x, y = random_ring_element(R2, rng), random_ring_element(R2, rng)
        assert f.apply(mul(R2, x, y)) == mul(R1, f.apply(x), f.apply(y))


@pytest.mark.parametrize("name", sorted(ISO_FIXTURES))
def test_iso_wrong_witness_rejected(name):
    S, F = ISO_FIXTURES[name](), gf(4)
    rng = random.Random(f"wrong-{name}")
    R1, R2, phi, g = random_witness_pair(S, F, rng)
    # rescaling eta(ii) moves xi(iii), which both normalized cocycles keep at 1
    for i in range(1, S.n + 1):
        bad = GaugeElement(g.mu, {**g.eta, (i, i): g.eta[(i, i)] * F.gen})
        with pytest.raises(WitnessRejected, match="does not carry"):
            iso_from_witness(R1, R2, (phi, bad))


def test_iso_product_check_reports_violations(monkeypatch):
    """A witness past a fooled claim check fails check_ring_automorphism, reported as its JSON."""
    from sqfree import autos

    S, F = t2(), gf(4)
    R1 = frob_ring()
    R2 = TwistedRing(S, F, TwoCocycle.trivial(S, F))
    monkeypatch.setattr(autos, "act", lambda S, g, c, check=True: R2.c)
    with pytest.raises(WitnessRejected, match="'multiplicativity'"):
        iso_from_witness(R1, R2, GaugeElement.identity(S, F))


def test_iso_refuses_quaternions():
    R = quat_conj_ring()
    with pytest.raises(InfiniteBackend):
        iso_from_witness(R, R, GaugeElement.identity(R.S, R.D))


def test_iso_mixed_rings():
    S = t2()
    R1 = TwistedRing(S, gf(4), TwoCocycle.trivial(S, gf(4)))
    R2 = TwistedRing(S, gf(2), TwoCocycle.trivial(S, gf(2)))
    with pytest.raises(MixedRings):
        iso_from_witness(R1, R2, GaugeElement.identity(S, gf(4)))


def test_tensor_ring_untwisted():
    S, F = t2(), gf(4)
    ring, cmp_map = tensor_ring(S, F, TwoCocycle.trivial(S, F))
    assert ring.c == TwoCocycle.trivial(S, F)
    assert cmp_map.apply(F.gen, F.one, (1, 2)) == ring.element({(1, 2): F.gen})
    assert cmp_map.check_on_generators().ok


def test_tensor_ring_quaternion_central():
    S, Q = t2(), quaternions()
    half = Q.element("1/2")
    zeta = TwoCocycle.trivial(S, Q).replace_xi((2, 2, 2), half).replace_xi((1, 2, 2), half)
    ring, cmp_map = tensor_ring(S, Q, zeta)
    assert ring.c.is_normal()
    assert cmp_map.check_on_generators().ok


def test_tensor_ring_rejections():
    S, Q = t2(), quaternions()
    bad = TwoCocycle.trivial(S, Q).replace_xi((1, 2, 2), Q.i)
    with pytest.raises(NonCentralXi):
        tensor_ring(S, Q, bad)
    F = gf(4)
    twisted = TwoCocycle.trivial(S, F).replace_alpha((1, 2), F.frobenius(1))
    with pytest.raises(InvalidInput):
        tensor_ring(S, F, twisted)


def test_is_d_algebra():
    S, F = t2(), gf(4)
    R = TwistedRing(S, F, TwoCocycle.trivial(S, F))
    assert is_d_algebra(R).is_identity()
    g = is_d_algebra(frob_ring())
    assert g is not None
    assert (g.mu[1].m - g.mu[2].m) % 2 == 1
    # arrow twists around a non-composing cycle cannot split as differences
    S2 = two_cycle()
    c = TwoCocycle.trivial(S2, F).replace_alpha((1, 2), F.frobenius(1))
    assert verify_two_cocycle(S2, c).ok
    assert is_d_algebra(TwistedRing(S2, F, c)) is None
    with pytest.raises(InfiniteBackend):
        is_d_algebra(quat_conj_ring())


def test_enumerate_t2_gf2():
    S, F = t2(), gf(2)
    R = TwistedRing(S, F, TwoCocycle.trivial(S, F))
    elems = enumerate_elements(R)
    assert len(elems) == 8
    assert elems[0].is_zero()
    assert elems[1] == R.basis(2, 2)
    e1, e2, s12 = R.basis(1, 1), R.basis(2, 2), R.basis(1, 2)
    idem = enumerate_idempotents(R)
    assert set(idem) == {R.zero(), e1, e2, e1 + e2, e1 + s12, e2 + s12}
    assert enumerate_units(R) == [e1 + e2, e1 + e2 + s12]


def test_enumerate_single_field():
    S, F = single(), gf(9)
    R = TwistedRing(S, F, TwoCocycle.trivial(S, F))
    assert len(enumerate_elements(R)) == 9
    assert len(enumerate_units(R)) == 8


def test_unit_count_full_matrix_ring():
    # M2(GF(3)): |GL(2,3)| = 48
    S, F = mu(2), gf(3)
    R = TwistedRing(S, F, TwoCocycle.trivial(S, F))
    assert len(enumerate_units(R)) == 48
    assert len(enumerate_elements(R)) == 81


def test_enumeration_guards():
    with pytest.raises(InfiniteBackend):
        enumerate_elements(quat_conj_ring())
    with pytest.raises(SearchBoundExceeded):
        enumerate_elements(frob_ring(), Bounds(max_units=10))


def test_corner_spaces_are_thin():
    # e_i R e_j is spanned by s_ij alone, and is zero off the support
    S, F = a3(), gf(4)
    R = TwistedRing(S, F, TwoCocycle.trivial(S, F))
    for i in range(1, 4):
        for j in range(1, 4):
            spans = set()
            for b in linear_basis(R):
                y = mul(R, mul(R, R.basis(i, i), b), R.basis(j, j))
                if not y.is_zero():
                    assert list(y.coeffs) == [(i, j)]
                    spans.add((i, j))
            assert spans == ({(i, j)} if (i, j) in S.support else set())


def test_vector_roundtrip():
    R = frob_ring()
    rng = random.Random(10)
    assert len(linear_basis(R)) == len(R.S.support) * R.D.k
    for _ in range(20):
        x = random_ring_element(R, rng)
        assert from_vector(R, to_vector(R, x)) == x


def test_distributivity_sampled():
    rng = random.Random(11)
    for R, trials in ((frob_ring(), 50), (quat_conj_ring(), 20)):
        for _ in range(trials):
            x, y, z = (random_ring_element(R, rng) for _ in range(3))
            assert mul(R, x, y + z) == mul(R, x, y) + mul(R, x, z)
            assert mul(R, x + y, z) == mul(R, x, z) + mul(R, y, z)
