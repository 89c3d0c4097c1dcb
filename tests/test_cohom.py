"""Cocycle verification, the gauge action, equivalence, and first cohomology.

Expected counts and element values were derived by hand or by naive
enumeration before the implementation existed; they are frozen here.
"""

import random
import re
from itertools import product
from math import gcd, prod
from operator import mul
from types import SimpleNamespace

import pytest

from sqfree import cohom, jsonio, linalg, twring
from sqfree.coeff import FFElement, FieldAutomorphism, FiniteField, QuatElement, QuaternionAutomorphism
from sqfree.cohom import (
    Cochain,
    GaugeElement,
    H1Result,
    TwoCocycle,
    _mu_candidates,
    act,
    boundary,
    chain_keys,
    cohomologous,
    cohomologous_with_relabel,
    first_cohomology,
    gauge_inv,
    gauge_mul,
    verify_one_cocycle,
    normalize,
    one_coboundaries,
    one_cocycles,
    random_cochain,
    random_gauge,
    relabel,
    stabilizer,
    trivialize_on_blocks,
    verify_two_cocycle,
)
from sqfree.common import Bounds, ValidationReport, cosets
from sqfree.errors import (
    InfiniteBackend,
    InvalidCocycle,
    InvalidInput,
    MixedBackends,
    NonCommutativeCoefficients,
    SearchBoundExceeded,
    ZeroConjugator,
)
from sqfree.fixtures import a3, double_t2, gf, mu, quaternions, single, t2, two_cycle
from sqfree.linalg import Lattice
from sqfree.sgrp import SemigroupAutomorphism, SquareFreeSemigroup, automorphisms
from sqfree.twring import TwistedRing, check_associativity
from test_fields import FIELDS
from test_linalg import span_of
from test_sgrp import random_semigroup


def is_constant_one(cochain):
    return all(v == v.field.one for v in cochain.data.values())


def is_abelian_cocycle(S, phi):
    return is_constant_one(boundary(S, phi))


def is_abelian_coboundary(S, phi, bounds=Bounds()):
    """Exhaustive preimage search over all (m-1)-cochains, m = phi.m, or None."""
    m, D = phi.m, next(iter(phi.data.values())).field
    if not D.is_finite:
        raise InfiniteBackend("coboundary search needs a finite field")
    keys = chain_keys(S, m - 1)
    units = D.units()
    total = len(units) ** len(keys)
    if total > bounds.max_search:
        raise SearchBoundExceeded(f"max_search: preimage estimate {total} above limit {bounds.max_search}")
    for values in product(units, repeat=len(keys)):
        candidate = Cochain(m - 1, dict(zip(keys, values)))
        if boundary(S, candidate) == phi:
            return candidate
    return None


def frobenius_twist(S, F):
    # alpha = Frobenius on (1,2), identity elsewhere; valid on tree supports
    c = TwoCocycle.trivial(S, F)
    return c.replace_alpha((1, 2), F.frobenius(1))


def test_trivial_cocycle_valid_everywhere():
    for S in (single(), t2(), a3(), mu(2), mu(3), two_cycle()):
        for q in (2, 3, 4):
            assert verify_two_cocycle(S, TwoCocycle.trivial(S, gf(q))).ok
        assert verify_two_cocycle(S, TwoCocycle.trivial(S, quaternions())).ok


def test_a3_alpha_composition():
    S, F = a3(), gf(4)
    fr, idf = F.frobenius(1), F.identity_automorphism()
    good = TwoCocycle.trivial(S, F).replace_alpha((1, 2), fr).replace_alpha((1, 3), fr)
    assert verify_two_cocycle(S, good).ok
    bad = TwoCocycle.trivial(S, F).replace_alpha((1, 2), fr)  # alpha_13 stays id
    rep = verify_two_cocycle(S, bad)
    assert not rep.ok
    assert any(v.kind == "two_chain" and v.where == ((1, 2), (2, 3)) for v in rep.violations)


def test_apex_xi_seed_valid():
    S, F = a3(), gf(4)
    c = TwoCocycle.trivial(S, F).replace_xi((1, 2, 3), F.gen)
    assert verify_two_cocycle(S, c).ok


def test_domain_defects_flagged():
    S, F = t2(), gf(4)
    c = TwoCocycle.trivial(S, F)
    missing = TwoCocycle({p: a for p, a in c.alpha.items() if p != (1, 2)}, c.xi)
    assert any(v.kind == "missing_alpha" for v in verify_two_cocycle(S, missing).violations)
    zeroed = c.replace_xi((1, 1, 2), F.zero)
    assert any(v.kind == "xi_not_unit" for v in verify_two_cocycle(S, zeroed).violations)


def test_diagonal_alpha_forced():
    S, F = single(), gf(4)
    c = TwoCocycle({(1, 1): F.frobenius(1)}, {(1, 1, 1): F.one})
    rep = verify_two_cocycle(S, c)
    assert any(v.kind == "diagonal_alpha" for v in rep.violations)


def test_three_chain_violation_located():
    S, F = a3(), gf(4)
    c = TwoCocycle.trivial(S, F).replace_xi((1, 1, 2), F.gen)
    rep = verify_two_cocycle(S, c)
    bad_chains = {v.where for v in rep.violations if v.kind == "three_chain"}
    assert bad_chains
    assert all((1, 1) in chain or (1, 2) in chain for chain in bad_chains)


def test_gauge_group_axioms():
    S, F = t2(), gf(4)
    e = GaugeElement.identity(S, F)
    rng = random.Random(1)
    for _ in range(25):
        a, b, c = (random_gauge(S, F, rng) for _ in range(3))
        assert gauge_mul(S, e, a) == a
        assert gauge_mul(S, a, e) == a
        assert gauge_mul(S, gauge_mul(S, a, b), c) == gauge_mul(S, a, gauge_mul(S, b, c))
        assert gauge_mul(S, a, gauge_inv(S, a)).is_identity()
        assert gauge_mul(S, gauge_inv(S, a), a).is_identity()


def test_gauge_mul_example():
    # a = ((Frob, id), eta 1), b = ((id, id), eta(s12) = g): product applies
    # a's automorphism to b's eta before multiplying
    S, F = t2(), gf(4)
    idf = F.identity_automorphism()
    a = GaugeElement({1: F.frobenius(1), 2: idf}, {p: F.one for p in S.support})
    b = GaugeElement({1: idf, 2: idf}, {(1, 1): F.one, (2, 2): F.one, (1, 2): F.gen})
    prod = gauge_mul(S, a, b)
    assert prod.mu[1] == F.frobenius(1) and prod.mu[2] == idf
    assert prod.eta[(1, 2)] == F.gen ** 2


def test_act_identity_and_validity():
    S, F = t2(), gf(4)
    c = frobenius_twist(S, F)
    assert act(S, GaugeElement.identity(S, F), c) == c
    rng = random.Random(2)
    for _ in range(30):
        out = act(S, random_gauge(S, F, rng), c)
        assert verify_two_cocycle(S, out).ok


def test_act_spec_value():
    # gauging the Frobenius twist by mu = (Frob, id) lands on the trivial cocycle
    S, F = t2(), gf(4)
    g = GaugeElement({1: F.frobenius(1), 2: F.identity_automorphism()}, {p: F.one for p in S.support})
    assert act(S, g, frobenius_twist(S, F)) == TwoCocycle.trivial(S, F)


def test_act_rejects_invalid():
    S, F = single(), gf(4)
    bad = TwoCocycle({(1, 1): F.frobenius(1)}, {(1, 1, 1): F.one})
    with pytest.raises(InvalidCocycle):
        act(S, GaugeElement.identity(S, F), bad)


def test_action_law_and_its_orientation():
    # act(a*b, c) = act(b, act(a, c)); the transposed law must fail somewhere,
    # otherwise the convention pin would be vacuous
    rng = random.Random(3)
    for S, D, c in (
        (t2(), gf(4), frobenius_twist(t2(), gf(4))),
        (mu(2), gf(4), TwoCocycle.trivial(mu(2), gf(4))),
        (mu(2), gf(3), TwoCocycle.trivial(mu(2), gf(3))),
    ):
        transposed_broken = False
        for _ in range(100):
            a, b = random_gauge(S, D, rng), random_gauge(S, D, rng)
            lhs = act(S, gauge_mul(S, a, b), c, check=False)
            assert lhs == act(S, b, act(S, a, c, check=False), check=False)
            if lhs != act(S, a, act(S, b, c, check=False), check=False):
                transposed_broken = True
        # over a prime field the gauge group is abelian, so only the
        # extensions with a nontrivial automorphism can tell the orders apart
        assert transposed_broken or D.k == 1


def test_gauge_inverse_undoes_action():
    S, F = a3(), gf(4)
    c = frobenius_twist(S, F).replace_alpha((1, 3), gf(4).frobenius(1))
    rng = random.Random(4)
    for _ in range(20):
        g = random_gauge(S, F, rng)
        assert act(S, gauge_inv(S, g), act(S, g, c, check=False), check=False) == c


def test_normalize():
    S, F = single(), gf(4)
    c = TwoCocycle({(1, 1): F.identity_automorphism()}, {(1, 1, 1): F.gen})
    out, w = normalize(S, c)
    assert out.is_normal()
    assert w.eta[(1, 1)] == F.gen ** 2  # g^{-1} = g^2
    assert act(S, w, c, check=False) == out

    already = TwoCocycle.trivial(t2(), F)
    out2, w2 = normalize(t2(), already)
    assert out2 == already and w2.is_identity()


def test_normalize_quaternions():
    S, H = single(), quaternions()
    v = H.element((1, 1, 0, 0))
    c = TwoCocycle({(1, 1): H.inner_automorphism(v)}, {(1, 1, 1): v})
    assert verify_two_cocycle(S, c).ok
    out, w = normalize(S, c)
    assert out.is_normal()
    assert w.eta[(1, 1)] == v.inverse()
    assert act(S, w, c, check=False) == out


def test_normalize_random_gauged():
    S, F = mu(2), gf(4)
    rng = random.Random(5)
    for _ in range(10):
        c = act(S, random_gauge(S, F, rng), TwoCocycle.trivial(S, F), check=False)
        out, w = normalize(S, c)
        assert out.is_normal()
        assert act(S, w, c, check=False) == out


def reference_normalize(S, c):
    """The four-round loop normalize used before its single gauge step."""
    D = c.backend
    witness = GaugeElement.identity(S, D)
    current = c
    for _ in range(4):
        if current.is_normal():
            return current, witness
        eta = {p: D.one for p in S.support}
        for i in range(1, S.n + 1):
            eta[(i, i)] = current.xi[(i, i, i)].inverse()
        step = GaugeElement({i: D.identity_automorphism() for i in range(1, S.n + 1)}, eta)
        current = act(S, step, current, check=False)
        witness = gauge_mul(S, witness, step)
    raise AssertionError("diagonal xi values did not stabilize at 1")


def normalize_json(S, c, normalizer):
    out, w = normalizer(S, c)
    return jsonio.dumps({"cocycle": jsonio.encode_cocycle(out), "witness": jsonio.encode_gauge(w)})


def test_normalize_matches_the_four_round_loop():
    # trivial, gauged difference twists and gauged trivial cocycles over
    # GF(2..9), and gauged trivial cocycles over the quaternions
    rng = random.Random(12)
    compared = 0
    for name in sorted(DIFFERENTIAL_FIXTURES):
        S = DIFFERENTIAL_FIXTURES[name]()
        for F in [gf(q) for q in DIFFERENTIAL_FIELDS] + [FiniteField(7)]:
            cases = differential_cocycles(S, F, rng) + differential_cocycles(S, F, rng)[1:]
            for c in cases:
                assert normalize_json(S, c, normalize) == normalize_json(S, c, reference_normalize)
                compared += 1
        H = quaternions()
        for _ in range(8):
            c = act(S, random_gauge(S, H, rng), TwoCocycle.trivial(S, H), check=False)
            assert not c.is_normal()
            assert normalize_json(S, c, normalize) == normalize_json(S, c, reference_normalize)
            compared += 1
    assert compared >= 300


def test_trivialize_on_blocks():
    F = gf(4)
    for n in (2, 3):
        S = mu(n)
        rng = random.Random(n)
        raw = act(S, random_gauge(S, F, rng), TwoCocycle.trivial(S, F), check=False)
        c, _ = normalize(S, raw)
        out, w = trivialize_on_blocks(S, c)
        assert act(S, w, c, check=False) == out
        assert out.is_normal()
        assert all(out.alpha[p].is_identity() for p in S.support)
        assert all(v == F.one for v in out.xi.values())


def test_trivialize_untouched_outside_blocks():
    S, F = t2(), gf(4)
    c = frobenius_twist(S, F)
    out, w = trivialize_on_blocks(S, c)
    assert out == c and w.is_identity()


def test_trivialize_requires_normal():
    S, F = single(), gf(4)
    c = TwoCocycle({(1, 1): F.identity_automorphism()}, {(1, 1, 1): F.gen})
    with pytest.raises(InvalidCocycle):
        trivialize_on_blocks(S, c)


def test_relabel():
    S, F = mu(2), gf(4)
    swap = SemigroupAutomorphism((2, 1))
    c = TwoCocycle.trivial(S, F).replace_xi((1, 2, 1), F.gen).replace_xi((2, 1, 2), F.gen ** 2)
    moved = relabel(S, swap, c)
    assert moved.xi[(2, 1, 2)] == F.gen and moved.xi[(1, 2, 1)] == F.gen ** 2
    assert relabel(S, SemigroupAutomorphism.identity(2), c) == c
    assert relabel(S, swap, relabel(S, swap.inverse(), c)) == c


def test_relabel_composition_convention():
    S, F = mu(3), gf(4)
    rng = random.Random(6)
    c = act(S, random_gauge(S, F, rng), TwoCocycle.trivial(S, F), check=False)
    auts = automorphisms(S)
    for phi in auts:
        for psi in auts:
            assert relabel(S, phi, relabel(S, psi, c)) == relabel(S, psi * phi, c)


def test_relabel_preserves_validity():
    S, F = mu(3), gf(3)
    rng = random.Random(7)
    c = act(S, random_gauge(S, F, rng), TwoCocycle.trivial(S, F), check=False)
    for phi in automorphisms(S):
        assert verify_two_cocycle(S, relabel(S, phi, c)).ok


def test_cohomologous_positive():
    S, F = t2(), gf(4)
    c1, c2 = frobenius_twist(S, F), TwoCocycle.trivial(S, F)
    w = cohomologous(S, c1, c2)
    assert w is not None
    assert act(S, w, c1, check=False) == c2
    # over a field the witness satisfies mu_1 o mu_2^{-1} = alpha_12
    assert w.mu[1] * w.mu[2].inverse() == F.frobenius(1)


def test_cohomologous_roundtrip_random():
    rng = random.Random(8)
    for S in (t2(), a3(), mu(2)):
        F = gf(4)
        c = TwoCocycle.trivial(S, F)
        for _ in range(5):
            moved = act(S, random_gauge(S, F, rng), c, check=False)
            w = cohomologous(S, c, moved)
            assert w is not None and act(S, w, c, check=False) == moved


def test_cohomologous_negative():
    # arrow exponent sum is a gauge invariant on the no-composition two-cycle
    S, F = two_cycle(), gf(4)
    idf, fr = F.identity_automorphism(), F.frobenius(1)
    one_twist = TwoCocycle({(1, 1): idf, (2, 2): idf, (1, 2): fr, (2, 1): idf}, {t: F.one for t in S.comp})
    both_twist = TwoCocycle({(1, 1): idf, (2, 2): idf, (1, 2): fr, (2, 1): fr}, {t: F.one for t in S.comp})
    trivial = TwoCocycle.trivial(S, F)
    assert verify_two_cocycle(S, one_twist).ok
    assert cohomologous(S, one_twist, trivial) is None
    w = cohomologous(S, both_twist, trivial)
    assert w is not None and act(S, w, both_twist, check=False) == trivial


def test_cohomologous_witness_algebra():
    # reflexive, symmetric, transitive at witness level
    S, F = t2(), gf(4)
    rng = random.Random(9)
    c1 = frobenius_twist(S, F)
    c2 = act(S, random_gauge(S, F, rng), c1, check=False)
    c3 = act(S, random_gauge(S, F, rng), c2, check=False)
    w12 = cohomologous(S, c1, c2)
    w23 = cohomologous(S, c2, c3)
    assert act(S, gauge_inv(S, w12), c2, check=False) == c1
    assert act(S, gauge_mul(S, w12, w23), c1, check=False) == c3


def test_cohomologous_infinite_backend():
    S, H = t2(), quaternions()
    c = TwoCocycle.trivial(S, H)
    with pytest.raises(InfiniteBackend):
        cohomologous(S, c, c)


def test_cohomologous_with_relabel():
    S, F = mu(2), gf(4)
    swap = SemigroupAutomorphism((2, 1))
    base = TwoCocycle.trivial(S, F)
    rng = random.Random(10)
    target = act(S, random_gauge(S, F, rng), relabel(S, swap, base), check=False)
    found = cohomologous_with_relabel(S, base, target)
    assert found is not None
    phi, g = found
    assert act(S, g, relabel(S, phi, base), check=False) == target


def test_stabilizer():
    S, F = mu(2), gf(4)
    base = TwoCocycle.trivial(S, F)
    assert len(stabilizer(S, base)) == 2  # all of Aut S for the trivial class
    assert len(stabilizer(t2(), TwoCocycle.trivial(t2(), F))) == 1
    stab = stabilizer(two_cycle(), TwoCocycle(
        {(1, 1): F.identity_automorphism(), (2, 2): F.identity_automorphism(),
         (1, 2): F.frobenius(1), (2, 1): F.identity_automorphism()},
        {t: F.one for t in two_cycle().comp}))
    assert len(stab) == 2  # the exponent-sum invariant is swap-symmetric


def test_stabilizer_is_subgroup():
    S, F = mu(3), gf(3)
    stab = stabilizer(S, TwoCocycle.trivial(S, F))
    perms = {phi.perm for phi in stab}
    for a in stab:
        assert a.inverse().perm in perms
        for b in stab:
            assert (a * b).perm in perms


def test_one_cocycle_examples():
    S, F = t2(), gf(4)
    base = TwoCocycle.trivial(S, F)
    ones = {p: F.one for p in S.support}
    fr, idf = F.frobenius(1), F.identity_automorphism()
    assert verify_one_cocycle(S, base, GaugeElement.identity(S, F))
    assert verify_one_cocycle(S, base, GaugeElement({1: fr, 2: fr}, ones))
    assert not verify_one_cocycle(S, base, GaugeElement({1: fr, 2: idf}, ones))


def test_one_cocycle_agrees_with_fixed_point():
    S, F = t2(), gf(4)
    base = frobenius_twist(S, F)
    rng = random.Random(12)
    seen_true = False
    for _ in range(60):
        g = random_gauge(S, F, rng)
        fixed = act(S, g, base, check=False) == base
        assert verify_one_cocycle(S, base, g) == fixed
        seen_true = seen_true or fixed
    assert seen_true


def two_equation_fixes(S, base, g):
    """Does g fix base? Checked by the two defining equations, one by one.

    This is how verify_one_cocycle decided before it became the fixed-point
    test act(g, base) == base; it stays here as that test's reference.
    """
    D = base.backend
    for p in S.support:
        i, j = p
        lhs = g.mu[i] * base.alpha[p] * g.mu[j].inverse()
        rhs = D.inner_automorphism(g.eta[p]) * base.alpha[p]
        if lhs != rhs:
            return False
    for t in S.comp:
        i, j, k = t
        lhs = g.mu[i](base.xi[t])
        rhs = g.eta[(i, j)] * base.alpha[(i, j)](g.eta[(j, k)]) * base.xi[t] * g.eta[(i, k)].inverse()
        if lhs != rhs:
            return False
    return True


def quaternion_case():
    # the arrow twist of acceptance criterion 10, its hand-found fixer, and
    # fixers of the trivial cocycle: one conjugation on both corners, a
    # rational scalar on the arrow
    S, H = t2(), quaternions()
    v = H.element((1, 1, 0, 0))
    twisted = TwoCocycle.trivial(S, H).replace_alpha((1, 2), H.inner_automorphism(v))
    fixer = GaugeElement({1: H.inner_automorphism(v), 2: H.identity_automorphism()},
                         {(1, 1): H.one, (2, 2): H.one, (1, 2): v})
    rng = random.Random(14)
    scaled = []
    for _ in range(10):
        u = H.inner_automorphism(H.random_unit(rng))
        scaled.append(GaugeElement({1: u, 2: u}, {(1, 1): H.one, (2, 2): H.one, (1, 2): H.element(rng.randint(1, 5))}))
    return S, [(twisted, [GaugeElement.identity(S, H), fixer]), (TwoCocycle.trivial(S, H), scaled)]


ONE_COCYCLE_CASES = {
    "t2/GF4 Frobenius twist": lambda: (t2(), [(frobenius_twist(t2(), gf(4)), None)]),
    "mu2/GF9": lambda: (mu(2), [(TwoCocycle.trivial(mu(2), gf(9)), None)]),
    "t2/quaternions": quaternion_case,
}


@pytest.mark.parametrize("case", sorted(ONE_COCYCLE_CASES))
def test_one_cocycle_matches_the_two_equation_reference(case):
    S, bases = ONE_COCYCLE_CASES[case]()
    rng = random.Random(13)
    verdicts = set()
    for base, fixers in bases:
        D = base.backend
        fixers = one_cocycles(S, base) if fixers is None else fixers
        candidates = list(fixers) + [random_gauge(S, D, rng) for _ in range(30)]
        for g in fixers:
            # the same pair with one arrow or corner unit moved
            p = rng.choice(sorted(S.support))
            candidates.append(GaugeElement(g.mu, {**g.eta, p: g.eta[p] * D.random_unit(rng)}))
        for g in candidates:
            fixed = verify_one_cocycle(S, base, g)
            assert fixed == two_equation_fixes(S, base, g)
            verdicts.add(fixed)
    assert verdicts == {True, False}


def test_z1_b1_h1_t2_gf4():
    S, F = t2(), gf(4)
    base = TwoCocycle.trivial(S, F)
    res, z1 = first_cohomology(S, base), one_cocycles(S, base)
    assert (res.z1_order, res.b1_order, res.order) == (len(z1), len(one_coboundaries(S, base)), 2) == (6, 3, 2)
    for g in z1:
        assert verify_one_cocycle(S, base, g)
    keys = {g.canonical_key() for g in z1}
    for a in z1:
        for b in z1:
            assert gauge_mul(S, a, b).canonical_key() in keys


def test_z1_matches_naive_enumeration():
    S, F = t2(), gf(4)
    base = TwoCocycle.trivial(S, F)
    sup = sorted(S.support)
    naive = set()
    candidates = 0
    for mus in product(F.automorphisms(), repeat=2):
        for vals in product(F.units(), repeat=3):
            g = GaugeElement(dict(zip((1, 2), mus)), dict(zip(sup, vals)))
            candidates += 1
            if act(S, g, base, check=False) == base:
                naive.add(g.canonical_key())
    assert candidates == 108
    assert naive == {g.canonical_key() for g in one_cocycles(S, base)}


def test_h1_single_idempotent():
    for q, want in ((2, 1), (4, 2), (8, 3)):
        S, F = single(), gf(q)
        base = TwoCocycle.trivial(S, F)
        res = first_cohomology(S, base)
        assert res.order == want
        assert res.b1_order == len(one_coboundaries(S, base)) == 1  # conjugation is trivial over a field


def test_h1_gf2_everywhere_trivial():
    for S in (t2(), a3(), mu(2)):
        base = TwoCocycle.trivial(S, gf(2))
        res = first_cohomology(S, base)
        assert res.order == 1 and res.z1_order == len(one_cocycles(S, base)) == 1


def test_b1_elements_are_cocycles():
    S, F = t2(), gf(4)
    base = frobenius_twist(S, F)
    for b in one_coboundaries(S, base):
        assert verify_one_cocycle(S, base, b)


def test_coboundary_star_is_action_on_z1():
    S, F = t2(), gf(4)
    base = TwoCocycle.trivial(S, F)
    rng = random.Random(13)
    for g in one_cocycles(S, base):
        nu = {i: F.random_unit(rng) for i in (1, 2)}
        assert verify_one_cocycle(S, base, coboundary_star(S, base, nu, g))


def test_h1_counts_multiply():
    for S, q in ((t2(), 4), (a3(), 4), (mu(2), 3)):
        base = TwoCocycle.trivial(S, gf(q))
        res = first_cohomology(S, base)
        assert res.order * res.b1_order == res.z1_order
        assert (res.z1_order, res.b1_order) == (len(one_cocycles(S, base)), len(one_coboundaries(S, base)))


def test_boundary_example():
    S, F = t2(), gf(4)
    phi = Cochain(0, {1: F.gen, 2: F.gen ** 2})
    out = boundary(S, phi)
    assert out[(1, 2)] == F.gen  # g^2 * g^{-1}
    assert out[(1, 1)] == F.one and out[(2, 2)] == F.one


def test_boundary_nilpotence():
    rng = random.Random(14)
    for S in (t2(), a3(), mu(2)):
        for q in (4, 9):
            F = gf(q)
            for m in (0, 1, 2):
                for _ in range(10):
                    phi = random_cochain(S, m, F, rng)
                    assert is_constant_one(boundary(S, boundary(S, phi)))


def test_boundary_one_satisfies_product_identity():
    # d(phi) for a 1-cochain obeys the 2-cochain product identity on every
    # composable 3-chain, the composite (1,2,3) of a3 included
    S, F = a3(), gf(4)
    rng = random.Random(15)
    for _ in range(20):
        phi = random_cochain(S, 1, F, rng)
        d = boundary(S, phi)
        for p, q, r in S.tuples(3):
            lhs = d[(q, r)] * d[(p, S.mul(q, r))]
            rhs = d[(p, q)] * d[(S.mul(p, q), r)]
            assert lhs == rhs


def test_boundary_rejects_quaternions():
    S, H = t2(), quaternions()
    phi = Cochain(0, {1: H.i, 2: H.one})
    with pytest.raises(NonCommutativeCoefficients):
        boundary(S, phi)


def test_empty_inputs_are_refused_by_name():
    # each of these read a backend or a sample value off an empty dict and
    # let a bare StopIteration escape
    S, F = a3(), gf(4)
    empty, c = TwoCocycle({}, {}), TwoCocycle.trivial(S, F)
    want = verify_two_cocycle(S, empty).as_json()
    for call in (
        lambda: cohomologous(S, empty, c),
        lambda: cohomologous(S, c, empty),
        lambda: cohomologous_with_relabel(S, c, empty),
        lambda: stabilizer(S, empty),
        lambda: act(S, GaugeElement.identity(S, F), empty, check=False),
        lambda: one_cocycles(S, empty),
        lambda: first_cohomology(S, empty),
        lambda: one_coboundaries(S, empty),
    ):
        with pytest.raises(InvalidCocycle) as refused:
            call()
        assert refused.value.args[0] == want
    for m in (0, 1, 2):
        with pytest.raises(InvalidInput, match=re.escape(f"cochain missing value at {chain_keys(S, m)[0]}")):
            boundary(S, Cochain(m, {}))


def test_abelian_cocycle_and_coboundary():
    S, F = t2(), gf(4)
    ones = Cochain(2, {chain: F.one for chain in S.tuples(2)})
    assert is_abelian_cocycle(S, ones)
    assert is_abelian_coboundary(S, ones) is not None

    phi = Cochain(0, {1: F.gen, 2: F.gen ** 2})
    d0 = boundary(S, phi)
    assert is_abelian_cocycle(S, d0)
    pre = is_abelian_coboundary(S, d0)
    assert pre is not None and boundary(S, pre) == d0


def test_abelian_coboundary_none():
    # with no composition between the two arrows, only the idempotent values
    # of a 1-cochain are constrained by closedness, while every coboundary
    # d(psi)(s12) = psi(2)/psi(1) pairs off against d(psi)(s21) = psi(1)/psi(2)
    S, F = two_cycle(), gf(4)
    phi = Cochain(1, {(1, 1): F.one, (2, 2): F.one, (1, 2): F.gen, (2, 1): F.one})
    assert is_abelian_cocycle(S, phi)
    assert is_abelian_coboundary(S, phi) is None
    # while the balanced variant is hit by psi = (1, g)
    bal = Cochain(1, {(1, 1): F.one, (2, 2): F.one, (1, 2): F.gen, (2, 1): F.gen ** 2})
    psi = is_abelian_coboundary(S, bal)
    assert psi is not None and boundary(S, psi) == bal


def test_abelian_coboundary_bound():
    S, F = mu(3), gf(9)
    phi = Cochain(2, {chain: F.one for chain in S.tuples(2)})
    with pytest.raises(SearchBoundExceeded):
        is_abelian_coboundary(S, phi, Bounds(max_search=100))


def test_verify_reduces_to_abelian_identity():
    # with identity alphas over a field, cocycle validity of (1, xi) is the
    # degree-2 closedness of xi viewed as a cochain on 2-chains
    S, F = a3(), gf(4)
    rng = random.Random(16)
    for _ in range(40):
        xi = {t: F.random_unit(rng) for t in S.comp}
        c = TwoCocycle({p: F.identity_automorphism() for p in S.support}, xi)
        as_cochain = Cochain(2, {((i, j), (j, k)): xi[(i, j, k)] for (i, j, k) in S.comp})
        assert verify_two_cocycle(S, c).ok == is_abelian_cocycle(S, as_cochain)


def test_quaternion_star_hand_values():
    # frozen hand expansion: base alpha_12 = conj(1+i), xi = 1;
    # g = (mu = (conj i, conj j), eta(s12) = j, eta(e2) = 1+i)
    S, H = t2(), quaternions()
    v = H.element((1, 1, 0, 0))
    base = TwoCocycle(
        {(1, 1): H.identity_automorphism(), (2, 2): H.identity_automorphism(),
         (1, 2): H.inner_automorphism(v)},
        {t: H.one for t in S.comp},
    )
    assert verify_two_cocycle(S, base).ok
    g = GaugeElement({1: H.inner_automorphism(H.i), 2: H.inner_automorphism(H.j)},
                     {(1, 1): H.one, (2, 2): v, (1, 2): H.j})
    out = act(S, g, base)
    w = H.element((1, -1, 0, 0))
    assert out.xi[(1, 2, 2)] == w
    assert out.xi[(2, 2, 2)] == w
    assert out.xi[(1, 1, 2)] == H.one
    assert out.xi[(1, 1, 1)] == H.one
    assert out.alpha[(1, 2)] == H.inner_automorphism(v)
    assert out.alpha[(1, 1)].is_identity()
    assert out.alpha[(2, 2)] == H.inner_automorphism(w)
    assert verify_two_cocycle(S, out).ok


def test_one_cocycle_enumeration_excludes_infinite():
    S, H = t2(), quaternions()
    with pytest.raises(InfiniteBackend):
        one_cocycles(S, TwoCocycle.trivial(S, H))


# ------------------------------------------------ reference algorithms
# first_cohomology, one_coboundaries and the eta equation as they were
# before they became a walk over lattice cosets, an image listing and a
# linear system over Z/(q-1). The library must agree with them output for
# output.


def reference_eta_search(S, D, alpha1, targets, all_solutions):
    """Every triple re-scanned until nothing changes; the solutions in leaf order, which is sorted order."""
    units = D.units()
    support = sorted(S.support)
    triples = sorted(S.comp)
    solutions = []

    def value(t, assign):
        i, j, k = t
        return assign[(i, j)] * alpha1[(i, j)](assign[(j, k)]) * assign[(i, k)].inverse()

    def propagate(assign):
        changed = True
        while changed:
            changed = False
            for t in triples:
                i, j, k = t
                unknown = [s for s in {(i, j), (j, k), (i, k)} if s not in assign]
                if not unknown:
                    if value(t, assign) != targets[t]:
                        return False
                elif len(unknown) == 1:
                    v = unknown[0]
                    fits = []
                    for u in units:
                        assign[v] = u
                        if value(t, assign) == targets[t]:
                            fits.append(u)
                        del assign[v]
                    if not fits:
                        return False
                    if len(fits) == 1:
                        assign[v] = fits[0]
                        changed = True
        return True

    def search(assign):
        assign = dict(assign)
        if not propagate(assign):
            return False
        free = [p for p in support if p not in assign]
        if not free:
            if all(value(t, assign) == targets[t] for t in triples):
                solutions.append(assign)
                return not all_solutions
            return False
        v = free[0]
        for u in units:
            assign[v] = u
            if search(assign):
                return True
        return False

    search({})
    return solutions


def exponents(S, alpha):
    return {p: alpha[p].m for p in S.support}


def fixing_targets(S, c1, c2):
    """(mu, eta-search targets) per mu candidate of the pair, as elements, by element products."""
    D = c1.backend
    for exps in _mu_candidates(S, exponents(S, c1.alpha), exponents(S, c2.alpha), D.k):
        mu = {i: D.frobenius(m) for i, m in enumerate(exps, 1)}
        yield mu, {t: mu[t[0]](c2.xi[t]) * c1.xi[t].inverse() for t in S.comp}


def reference_cohomologous(S, c1, c2):
    """The first leaf of the first mu slice with one."""
    for mu, targets in fixing_targets(S, c1, c2):
        sols = reference_eta_search(S, c1.backend, c1.alpha, targets, all_solutions=False)
        if sols:
            return GaugeElement(mu, sols[0])
    return None


def reference_solutions(S, c1, c2):
    """Every leaf of every mu slice, in slice order: the gauges g with act(g, c1) = c2."""
    return [
        GaugeElement(mu, eta)
        for mu, targets in fixing_targets(S, c1, c2)
        for eta in reference_eta_search(S, c1.backend, c1.alpha, targets, all_solutions=True)
    ]


def reference_one_cocycles(S, base):
    return sorted(reference_solutions(S, base, base), key=GaugeElement.canonical_key)


def reference_relabel_search(S, c1, c2):
    """(phi, the reference witness) for the first phi of Aut S with one, or None."""
    for phi in automorphisms(S):
        g = reference_cohomologous(S, relabel(S, phi, c1), c2)
        if g is not None:
            return phi, g
    return None


def coboundary_star(S, base, nu, g):
    """The diagonal-unit action on fixing pairs: nu is a map index -> unit."""
    D = base.backend
    mu = {i: D.inner_automorphism(nu[i]) * g.mu[i] for i in g.mu}
    eta = {
        (i, j): nu[i] * g.eta[(i, j)] * base.alpha[(i, j)](nu[j].inverse())
        for (i, j) in g.eta
    }
    return GaugeElement(mu, eta)


def reference_one_coboundaries(S, base):
    """coboundary_star of every nu in (D^x)^n on the identity pair."""
    D = base.backend
    identity = GaugeElement.identity(S, D)
    seen = {}
    for values in product(D.units(), repeat=S.n):
        g = coboundary_star(S, base, dict(zip(range(1, S.n + 1), values)), identity)
        seen[g.canonical_key()] = g
    return [seen[key] for key in sorted(seen)]


def reference_first_cohomology(S, base):
    """The Z^1 x B^1 sweep: every coset formed from every pair, normality per pair; (H1Result, Z^1, B^1)."""
    z1 = reference_one_cocycles(S, base)
    b1 = reference_one_coboundaries(S, base)
    b1_keys = {g.canonical_key() for g in b1}
    seen = set()
    reps = []
    for z in z1:
        z_inv = gauge_inv(S, z)
        members = set()
        for b in b1:
            zb = gauge_mul(S, z, b)
            assert gauge_mul(S, zb, z_inv).canonical_key() in b1_keys
            members.add(zb.canonical_key())
        coset = frozenset(members)
        if coset not in seen:
            seen.add(coset)
            reps.append(z)
    assert len(reps) * len(b1) == len(z1)
    return H1Result(len(reps), reps, len(z1), len(b1)), z1, b1


def keys(gs):
    return [g.canonical_key() for g in gs]


def code_pair(g):
    """The searches' code pair of a gauge over a field: mu exponents in index order, eta codes in support order."""
    mu, eta = g.canonical_key()
    return tuple(m for _, m in mu), tuple(u for _, u in eta)


def reference_coset_pass(S, base, bounds=Bounds()):
    """(order, z1_order, b1_order, representative keys) of H^1 from the listings, as first_cohomology ran before it read the lattices.

    Z^1 (one_cocycles' _solutions) and B^1 are listed as code pairs and
    partitioned by common.cosets under gauge_mul on codes: 2|Z^1| products,
    B^1 in Z^1, the cosets covering Z^1, and B^1 r in r B^1 for each
    representative r.
    """
    F, v = base.backend, cohom._codes(S, base)
    z1 = cohom._solutions(S, F, v, v, bounds)
    b1 = [code_pair(g) for g in one_coboundaries(S, base, bounds)]
    src, exp, log, power, n = [i - 1 for i, _ in S.elements()], F._exp, F._log, F._powers, F.q - 1

    def mul(a, b):
        (am, ae), (bm, be) = a, b
        eta = tuple(exp[(log[x] + power[am[s]] * log[y]) % n] for s, x, y in zip(src, ae, be))
        return tuple((x + y) % F.k for x, y in zip(am, bm)), eta

    assert set(z1).issuperset(b1)
    key_of = cosets(z1, b1, mul)
    assert key_of.keys() == set(z1)
    reps = [key for key in z1 if key_of[key] == key]
    assert all(key_of[mul(b, r)] == r for r in reps for b in b1)
    return len(reps), len(z1), len(b1), [cohom._gauge(S, F, r).canonical_key() for r in reps]


def assert_matches_the_coset_pass(S, c, bounds):
    """first_cohomology against reference_coset_pass, a refusal against the same refusal; whether c was compared."""
    try:
        want = reference_coset_pass(S, c, bounds)
    except SearchBoundExceeded as refused:
        with pytest.raises(SearchBoundExceeded, match=f"^{re.escape(str(refused))}$"):
            first_cohomology(S, c, bounds)
        return False
    res = first_cohomology(S, c, bounds)
    assert (res.order, res.z1_order, res.b1_order, keys(res.reps)) == want
    return True


def difference_twist(S, F, rng):
    """Identity xi and alpha_ij = frob^(m_i - m_j): valid on every semigroup."""
    ms = {i: rng.randrange(F.k) for i in range(1, S.n + 1)}
    return TwoCocycle({(i, j): F.frobenius(ms[i] - ms[j]) for (i, j) in S.support}, {t: F.one for t in S.comp})


def differential_cocycles(S, F, rng):
    """The trivial cocycle, a gauged difference twist, and a gauged trivial cocycle."""
    trivial = TwoCocycle.trivial(S, F)
    return [
        trivial,
        act(S, random_gauge(S, F, rng), difference_twist(S, F, rng), check=False),
        act(S, random_gauge(S, F, rng), trivial, check=False),
    ]


DIFFERENTIAL_FIXTURES = {
    "single": single, "t2": t2, "a3": a3, "mu2": lambda: mu(2), "mu3": lambda: mu(3),
    "two_cycle": two_cycle, "double_t2": double_t2,
}
DIFFERENTIAL_FIELDS = (2, 3, 4, 5, 8, 9)


def assert_matches_references(S, c, rng):
    res, (ref, z1, b1) = first_cohomology(S, c), reference_first_cohomology(S, c)
    assert (res.order, res.z1_order, res.b1_order) == (ref.order, ref.z1_order, ref.b1_order)
    assert keys(res.reps) == keys(ref.reps)
    assert keys(one_cocycles(S, c)) == keys(z1)
    assert keys(one_coboundaries(S, c)) == keys(b1)
    assert_searches_match_references(S, c, rng)


def relabel_keys(found):
    return None if found is None else (found[0].perm, found[1].canonical_key())


def assert_searches_match_references(S, c, rng):
    """Listings, first witnesses, relabel witnesses and the stabilizer of c against the reference eta search.

    The listing is compared for c itself, a gauged copy and, per phi of
    Aut S, the relabeled copy that the normal maps of verify_ses solve.
    """
    D = c.backend
    auts = automorphisms(S)
    other = act(S, random_gauge(S, D, rng), c, check=False)
    moved = act(S, random_gauge(S, D, rng), relabel(S, rng.choice(auts), c), check=False)
    v = cohom._codes(S, c)
    for c2 in (c, other):
        got = cohom._solutions(S, D, v, cohom._codes(S, c2), Bounds())
        assert [cohom._gauge(S, D, key).canonical_key() for key in got] == keys(reference_solutions(S, c, c2))
    assert [relabel_keys(found) for found in cohom._relabel_witnesses(S, c, Bounds())] == [
        (phi.perm, g.canonical_key()) for phi in auts for g in reference_solutions(S, relabel(S, phi, c), c)
    ]
    assert cohomologous(S, c, other).canonical_key() == reference_cohomologous(S, c, other).canonical_key()
    assert relabel_keys(cohomologous_with_relabel(S, c, moved)) == relabel_keys(reference_relabel_search(S, c, moved))
    want = [phi.perm for phi in auts if reference_cohomologous(S, c, relabel(S, phi, c)) is not None]
    assert [phi.perm for phi in stabilizer(S, c)] == want


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_FIXTURES))
def test_h1_and_eta_search_match_the_references_on_fixtures(name):
    rng = random.Random(name)
    for q in DIFFERENTIAL_FIELDS:
        S, F = DIFFERENTIAL_FIXTURES[name](), gf(q)
        for c in differential_cocycles(S, F, rng):
            assert_matches_references(S, c, rng)


# field, then the semigroups that get the full references; two_cycle's
# quadratic H^1 reference takes seconds over GF(25) and GF(27)
EXPLICIT_MODULUS_CASES = {
    "GF16": ((2, 4, (1, 1, 0, 0, 1)), (single, t2, two_cycle)),
    "GF25": ((5, 2, (2, 1, 1)), (single, t2)),
    "GF27": ((3, 3, (1, 2, 0, 1)), (single, t2)),
}


@pytest.mark.parametrize("field", sorted(EXPLICIT_MODULUS_CASES))
def test_h1_and_eta_search_match_the_references_on_explicit_moduli(field):
    # Frobenius rows of degree 3 and 4 over p = 2, 3 and 5, beyond the pinned
    # GF(4), GF(8) and GF(9)
    rng = random.Random(field)
    spec, semigroups = EXPLICIT_MODULUS_CASES[field]
    F = FiniteField(*spec)
    for make in semigroups:
        for c in differential_cocycles(make(), F, rng):
            assert_matches_references(make(), c, rng)
    # only a triple on three distinct indices, as a3's (1, 2, 3), has three
    # distinct slots, where the search solves for x(jk) through alpha_ij^-1;
    # alpha_ij = frob^(i - j) makes alpha_12 differ from its inverse for k > 2
    S = a3()
    twist = TwoCocycle({(i, j): F.frobenius(i - j) for i, j in S.support}, {t: F.one for t in S.comp})
    assert_searches_match_references(S, twist, rng)


def test_h1_and_eta_search_match_the_references_on_random_semigroups():
    # up to 5 idempotents. The reference sweep is quadratic, so a semigroup
    # whose trivial cocycle has a fixing-pair slice (the kernel of its eta
    # equations) over 500 pairs or |Z^1||B^1| over 10^4 skips it; the coset
    # pass answers all 90 cocycles under max_search 20000, the skipped too
    compared, skipped, passes = 0, 0, 0
    for seed in range(30):
        rng = random.Random(seed)
        S = random_semigroup(rng, rng.randint(1, 5))
        F = gf((2, 3, 4)[seed % 3])
        for c in differential_cocycles(S, F, random.Random(seed)):
            passes += assert_matches_the_coset_pass(S, c, Bounds(max_search=20000))
        try:
            res = first_cohomology(S, TwoCocycle.trivial(S, F), Bounds(max_search=500))
        except SearchBoundExceeded:
            res = None
        if res is None or res.z1_order * res.b1_order > 10**4:
            skipped += 1
            continue
        for c in differential_cocycles(S, F, rng):
            assert_matches_references(S, c, rng)
        compared += 1
    assert (compared + skipped, passes) == (30, 90) and compared >= 20 and skipped > 0


def corrupted_copies(S, c, rng):
    """c with one xi changed, one alpha moved by a Frobenius power, and one diagonal alpha moved."""
    F = c.backend
    t = rng.choice(sorted(S.comp))
    out = [c.replace_xi(t, c.xi[t] * FFElement(F, rng.randrange(2, F.q)))] if F.q > 2 else []
    if F.k > 1:
        p, i = rng.choice(sorted(S.support)), rng.randint(1, S.n)
        out.append(c.replace_alpha(p, c.alpha[p] * F.frobenius(rng.randrange(1, F.k))))
        out.append(c.replace_alpha((i, i), c.alpha[(i, i)] * F.frobenius(rng.randrange(1, F.k))))
    return out


def element_identities_json(S, c):
    rep = ValidationReport()
    cohom._element_identities(S, c, c.backend, rep)
    return rep.as_json()


def test_identities_on_codes_match_the_element_loops():
    # over a field verify_two_cocycle checks the identities on codes; its
    # report, messages included, is the element loops' report
    rng = random.Random(15)
    semigroups = [make() for make in DIFFERENTIAL_FIXTURES.values()]
    semigroups += [random_semigroup(rng, rng.randint(1, 5)) for _ in range(8)]
    kinds, compared = set(), 0
    for spec in FIELDS.values():
        F = FiniteField(*spec)
        for S in semigroups:
            for c in differential_cocycles(S, F, rng):
                for d in [c] + corrupted_copies(S, c, rng):
                    rep = verify_two_cocycle(S, d)
                    assert rep.as_json() == element_identities_json(S, d)
                    kinds.update(v.kind for v in rep.violations)
                    compared += 1
    assert kinds == {"three_chain", "two_chain", "diagonal_alpha"}
    assert compared > 1000


def test_field_identities_make_no_element_operations(monkeypatch):
    S, F = mu(3), gf(4)
    c = act(S, random_gauge(S, F, random.Random(4)), TwoCocycle.trivial(S, F), check=False)
    T, H = t2(), quaternions()
    twisted = TwoCocycle.trivial(T, H).replace_alpha((1, 2), H.inner_automorphism(H.element((1, 1, 0, 0))))
    calls = {}
    for cls, name in ((FFElement, "__mul__"), (FieldAutomorphism, "__call__"),
                      (QuatElement, "__mul__"), (QuaternionAutomorphism, "__call__")):
        def wrapped(*args, inner=getattr(cls, name), key=cls):
            calls[key] += 1
            return inner(*args)

        calls[cls] = 0
        monkeypatch.setattr(cls, name, wrapped)
    assert verify_two_cocycle(S, c).ok
    assert calls[FFElement] == calls[FieldAutomorphism] == 0
    assert verify_two_cocycle(T, twisted).ok
    assert calls[QuatElement] > 0 and calls[QuaternionAutomorphism] > 0


def act_inputs(S, F, rng):
    """The differential cocycles and their check=False corruptions, a zero xi among them."""
    for c in differential_cocycles(S, F, rng):
        yield c
        yield from corrupted_copies(S, c, rng)
        yield c.replace_xi(rng.choice(sorted(S.comp)), F.zero)


def test_act_on_codes_matches_the_element_reference():
    # over a field act runs on codes; its cocycle is the element path's, on
    # fixtures and random semigroups, for gauges built over an equal but
    # separate field object
    rng = random.Random(16)
    semigroups = [make() for make in DIFFERENTIAL_FIXTURES.values()]
    semigroups += [random_semigroup(rng, rng.randint(1, 5)) for _ in range(8)]
    compared = 0
    for q in (2, 3, 4, 8, 9):
        F = gf(q)
        for S in semigroups:
            for c in act_inputs(S, F, rng):
                for g in (GaugeElement.identity(S, F), random_gauge(S, F, rng), random_gauge(S, gf(q), rng)):
                    assert act(S, g, c, check=False) == cohom._element_act(S, g, c, F)
                    compared += 1
    assert compared > 1000


def test_act_refusals_match_the_element_reference():
    # a zero eta, and a gauge or cocycle value from another field or backend
    S, F, H = a3(), gf(4), quaternions()
    rng = random.Random(17)
    c = act(S, random_gauge(S, F, rng), difference_twist(S, F, rng), check=False)
    g = random_gauge(S, F, rng)
    last_p, last_t = list(c.alpha)[-1], list(c.xi)[-1]
    cases = [
        (GaugeElement(g.mu, {**g.eta, (1, 2): F.zero}), c, ZeroConjugator),
        (GaugeElement(g.mu, {**g.eta, (2, 3): gf(8).gen}), c, MixedBackends),
        (GaugeElement(g.mu, {**g.eta, (1, 1): H.one}), c, MixedBackends),
        (GaugeElement({**g.mu, 2: gf(8).frobenius(1)}, g.eta), c, MixedBackends),
        (GaugeElement({**g.mu, 3: H.identity_automorphism()}, g.eta), c, MixedBackends),
        (g, c.replace_alpha(last_p, gf(8).frobenius(1)), MixedBackends),
        (g, c.replace_alpha(last_p, H.identity_automorphism()), MixedBackends),
        (g, c.replace_xi(last_t, gf(2).one), MixedBackends),
        (g, c.replace_xi(last_t, H.one), MixedBackends),
    ]
    for gauge, cocycle, error in cases:
        with pytest.raises(error):
            act(S, gauge, cocycle, check=False)
        with pytest.raises(error):
            cohom._element_act(S, gauge, cocycle, F)


def test_field_act_and_sweep_make_no_element_operations(monkeypatch):
    # on a valid field cocycle the gauge action and the associativity sweep
    # run on codes; the quaternion twist shows the counters see the element paths
    rng = random.Random(16)
    S, F = mu(3), gf(4)
    c = act(S, random_gauge(S, F, rng), difference_twist(S, F, rng), check=False)
    g, R = random_gauge(S, F, rng), TwistedRing(S, F, c, check=False)
    T, H = t2(), quaternions()
    twisted = TwoCocycle.trivial(T, H).replace_alpha((1, 2), H.inner_automorphism(H.element((1, 1, 0, 0))))
    gq, RH = random_gauge(T, H, rng), TwistedRing(T, H, twisted, check=False)
    calls = dict.fromkeys((FFElement, FieldAutomorphism, QuatElement, QuaternionAutomorphism, "mul"), 0)
    ops = {
        FFElement: ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "__pow__", "inverse"),
        FieldAutomorphism: ("__call__", "__mul__", "inverse"),
        QuatElement: ("__mul__",),
        QuaternionAutomorphism: ("__call__", "__mul__"),
    }
    for cls, names in ops.items():
        for name in names:
            def wrapped(*args, inner=getattr(cls, name), key=cls):
                calls[key] += 1
                return inner(*args)

            monkeypatch.setattr(cls, name, wrapped)

    def counted_mul(*args, inner=twring.mul):
        calls["mul"] += 1
        return inner(*args)

    monkeypatch.setattr(twring, "mul", counted_mul)
    assert check_associativity(R).ok
    assert verify_two_cocycle(S, act(S, g, c)).ok
    assert calls == dict.fromkeys(calls, 0)
    assert check_associativity(RH).ok
    act(T, gq, twisted)
    assert calls[QuatElement] > 0 and calls[QuaternionAutomorphism] > 0 and calls["mul"] > 0


def counting(monkeypatch, name, owner=cohom):
    calls = [0]
    inner = getattr(owner, name)

    def wrapped(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapped)
    return calls


def test_field_searches_make_no_element_operations(monkeypatch):
    # over a field the searches take and return codes: gauges are built only
    # for what they return, and H^1 multiplies and inverts no gauge object
    rng = random.Random(17)
    S, F = two_cycle(), gf(8)
    twist = TwoCocycle({(i, j): F.frobenius(i - j) for i, j in S.support}, {t: F.one for t in S.comp})
    c = act(S, random_gauge(S, F, rng), twist, check=False)
    swap = automorphisms(S)[-1]
    target = act(S, random_gauge(S, F, rng), relabel(S, swap, c), check=False)
    g = random_gauge(S, F, rng)
    calls = dict.fromkeys((FFElement, FieldAutomorphism), 0)
    ops = {
        FFElement: ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "__pow__", "inverse"),
        FieldAutomorphism: ("__call__", "__mul__", "inverse"),
    }
    for cls, names in ops.items():
        for name in names:
            def wrapped(*args, inner=getattr(cls, name), key=cls):
                calls[key] += 1
                return inner(*args)

            monkeypatch.setattr(cls, name, wrapped)
    products, inverses = counting(monkeypatch, "gauge_mul"), counting(monkeypatch, "gauge_inv")
    assert first_cohomology(S, c).order > 1
    assert cohomologous(S, c, act(S, g, c, check=False)) is not None
    assert [phi.perm for phi in stabilizer(S, c)] == [(1, 2), (2, 1)]
    assert cohomologous_with_relabel(S, c, target) is not None
    assert (calls, products[0], inverses[0]) == (dict.fromkeys(calls, 0), 0, 0)
    cohom.gauge_mul(S, g, cohom.gauge_inv(S, g))
    assert calls[FFElement] > 0 and calls[FieldAutomorphism] > 0 and products[0] == inverses[0] == 1


@pytest.mark.parametrize("S, q, want", [(a3(), 9, (4, 2, 2)), (double_t2(), 8, (18, 9, 9))], ids=["a3/GF9", "double_t2/GF8"])
def test_h1_lists_nothing_and_keys_each_class_by_step(monkeypatch, S, q, want):
    # no listing and no least member sought; per slice one membership test
    # per B^1 step (normality) and one class walk, whose leaves are the
    # classes, |H^1| in all: 2 B^1 steps here, so want = (slices * 2,
    # slices, |H^1|), with 2 slices and |H^1| = 2 on a3/GF9 and 9 and 9 on
    # double_t2/GF8
    base = TwoCocycle.trivial(S, gf(q))
    tests, least, listed = (counting(monkeypatch, name, Lattice) for name in ("contains", "least", "elements"))
    walks, leaves, reps = [0], [0], Lattice.reps

    def walk(*args):
        walks[0] += 1
        out = reps(*args)
        leaves[0] += len(out)
        return out

    monkeypatch.setattr(Lattice, "reps", walk)
    res = first_cohomology(S, base)
    assert (tests[0], walks[0], leaves[0], least[0], listed[0]) == (*want, 0, 0)
    assert leaves[0] == res.order
    assert (res.z1_order, res.b1_order) == (len(one_cocycles(S, base)), len(one_coboundaries(S, base)))


@pytest.mark.parametrize("S, q", [(mu(3), 8), (a3(), 9)], ids=["mu3/GF8", "a3/GF9"])
def test_h1_builds_a_gauge_per_class_only(monkeypatch, S, q):
    # Z^1 and B^1 stay code pairs; only the representatives become gauges
    built = counting(monkeypatch, "_gauge")
    res = first_cohomology(S, TwoCocycle.trivial(S, gf(q)))
    assert built[0] == res.order < res.z1_order


@pytest.mark.parametrize("S, q", [(mu(3), 8), (two_cycle(), 9), (a3(), 4)], ids=["mu3/GF8", "two_cycle/GF9", "a3/GF4"])
def test_field_z1_is_one_elimination_and_no_eta_search(monkeypatch, S, q):
    # every solution of the eta equations, and the kernel, is read off one
    # echelon form of the log matrix, shared by all mu and kept by S for
    # every later call on the same alpha; B^1's Lattice is one more, kept
    # too. Lattice.least (the first witness) reads the kernel's form and
    # eliminates nothing itself
    F = gf(q)
    c = act(S, random_gauge(S, F, random.Random(q)), difference_twist(S, F, random.Random(S.n)), check=False)
    assert not hasattr(cohom, "_eta_search") and not hasattr(cohom, "_least")
    gone = ("diagonal_form", "kernel_mod", "echelon_mod", "step_mod", "solve_mod", "span_mod")
    assert not any(hasattr(linalg, name) for name in gone)
    forms, echelons = counting(monkeypatch, "_log_form"), counting(monkeypatch, "span", Lattice)
    assert len(one_cocycles(S, c)) > 1
    assert (forms[0], echelons[0]) == (1, 1)
    solves, inside, calls = counting(monkeypatch, "solve", Lattice), [0], counting(monkeypatch, "least", Lattice)

    def least(*args, inner=Lattice.least):
        before = echelons[0] + solves[0]
        out = inner(*args)
        inside[0] += echelons[0] + solves[0] - before
        return out

    monkeypatch.setattr(Lattice, "least", least)
    assert first_cohomology(S, c).order >= 1
    assert (forms[0], echelons[0]) == (1, 2)
    assert cohomologous(S, c, c) is not None and len(one_cocycles(S, c)) > 1
    assert (forms[0], echelons[0]) == (1, 2)
    assert inside[0] == 0 < calls[0]


def test_stab_forms_one_log_form_per_alpha(monkeypatch):
    # the 6 relabelings of trivial mu3 share one alpha, and so one log form,
    # which S keeps: a second call on S builds none, and a call on an equal
    # but fresh semigroup builds its own
    S, F = mu(3), gf(9)
    forms = counting(monkeypatch, "_log_form")
    assert len(stabilizer(S, TwoCocycle.trivial(S, F))) == len(automorphisms(S)) == 6
    assert forms[0] == 1
    stabilizer(S, TwoCocycle.trivial(S, F))
    assert forms[0] == 1
    fresh = SquareFreeSemigroup(S.n, S.support, S.comp)
    assert stabilizer(fresh, TwoCocycle.trivial(fresh, F)) == stabilizer(S, TwoCocycle.trivial(S, F))
    assert forms[0] == 2


def test_z1_refusal_estimates_the_kernel():
    # t2 over GF(4): l_11 and l_22 are forced, l_12 is free, so |K| = 3 and
    # each of the k = 2 mu slices has 3 pairs; a limit of 3 answers
    S, F = t2(), gf(4)
    c = TwoCocycle.trivial(S, F)
    assert len(one_cocycles(S, c, Bounds(max_search=3))) == 6
    with pytest.raises(SearchBoundExceeded, match=r"^max_search: fixing-pair slice estimate 3 above limit 2$"):
        one_cocycles(S, c, Bounds(max_search=2))


def reference_orbit_walk(S, F, a):
    """B^1 as eta code tuples, by the orbit walk: n actions of the maps nu = g at one index per orbit element, g primitive."""
    g = F._exp[1 % (F.q - 1)]
    support = S.elements()

    def times(u, v):
        return (FFElement(F, u) * FFElement(F, v)).code

    # nu sends eta(ij) to nu_i eta(ij) alpha_ij(nu_j^-1)
    factor = {(i, j): F.frobenius(a[i, j])(FFElement(F, g).inverse()).code for i, j in support}
    gens = [[times(g if i == k else 1, factor[i, j] if j == k else 1) for i, j in support] for k in range(1, S.n + 1)]
    orbit = [(1,) * len(support)]
    seen = set(orbit)
    for eta in orbit:
        for factors in gens:
            h = tuple(map(times, eta, factors))
            if h not in seen:
                seen.add(h)
                orbit.append(h)
    return sorted(orbit)


def assert_b1_matches_the_orbit_walk(S, c):
    F, a = c.backend, cohom._codes(S, c)[0]
    assert [code_pair(g)[1] for g in one_coboundaries(S, c)] == reference_orbit_walk(S, F, a)


def test_b1_image_listing_matches_the_orbit_walk():
    # B^1 is listed from the steps of one echelon form; the orbit walk
    # is the reference, on the fixtures over GF(2..27), the random
    # semigroups and eight isolated idempotents over GF(9)
    rng = random.Random(20)
    fields = [gf(q) for q in (2, 3, 4, 8, 9)] + [FiniteField(*spec) for spec, _ in EXPLICIT_MODULUS_CASES.values()]
    compared = 0
    for make in DIFFERENTIAL_FIXTURES.values():
        for F in fields:
            for c in differential_cocycles(make(), F, rng):
                assert_b1_matches_the_orbit_walk(make(), c)
                compared += 1
    for seed in range(30):
        S = random_semigroup(random.Random(seed), random.Random(seed).randint(1, 5))
        F = gf((2, 3, 4)[seed % 3])
        for c in differential_cocycles(S, F, rng):
            assert_b1_matches_the_orbit_walk(S, c)
            compared += 1
    S, F = SquareFreeSemigroup.make(8, [(i, i) for i in range(1, 9)], []), gf(9)
    assert reference_orbit_walk(S, F, dict.fromkeys(S.support, 0)) == [(1,) * 8]
    assert_b1_matches_the_orbit_walk(S, TwoCocycle.trivial(S, F))
    assert compared > 200


def test_b1_refusal_estimates_the_orbit():
    # eight isolated idempotents over GF(9): every pair is a loop, where nu
    # moves nothing, so B^1 = {1}; the (q-1)^n estimate refused it at 8^8
    S, F = SquareFreeSemigroup.make(8, [(i, i) for i in range(1, 9)], []), gf(9)
    assert keys(one_coboundaries(S, TwoCocycle.trivial(S, F))) == keys([GaugeElement.identity(S, F)])
    with pytest.raises(SearchBoundExceeded, match=r"^max_search: orbit estimate 1 above limit 0$"):
        one_coboundaries(S, TwoCocycle.trivial(S, F), Bounds(max_search=0))


def test_relabel_searches_verify_each_cocycle_once(monkeypatch):
    # two disjoint two_cycles; swapping them moves the exponent-sum class,
    # so Stab is half of Aut S and the relabel search passes phis that fail.
    # Each cocycle is verified once, and no phi re-verifies it: a relabelled
    # copy of a valid cocycle stays valid. c keeps the record of its check,
    # so cohomologous_with_relabel verifies only target.
    S = SquareFreeSemigroup.make(4, [(i, i) for i in range(1, 5)] + [(1, 2), (2, 1), (3, 4), (4, 3)], [])
    F = gf(4)
    c = TwoCocycle.trivial(S, F).replace_alpha((1, 2), F.frobenius(1))
    swap = SemigroupAutomorphism((3, 4, 1, 2))
    target = act(S, random_gauge(S, F, random.Random(3)), relabel(S, swap, c), check=False)
    calls = counting(monkeypatch, "verify_two_cocycle")
    assert len(automorphisms(S)) == 8
    assert [phi.perm for phi in stabilizer(S, c)] == [(1, 2, 3, 4), (1, 2, 4, 3), (2, 1, 3, 4), (2, 1, 4, 3)]
    assert calls[0] == 1
    assert cohomologous_with_relabel(S, c, target)[0].perm == swap.perm
    assert calls[0] == 2
    # mu3/GF4 made 12 calls when every phi re-verified both cocycles
    assert len(stabilizer(mu(3), TwoCocycle.trivial(mu(3), F))) == 6
    assert calls[0] == 3


def test_a_verified_cocycle_vouches_for_no_copy(monkeypatch):
    # the record of a passed check sits on the cocycle, for its semigroup:
    # a replace_* copy with a wrong value is a new object, verified on its own
    S, F = t2(), gf(4)
    c = TwoCocycle.trivial(S, F)
    assert verify_two_cocycle(S, c).ok
    calls = counting(monkeypatch, "verify_two_cocycle")
    assert normalize(S, c)[0] is c and calls[0] == 0
    for bad in (c.replace_xi((1, 1, 2), F.gen), c.replace_alpha((1, 1), F.frobenius(1))):
        for search in (normalize, first_cohomology, lambda S, x: act(S, GaugeElement.identity(S, F), x)):
            with pytest.raises(InvalidCocycle):
                search(S, bad)
    # verified against t2, c is checked again, and refused, on another semigroup
    with pytest.raises(InvalidCocycle, match="missing_alpha"):
        normalize(mu(2), c)


def test_one_coboundaries_verifies_its_cocycle():
    # alpha(1, 2) = frob^1 on a3/GF(4) breaks the two_chain identity; the
    # orbit of the identity pair under it held 27 gauges, of which 9 fix it.
    # The infinite-backend refusal still comes before the check
    S, F = a3(), gf(4)
    bad = TwoCocycle.trivial(S, F).replace_alpha((1, 2), F.frobenius(1))
    want = verify_two_cocycle(S, bad).as_json()
    assert [v["kind"] for v in want["violations"]] == ["two_chain"]
    for search in (one_coboundaries, one_cocycles, first_cohomology):
        with pytest.raises(InvalidCocycle) as refused:
            search(S, bad)
        assert refused.value.args[0] == want
    Q = quaternions()
    with pytest.raises(InfiniteBackend, match="^orbit enumeration needs a finite field$"):
        one_coboundaries(S, TwoCocycle.trivial(S, Q).replace_xi((1, 1, 2), Q.i))


def test_cocycles_and_gauges_are_read_only():
    # a gauge is hashed by its canonical_key and a cocycle keeps the record
    # of its check, so neither may change once built
    S, F = t2(), gf(4)
    c, g = TwoCocycle.trivial(S, F), GaugeElement.identity(S, F)
    for values, key, value in (
        (c.alpha, (1, 2), F.frobenius(1)),
        (c.xi, (1, 1, 2), F.gen),
        (g.mu, 1, F.frobenius(1)),
        (g.eta, (1, 2), F.gen),
    ):
        with pytest.raises(TypeError):
            values[key] = value
        with pytest.raises(TypeError):
            del values[key]
    # the constructors copy what they are given
    alpha, eta = dict(c.alpha), dict(g.eta)
    c2, g2 = TwoCocycle(alpha, c.xi), GaugeElement(g.mu, eta)
    alpha[(1, 2)], eta[(1, 2)] = F.frobenius(1), F.gen
    assert (c2, g2) == (c, g) and hash(g2) == hash(g)


@pytest.mark.parametrize(
    "search",
    [stabilizer, lambda S, c: cohomologous_with_relabel(S, c, c)],
    ids=["stabilizer", "cohomologous_with_relabel"],
)
def test_relabel_refuses_a_cocycle_off_the_domain(monkeypatch, search):
    # a missing alpha or a stray xi is reported as verify_two_cocycle
    # reports it, not as a KeyError from the reindexing
    S, F = a3(), gf(4)
    trivial = TwoCocycle.trivial(S, F)
    missing = TwoCocycle({p: a for p, a in trivial.alpha.items() if p != (1, 2)}, trivial.xi)
    stray = TwoCocycle(trivial.alpha, {**trivial.xi, (1, 3, 2): F.one})
    for c in (missing, stray):
        want = verify_two_cocycle(S, c)
        assert [v["kind"] for v in want.as_json()["violations"]] in (["missing_alpha"], ["stray_xi"])
        with pytest.raises(InvalidCocycle) as refused:
            search(S, c)
        assert refused.value.args[0] == want.as_json()
    # a cocycle on S's domain is not re-verified by the reindexing
    calls = counting(monkeypatch, "verify_two_cocycle")
    relabel(S, automorphisms(S)[-1], trivial)
    assert calls[0] == 0


def test_h1_of_large_trivial_cocycles():
    # frozen values of rings whose Z^1 x B^1 sweep took a minute or more
    for S, F, want in (
        (mu(4), gf(9), (2, 1024, 512)),
        (a3(), FiniteField(2, 4, (1, 1, 0, 0, 1)), (4, 900, 225)),
    ):
        base = TwoCocycle.trivial(S, F)
        res = first_cohomology(S, base)
        assert (res.order, res.z1_order, res.b1_order) == want
        assert (len(one_cocycles(S, base)), len(one_coboundaries(S, base))) == want[1:]


def path(n):
    """Idempotents 1..n and the arrows (i, i + 1): a tree, whose only products are the unit laws."""
    return SquareFreeSemigroup.make(n, [(i, i) for i in range(1, n + 1)] + [(i, i + 1) for i in range(1, n)], [])


def test_h1_of_a_path_of_20_lists_nothing(monkeypatch):
    # over GF(3), k = 1 leaves the one slice mu = 0, and logs are mod 2. The
    # unit-law triples (i, i, j) and (i, j, j) read l_ii = 0 and l_jj = 0, so
    # the 20 loops are forced and the 19 arrows free: |Z^1| = 2^19. B^1 is
    # l_i - l_(i+1) on the arrows, and a tree's coboundary map is onto its
    # arrows, so |B^1| = 2^19 and H^1 is trivial; both were listed before
    S = path(20)
    listed = counting(monkeypatch, "elements", Lattice)
    res = first_cohomology(S, TwoCocycle.trivial(S, gf(3)))
    assert (res.order, res.z1_order, res.b1_order, listed[0]) == (1, 2**19, 2**19, 0)
    assert keys(res.reps) == keys([GaugeElement.identity(S, gf(3))])


def test_h1_of_paths_matches_the_coset_pass():
    for n in range(6, 13):
        assert assert_matches_the_coset_pass(path(n), TwoCocycle.trivial(path(n), gf(3)), Bounds())


def test_h1_of_a_path_of_40_reads_the_lattices_only(monkeypatch):
    # as the path of 20: |Z^1| = |B^1| = 2^39 and H^1 trivial, answered from
    # one echelon form of B^1 under the default bounds, which refuse on the
    # size of H^1, the listing made, not on |K|
    S, F = path(40), gf(3)
    base = TwoCocycle.trivial(S, F)
    listed = counting(monkeypatch, "elements", Lattice)
    res = first_cohomology(S, base)
    assert (res.order, res.z1_order, res.b1_order, listed[0]) == (1, 2**39, 2**39, 0)
    with pytest.raises(SearchBoundExceeded, match=r"^max_search: H\^1 estimate 1 above limit 0$"):
        first_cohomology(S, base, Bounds(max_search=0))


def reduce_row(row):
    """(g, V) with row . V = (g, 0, ..., 0) over the integers, V unimodular and given as its columns: Euclid on entry pairs."""
    row, V = list(row), [[int(i == j) for i in range(len(row))] for j in range(len(row))]
    for k in range(1, len(row)):
        while row[k]:
            f = row[0] // row[k]
            row[0], row[k] = row[k], row[0] - f * row[k]
            V[0], V[k] = V[k], [a - f * b for a, b in zip(V[0], V[k])]
    return row[0], V


def reference_least(F, l0, gens):
    """_least's reference, with an elimination per slot and no echelon form.

    At slot s the 1 x r row K_s of the generators' entries is brought to
    (g, 0, ..., 0) by unimodular column steps (reduce_row) and solved for
    the least code, and the generators shrink to the image of that row's
    kernel, the elements that keep slot s.
    """
    n, exp = F.q - 1, F._exp
    logs, gens = list(l0), [[x % n for x in g] for g in gens]
    for s in range(len(logs)):
        if not gens:
            break
        columns = list(zip(*gens))
        g, V = reduce_row(columns[s])
        d = gcd(n, g)
        if d == n:
            continue
        want = min(((logs[s] + d * t) % n for t in range(n // d)), key=exp.__getitem__)
        f = (want - logs[s]) % n // d * pow(g // d, -1, n // d)
        logs = [(x + f * sum(map(mul, V[0], col))) % n for x, col in zip(logs, columns)]
        kernel = [[n // d * x for x in V[0]]] + V[1:]
        images = (tuple(sum(map(mul, k, col)) % n for col in columns) for k in kernel)
        gens = [v for v in images if any(v)]
    return logs


def assert_least_matches_the_references(F, l0, gens):
    """Lattice.least against reference_least and, for a lattice of at most 10^4 elements, every member."""
    n = F.q - 1
    got = list(Lattice.span(gens, n, len(l0)).least(l0, F._exp.__getitem__))
    assert got == reference_least(F, l0, gens), (n, l0, gens)
    if prod(n // gcd(n, *g) for g in gens) <= 10**4:
        members = {tuple((x + y) % n for x, y in zip(l0, z)) for z in span_of(gens, len(l0), n)}
        assert got == list(min(members, key=lambda logs: [F._exp[x] for x in logs])), (n, l0, gens)


def random_lattice(rng, n, width):
    """Up to 5 generators of width entries over Z/n, unreduced, and a start l0."""
    gens = [tuple(rng.choice((0, rng.randrange(-n, 2 * n))) for _ in range(width)) for _ in range(rng.randrange(6))]
    return [rng.randrange(n) for _ in range(width)], gens


@pytest.mark.parametrize("n", (1, 2, 4, 6, 7, 8, 12, 15, 26, 80, 242))
def test_least_reads_the_echelon_as_the_per_slot_solve_did(n):
    # _exp is a seeded injective table of codes, so the least code tuple of
    # a coset is unique whatever order the codes come in
    rng = random.Random(n)
    for _ in range(150):
        F = SimpleNamespace(q=n + 1, _exp=rng.sample(range(1, 10 * n + 1), n))
        assert_least_matches_the_references(F, *random_lattice(rng, n, rng.randrange(1, 6)))


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_least_reads_the_echelon_as_the_per_slot_solve_did_over_fields(q):
    # random lattices, then the K and B^1 step rows of the fixtures' log forms
    F, rng = FiniteField(*FIELDS[f"GF{q}"]), random.Random(q)
    for _ in range(100):
        assert_least_matches_the_references(F, *random_lattice(rng, q - 1, rng.randrange(1, 6)))
    for name in sorted(DIFFERENTIAL_FIXTURES):
        S = DIFFERENTIAL_FIXTURES[name]()
        a = {p: rng.randrange(F.k) if p[0] != p[1] else 0 for p in S.support}
        for L in (cohom._log_form(S, F, a)[1], cohom._coboundary_gens(S, F, a)[0]):
            assert_least_matches_the_references(F, [rng.randrange(q - 1) for _ in S.support], L.rows)
