"""check_associativity sweeps composable chains; the full cube is the oracle.

For a semigroup that passes validate, both bracketings of a basis triple
that is not a composable chain vanish together, so the chain sweep must
report exactly what a sweep over all |support|^3 basis triples reports:
same verdict, same triples, same order, same text.
"""

import random
from itertools import product

import pytest

from sqfree import twring
from sqfree.cohom import TwoCocycle, act, random_gauge, verify_two_cocycle
from sqfree.common import ValidationReport
from sqfree.errors import InvalidInput, MixedBackends
from sqfree.fixtures import a3, double_t2, gf, mu, quaternions, single, t2, two_cycle
from sqfree.sgrp import SquareFreeSemigroup
from sqfree.twring import RingElement, TwistedRing, check_associativity, mul
from test_sgrp import random_semigroup

FIXTURES = {
    "single": single,
    "t2": t2,
    "a3": a3,
    "mu2": lambda: mu(2),
    "mu3": lambda: mu(3),
    "two_cycle": two_cycle,
    "double_t2": double_t2,
}
FIELDS = (2, 3, 4, 8, 9)
KINDS = ("valid", "xi", "alpha")


def full_cube(R):
    """The sweep over every basis triple, scalars over the backend generators."""
    report = ValidationReport()
    gens = R.D.generators()
    for p, q, r in product(R.S.elements(), repeat=3):
        for d1, d2, d3 in product(gens, repeat=3):
            x = RingElement(R, {p: d1})
            y = RingElement(R, {q: d2})
            z = RingElement(R, {r: d3})
            lhs = mul(R, mul(R, x, y), z)
            rhs = mul(R, x, mul(R, y, z))
            if lhs != rhs:
                report.add(
                    "associativity",
                    (p, q, r),
                    f"scalars ({d1!r}, {d2!r}, {d3!r}): {lhs!r} != {rhs!r}",
                )
                break
    return report


def ring(name, q, kind):
    """A gauged Frobenius-twisted cocycle, or a copy with one xi or one alpha changed.

    Over GF(2) the only unit is 1, so the xi copy puts zero there. Over a
    prime field the identity is the only automorphism, so there the alpha
    copy equals the valid cocycle.
    """
    S, F = FIXTURES[name](), gf(q)
    rng = random.Random(f"{name}/GF{q}/{kind}")
    base = TwoCocycle.trivial(S, F)
    arrows = sorted(p for p in S.support if p[0] != p[1])
    for p in arrows:
        base = base.replace_alpha(p, F.frobenius(rng.randrange(F.k)))
    c = act(S, random_gauge(S, F, rng), base, check=False)
    if kind == "xi":
        t = rng.choice(sorted(S.comp))
        c = c.replace_xi(t, rng.choice([u for u in F.units() if u != c.xi[t]] or [F.zero]))
    elif kind == "alpha":
        p = rng.choice(arrows or S.elements())
        c = c.replace_alpha(p, c.alpha[p] * F.frobenius(1))
    return TwistedRing(S, F, c, check=False)


def quaternion_ring(kind):
    """t2 over the quaternions with alpha_12 conjugation by 1 + i, or a copy
    with xi(1, 1, 2) = i, or with alpha_11 changed to conjugation by i.

    conj(i) fixes 1 and i, so the alpha copy first fails at the scalar j,
    the third generator; only d3 = j separates it, with d1 = d2 = 1.
    """
    S, Q = t2(), quaternions()
    c = TwoCocycle.trivial(S, Q).replace_alpha((1, 2), Q.inner_automorphism(Q.element((1, 1, 0, 0))))
    if kind == "xi":
        c = c.replace_xi((1, 1, 2), Q.element((0, 1, 0, 0)))
    elif kind == "alpha":
        c = c.replace_alpha((1, 1), Q.inner_automorphism(Q.element((0, 1, 0, 0))))
    return TwistedRing(S, Q, c, check=False)


def random_ring(seed, q, kind):
    """A random gauge of the trivial cocycle on a random semigroup, or a copy
    of it with one xi or one alpha changed.

    The gauge gives Frobenius-twisted alphas and non-trivial xi values, and
    the valid copy stays a valid cocycle, so its sweep must pass.
    """
    rng = random.Random(f"random/{seed}/GF{q}")
    S, F = random_semigroup(rng, rng.randint(2, 4)), gf(q)
    c = act(S, random_gauge(S, F, rng), TwoCocycle.trivial(S, F), check=False)
    if kind == "xi":
        t = rng.choice(sorted(S.comp))
        c = c.replace_xi(t, rng.choice([u for u in F.units() if u != c.xi[t]]))
    elif kind == "alpha":
        p = rng.choice(S.elements())
        c = c.replace_alpha(p, c.alpha[p] * F.frobenius(1))
    return TwistedRing(S, F, c, check=False)


CASES = [
    pytest.param(lambda n=n, q=q, k=k: ring(n, q, k), id=f"{n}-GF{q}-{k}")
    for n in FIXTURES
    for q in FIELDS
    for k in KINDS
]
CASES += [pytest.param(lambda k=k: quaternion_ring(k), id=f"quaternion-{k}") for k in KINDS]
RANDOM_CASES = [(seed, q, k) for seed in range(4) for q in (4, 9) for k in KINDS]
CASES += [
    pytest.param(lambda s=s, q=q, k=k: random_ring(s, q, k), id=f"random{s}-GF{q}-{k}") for s, q, k in RANDOM_CASES
]


@pytest.mark.parametrize("make", CASES)
def test_chain_sweep_matches_the_full_cube(make):
    R = make()
    assert check_associativity(R).as_json() == full_cube(R).as_json()


def test_the_grid_has_failing_rings():
    # the differential above is only telling if both verdicts occur in it
    verdicts = {check_associativity(ring(n, q, k)).ok for n in ("a3", "mu2") for q in (3, 4) for k in KINDS}
    assert verdicts == {True, False}


def test_invalid_semigroup_is_refused():
    # (s12 s23) s34 = 0 but s12 (s23 s34) = s14: validate flags it, and the
    # failing triple is not a composable chain, so a chain sweep would miss it
    pairs = [(i, i) for i in range(1, 5)] + [(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)]
    S = SquareFreeSemigroup.make(4, pairs, [(2, 3, 4), (1, 2, 4)])
    assert [v.kind for v in S.validate().violations] == ["associativity"]
    F = gf(3)
    R = TwistedRing(S, F, TwoCocycle.trivial(S, F), check=False)
    assert not full_cube(R).ok
    with pytest.raises(InvalidInput, match="semigroup"):
        check_associativity(R)
    # a missing unit-law triple is refused the same way
    S = SquareFreeSemigroup(2, frozenset([(1, 1), (2, 2), (1, 2)]), frozenset())
    with pytest.raises(InvalidInput, match="unit_law"):
        check_associativity(TwistedRing(S, F, TwoCocycle.trivial(S, F), check=False))


def test_sweep_refuses_values_from_another_backend():
    # on a check=False ring, an alpha or xi from another field or backend
    # raises MixedBackends on codes, as it does in the ring products
    for name, q in (("a3", 4), ("mu2", 9), ("double_t2", 8)):
        valid = ring(name, q, "valid")
        S, F, c = valid.S, valid.D, valid.c
        p, t = list(c.alpha)[-1], list(c.xi)[-1]
        for other in (gf(8) if q != 8 else gf(4), gf(2), quaternions()):
            for bad in (c.replace_alpha(p, other.identity_automorphism()), c.replace_xi(t, other.one)):
                R = TwistedRing(S, F, bad, check=False)
                with pytest.raises(MixedBackends):
                    check_associativity(R)
                with pytest.raises(MixedBackends):
                    twring._element_sweep(R, ValidationReport())


def test_random_rings_pass_exactly_when_valid():
    # the random differential above is only telling if corrupted copies fail;
    # a changed xi can still be a cocycle (a diagonal one over a field), so
    # the verdict is compared with the cocycle check
    verdicts = set()
    for s, q, k in RANDOM_CASES:
        R = random_ring(s, q, k)
        ok = check_associativity(R).ok
        assert ok == verify_two_cocycle(R.S, R.c).ok
        verdicts.add((k, ok))
    assert verdicts == {("valid", True), ("xi", True), ("xi", False), ("alpha", False)}


@pytest.mark.parametrize(
    "make, per_chain",
    [
        (lambda: quaternion_ring("valid"), 10),
        (lambda: TwistedRing(mu(3), gf(3), TwoCocycle.trivial(mu(3), gf(3))), 4),
        (lambda: random_ring(0, 4, "valid"), 7),
        (lambda: random_ring(1, 9, "valid"), 7),
    ],
    ids=["quaternion", "mu3-GF3", "random0-GF4", "random1-GF9"],
)
def test_sweep_makes_one_plus_three_gens_products_per_chain(monkeypatch, make, per_chain):
    # x y once per chain, then (xy) z, y z and x (yz) per generator d3: ring
    # products over the quaternions, basis-term code products over a field
    R = make()
    calls = {"mul": 0, "_term": 0}
    for name in calls:
        def counted(*args, inner=getattr(twring, name), name=name):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(twring, name, counted)
    assert check_associativity(R).ok
    assert per_chain == 1 + 3 * len(R.D.generators())
    counted, unused = ("_term", "mul") if R.D.is_finite else ("mul", "_term")
    assert calls[counted] == len(R.S.tuples(3)) * per_chain
    assert calls[unused] == 0
