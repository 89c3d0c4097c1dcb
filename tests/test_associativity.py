"""check_associativity sweeps composable chains; the full cube is the oracle.

For a semigroup that passes validate, both bracketings of a basis triple
that is not a composable chain vanish together, so the chain sweep must
report exactly what a sweep over all |support|^3 basis triples reports:
same verdict, same triples, same order, same text.
"""

import random
from itertools import product

import pytest

from sqfree.cohom import TwoCocycle, act, random_gauge
from sqfree.common import ValidationReport
from sqfree.errors import InvalidInput
from sqfree.fixtures import a3, double_t2, gf, mu, quaternions, single, t2, two_cycle
from sqfree.sgrp import SquareFreeSemigroup
from sqfree.twring import RingElement, TwistedRing, check_associativity, mul

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
    S, Q = t2(), quaternions()
    c = TwoCocycle.trivial(S, Q).replace_alpha((1, 2), Q.inner_automorphism(Q.element((1, 1, 0, 0))))
    if kind == "xi":
        c = c.replace_xi((1, 1, 2), Q.element((0, 1, 0, 0)))
    return TwistedRing(S, Q, c, check=False)


CASES = [
    pytest.param(lambda n=n, q=q, k=k: ring(n, q, k), id=f"{n}-GF{q}-{k}")
    for n in FIXTURES
    for q in FIELDS
    for k in KINDS
]
CASES += [pytest.param(lambda k=k: quaternion_ring(k), id=f"quaternion-{k}") for k in ("valid", "xi")]


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
    S = SquareFreeSemigroup.make(2, [(1, 1), (2, 2), (1, 2)], [], close_units=False)
    with pytest.raises(InvalidInput, match="unit_law"):
        check_associativity(TwistedRing(S, F, TwoCocycle.trivial(S, F), check=False))
