"""JSON wire formats: decode(encode(x)) == x on random inputs.

Semigroups come from the seeded generator in tests/test_sgrp.py; each runs
over GF(2, 3, 4, 8, 9) and the rational quaternions. Every value also
passes through the canonical text form, json.loads(dumps(...)), as the
command line sends it.
"""

import json
import random

import pytest

from sqfree import jsonio
from sqfree.autos import InnerWitness, RingAut, sigma, tau
from sqfree.cohom import (
    GaugeElement,
    TwoCocycle,
    act,
    random_cochain,
    random_gauge,
)
from sqfree.fixtures import gf, quaternions
from sqfree.twring import TwistedRing, from_vector, to_vector
from test_sgrp import random_semigroup
from test_twring import random_ring_element

SEEDS = range(8)
BACKENDS = {f"GF{q}": lambda q=q: gf(q) for q in (2, 3, 4, 8, 9)} | {"quaternions": quaternions}


def wire(obj):
    return json.loads(jsonio.dumps(obj))


def gauged_cocycle(S, D, rng):
    """A random gauge applied to a difference-pattern Frobenius cocycle (trivial over the quaternions)."""
    c = TwoCocycle.trivial(S, D)
    if D.is_finite:
        ms = {i: rng.randrange(D.k) for i in range(1, S.n + 1)}
        c = TwoCocycle({(i, j): D.frobenius(ms[i] - ms[j]) for (i, j) in S.support}, c.xi)
    return act(S, random_gauge(S, D, rng), c, check=False)


def a_unit(R, rng):
    while True:
        x = to_vector(R, random_ring_element(R, rng))
        y = R.core.inverse(x)
        if y is not None:
            return from_vector(R, x), from_vector(R, y)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_encode_decode_round_trips(seed, backend):
    rng = random.Random(seed)
    S = random_semigroup(rng, rng.randint(1, 4))
    D = BACKENDS[backend]()
    assert jsonio.decode_semigroup(wire(jsonio.encode_semigroup(S))) == S
    assert jsonio.decode_coefficients(wire(jsonio.encode_coefficients(D))) == D

    c = gauged_cocycle(S, D, rng)
    assert jsonio.decode_cocycle(S, D, wire(jsonio.encode_cocycle(c))) == c
    for _ in range(3):
        g = random_gauge(S, D, rng)
        assert jsonio.decode_gauge(S, D, wire(jsonio.encode_gauge(g))) == g
    for m in range(4):
        phi = random_cochain(S, m, D, rng)
        assert jsonio.decode_cochain(S, D, wire(jsonio.encode_cochain(phi))) == phi

    R = TwistedRing(S, D, c)
    for _ in range(3):
        x = random_ring_element(R, rng)
        assert jsonio.decode_ring_element(R, wire(jsonio.encode_ring_element(x))) == x
    if not D.is_finite:
        return
    # a Frobenius fixing pair of the trivial cocycle, and a unit conjugation of R
    T = TwistedRing(S, D, TwoCocycle.trivial(S, D))
    frob = GaugeElement({i: D.frobenius(1 % D.k) for i in range(1, S.n + 1)}, {p: D.one for p in S.support})
    u, v = a_unit(R, rng)
    for f in (sigma(T, frob), tau(R, InnerWitness((u,), (v,)))):
        images = wire(jsonio.encode_ring_aut(f))["images"]
        cols = [
            to_vector(f.ring, jsonio.decode_ring_element(f.ring, images[f"{i},{j}:{t}"]))
            for i, j in S.elements()
            for t in range(D.k)
        ]
        assert RingAut(f.ring, tuple(zip(*cols))) == f
