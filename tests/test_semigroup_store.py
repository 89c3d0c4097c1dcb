"""A semigroup's store answers as a cold build does.

A SquareFreeSemigroup keeps Aut S and the gauge Lattices of each alpha it
has been asked about. Every public search is run first on one semigroup
whose store fills in a shuffled order across fields and alphas, then
each on a fresh equal semigroup, and the two must agree witness for
witness, refusals included.
"""

import random

import pytest

from sqfree import cohom
from sqfree.autos import verify_ses
from sqfree.coeff import FiniteField
from sqfree.cohom import (
    TwoCocycle,
    act,
    cohomologous,
    cohomologous_with_relabel,
    first_cohomology,
    one_coboundaries,
    one_cocycles,
    random_gauge,
    relabel,
    stabilizer,
    verify_two_cocycle,
)
from sqfree.common import Bounds
from sqfree.errors import SqfreeError
from sqfree.fixtures import gf
from sqfree.sgrp import SquareFreeSemigroup, automorphisms
from sqfree.twring import TwistedRing
from test_cohom import DIFFERENTIAL_FIELDS, DIFFERENTIAL_FIXTURES, counting, differential_cocycles, frobenius_twist
from test_sgrp import random_semigroup

# GF(8) under x^3 + x + 1 and under x^3 + x^2 + 1: two fields whose lattices share every key
GF8_OTHER = FiniteField(2, 3, (1, 0, 1, 1))


def keys(gauges):
    return [g.canonical_key() for g in gauges]


def twisted_cocycles(S, F, rng):
    """differential_cocycles, then alpha = Frobenius on (1, 2) and a gauged copy of it, where that is a cocycle."""
    out = differential_cocycles(S, F, rng)
    if (1, 2) in S.support:
        frob = frobenius_twist(S, F)
        if verify_two_cocycle(S, frob).ok:
            out += [frob, act(S, random_gauge(S, F, rng), frob, check=False)]
    return out


def calls(S, F, c, rng, bounds):
    """(name, call of a semigroup) for each search on c, every argument drawn now so a replay asks the same."""
    other = act(S, random_gauge(S, F, rng), c, check=False)
    moved = act(S, random_gauge(S, F, rng), relabel(S, rng.choice(automorphisms(S)), c), check=False)

    def h1(T):
        res = first_cohomology(T, c, bounds)
        return res.order, res.z1_order, res.b1_order, keys(res.reps)

    def relabel_witness(T):
        found = cohomologous_with_relabel(T, c, moved, bounds)
        return None if found is None else (found[0].perm, found[1].canonical_key())

    def class_witnesses(T):
        h, units, pairs = cohom._class_witnesses(T, c, bounds)
        return keys(h.reps), [(g.canonical_key(), u) for g, u in units], [(phi.perm, g.canonical_key()) for phi, g in pairs]

    return [
        ("first_cohomology", h1),
        ("cohomologous_with_relabel", relabel_witness),
        ("cohomologous", lambda T: cohomologous(T, c, other).canonical_key()),
        ("stabilizer", lambda T: [phi.perm for phi in stabilizer(T, c, bounds)]),
        ("one_cocycles", lambda T: keys(one_cocycles(T, c, bounds))),
        ("one_coboundaries", lambda T: keys(one_coboundaries(T, c, bounds))),
        ("_class_witnesses", class_witnesses),
        ("verify_ses", lambda T: verify_ses(TwistedRing(T, F, c), bounds)),
    ]


def outcome(call, T):
    try:
        return call(T)
    except SqfreeError as exc:
        return type(exc).__name__, str(exc)


def assert_warm_matches_cold(S, fields, rng, bounds=Bounds()):
    """Every call of every field's cocycles, warm on S in shuffled order, equals it on a fresh copy of S; the outcomes."""
    jobs = [job for F in fields for c in twisted_cocycles(S, F, rng) for job in calls(S, F, c, rng, bounds)]
    rng.shuffle(jobs)
    warm = [outcome(call, S) for _, call in jobs]
    cold = [outcome(call, SquareFreeSemigroup(S.n, S.support, S.comp)) for _, call in jobs]
    for (name, _), w, c in zip(jobs, warm, cold):
        assert w == c, (name, S)
    assert "automorphisms" in S._store and len(S._store) > 1
    return warm


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_FIXTURES))
def test_a_warm_store_answers_as_a_cold_build_on_fixtures(name):
    S = DIFFERENTIAL_FIXTURES[name]()
    fields = [gf(q) for q in DIFFERENTIAL_FIELDS] + [GF8_OTHER]
    assert len(assert_warm_matches_cold(S, fields, random.Random(name))) >= 8 * 3 * len(fields)


def test_a_warm_store_answers_as_a_cold_build_on_random_semigroups():
    # a bound that refuses some of the larger searches, so refusals are compared too
    outcomes = []
    for seed in range(30):
        rng = random.Random(seed)
        S = random_semigroup(rng, rng.randint(1, 4))
        fields = [gf(DIFFERENTIAL_FIELDS[seed % 6]), gf(DIFFERENTIAL_FIELDS[(seed + 1) % 6])]
        outcomes += assert_warm_matches_cold(S, fields, rng, Bounds(max_search=200))
    refused = sum(isinstance(x, tuple) and x[0] == "SearchBoundExceeded" for x in outcomes)
    assert 0 < refused < len(outcomes) // 2


def test_two_moduli_of_gf8_share_every_lattice():
    # the key is q - 1 and the powers p^(a_p) mod q - 1; the modulus and the field object are not in it
    S = DIFFERENTIAL_FIXTURES["two_cycle"]()
    rng = random.Random(8)
    first, second = gf(8), GF8_OTHER
    assert first != second and first._powers == second._powers
    twist = differential_cocycles(S, first, rng)[1]
    alpha = {p: first._exponent_of(a, "alpha") for p, a in twist.alpha.items()}
    mirrored = TwoCocycle({p: second.frobenius(m) for p, m in alpha.items()}, {t: second.one for t in S.comp})
    assert first_cohomology(S, twist).order >= 1 and len(one_coboundaries(S, twist)) >= 1
    built = len(S._store)
    assert first_cohomology(S, mirrored) == first_cohomology(SquareFreeSemigroup(S.n, S.support, S.comp), mirrored)
    assert len(S._store) == built


def test_the_store_builds_each_lattice_once_per_semigroup(monkeypatch):
    # every search on trivial mu3, whose relabelings keep its alpha, shares one log form and one B^1 of S; a fresh
    # copy of S builds its own
    S, F = DIFFERENTIAL_FIXTURES["mu3"](), gf(9)
    forms, gens = counting(monkeypatch, "_log_form"), counting(monkeypatch, "_coboundary_gens")
    for _, call in calls(S, F, TwoCocycle.trivial(S, F), random.Random(4), Bounds()):
        call(S)
    assert (forms[0], gens[0]) == (1, 1)
    fresh = SquareFreeSemigroup(S.n, S.support, S.comp)
    first_cohomology(fresh, TwoCocycle.trivial(fresh, F))
    assert (forms[0], gens[0]) == (2, 2)
