import os
import random
import subprocess
import sys

import pytest

from sqfree.autos import (
    InnerWitness,
    RingAut,
    aut_r_bruteforce,
    aut_r_linear_filter,
    check_ring_automorphism,
    inner_group,
    is_inner,
    lambda_map,
    out_r,
    phi_map,
    section_automorphism,
    sigma,
    tau,
    unit_inverse,
    verify_ses,
)
from sqfree.cohom import (
    GaugeElement,
    TwoCocycle,
    act,
    first_cohomology,
    gauge_mul,
    one_cocycles,
    random_gauge,
    stabilizer,
)
from sqfree.errors import InvalidInput, NotAOneCocycle, NotInvertible, SearchBoundExceeded
from sqfree.common import Bounds
from sqfree.fixtures import a3, double_t2, gf, mu, single, t2, two_cycle
from sqfree.sgrp import SemigroupAutomorphism, is_normal_automorphism
from sqfree.twring import (
    TwistedRing,
    enumerate_units,
    identity_element,
    mul,
    to_vector,
)
from test_sgrp import random_semigroup
from test_twring import random_ring_element


def trivial_ring(S, F):
    return TwistedRing(S, F, TwoCocycle.trivial(S, F))


def frob_ring():
    F = gf(4)
    c = TwoCocycle.trivial(t2(), F).replace_alpha((1, 2), F.frobenius(1))
    return TwistedRing(t2(), F, c)


def test_ring_aut_algebra():
    R = trivial_ring(t2(), gf(4))
    one = RingAut.identity(R)
    assert one.is_identity()
    rng = random.Random(1)
    x = random_ring_element(R, rng)
    assert one.apply(x) == x
    g = GaugeElement({1: gf(4).frobenius(1), 2: gf(4).frobenius(1)}, {p: gf(4).one for p in t2().support})
    f = sigma(R, g)
    assert f.compose(f.inverse()).is_identity()
    assert f.compose(f) == RingAut.identity(R)  # Frobenius squares away over GF(4)
    assert f.images[(1, 2)] == R.basis(1, 2)


def test_sigma_examples():
    S, F = t2(), gf(4)
    R = trivial_ring(S, F)
    g = F.gen
    assert sigma(R, GaugeElement.identity(S, F)).is_identity()
    frob_pair = GaugeElement({1: F.frobenius(1), 2: F.frobenius(1)}, {p: F.one for p in S.support})
    f = sigma(R, frob_pair)
    assert f.apply(R.element({(1, 1): g})) == R.element({(1, 1): g**2})
    assert f.apply(R.element({(1, 2): g})) == R.element({(1, 2): g**2})
    scale = GaugeElement(
        {1: F.identity_automorphism(), 2: F.identity_automorphism()},
        {(1, 1): F.one, (2, 2): F.one, (1, 2): g},
    )
    h = sigma(R, scale)
    assert h.apply(R.basis(1, 2)) == R.element({(1, 2): g})
    assert h.apply(R.basis(1, 1)) == R.basis(1, 1)
    assert h.apply(R.basis(2, 2)) == R.basis(2, 2)
    with pytest.raises(NotAOneCocycle):
        sigma(R, GaugeElement({1: F.frobenius(1), 2: F.identity_automorphism()}, {p: F.one for p in S.support}))


def test_sigma_is_an_antihomomorphism_free_convention():
    # sigma(a . b) = sigma(a) after sigma(b), matching the gauge product pin
    S, F = t2(), gf(4)
    R = trivial_ring(S, F)
    zs = one_cocycles(S, R.c)
    assert len(zs) == 6
    for a in zs:
        for b in zs:
            assert sigma(R, gauge_mul(S, a, b)) == sigma(R, a).compose(sigma(R, b))


def test_tau_examples():
    S, F = t2(), gf(2)
    R = trivial_ring(S, F)
    one = identity_element(R)
    assert tau(R, InnerWitness((one,), (one,))).is_identity()
    e1, e2, s12 = R.basis(1, 1), R.basis(2, 2), R.basis(1, 2)
    u = e1 + e2 + s12
    f = tau(R, InnerWitness((u,), (unit_inverse(R, u),)))
    assert f.apply(e1) == e1 + s12
    assert f.apply(e2) == e2 + s12
    # diagonal witness made of the idempotents themselves
    assert tau(R, InnerWitness((e1, e2), (e1, e2))).is_identity()
    with pytest.raises(NotInvertible):
        tau(R, InnerWitness((e1,), (e1,)))


def test_tau_composition_is_inner():
    R = trivial_ring(mu(2), gf(3))
    units = enumerate_units(R)
    rng = random.Random(2)
    for _ in range(10):
        u, v = units[rng.randrange(len(units))], units[rng.randrange(len(units))]
        fu = tau(R, InnerWitness((u,), (unit_inverse(R, u),)))
        fv = tau(R, InnerWitness((v,), (unit_inverse(R, v),)))
        vu = mul(R, v, u)
        assert fu.compose(fv) == tau(R, InnerWitness((vu,), (unit_inverse(R, vu),)))


def test_unit_inverse_rejects_non_units():
    R = trivial_ring(t2(), gf(2))
    with pytest.raises(NotInvertible):
        unit_inverse(R, R.basis(1, 1))


def test_is_inner():
    S, F = t2(), gf(2)
    R = trivial_ring(S, F)
    w = is_inner(R, RingAut.identity(R))
    assert w is not None and tau(R, w).is_identity()
    u = R.basis(1, 1) + R.basis(2, 2) + R.basis(1, 2)
    f = tau(R, InnerWitness((u,), (unit_inverse(R, u),)))
    w = is_inner(R, f)
    assert w is not None and tau(R, w) == f
    # coefficientwise Frobenius moves the corner fields, no unit does that
    S4, F4 = t2(), gf(4)
    R4 = trivial_ring(S4, F4)
    frob = sigma(R4, GaugeElement({1: F4.frobenius(1), 2: F4.frobenius(1)}, {p: F4.one for p in S4.support}))
    assert is_inner(R4, frob) is None


def test_aut_r_counts_and_linear_cross_validation():
    R = trivial_ring(t2(), gf(2))
    structured = aut_r_bruteforce(R)
    raw = aut_r_linear_filter(R)
    assert len(structured) == 2
    assert sorted(f.matrix for f in structured) == sorted(f.matrix for f in raw)
    assert len(aut_r_bruteforce(trivial_ring(single(), gf(4)))) == 2
    assert len(aut_r_bruteforce(trivial_ring(mu(2), gf(2)))) == 6
    auts = aut_r_bruteforce(frob_ring())
    assert len(auts) == 24
    for f in auts:
        assert check_ring_automorphism(f.ring, f).ok


def test_aut_r_bound_guard():
    with pytest.raises(SearchBoundExceeded):
        aut_r_linear_filter(trivial_ring(mu(2), gf(2)), Bounds(max_search=100))


def test_aut_r_bound_messages_name_bound_estimate_and_limit():
    with pytest.raises(SearchBoundExceeded, match=r"^max_search: idempotent tuple estimate 1 above limit 0$"):
        aut_r_bruteforce(trivial_ring(t2(), gf(2)), Bounds(max_search=0))
    # one idempotent tuple, then two generator roots over GF(4)
    with pytest.raises(SearchBoundExceeded, match=r"^max_search: generator completion estimate 2 above limit 1$"):
        aut_r_bruteforce(trivial_ring(single(), gf(4)), Bounds(max_search=1))


CORRUPTED_WITNESS_SCRIPT = """
import sys
from sqfree.autos import InnerWitness, section_automorphism, sigma, tau
from sqfree.cohom import GaugeElement, TwoCocycle
from sqfree.errors import WitnessRejected
from sqfree.fixtures import double_t2, gf, single, t2
from sqfree.sgrp import SemigroupAutomorphism
from sqfree.twring import TwistedRing

assert sys.flags.optimize, "run me under python -O"
F = gf(3)


def corrupted(S, t, value):
    return TwistedRing(S, F, TwoCocycle.trivial(S, F).replace_xi(t, value), check=False)


R = corrupted(single(), (1, 1, 1), F.zero)
g = GaugeElement({1: F.identity_automorphism()}, {(1, 1): F.element(2)})
R2 = corrupted(t2(), (1, 2, 2), F.element(2))
u = R2.basis(1, 1) + R2.basis(1, 2) + R2.basis(2, 2)
R3 = corrupted(double_t2(), (1, 1, 2), F.element(2))
calls = {
    "sigma": lambda: sigma(R, g),
    "tau": lambda: tau(R2, InnerWitness((u,), (u,))),
    "section_automorphism": lambda: section_automorphism(R3, SemigroupAutomorphism((3, 4, 1, 2))),
}
for name, call in calls.items():
    try:
        call()
    except WitnessRejected:
        print(name, "rejected")
    else:
        print(name, "returned a map")
"""


def test_corrupted_witnesses_rejected_under_python_O():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPTED_WITNESS_SCRIPT],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.split("\n")
    assert out[:3] == ["sigma rejected", "tau rejected", "section_automorphism rejected"]


def test_inner_group_sizes():
    R = trivial_ring(mu(2), gf(3))
    assert len(enumerate_units(R)) == 48
    assert len(inner_group(R)) == 24
    assert len(inner_group(frob_ring())) == 12


def test_out_r():
    assert out_r(trivial_ring(t2(), gf(2)))[0] == 1
    assert out_r(trivial_ring(single(), gf(4)))[0] == 2
    assert out_r(trivial_ring(mu(2), gf(2)))[0] == 1
    order, reps = out_r(frob_ring())
    assert order == 2 and len(reps) == 2


def test_lambda_monomorphism():
    S, F = t2(), gf(4)
    R = trivial_ring(S, F)
    h1 = first_cohomology(S, R.c)
    assert h1.order == 2
    assert lambda_map(R, h1).ok
    R2 = frob_ring()
    assert lambda_map(R2, first_cohomology(t2(), R2.c)).ok


def test_phi_map_basics():
    R = trivial_ring(t2(), gf(4))
    assert phi_map(R, RingAut.identity(R)).is_identity()
    F = gf(4)
    frob = sigma(R, GaugeElement({1: F.frobenius(1), 2: F.frobenius(1)}, {p: F.one for p in t2().support}))
    assert phi_map(R, frob).is_identity()
    # the matrix-unit swap conjugates back into the diagonal, so it induces
    # the identity; only an order-preserving class swap survives, as on the
    # doubled path where the two components trade places
    R2 = trivial_ring(mu(2), gf(2))
    swap = SemigroupAutomorphism((2, 1))
    assert phi_map(R2, section_automorphism(R2, swap)).is_identity()
    R3 = trivial_ring(double_t2(), gf(2))
    comp_swap = SemigroupAutomorphism((3, 4, 1, 2))
    assert phi_map(R3, section_automorphism(R3, comp_swap)) == comp_swap


def test_phi_map_constant_on_inner_cosets():
    R = frob_ring()
    units = enumerate_units(R)
    _, reps = out_r(R)
    rng = random.Random(3)
    for f in reps:
        base = phi_map(R, f)
        for _ in range(50):
            u = units[rng.randrange(len(units))]
            perturbed = tau(R, InnerWitness((u,), (unit_inverse(R, u),))).compose(f)
            assert phi_map(R, perturbed) == base


def test_section_splits_phi():
    R = trivial_ring(double_t2(), gf(2))
    comp_swap = SemigroupAutomorphism((3, 4, 1, 2))
    ident = SemigroupAutomorphism.identity(4)
    for phi in (ident, comp_swap):
        sec = section_automorphism(R, phi)
        assert phi_map(R, sec) == phi
    a = section_automorphism(R, comp_swap)
    assert a.compose(a) == section_automorphism(R, ident)


def test_verify_ses_fixtures():
    expected = [
        (t2(), gf(2), None, (1, 1, 1), True),
        (single(), gf(4), None, (2, 1, 2), True),
        (mu(2), gf(2), None, (1, 1, 1), True),
        (double_t2(), gf(2), None, (1, 2, 2), True),
    ]
    for S, F, c, (h1, stab, out), split in expected:
        rep = verify_ses(TwistedRing(S, F, c or TwoCocycle.trivial(S, F)))
        assert (rep.h1_order, rep.stab_order, rep.out_order) == (h1, stab, out)
        assert rep.exact and rep.lambda_ok and rep.kernel_ok and rep.image_ok
        assert rep.split_ok is split


RANDOM_SES_SEEDS = range(16)


def test_verify_ses_is_exact_on_random_semigroups():
    """Trivial and gauged cocycles on random semigroups with up to three idempotents.

    Fields GF(2), GF(3) and GF(4), on every ring with at most 729 elements.
    """
    seen = set()
    for seed in RANDOM_SES_SEEDS:
        rng = random.Random(seed)
        S = random_semigroup(rng, rng.randint(1, 3))
        for q in (2, 3, 4):
            if q ** len(S.support) > 729:
                continue
            F = gf(q)
            trivial = TwoCocycle.trivial(S, F)
            for c in (trivial, act(S, random_gauge(S, F, rng), trivial, check=False)):
                rep = verify_ses(TwistedRing(S, F, c))
                case = (seed, q, c is trivial)
                assert rep.exact, case
                assert rep.split_ok is not False, case
                assert rep.out_order == rep.h1_order * rep.stab_order, case
                seen.add((rep.h1_order > 1, rep.stab_order > 1))
    assert {(True, False), (False, True), (True, True)} <= seen


def test_verify_ses_frobenius_cocycle():
    rep = verify_ses(frob_ring())
    assert (rep.h1_order, rep.stab_order, rep.out_order) == (2, 1, 2)
    assert rep.exact
    # splitting only claimed for the trivial cocycle
    assert rep.split_ok is None
    # the full stabilizer can exceed the order-preserving one
    rep2 = verify_ses(trivial_ring(mu(2), gf(2)))
    assert rep2.stab_full_order == 2 and rep2.stab_order == 1


def reference_witness(R, mu, images):
    """The matrix of d s_ij -> mu_i(d) images[(i,j)], built through ring elements.

    This is the element-level construction sigma and the section used before
    they wrote core vectors directly; it stays here as their reference.
    """
    cols = []
    for p in R.S.elements():
        for b in R.D.power_basis():
            cols.append(to_vector(R, images[p].lscale(mu[p[0]](b))))
    n = len(cols)
    return tuple(tuple(cols[c][r] for c in range(n)) for r in range(n))


WITNESS_FIXTURES = {"t2": t2, "a3": a3, "mu2": lambda: mu(2), "two_cycle": two_cycle, "double_t2": double_t2}


@pytest.mark.parametrize("q", (2, 3, 4, 9))
@pytest.mark.parametrize("name", sorted(WITNESS_FIXTURES))
def test_witness_maps_match_the_element_reference(name, q):
    S, F = WITNESS_FIXTURES[name](), gf(q)
    trivial = TwistedRing(S, F, TwoCocycle.trivial(S, F))
    gauged = TwistedRing(S, F, act(S, random_gauge(S, F, random.Random(q)), trivial.c, check=False))
    for R in (trivial, gauged):
        z1 = one_cocycles(S, R.c)
        assert z1
        for g in z1:
            images = {p: R.element({p: g.eta[p]}) for p in S.support}
            assert sigma(R, g).matrix == reference_witness(R, g.mu, images)
    R = trivial
    W = [phi for phi in stabilizer(S, R.c) if is_normal_automorphism(S, phi)]
    assert W
    ident = {i: F.identity_automorphism() for i in range(1, S.n + 1)}
    for phi in W:
        images = {p: R.basis(*phi.pair(p)) for p in S.support}
        assert section_automorphism(R, phi).matrix == reference_witness(R, ident, images)


@pytest.mark.parametrize(
    "S, perm, pair",
    [(t2(), (2, 1), (2, 1)), (a3(), (2, 1, 3), (2, 1)), (double_t2(), (1, 2, 4, 3), (4, 3))],
)
def test_section_of_a_non_automorphism_names_the_pair(S, perm, pair):
    R = TwistedRing(S, gf(3), TwoCocycle.trivial(S, gf(3)))
    with pytest.raises(InvalidInput, match=rf"pair \({pair[0]}, {pair[1]}\) outside the support$") as exc:
        section_automorphism(R, SemigroupAutomorphism(perm))
    assert exc.value.where == "coefficients"


INNER_ONLY_SEARCH_SCRIPT = """
import sys
from sqfree import autos
from sqfree.cohom import TwoCocycle
from sqfree.errors import WitnessRejected
from sqfree.fixtures import gf, two_cycle
from sqfree.twring import TwistedRing

assert sys.flags.optimize, "run me under python -O"
S, F = two_cycle(), gf(4)
R = TwistedRing(S, F, TwoCocycle.trivial(S, F))
# an incomplete Aut R search: Inn R alone, so sigma of a class outside B^1 has no coset
autos.aut_r_bruteforce = lambda R, bounds=None: autos.inner_group(R)
try:
    autos.verify_ses(R)
except WitnessRejected as exc:
    print("rejected:", exc)
else:
    print("returned a report")
"""


def test_map_outside_the_aut_r_search_is_refused_under_python_O():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-O", "-c", INNER_ONLY_SEARCH_SCRIPT],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.splitlines()
    assert out == ["rejected: map outside every coset of the Aut R search"]
