import os
import random
import subprocess
import sys
from dataclasses import replace
from functools import lru_cache, partial
from itertools import permutations, product

import pytest

from sqfree import autos, cohom, jsonio, twring
from sqfree.autos import (
    InnerWitness,
    RingAut,
    SESReport,
    aut_r_bruteforce,
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
    one_coboundaries,
    one_cocycles,
    random_gauge,
    stabilizer,
)
from sqfree.errors import InvalidInput, NotAOneCocycle, NotInvertible, SearchBoundExceeded, WitnessRejected
from sqfree.common import DEFAULT_BOUNDS, Bounds, cosets
from sqfree.fixtures import a3, double_t2, gf, mu, single, t2, two_cycle
from sqfree.linalg import mat_inv, mat_mul, mat_vec, row_reduce
from sqfree.sgrp import SemigroupAutomorphism, is_normal_automorphism
from sqfree.twring import (
    TwistedRing,
    enumerate_idempotents,
    enumerate_units,
    identity_element,
    linear_basis,
    mul,
    to_vector,
)
from test_cohom import DIFFERENTIAL_FIELDS, DIFFERENTIAL_FIXTURES, differential_cocycles
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
        reference_aut_r(trivial_ring(t2(), gf(2)), Bounds(max_search=0))
    # one idempotent tuple, then two generator roots over GF(4)
    with pytest.raises(SearchBoundExceeded, match=r"^max_search: generator completion estimate 2 above limit 1$"):
        reference_aut_r(trivial_ring(single(), gf(4)), Bounds(max_search=1))
    # the library's normal maps: the identity's fixing-pair slice, of 1 pair, is one too many
    with pytest.raises(SearchBoundExceeded, match=r"^max_search: fixing-pair slice estimate 1 above limit 0$"):
        aut_r_bruteforce(trivial_ring(t2(), gf(2)), Bounds(max_search=0))


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


CHEAP_CHECK_SCRIPT = """
import sys
from sqfree.autos import _witness_aut
from sqfree.cohom import GaugeElement, TwoCocycle
from sqfree.errors import WitnessRejected
from sqfree.fixtures import a3, gf, t2
from sqfree.sgrp import SemigroupAutomorphism, SquareFreeSemigroup
from sqfree.twring import TwistedRing

assert sys.flags.optimize, "run me under python -O"
F = gf(3)


def ring(S):
    return TwistedRing(S, F, TwoCocycle.trivial(S, F))


def scaled(S, p):
    one = GaugeElement.identity(S, F)
    return GaugeElement(one.mu, {**one.eta, p: F.element(2)})


# two paths 1 -> 2 -> 3 and 4 -> 5 -> 6 with the same support, where only s12 s23 = s13 is nonzero
arrows = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
S6 = SquareFreeSemigroup.make(6, [(i, i) for i in range(1, 7)] + arrows, [(1, 2, 3)])
calls = {
    # the swap of the paths keeps the support, not the products
    "phi outside Aut S": lambda: _witness_aut(ring(S6), ring(S6), SemigroupAutomorphism((4, 5, 6, 1, 2, 3)), GaugeElement.identity(S6, F)),
    # eta(s13) = 2 breaks s12 s23 = s13 alone
    "broken product": lambda: _witness_aut(ring(a3()), ring(a3()), SemigroupAutomorphism.identity(3), scaled(a3(), (1, 3))),
    # eta(e1) = 2 sends 1 to 2 e1 + e2
    "moved identity": lambda: _witness_aut(ring(t2()), ring(t2()), SemigroupAutomorphism.identity(2), scaled(t2(), (1, 1))),
    # both idempotents onto e1: every pair lands on the support, and the columns of e1 and e2 agree
    "singular": lambda: _witness_aut(ring(t2()), ring(t2()), SemigroupAutomorphism((1, 1)), GaugeElement.identity(t2(), F)),
}
for name, call in calls.items():
    try:
        call()
    except WitnessRejected:
        print(name, "rejected")
    else:
        print(name, "returned a map")
"""


def test_cheap_witness_check_refuses_under_python_O():
    # _witness_aut checks the nonzero products only, so phi must be in Aut S for the zero ones to hold
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-O", "-c", CHEAP_CHECK_SCRIPT],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.splitlines()
    assert out == ["phi outside Aut S rejected", "broken product rejected", "moved identity rejected", "singular rejected"]


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


def test_lambda_checks_the_z1_of_its_witness_pass():
    # lambda_map walks the phi = id witnesses of the Aut R search, never
    # sigma, and refuses an H^1 whose Z^1 order that search does not hold
    assert "sigma" not in autos.lambda_map.__code__.co_names
    R = trivial_ring(t2(), gf(4))
    h1 = first_cohomology(R.S, R.c)
    with pytest.raises(WitnessRejected, match="^map outside every coset of the Aut R search$"):
        lambda_map(R, replace(h1, z1_order=h1.z1_order + 1))


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
                assert rep == reference_normal_pass(TwistedRing(S, F, c)), case
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
# an incomplete Aut R search: the identity's class alone, so sigma of a class outside B^1 has no coset
search = autos._class_witnesses
autos._class_witnesses = lambda S, c, bounds: (lambda h1, b1, pairs: (h1, b1, pairs[:1]))(*search(S, c, bounds))
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


# The reference: the complete idempotent-tuple search that built Aut R before
# the diagonal-normal maps did. It assumes no lifting of idempotents, so it
# keeps Out R independent of the lemma the library relies on.


def reference_corner(core, q1, q2):
    """Row-reduced basis of the corner q1 R q2; its length is the dimension."""
    return row_reduce([core.mul(core.mul(q1, e), q2) for e in core.basis], core.p)


def reference_span(core, rows):
    """Every vector of the span of rows, coefficients in lexicographic order."""
    p = core.p
    out = []
    for combo in product(range(p), repeat=len(rows)):
        vec = [0] * core.dim
        for c, row in zip(combo, rows):
            for a, val in enumerate(row):
                vec[a] += c * val
        out.append(tuple(v % p for v in vec))
    return out


def reference_modulus_roots(R, q, corner):
    """Corner elements satisfying the coefficient modulus, with q as the unit."""
    core, p = R.core, R.D.p
    out = []
    for w in corner:
        acc = [0] * core.dim
        wp = q
        for coeff in R.D.modulus:
            if coeff:
                acc = [a + coeff * v for a, v in zip(acc, wp)]
            wp = core.mul(wp, w)
        if not any(a % p for a in acc):
            out.append(w)
    return out


def dense_product_violations(R, matrix):
    """Yield what _product_violations(R, R, matrix) yields, by the loop it ran before it skipped pairs: every pair of basis vectors."""
    core, constants, p = R.core, R.core.constants, R.D.p
    image_of_one = mat_vec(matrix, core.one, p)
    if image_of_one != core.one:
        yield "identity_moved", image_of_one
    cols = list(zip(*matrix))
    for a, b in product(range(core.dim), repeat=2):
        lhs = [0] * core.dim
        for c, t in constants.get((a, b), ()):
            for r, v in enumerate(cols[c]):
                lhs[r] += t * v
        if tuple([v % p for v in lhs]) != core.mul(cols[a], cols[b]):
            yield "multiplicativity", (a, b)


def reference_is_automorphism(R, matrix):
    """check_ring_automorphism(...).ok by the dense product check, stopping at the first violation."""
    return next(dense_product_violations(R, matrix), None) is None and autos._invertible(matrix, R.D.p)


def sparse_matrix(rng, dim, p):
    """A random matrix whose columns each meet one to three entries, so most meet one or two blocks."""
    rows = [[0] * dim for _ in range(dim)]
    for c in range(dim):
        for _ in range(rng.randint(1, 3)):
            rows[rng.randrange(dim)][c] = rng.randrange(1, p)
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("name", sorted(WITNESS_FIXTURES))
def test_product_check_skips_only_pairs_zero_on_both_sides(name):
    # the check multiplies a pair unless e_a e_b = 0 and the blocks its columns meet compose nowhere in S;
    # against every pair, on witness maps of random gauges and of phis that keep the support, sparse random
    # matrices and inner maps
    S, rng = WITNESS_FIXTURES[name](), random.Random(name)
    for q in (2, 3, 4):
        F = gf(q)
        R = trivial_ring(S, F)
        perms = [SemigroupAutomorphism(perm) for perm in permutations(range(1, S.n + 1))]
        keeping = [phi for phi in perms if all(phi.pair(x) in S.support for x in S.support)]
        gauges = [random_gauge(S, F, rng) for _ in keeping]
        matrices = [reference_witness(R, g.mu, {x: R.element({phi.pair(x): g.eta[x]}) for x in S.support})
                    for phi, g in zip(keeping, gauges)]
        matrices += [sparse_matrix(rng, R.core.dim, F.p) for _ in range(20)] + list(autos._inner(R, DEFAULT_BOUNDS))[:10]
        for M in matrices:
            assert list(autos._product_violations(R, R, M)) == list(dense_product_violations(R, M))


def aut_r_linear_filter(R, bounds=DEFAULT_BOUNDS):
    """Raw oracle: filter every prime-field-linear map for the ring axioms, on the reference product."""
    basis = linear_basis(R)
    N, p = len(basis), R.D.p
    total = p ** (N * N)
    if total > bounds.max_search:
        raise SearchBoundExceeded(f"max_search: linear map estimate {total} above limit {bounds.max_search}")
    one = identity_element(R)
    out = []
    for flat in product(range(p), repeat=N * N):
        M = tuple(flat[r * N : (r + 1) * N] for r in range(N))
        f = RingAut(R, M)
        if f.apply(one) != one:
            continue
        try:
            mat_inv(M, p)
        except NotInvertible:
            continue
        if all(
            f.apply(mul(R, x, y)) == mul(R, f.apply(x), f.apply(y))
            for x in basis
            for y in basis
        ):
            out.append(f)
    return out


def reference_aut_r(R, bounds=DEFAULT_BOUNDS):
    """All ring automorphisms, by structured completion of generator images.

    Images of the diagonal idempotents run over complete orthogonal idempotent
    tuples with the same corner-dimension profile; a coefficient generator
    image per idempotent runs over modulus roots of the matching corner; arrow
    images run over the nonzero part of their corner. Every completion is then
    fully verified, so the search is complete and the output sound.
    """
    S, D, core = R.S, R.D, R.core
    n, k, p = S.n, D.k, D.p
    idem = [to_vector(R, q) for q in enumerate_idempotents(R, bounds) if not q.is_zero()]
    zero = (0,) * core.dim

    @lru_cache(maxsize=None)
    def corner(a, b):
        return reference_corner(core, idem[a], idem[b])

    @lru_cache(maxsize=None)
    def orthogonal(a, b):
        return core.mul(idem[a], idem[b]) == zero and core.mul(idem[b], idem[a]) == zero

    ref = {(a, b): (k if (a, b) in S.support else 0) for a in range(1, n + 1) for b in range(1, n + 1)}
    # depth-first over partial tuples of indices into idem, in index order
    tuples, stack = [], [()]
    while stack:
        estimate = len(tuples) * max(k, 1)
        if estimate > bounds.max_search:
            raise SearchBoundExceeded(
                f"max_search: idempotent tuple estimate {estimate} above limit {bounds.max_search}"
            )
        chosen = stack.pop()
        b = len(chosen) + 1
        if b == n + 1:
            if tuple(sum(col) % p for col in zip(*(idem[c] for c in chosen))) == core.one:
                tuples.append(chosen)
            continue
        fits = [
            q
            for q in range(len(idem))
            if len(corner(q, q)) == ref[(b, b)]
            and all(
                orthogonal(q, c)
                and len(corner(c, q)) == ref[(a, b)]
                and len(corner(q, c)) == ref[(b, a)]
                for a, c in enumerate(chosen, start=1)
            )
        ]
        stack.extend(chosen + (q,) for q in reversed(fits))

    found = {}
    arrows = sorted(p for p in S.support if p[0] != p[1])
    for qs in tuples:
        if k > 1:
            gen_choices = [reference_modulus_roots(R, idem[a], reference_span(core, corner(a, a))) for a in qs]
        else:
            gen_choices = [[idem[a]] for a in qs]
        arrow_choices = [
            [y for y in reference_span(core, corner(qs[i - 1], qs[j - 1])) if y != zero] for i, j in arrows
        ]
        total = 1
        for ch in gen_choices + arrow_choices:
            total *= len(ch)
        if total > bounds.max_search:
            raise SearchBoundExceeded(
                f"max_search: generator completion estimate {total} above limit {bounds.max_search}"
            )
        for ws in product(*gen_choices):
            # powers of the generator image inside its corner, q as power zero
            pows = []
            for a, w in zip(qs, ws):
                acc, row = idem[a], [idem[a]]
                for _ in range(k - 1):
                    acc = core.mul(acc, w)
                    row.append(acc)
                pows.append(row)
            for ys in product(*arrow_choices):
                yof = dict(zip(arrows, ys))
                cols = []
                for pair in S.elements():
                    row = pows[pair[0] - 1]
                    if pair[0] == pair[1]:
                        cols.extend(row)
                    else:
                        cols.extend(core.mul(x, yof[pair]) for x in row)
                matrix = tuple(zip(*cols))
                if matrix in found:
                    continue
                if reference_is_automorphism(R, matrix):
                    found[matrix] = RingAut(R, matrix)
    return [found[m] for m in sorted(found)]


def reference_out_cosets(R, auts):
    """Partition a listed Aut R into Inn R cosets, each keyed by its least matrix.

    Returns the {matrix: key} table, the coset key of an automorphism, and
    the first automorphism of each coset in the order of auts.
    """
    p, inn_mats = R.D.p, list(autos._inner(R, DEFAULT_BOUNDS))
    key_of, reps = {}, {}
    for f in auts:
        if f.matrix in key_of:
            continue
        coset = [mat_mul(f.matrix, m, p) for m in inn_mats]
        key = min(coset)
        key_of.update(dict.fromkeys(coset, key))
        reps[key] = f

    def coset_key(f):
        if f.matrix not in key_of:
            raise WitnessRejected("map outside every coset of the Aut R search")
        return key_of[f.matrix]

    return key_of, coset_key, reps


def reference_verify_ses(R, key_of, coset_key):
    """verify_ses on the Inn R unit table, given a partition of Aut R into Inn R cosets.

    Out R is the set of coset keys; sigma is inner when the table holds it;
    each coset's induced map comes from phi_map, which conjugates by every
    element of the table until the diagonal lands on a normal permutation.
    """
    S = R.S
    h1 = first_cohomology(S, R.c)
    stab_full = stabilizer(S, R.c)
    W = [phi for phi in stab_full if is_normal_automorphism(S, phi)]
    out_keys = sorted(set(key_of.values()))
    inner = autos._inner(R, DEFAULT_BOUNDS)
    b1, reps = set(one_coboundaries(S, R.c)), set(h1.reps)
    lambda_ok, lam_keys = True, set()
    for g in one_cocycles(S, R.c):
        f = sigma(R, g)
        if g in reps:
            lam_keys.add(coset_key(f))
        if (f.matrix in inner) != (g in b1):
            lambda_ok = False
    induced = {key: phi_map(R, RingAut(R, key)) for key in out_keys}
    ker_keys = {key for key, phi in induced.items() if phi.is_identity()}
    kernel_ok = lam_keys == ker_keys and len(lam_keys) == h1.order
    image_ok = set(induced.values()) == set(W)
    split_ok = None
    if R.c == TwoCocycle.trivial(S, R.D):
        sec = {phi: section_automorphism(R, phi) for phi in W}
        keys = {phi: coset_key(sec[phi]) for phi in W}
        split_ok = len(set(keys.values())) == len(W)
        for a in W:
            for b in W:
                if coset_key(sec[a].compose(sec[b])) != keys[a * b]:
                    split_ok = False
        for phi in W:
            if phi_map(R, sec[phi]) != phi:
                split_ok = False
    return SESReport(
        h1_order=h1.order,
        stab_order=len(W),
        stab_full_order=len(stab_full),
        out_order=len(out_keys),
        exact=len(out_keys) == h1.order * len(W) and lambda_ok and kernel_ok and image_ok,
        lambda_ok=lambda_ok,
        kernel_ok=kernel_ok,
        image_ok=image_ok,
        split_ok=split_ok,
    )


def reference_normal_pass(R, bounds=DEFAULT_BOUNDS):
    """verify_ses as it ran over every map of N, one per phi of Aut S and gauge witness, before the per-class pass.

    The linear test decides K = N meet Inn R on each map of N, N is split
    into the cosets fK by common.cosets, each coset's induced phi is read
    off the diagonal images of all its maps, and sigma of every fixing
    pair is tested against the one_coboundaries listing.
    """
    S, p = R.S, R.D.p
    h1 = first_cohomology(S, R.c, bounds)
    labelled = [(phi, g, autos._witness_aut(R, R, phi, g)) for phi, g in cohom._relabel_witnesses(S, R.c, bounds)]
    maps = list(dict.fromkeys(f.matrix for _, _, f in labelled))
    key_of = cosets(maps, [M for M in maps if autos._conjugator(R, M, bounds)], partial(mat_mul, p=p))
    assert len(key_of) == len(maps)
    stab_full = list(dict.fromkeys(phi for phi, _, _ in labelled))
    W = [phi for phi in stab_full if is_normal_automorphism(S, phi)]
    sigma_key = {g: key_of[f.matrix] for phi, g, f in labelled if phi.is_identity()}
    induced = {}
    for M, key in key_of.items():
        phi = autos._diagonal_phi(R, autos._diagonal_images(R, M))
        assert phi is None or induced.setdefault(key, phi) == phi
    out_order = len(set(key_of.values()))
    assert len(induced) == out_order
    inner, b1 = key_of[RingAut.identity(R).matrix], set(one_coboundaries(S, R.c, bounds))
    assert len(sigma_key) == h1.z1_order
    lambda_ok = all((key == inner) == (g in b1) for g, key in sigma_key.items())
    lam_keys = {sigma_key[g] for g in h1.reps}
    ker_keys = {key for key, phi in induced.items() if phi.is_identity()}
    kernel_ok = lam_keys == ker_keys and len(lam_keys) == h1.order
    image_ok = set(induced.values()) == set(W)
    split_ok = None
    if R.c == TwoCocycle.trivial(S, R.D):
        sec = {phi: section_automorphism(R, phi) for phi in W}
        keys = {phi: key_of[sec[phi].matrix] for phi in W}
        split_ok = len(set(keys.values())) == len(W)
        for a in W:
            for b in W:
                if key_of[sec[a].compose(sec[b]).matrix] != keys[a * b]:
                    split_ok = False
        for phi in W:
            if induced[keys[phi]] != phi:
                split_ok = False
    return SESReport(
        h1_order=h1.order,
        stab_order=len(W),
        stab_full_order=len(stab_full),
        out_order=out_order,
        exact=out_order == h1.order * len(W) and lambda_ok and kernel_ok and image_ok,
        lambda_ok=lambda_ok,
        kernel_ok=kernel_ok,
        image_ok=image_ok,
        split_ok=split_ok,
    )


def assert_matches_the_tuple_search(R):
    """Aut R, the out_r representatives, the inner verdicts and the SESReport, library against reference."""
    auts = reference_aut_r(R)
    assert [f.matrix for f in aut_r_bruteforce(R)] == [f.matrix for f in auts]
    key_of, coset_key, reps = reference_out_cosets(R, auts)
    order, out_reps = out_r(R)
    assert order == len(reps)
    want = [jsonio.encode_ring_aut(reps[key]) for key in sorted(reps)]
    assert jsonio.dumps([jsonio.encode_ring_aut(f) for f in out_reps]) == jsonio.dumps(want)
    # the linear test finds a unit exactly for the table's maps, and the table's first unit
    table = autos._inner(R, DEFAULT_BOUNDS)
    assert [autos._conjugator(R, f.matrix, DEFAULT_BOUNDS) for f in auts] == [table.get(f.matrix) for f in auts]
    assert verify_ses(R) == reference_verify_ses(R, key_of, coset_key) == reference_normal_pass(R)


ORACLE_LIMIT = 4096
ORACLE_CASES = [
    (name, q, kind)
    for name in sorted(DIFFERENTIAL_FIXTURES)
    for q in DIFFERENTIAL_FIELDS
    if q ** len(DIFFERENTIAL_FIXTURES[name]().support) <= ORACLE_LIMIT
    for kind in ("trivial", "frobenius", "gauged")
]


@pytest.mark.parametrize("name, q, kind", ORACLE_CASES, ids=[f"{n}-GF{q}-{k}" for n, q, k in ORACLE_CASES])
def test_out_r_matches_the_tuple_search_on_fixtures(name, q, kind):
    S, F = DIFFERENTIAL_FIXTURES[name](), gf(q)
    # differential_cocycles lists the trivial, the gauged Frobenius twist and the gauged trivial cocycle
    cocycles = dict(zip(("trivial", "frobenius", "gauged"), differential_cocycles(S, F, random.Random(f"{name}/GF{q}"))))
    assert_matches_the_tuple_search(TwistedRing(S, F, cocycles[kind]))


def test_out_r_matches_the_tuple_search_on_random_semigroups():
    compared = 0
    for seed in range(40):
        rng = random.Random(seed)
        S = random_semigroup(rng, rng.randint(1, 4))
        F = gf((2, 3, 4)[seed % 3])
        if F.q ** len(S.support) > ORACLE_LIMIT:
            continue
        for c in differential_cocycles(S, F, rng):
            assert_matches_the_tuple_search(TwistedRing(S, F, c))
        compared += 1
    assert compared >= 20


def counting(monkeypatch, name, module=autos):
    calls = [0]
    inner = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


@pytest.mark.parametrize("S, want", [(two_cycle(), (36, 576)), (mu(2), (12, 120))], ids=["two_cycle", "mu2"])
def test_out_r_work_is_one_coset_per_class(monkeypatch, S, want):
    # |Stab| |Z^1| witness maps and |Out| |Inn| coset products over GF(4)
    R = trivial_ring(S, gf(4))
    maps, products = counting(monkeypatch, "_witness_aut"), counting(monkeypatch, "mat_mul")
    order, _ = out_r(R)
    assert (maps[0], products[0]) == want
    assert products[0] == order * len(inner_group(R))


@pytest.mark.parametrize(
    "S, want",
    [(two_cycle(), (12, 1, 2, 0)), (mu(2), (4, 1, 1, 1)), (t2(), (2, 1, 1, 0))],
    ids=["two_cycle", "mu2", "t2"],
)
def test_verify_ses_work_is_one_witness_map_per_class(monkeypatch, S, want):
    # over GF(4), want = (|Stab_full| |H^1| classes, B^1 step rows, |W|, pair tests): a witness map per class
    # and a sigma per step row; each section is the class map of its phi and the identity gauge, so none is
    # built again; a linear test per class, and one per pair of maps compared when the inner maps are neither
    # one class nor all; pair tests plus |W|^2 section products; no element scan, no fixing-pair or coboundary
    # listing and no second solve
    R = trivial_ring(S, gf(4))
    rows = len(cohom._coboundary_gens(S, R.D, cohom._codes(S, R.c)[0])[0].rows)
    maps, sigmas, tests = counting(monkeypatch, "_witness_aut"), counting(monkeypatch, "sigma"), counting(monkeypatch, "_conjugator")
    products, scans = counting(monkeypatch, "mat_mul"), [counting(monkeypatch, "_scan", twring), counting(monkeypatch, "_scan")]
    listings = [counting(monkeypatch, name, cohom) for name in ("_solutions", "one_coboundaries", "cohomologous")]
    sections = counting(monkeypatch, "section_automorphism")
    rep = verify_ses(R)
    classes, _, W, pairs = want
    assert (rep.stab_full_order * rep.h1_order, rows, rep.stab_order) == want[:3]
    assert (maps[0], sigmas[0], sections[0]) == (classes + rows, rows, 0)
    assert (tests[0], products[0]) == (classes + pairs, pairs + W**2)
    assert scans == [[0], [0]] and listings == [[0], [0], [0]]


def test_verify_ses_builds_one_log_form(monkeypatch):
    # first_cohomology and each phi's witness share S's log form, and trivial two_cycle over GF(8) has one alpha;
    # a second ring on S, over a separately built GF(8), builds none
    S, forms = two_cycle(), counting(monkeypatch, "_log_form", cohom)
    rep = verify_ses(trivial_ring(S, gf(8)))
    assert forms == [1]
    assert verify_ses(trivial_ring(S, gf(8))) == rep and forms == [1]


def test_verify_ses_answers_rings_above_the_unit_bound():
    # 4^3 elements over the bound of 10; the centre GF(4) gives 2^2 kernel candidates
    R = trivial_ring(t2(), gf(4))
    assert verify_ses(R, Bounds(max_units=10)) == verify_ses(trivial_ring(t2(), gf(4)))
