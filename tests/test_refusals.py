"""Named bound refusals, and witness replays that hold under python -O."""

import json
import os
import subprocess
import sys

import pytest

from sqfree.autos import RingAut, is_inner, out_r
from sqfree.cohom import (
    GaugeElement,
    TwoCocycle,
    act,
    cohomologous,
    cohomologous_with_relabel,
    first_cohomology,
    one_coboundaries,
    stabilizer,
)
from sqfree.common import Bounds
from sqfree.errors import SearchBoundExceeded
from sqfree.fixtures import gf, t2
from sqfree.twring import TwistedRing, enumerate_units
from test_autos import aut_r_linear_filter
from test_cohom import reference_cohomologous


def trivial(q):
    return TwoCocycle.trivial(t2(), gf(q))


def rescaled(q):
    # eta(s11) = 2 moves xi(e1, e1) and xi(e1, s12) off 1
    S, F = t2(), gf(q)
    g = GaugeElement.identity(S, F)
    return act(S, GaugeElement(g.mu, {**g.eta, (1, 1): F.element(2)}), trivial(q))


def identity_is_inner(q, bounds):
    R = TwistedRing(t2(), gf(q), trivial(q))
    return is_inner(R, RingAut.identity(R), bounds)


BOUND_CASES = {
    # 4^3 elements of the t2 ring over GF(4)
    "enumeration": (
        lambda: enumerate_units(TwistedRing(t2(), gf(4), trivial(4)), Bounds(max_units=10)),
        r"^max_units: element estimate 64 above limit 10$",
    ),
    # the normal maps list each phi's slices: over GF(2) the kernel is {0}, 1 pair
    "normal_maps": (
        lambda: out_r(TwistedRing(t2(), gf(2), trivial(2)), Bounds(max_search=0)),
        r"^max_search: fixing-pair slice estimate 1 above limit 0$",
    ),
    # H^1 refuses on its own size: over GF(4) 2 mu slices of 3 fixing pairs, over the 3 coboundaries
    "fixing_pairs": (
        lambda: first_cohomology(t2(), trivial(4), Bounds(max_search=1)),
        r"^max_search: H\^1 estimate 2 above limit 1$",
    ),
    # the image of nu -> (l_1 - l_2 on the arrow, 0 on the loops): 3 over GF(4)
    "one_coboundaries": (
        lambda: one_coboundaries(t2(), trivial(4), Bounds(max_search=2)),
        r"^max_search: orbit estimate 3 above limit 2$",
    ),
    # the centre of the t2 ring over GF(2) is GF(2): 2 candidate conjugators
    "inner_kernel": (
        lambda: identity_is_inner(2, Bounds(max_units=1)),
        r"^max_units: inner kernel estimate 2 above limit 1$",
    ),
    # every 3x3 matrix over GF(2)
    "aut_r_linear_filter": (
        lambda: aut_r_linear_filter(TwistedRing(t2(), gf(2), trivial(2)), Bounds(max_search=511)),
        r"^max_search: linear map estimate 512 above limit 511$",
    ),
}


@pytest.mark.parametrize("case", sorted(BOUND_CASES))
def test_bound_messages_name_bound_estimate_and_limit(case):
    call, message = BOUND_CASES[case]
    with pytest.raises(SearchBoundExceeded, match=message):
        call()


def test_first_witness_solves_spend_no_bound():
    # the first-witness solves list no slice: cohomologous takes no bound,
    # and max_search 0, spent by the other two on Aut S only, refuses
    # neither; a node-budgeted search refused all three here
    S, bounds = t2(), Bounds(max_search=0)
    want = reference_cohomologous(S, trivial(3), rescaled(3)).canonical_key()
    assert cohomologous(S, trivial(3), rescaled(3)).canonical_key() == want
    phi, g = cohomologous_with_relabel(S, trivial(3), rescaled(3), bounds)
    assert (phi.is_identity(), g.canonical_key()) == (True, want)
    assert [phi.perm for phi in stabilizer(S, rescaled(3), bounds)] == [(1, 2)]


CORRUPTED_REPLAY_SCRIPT = """
import sys
from sqfree import cohom, twring
from sqfree.linalg import Lattice
from sqfree.autos import aut_r_bruteforce
from sqfree.cohom import GaugeElement, TwoCocycle, act, cohomologous, first_cohomology, one_coboundaries
from sqfree.errors import InvalidCocycle, NotAOneCocycle, WitnessRejected
from sqfree.fixtures import a3, double_t2, gf, t2
from sqfree.twring import TwistedRing, is_d_algebra

assert sys.flags.optimize, "run me under python -O"
S, F = t2(), gf(4)
base = TwoCocycle.trivial(S, F)
one = GaugeElement.identity(S, F)
g = GaugeElement(one.mu, {**one.eta, (1, 1): F.gen})


def call(name, fn, patch=None):
    if patch is not None:
        module, attr, value = patch
        saved = getattr(module, attr)
        setattr(module, attr, value)
    try:
        fn()
    except (InvalidCocycle, NotAOneCocycle, WitnessRejected) as exc:
        print(name, "rejected:", type(exc).__name__)
    else:
        print(name, "returned a result")
    finally:
        if patch is not None:
            setattr(module, attr, saved)


# a least eta tuple that does not carry base to its rescaled copy
call("cohomologous", lambda: cohomologous(S, base, act(S, g, base)),
     (Lattice, "least", lambda L, v, key: (1,) * len(v)))
# a particular solution of the log system that solves nothing: every log 1
call("first_cohomology solution", lambda: first_cohomology(S, base),
     (Lattice, "solve", lambda L, b: (1,) * (L.width - len(b))))
# each kernel step twice: K is stated as 9 pairs, and holds 3
log_form = cohom._log_form
call("first_cohomology kernel", lambda: first_cohomology(S, base),
     (cohom, "_log_form", lambda *a: (lambda form, K: (form, Lattice(K.n, K.width, 2 * K._steps)))(*log_form(*a))))
# an image listing that never leaves the identity pair: 1 coboundary where the estimate is 3
call("one_coboundaries", lambda: one_coboundaries(S, base),
     (Lattice, "elements", lambda L: [(0,) * L.width]))
# B^1 as Lattices over Z/(q-1) in eta logs in support order, with steps
# (slot, row, d) of order (q-1)/d where given as steps: one outside Z^1, at
# log 1 on the loop (1, 1); one that is no normal subgroup, log 1 on both
# arrows of double_t2, which mu = (1, 1, 0, 0) scales to (2, 1), out of its
# span; the arrow of t2 over GF(4) twice, so of order 9, where the kernel
# has 3 elements; and log 2 on the arrow over GF(5) twice, so of order 4,
# while it has order 2: 2 classes of 4 for 4 fixing pairs
call("first_cohomology outside", lambda: first_cohomology(S, base),
     (cohom, "_coboundary_gens", lambda *a: (Lattice.span([(1, 0, 0)], 3, 3), None)))
call("first_cohomology normal", lambda: first_cohomology(double_t2(), TwoCocycle.trivial(double_t2(), F)),
     (cohom, "_coboundary_gens", lambda *a: (Lattice.span([(0, 1, 0, 0, 1, 0)], 3, 6), None)))
call("first_cohomology index", lambda: first_cohomology(S, base),
     (cohom, "_coboundary_gens", lambda *a: (Lattice(3, 3, 2 * [(1, (0, 1, 0), 1)]), None)))
call("first_cohomology cover", lambda: first_cohomology(S, TwoCocycle.trivial(S, gf(5))),
     (cohom, "_coboundary_gens", lambda *a: (Lattice(4, 3, 2 * [(1, (0, 2, 0), 2)]), None)))
# a kernel stated as 0: B^1, the arrow of t2, has its step at a slot where K has none
call("first_cohomology slot", lambda: first_cohomology(S, base),
     (cohom, "_log_form", lambda *a: (log_form(*a)[0], Lattice(3, 3, ()))))
# an exponent solution that leaves the Frobenius on the arrow
R = TwistedRing(S, F, base.replace_alpha((1, 2), F.frobenius(1)))
call("is_d_algebra", lambda: is_d_algebra(R),
     (twring, "_mu_candidates", lambda S, *rest: iter([(0, 0)])))
# e_1 s_12 = 2 s_12 breaks the unit law, so the ring is no ring and idempotents do not lift
F3 = gf(3)
corrupted = TwoCocycle.trivial(a3(), F3).replace_xi((1, 1, 2), F3.element(2))
call("aut_r_bruteforce", lambda: aut_r_bruteforce(TwistedRing(a3(), F3, corrupted, check=False)))
"""


def test_corrupted_replays_rejected_under_python_O():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-O", "-c", CORRUPTED_REPLAY_SCRIPT],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.splitlines()
    assert out == [
        "cohomologous rejected: WitnessRejected",
        "first_cohomology solution rejected: WitnessRejected",
        "first_cohomology kernel rejected: WitnessRejected",
        "one_coboundaries rejected: WitnessRejected",
        "first_cohomology outside rejected: NotAOneCocycle",
        "first_cohomology normal rejected: WitnessRejected",
        "first_cohomology index rejected: WitnessRejected",
        "first_cohomology cover rejected: WitnessRejected",
        "first_cohomology slot rejected: WitnessRejected",
        "is_d_algebra rejected: WitnessRejected",
        "aut_r_bruteforce rejected: InvalidCocycle",
    ]


def malformed_bundle(semigroup=None, xi=None):
    bundle = {
        "semigroup": {"n": 2, "support": [[1, 1], [2, 2], [1, 2]], "comp": []},
        "coefficients": {"backend": "finite_field", "p": 3, "k": 1},
        "cocycle": {"xi": xi or {"1,1,2": [2]}},
    }
    bundle["semigroup"].update(semigroup or {})
    return bundle


def test_malformed_bundles_refused_under_python_O(tmp_path):
    # the bulk checks name the same JSON path with assertions stripped
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cases = {
        "semigroup.support[1][0]": malformed_bundle(semigroup={"support": [[1, 1], [True, 2], [1, 2]]}),
        "semigroup.comp[0]": malformed_bundle(semigroup={"comp": [[1, 2]]}),
        "cocycle.xi.01,1,2": malformed_bundle(xi={"1,1,2": [2], "01,1,2": [1]}),
        "cocycle.xi.1,2,2": malformed_bundle(xi={"1,2,2": [0]}),
    }
    for where, bundle in cases.items():
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "sqfree", "validate", str(path)], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 2, (where, proc.stderr)
        assert json.loads(proc.stdout)["where"] == where
