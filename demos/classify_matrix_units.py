"""Normalization, block trivialization and the automorphism sequence on 2x2
matrix units.

Every cocycle here is secretly trivial; the point is watching the witnesses
that prove it, and the order bookkeeping of verify_ses.
"""

import random

from sqfree.cohom import (
    TwoCocycle,
    act,
    first_cohomology,
    normalize,
    random_gauge,
    stabilizer,
    trivialize_on_blocks,
    verify_two_cocycle,
)
from sqfree.autos import section_automorphism, verify_ses
from sqfree.fixtures import gf, mu
from sqfree.sgrp import automorphisms, sim_classes
from sqfree.twring import TwistedRing

rng = random.Random(5)
S = mu(2)
F = gf(4)
print("splitting classes:", sim_classes(S))

# scramble the trivial cocycle with a random gauge; still cohomologous to it
c = act(S, random_gauge(S, F, rng), TwoCocycle.trivial(S, F), check=False)
assert verify_two_cocycle(S, c).ok
print("scrambled xi on the diagonal:", {t: c.xi[t] for t in ((1, 1, 1), (2, 2, 2))})

normal, g1 = normalize(S, c)
assert act(S, g1, c) == normal
print("normalized diagonal:", {t: normal.xi[t] for t in ((1, 1, 1), (2, 2, 2))})

flat, g2 = trivialize_on_blocks(S, normal)
assert act(S, g2, normal) == flat
print("after block trivialization every alpha is identity:",
      all(a.is_identity() for a in flat.alpha.values()))

h1 = first_cohomology(S, TwoCocycle.trivial(S, F))
print("H1 order:", h1.order, " Z1:", h1.z1_order, " B1:", h1.b1_order)
print("Aut S:", len(automorphisms(S)), " stabilizer:", len(stabilizer(S, TwoCocycle.trivial(S, F))))

R = TwistedRing(mu(2), gf(2), TwoCocycle.trivial(mu(2), gf(2)))
rep = verify_ses(R)
print("sequence orders (H1, W, Out):", rep.h1_order, rep.stab_order, rep.out_order)
print("exact:", rep.exact, " splits:", rep.split_ok)

# the basis-permutation section realizes the swap concretely
swap = [phi for phi in automorphisms(mu(2)) if not phi.is_identity()][0]
sec = section_automorphism(R, swap)
assert sec.apply(R.basis(1, 1)) == R.basis(2, 2)
print("section moves e1 to e2 on the nose")
