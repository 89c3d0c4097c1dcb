"""Twist a chained-pair semigroup ring by a Frobenius cocycle, then undo it.

Walks the main loop of the library: cocycle -> verification -> twisted ring
-> associativity -> gauge equivalence back to a plain tensor ring.
"""

from sqfree.autos import iso_from_witness
from sqfree.cohom import TwoCocycle, act, verify_two_cocycle
from sqfree.fixtures import gf, t2
from sqfree.twring import (
    TwistedRing,
    check_associativity,
    is_d_algebra,
    mul,
    tensor_ring,
)

S = t2()
F = gf(4)
g = F.gen

print("semigroup:", sorted(S.support), "comp:", sorted(S.comp))

# put the field's Frobenius on the arrow, nothing anywhere else
c = TwoCocycle.trivial(S, F).replace_alpha((1, 2), F.frobenius(1))
rep = verify_two_cocycle(S, c)
print("cocycle valid:", rep.ok)
assert rep.ok

R = TwistedRing(S, F, c)
print("associative:", check_associativity(R).ok)

s12 = R.basis(1, 2)
ge2 = R.element({(2, 2): g})
print("(g e1) * s12 =", mul(R, R.element({(1, 1): g}), s12))
print("s12 * (g e2) =", mul(R, s12, ge2))
# the scalar picks up the Frobenius when it crosses the arrow: g -> g^2

w = is_d_algebra(R)
assert w is not None
print("untwisting gauge mu exponents:", {i: w.mu[i].m for i in w.mu})

flat = act(S, w, R.c)
assert all(a.is_identity() for a in flat.alpha.values())
T, comparison = tensor_ring(S, F, flat)
assert comparison.check_on_generators().ok

f = iso_from_witness(R, T, w)
y = T.element({(1, 1): F.one, (1, 2): g})
z = T.element({(2, 2): g})
assert f.apply(mul(T, y, z)) == mul(R, f.apply(y), f.apply(z))
print("twisted ring is isomorphic to the plain tensor ring")
