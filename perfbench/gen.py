"""Seeded input generators for the benchmark workloads.

Every generator takes a `random.Random` and the freshly imported library
namespace `sq` (see `run.load_library`), so the same seed always yields the
same inputs and nothing here holds references into a stale import.

Recipes:

- valid cocycles: Frobenius twists that follow the difference pattern
  alpha_ij = frob^(m_i - m_j), then a random gauge (the acceptance-suite
  recipe), or a fixed Frobenius twist on one arrow, then a random gauge;
- corrupted copies: one xi value replaced by another unit, resampled until
  `verify_two_cocycle` flags a three-chain violation;
- non-cohomologous pairs: two_cycle cocycles whose arrow exponent sums
  differ (a gauge invariant), over fields with a nontrivial Frobenius;
- large sparse semigroups that are valid by construction: a path with no
  composites, and a disjoint union of t2 copies, both under a random
  relabelling of the idempotents;
- cocycles over GF(128), GF(243), GF(256) and GF(343) with pinned moduli,
  written with the small polynomial arithmetic below so that set-up never
  builds the library's O(q^2) field tables.
"""

# (p, k, monic irreducible modulus, low degree first)
BIG_FIELDS = {
    128: (2, 7, (1, 1, 0, 0, 0, 0, 0, 1)),
    243: (3, 5, (1, 2, 0, 0, 0, 1)),
    256: (2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1)),
    343: (7, 3, (4, 0, 0, 1)),
}


def fixture(sq, name):
    fx = sq.fixtures
    if name == "mu2":
        return fx.mu(2)
    if name == "mu3":
        return fx.mu(3)
    return getattr(fx, name)()


def difference_base(sq, S, F, rng):
    """Identity xi and difference-pattern Frobenius twists."""
    ms = {i: rng.randrange(F.k) for i in range(1, S.n + 1)}
    return sq.cohom.TwoCocycle(
        {(i, j): F.frobenius(ms[i] - ms[j]) for (i, j) in S.support},
        {t: F.one for t in S.comp},
    )


def frobenius_base(sq, S, F, arrow):
    """Trivial cocycle with alpha(arrow) the first Frobenius power."""
    return sq.cohom.TwoCocycle.trivial(S, F).replace_alpha(arrow, F.frobenius(1))


def gauged(sq, S, F, c, rng):
    return sq.cohom.act(S, sq.cohom.random_gauge(S, F, rng), c, check=False)


def random_valid_cocycle(sq, S, F, rng):
    return gauged(sq, S, F, difference_base(sq, S, F, rng), rng)


CORRUPTION_TRIES = 64


def corrupted(sq, S, F, c, rng):
    """A copy of c with one xi value changed that verification rejects.

    Returns None over GF(2), whose single unit leaves nothing to change.
    """
    if F.q == 2:
        return None
    triples = sorted(S.comp)
    for _ in range(CORRUPTION_TRIES):
        t = rng.choice(triples)
        v = rng.choice([u for u in F.units() if u != c.xi[t]])
        bad = c.replace_xi(t, v)
        if not sq.cohom.verify_two_cocycle(S, bad).ok:
            return bad
    raise RuntimeError(f"no caught corruption in {CORRUPTION_TRIES} tries")


def non_cohomologous(sq, S, F, c, rng):
    """A valid two_cycle cocycle in another class than c, or None.

    The arrow exponent sum alpha_12 * alpha_21 is a gauge invariant of the
    no-composition two-cycle; difference-pattern cocycles have sum 0. Every
    other fixture and field generated here has a single class.
    """
    two_cycle = S.n == 2 and {(1, 2), (2, 1)} <= S.support and (1, 2, 1) not in S.comp
    if not two_cycle or F.k == 1:
        return None
    c_alpha = {p: a.m for p, a in c.alpha.items()}
    total = (c_alpha[(1, 2)] + c_alpha[(2, 1)]) % F.k
    a = rng.randrange(F.k)
    b = (total - a + 1 + rng.randrange(F.k - 1)) % F.k
    base = sq.cohom.TwoCocycle.trivial(S, F)
    base = base.replace_alpha((1, 2), F.frobenius(a)).replace_alpha((2, 1), F.frobenius(b))
    return gauged(sq, S, F, base, rng)


# ------------------------------------------------------- sparse semigroups


def path_semigroup(sq, n, rng):
    """1 -> 2 -> ... -> n with no composite arrows, relabelled at random."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    support = [(i, i) for i in perm] + [(perm[a], perm[a + 1]) for a in range(n - 1)]
    return sq.sgrp.SquareFreeSemigroup.make(n, support, [])


def t2_union_semigroup(sq, n, rng):
    """n/2 disjoint copies of t2, relabelled at random."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    support = [(i, i) for i in perm] + [(perm[a], perm[a + 1]) for a in range(0, n - 1, 2)]
    return sq.sgrp.SquareFreeSemigroup.make(n, support, [])


# ------------------------------------------------------------ big fields


class PolyField:
    """GF(p^k) arithmetic on coefficient tuples, one product at a time."""

    def __init__(self, q):
        self.p, self.k, self.modulus = BIG_FIELDS[q]
        self.q = q

    def one(self):
        return (1,) + (0,) * (self.k - 1)

    def mul(self, a, b):
        p, k, mod = self.p, self.k, self.modulus
        out = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % p
        for d in range(2 * k - 2, k - 1, -1):
            c = out[d]
            if c:
                for i in range(k + 1):
                    out[d - k + i] = (out[d - k + i] - c * mod[i]) % p
        return tuple(out[:k])

    def pow(self, a, e):
        acc, base = self.one(), a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def inverse(self, a):
        return self.pow(a, self.q - 2)

    def frob(self, m, a):
        return self.pow(a, self.p ** (m % self.k))

    def random_unit(self, rng):
        while True:
            a = tuple(rng.randrange(self.p) for _ in range(self.k))
            if any(a):
                return a


def big_field_cocycle(F, n, support, comp, rng):
    """Difference-pattern twists, then a random gauge, in wire format.

    For commutative coefficients the gauge (mu, eta) sends alpha_ij to
    frob^(mu_j - mu_i) alpha_ij and xi(ijk) to
    mu_i^(-1)(eta_ij alpha_ij(eta_jk) xi(ijk) eta_ik^(-1)).
    """
    ms = {i: rng.randrange(F.k) for i in range(1, n + 1)}
    mu = {i: rng.randrange(F.k) for i in range(1, n + 1)}
    eta = {p: F.random_unit(rng) for p in support}
    alpha = {(i, j): (ms[i] - ms[j]) % F.k for (i, j) in support}
    out_alpha, out_xi = {}, {}
    for (i, j), a in alpha.items():
        m = (a + mu[j] - mu[i]) % F.k
        if m:
            out_alpha[f"{i},{j}"] = {"frobenius": m}
    for i, j, k in comp:
        inner = F.mul(F.mul(eta[(i, j)], F.frob(alpha[(i, j)], eta[(j, k)])), F.inverse(eta[(i, k)]))
        v = F.frob(-mu[i], inner)
        if v != F.one():
            out_xi[f"{i},{j},{k}"] = list(v)
    return {"alpha": out_alpha, "xi": out_xi}
