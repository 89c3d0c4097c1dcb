"""Cocycles over a division-ring backend and the gauge action on them.

A two-cocycle assigns a coefficient automorphism to every support pair and
a unit to every composability triple, subject to two compatibility
identities (one on 3-chains relating the xi values, one on 2-chains
relating compositions of alphas to inner automorphisms). Gauge pairs
(mu, eta) act on cocycles; orbits of that action are what the ring-level
isomorphism machinery consumes. This module provides verification,
normalization, block trivialization, relabeling along semigroup
automorphisms, the equivalence search, and the first cohomology of a
fixed base cocycle.

Convention: automorphism composition is (a*b)(x) = a(b(x)), and the gauge
product is arranged so that act(gauge_mul(a, b), c) = act(b, act(a, c)).
Relabeling composes the other way around: relabel(phi, relabel(psi, c)) =
relabel(psi*phi, c). Both laws are property-tested rather than trusted.
"""

from dataclasses import dataclass
from itertools import product
from operator import add
from types import MappingProxyType

from .coeff import FFElement
from .common import DEFAULT_BOUNDS, ValidationReport
from .errors import (
    InfiniteBackend,
    InvalidCocycle,
    InvalidInput,
    MixedBackends,
    NonCommutativeCoefficients,
    NotAOneCocycle,
    SearchBoundExceeded,
    WitnessRejected,
    ZeroConjugator,
)
from .linalg import Lattice
from .sgrp import automorphisms as semigroup_automorphisms
from .sgrp import sim_classes


def chain_keys(S, m):
    """Key domain of an m-cochain: indices, support pairs, or pair tuples."""
    if m == 0:
        return list(range(1, S.n + 1))
    if m == 1:
        return S.elements()
    return S.tuples(m)


class Cochain:
    """Total map from composable m-chains to nonzero coefficients."""

    __slots__ = ("m", "data")

    def __init__(self, m, data):
        self.m = m
        self.data = dict(data)

    def __getitem__(self, key):
        return self.data[key]

    def __eq__(self, other):
        return isinstance(other, Cochain) and (other.m, other.data) == (self.m, self.data)

    def __repr__(self):
        return f"Cochain(m={self.m}, {self.data!r})"


def random_cochain(S, m, D, rng):
    return Cochain(m, {key: D.random_unit(rng) for key in chain_keys(S, m)})


def _require_total(S, m, phi):
    keys = chain_keys(S, m)
    for key in keys:
        if key not in phi.data:
            raise InvalidInput(f"cochain missing value at {key}", where=str(key))
    if len(phi.data) != len(keys):
        extra = set(phi.data) - set(keys)
        raise InvalidInput(f"cochain has stray keys {sorted(extra)!r}")


def boundary(S, phi):
    """Multiplicative boundary of an m-cochain, m = phi.m in {0, 1, 2, 3}.

    Commutative coefficients only; the alternating-product formula has no
    unambiguous factor order otherwise.
    """
    m = phi.m
    if not phi.data:
        # refused as missing its first value; S has at least one m-chain
        _require_total(S, m, phi)
    sample = next(iter(phi.data.values()))
    if not sample.field.is_commutative:
        raise NonCommutativeCoefficients("boundary maps need commutative coefficients")
    _require_total(S, m, phi)
    out = {}
    if m == 0:
        for i, j in S.elements():
            out[(i, j)] = phi[j] * phi[i].inverse()
        return Cochain(1, out)

    def key_of(chain):
        return chain[0] if len(chain) == 1 else chain

    for chain in S.tuples(m + 1):
        acc = phi[key_of(chain[1:])]
        for a in range(1, m + 1):
            merged = chain[: a - 1] + (S.mul(chain[a - 1], chain[a]),) + chain[a + 1 :]
            term = phi[key_of(merged)]
            acc = acc * (term if a % 2 == 0 else term.inverse())
        last = phi[key_of(chain[:m])]
        acc = acc * (last if m % 2 == 1 else last.inverse())
        out[chain] = acc
    return Cochain(m + 1, out)


class TwoCocycle:
    """Pair (alpha, xi): automorphisms on support, units on comp triples.

    alpha and xi are read-only views of private copies, so a cocycle never
    changes; _verified is the semigroup it passed verify_two_cocycle
    against, which _valid trusts. Every derived cocycle is a new object.
    """

    __slots__ = ("alpha", "xi", "_verified")

    def __init__(self, alpha, xi):
        self.alpha = MappingProxyType(dict(alpha))
        self.xi = MappingProxyType(dict(xi))
        self._verified = None

    @classmethod
    def trivial(cls, S, D):
        return cls(
            {p: D.identity_automorphism() for p in S.support},
            {t: D.one for t in S.comp},
        )

    @property
    def backend(self):
        return next(iter(self.alpha.values())).field

    def is_normal(self):
        one = self.backend.one
        return all(v == one for t, v in self.xi.items() if t[0] == t[1] == t[2])

    def replace_xi(self, t, value):
        return TwoCocycle(self.alpha, {**self.xi, t: value})

    def replace_alpha(self, p, value):
        return TwoCocycle({**self.alpha, p: value}, self.xi)

    def __eq__(self, other):
        return isinstance(other, TwoCocycle) and (other.alpha, other.xi) == (self.alpha, self.xi)

    def __repr__(self):
        return f"TwoCocycle(alpha={dict(self.alpha)!r}, xi={dict(self.xi)!r})"


def verify_two_cocycle(S, c):
    """Report every domain defect and identity failure; empty report = valid, and c records S as verified.

    Domain, backend and unit defects are listed, sorted, only once a bulk check finds one.
    """
    rep = ValidationReport()
    if c.alpha.keys() != S.support or c.xi.keys() != S.comp:
        for p in sorted(S.support):
            if p not in c.alpha:
                rep.add("missing_alpha", p)
        for t in sorted(S.comp):
            if t not in c.xi:
                rep.add("missing_xi", t)
        for p in sorted(set(c.alpha) - S.support):
            rep.add("stray_alpha", p)
        for t in sorted(set(c.xi) - S.comp):
            rep.add("stray_xi", t)
        return rep
    D = c.backend
    if not all((v.field is D or v.field == D) and not v.is_zero() for v in c.xi.values()) or not all(
        a.field is D or a.field == D for a in c.alpha.values()
    ):
        for t in sorted(S.comp):
            v = c.xi[t]
            if v.field != D or v.is_zero():
                rep.add("xi_not_unit", t, repr(v))
        for p in sorted(S.support):
            if c.alpha[p].field != D:
                rep.add("mixed_backends", p)
        return rep
    (_code_identities if D.is_finite else _element_identities)(S, c, D, rep)
    if rep.ok:
        c._verified = S
    return rep


def _element_identities(S, c, D, rep):
    """Add verify_two_cocycle's identity failures to rep, by element and automorphism arithmetic.

    The only path over the quaternions; over a field, the tests' reference
    for _code_identities.
    """
    # xi compatibility on every composable 3-chain
    for chain in S.tuples(3):
        (i, j), (_, k), (_, l) = chain
        lhs = c.alpha[(i, j)](c.xi[(j, k, l)]) * c.xi[(i, j, l)]
        rhs = c.xi[(i, j, k)] * c.xi[(i, k, l)]
        if lhs != rhs:
            rep.add("three_chain", chain, f"lhs={lhs!r} rhs={rhs!r}")
    # alpha composition vs inner twist on every composable 2-chain
    for chain in S.tuples(2):
        (i, j), (_, k) = chain
        lhs = c.alpha[(i, j)] * c.alpha[(j, k)]
        rhs = D.inner_automorphism(c.xi[(i, j, k)]) * c.alpha[(i, k)]
        if lhs != rhs:
            rep.add("two_chain", chain, f"lhs={lhs!r} rhs={rhs!r}")
    # forced shape of the diagonal alphas
    for i in range(1, S.n + 1):
        if c.alpha[(i, i)] != D.inner_automorphism(c.xi[(i, i, i)]):
            rep.add("diagonal_alpha", (i, i), "not conjugation by xi(e_i, e_i)")


def _code_identities(S, c, F, rep):
    """_element_identities over a finite field F, on xi logs and Frobenius exponents.

    Every xi is a unit by now and a field's inner automorphisms are the
    identity, so the 3-chain identity is a sum of logs mod q-1, the 2-chain
    identity a sum of exponents mod k, and a diagonal alpha must be frob^0.
    Elements are built only to word a failure.
    """
    power, exp, n, k = F._powers, F._exp, F.q - 1, F.k
    m, x = _codes(S, c)
    for chain in S.tuples(3):
        (i, j), (_, h), (_, l) = chain
        lhs = power[m[i, j]] * x[j, h, l] + x[i, j, l]
        rhs = x[i, j, h] + x[i, h, l]
        if (lhs - rhs) % n:
            rep.add("three_chain", chain, f"lhs={FFElement(F, exp[lhs % n])!r} rhs={FFElement(F, exp[rhs % n])!r}")
    for chain in S.tuples(2):
        (i, j), (_, h) = chain
        lhs = (m[i, j] + m[j, h]) % k
        if lhs != m[i, h]:
            rep.add("two_chain", chain, f"lhs={F.frobenius(lhs)!r} rhs={F.frobenius(m[i, h])!r}")
    for i in range(1, S.n + 1):
        if m[i, i]:
            rep.add("diagonal_alpha", (i, i), "not conjugation by xi(e_i, e_i)")


def _valid(S, c):
    """c itself once it has passed verify_two_cocycle against S, now or before; else InvalidCocycle carrying the report."""
    if c._verified != S:
        rep = verify_two_cocycle(S, c)
        if not rep.ok:
            raise InvalidCocycle(rep.as_json())
    return c


def _on_domain(S, c):
    """c, when alpha and xi are defined exactly on S's support pairs and triples; else refused as _valid refuses it."""
    if c.alpha.keys() != S.support or c.xi.keys() != S.comp:
        _valid(S, c)
    return c


def _backend(S, c):
    """c.backend, read off its first alpha; a cocycle with no alpha has none and is refused as _valid refuses it."""
    if not c.alpha:
        _valid(S, c)
    return c.backend


def _codes(S, c):
    """(alpha Frobenius exponents by pair, xi logs by triple) of c over the field of its first alpha.

    The one reader of field cocycle values: MixedBackends names one from another backend. A zero xi reads None.
    """
    F = _backend(S, _on_domain(S, c))
    exponent, code, log, alpha, xi = F._exponent_of, F._code_of, F._log, c.alpha, c.xi
    a = {p: exponent(alpha[p], "cocycle automorphism") for p in S.support}
    return a, {t: log[code(xi[t], "cocycle value")] for t in S.comp}


def _aut_key(a):
    # Frobenius exponent or conjugator tuple; both orderable and hashable
    return a.m if hasattr(a, "m") else a.conjugator


def _elem_key(v):
    return v.code if hasattr(v, "code") else v.parts


class GaugeElement:
    """Acting pair: an automorphism per idempotent, a unit per support pair.

    mu and eta are read-only views of private copies: a gauge is hashed by
    its canonical_key, so it must not change once built.
    """

    __slots__ = ("mu", "eta")

    def __init__(self, mu, eta):
        self.mu = MappingProxyType(dict(mu))
        self.eta = MappingProxyType(dict(eta))

    @classmethod
    def identity(cls, S, D):
        return cls(
            {i: D.identity_automorphism() for i in range(1, S.n + 1)},
            {p: D.one for p in S.support},
        )

    def is_identity(self):
        return all(a.is_identity() for a in self.mu.values()) and all(
            v == v.field.one for v in self.eta.values()
        )

    def canonical_key(self):
        mu = tuple((i, _aut_key(a)) for i, a in sorted(self.mu.items(), key=lambda kv: kv[0]))
        eta = tuple((p, _elem_key(v)) for p, v in sorted(self.eta.items(), key=lambda kv: kv[0]))
        return (mu, eta)

    def __eq__(self, other):
        return isinstance(other, GaugeElement) and (other.mu, other.eta) == (self.mu, self.eta)

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return f"GaugeElement(mu={dict(self.mu)!r}, eta={dict(self.eta)!r})"


def gauge_mul(S, a, b):
    """Group product; by construction act(gauge_mul(a,b), c) = act(b, act(a,c))."""
    mu = {i: a.mu[i] * b.mu[i] for i in a.mu}
    eta = {p: a.mu[p[0]](b.eta[p]) * a.eta[p] for p in a.eta}
    return GaugeElement(mu, eta)


def gauge_inv(S, a):
    mu = {i: f.inverse() for i, f in a.mu.items()}
    eta = {p: a.mu[p[0]].inverse()(v.inverse()) for p, v in a.eta.items()}
    return GaugeElement(mu, eta)


def random_gauge(S, D, rng):
    return GaugeElement(
        {i: D.random_automorphism(rng) for i in range(1, S.n + 1)},
        {p: D.random_unit(rng) for p in S.support},
    )


def act(S, g, c, check=True):
    """Gauge action on a two-cocycle; preserves validity.

    The new alpha_ij is mu_i^(-1) conj(eta_ij) alpha_ij mu_j, and the new
    xi(ijk) is mu_i^(-1)(eta_ij alpha_ij(eta_jk) xi(ijk) eta_ik^(-1)). Over a
    finite field this runs on logs and Frobenius exponents (_act_codes) unless
    a check=False cocycle has a zero xi. A zero eta raises ZeroConjugator; a
    gauge or cocycle value from another backend raises MixedBackends.
    """
    if check:
        _valid(S, c)
    D = _backend(S, c)
    if not D.is_finite:
        return _element_act(S, g, c, D)
    mu = [D._exponent_of(g.mu[i], "gauge automorphism") for i in range(1, S.n + 1)]
    eta = {p: D._log[D._code_of(g.eta[p], "conjugator")] for p in S.support}
    if None in eta.values():
        raise ZeroConjugator("conjugation by 0")
    v = _codes(S, c)
    if None in v[1].values():
        return _element_act(S, g, c, D)
    beta, zeta = _act_codes(S, D, v, mu, eta)
    auts, exp = D.automorphisms(), D._exp
    return TwoCocycle({p: auts[m] for p, m in beta.items()}, {t: FFElement(D, exp[u]) for t, u in zeta.items()})


def _element_act(S, g, c, D):
    """act by element and automorphism arithmetic: the quaternions' path, the tests' reference over a field."""
    beta = {}
    for p in S.support:
        i, j = p
        tw = D.inner_automorphism(g.eta[p])
        beta[p] = g.mu[i].inverse() * tw * c.alpha[p] * g.mu[j]
    zeta = {}
    for t in S.comp:
        i, j, k = t
        inner = g.eta[(i, j)] * c.alpha[(i, j)](g.eta[(j, k)]) * c.xi[t] * g.eta[(i, k)].inverse()
        zeta[t] = g.mu[i].inverse()(inner)
    return TwoCocycle(beta, zeta)


def _act_codes(S, F, v, mu, eta):
    """The _codes pair of g . c, for c's _codes pair v and g's mu exponents in index order and eta logs by pair.

    A field's inner automorphisms are the identity, so the new alpha_ij is
    frob^(-mu_i + a_ij + mu_j), and frob^m multiplies a log by p^m, so the
    new xi(ijh) has log p^(-mu_i) (e_ij + p^(a_ij) e_jh + x(ijh) - e_ih).
    """
    a, x = v
    power, n, k = F._powers, F.q - 1, F.k
    beta = {p: (m + mu[p[1] - 1] - mu[p[0] - 1]) % k for p, m in a.items()}
    zeta = {}
    for t, xt in x.items():
        i, j, h = t
        zeta[t] = power[-mu[i - 1] % k] * (eta[i, j] + power[a[i, j]] * eta[j, h] + xt - eta[i, h]) % n
    return beta, zeta


def normalize(S, c):
    """Gauge c by eta(e_i) = xi(e_i, e_i)^(-1) so every diagonal xi value is 1; returns (result, witness).

    alpha_ii is conjugation by x = xi(e_i, e_i), so the new value
    x^(-1) alpha_ii(x^(-1)) x x = 1 after one step. A normal c comes back
    as it is, with the identity witness the step would also give.
    """
    witness = GaugeElement.identity(S, _valid(S, c).backend)
    if c.is_normal():
        return c, witness
    scale = {(i, i): c.xi[(i, i, i)].inverse() for i in range(1, S.n + 1)}
    witness = GaugeElement(witness.mu, {**witness.eta, **scale})
    out = act(S, witness, c, check=False)
    if not out.is_normal():
        raise InvalidCocycle("diagonal xi values did not reach 1")
    return out, witness


def trivialize_on_blocks(S, c):
    """Gauge a normal cocycle to (identity, 1) on every mutual-splitting class.

    Per class with base index b: mu_j = alpha_bj^(-1) and
    eta(s_jk) = mu_j(xi(s_bj, s_jk)^(-1)) inside the class, identity/1
    elsewhere. Returns (result, witness); the restriction is re-checked.
    """
    if not _valid(S, c).is_normal():
        raise InvalidCocycle("block trivialization expects a normal cocycle")
    D = c.backend
    mu = {i: D.identity_automorphism() for i in range(1, S.n + 1)}
    eta = {p: D.one for p in S.support}
    classes = [cls for cls in sim_classes(S) if len(cls) > 1]
    for cls in classes:
        b = cls[0]
        for j in cls:
            mu[j] = c.alpha[(b, j)].inverse()
        for j in cls:
            for k in cls:
                eta[(j, k)] = mu[j](c.xi[(b, j, k)].inverse())
    witness = GaugeElement(mu, eta)
    out = act(S, witness, c, check=False)
    for cls in classes:
        members = set(cls)
        for p in S.support:
            if p[0] in members and p[1] in members and not out.alpha[p].is_identity():
                raise InvalidCocycle(f"alpha at {p} not trivialized")
        for t in S.comp:
            if set(t) <= members and out.xi[t] != D.one:
                raise InvalidCocycle(f"xi at {t} not trivialized")
    return out, witness


def relabel(S, phi, c):
    """Pull a cocycle back along a semigroup automorphism (pure reindexing); c must be defined on S's domain."""
    return TwoCocycle(*_relabeled(S, phi, (_on_domain(S, c).alpha, c.xi)))


def _relabeled(S, phi, v):
    """relabel on a pair of (alpha, xi) dicts, as _codes gives."""
    a, x = v
    return {p: a[phi.pair(p)] for p in S.support}, {t: x[phi.triple(t)] for t in S.comp}


def _mu_candidates(S, a1, a2, k):
    """Yield the mu exponent tuples, in index order, compatible with the alpha equations.

    Over a field the support-pair equation reads mu_i - mu_j = a1 - a2 in
    Frobenius exponents mod k, a difference constraint per pair; solutions
    are a base assignment per weak component shifted by a free exponent.
    """
    diff = {p: (a1[p] - a2[p]) % k for p in S.support}
    adjacency = {i: [] for i in range(1, S.n + 1)}
    for (i, j), d in diff.items():
        if i != j:
            adjacency[i].append((j, -d))
            adjacency[j].append((i, d))
    base, components = {}, []
    for root in range(1, S.n + 1):
        if root not in base:
            base[root], component = 0, [root]
            for v in component:
                for w, d in adjacency[v]:
                    if w not in base:
                        base[w] = (base[v] + d) % k
                        component.append(w)
            components.append(component)
    if any((base[i] - base[j]) % k != d for (i, j), d in diff.items()):
        return
    index = {i: c for c, component in enumerate(components) for i in component}
    for shifts in product(range(k), repeat=len(components)):
        yield tuple((base[i] + shifts[index[i]]) % k for i in range(1, S.n + 1))


def _kept(S, F, a, name, build):
    """build(S, F, a), for build _log_form or _coboundary_gens, built once per semigroup and kept in S._store.

    Both read only q - 1 and the powers p^(a_p) mod q - 1, so the key is (name, q - 1, those powers in support order),
    whatever the field's modulus or the rest of the cocycle.
    """
    key = (name, F.q - 1, tuple(map(F._powers.__getitem__, map(a.__getitem__, S.elements()))))
    store = S._store
    if key not in store:
        store[key] = build(S, F, a)
    return store[key]


def _log_form(S, F, a):
    """The Lattice of the rows (column of a support pair | its unit vector) of the eta equations' log matrix, and its kernel K.

    D^x is cyclic, so in logs l of eta the equation x(ij) frob^(a_ij)(x(jh)) x(ih)^(-1) = t(ijh) reads
    l_ij + p^(a_ij) l_jh - l_ih = log t(ijh) over Z/(q-1), one entry per triple and one unknown per support pair.
    The matrix depends on the alpha exponents a alone, so every mu slice shares the Lattice; K is its tail.
    """
    power, support, cut = F._powers, S.elements(), len(S.comp)
    rows = {p: [0] * cut + [int(p == r) for r in support] for p in support}
    for t, (i, j, h) in enumerate(sorted(S.comp)):
        rows[i, j][t] += 1
        rows[j, h][t] += power[a[i, j]]
        rows[i, h][t] -= 1
    form = Lattice.span(rows.values(), F.q - 1, cut + len(support))
    return form, form.split(cut)[1]


def _slices(S, F, v1, v2):
    """Yield (mu, l0, the kernel K) for each solvable mu slice of act(g, c1) = c2, for _codes pairs v1 and v2.

    mu runs over _mu_candidates in order, and l0 is one solution in logs for the targets frob^(mu_i)(x2) x1^(-1); every
    solution is l0 plus K. c1's log form is S's (_kept), built at the first mu candidate if S has none for its alpha.
    """
    (a1, x1), (a2, x2) = v1, v2
    power, triples, form = F._powers, sorted(S.comp), None
    for mu in _mu_candidates(S, a1, a2, F.k):
        if form is None:
            form, kernel = _kept(S, F, a1, "log form", _log_form)
        l0 = form.solve([power[mu[t[0] - 1]] * x2[t] - x1[t] for t in triples])
        if l0 is not None:
            yield mu, l0, kernel


def _solutions(S, F, v1, v2, bounds):
    """The code pairs (mu, eta) of the gauges g with act(g, c1) = c2, for _codes pairs v1 and v2, in canonical_key order.

    Each slice is l0 plus K, listed once as |K| distinct pairs, refused above max_search; with l0 and K's step rows
    _checked, by the group law every one solves.
    """
    exp, out, kernel = F._exp, [], None
    for mu, l0, K in _slices(S, F, v1, v2):
        if kernel is None:
            size = _within(K.order, "fixing-pair slice", bounds)
            for h in K.rows:
                _checked(S, F, v1, v1, (0,) * S.n, h)
            kernel = K.elements()
            if len(set(kernel)) != size:
                raise WitnessRejected(f"{len(set(kernel))} distinct kernel elements, not {size}")
        _checked(S, F, v1, v2, mu, l0)
        out += [(mu, tuple(map(exp.__getitem__, map(add, l0, y)))) for y in kernel]
    return sorted(out)


def _within(size, what, bounds):
    """size, unless it is above max_search: then refused, naming what it estimates."""
    if size > bounds.max_search:
        raise SearchBoundExceeded(f"max_search: {what} estimate {size} above limit {bounds.max_search}")
    return size


def _checked(S, F, v1, v2, mu, logs):
    """The code pair of the gauge (mu, eta logs in support order) once it carries v1 to v2; else WitnessRejected."""
    if _act_codes(S, F, v1, mu, dict(zip(S.elements(), logs))) != v2:
        raise WitnessRejected("a gauge solution does not carry the first cocycle to the second")
    return mu, tuple(map(F._exp.__getitem__, logs))


def _gauge(S, F, key):
    """The GaugeElement of a code pair: mu Frobenius exponents in index order, eta codes in support order."""
    mu, eta = key
    eta = {p: FFElement(F, u) for p, u in zip(S.elements(), eta)}
    return GaugeElement({i: F.frobenius(m) for i, m in enumerate(mu, 1)}, eta)


def cohomologous(S, c1, c2):
    """A gauge witness g with act(g, c1) = c2, or None when there is none; the solve takes no bound, as it lists nothing."""
    F = _refuse_backends(S, c1, c2)
    key = _witness(S, F, _codes(S, _valid(S, c1)), _codes(S, _valid(S, c2)))
    return None if key is None else _gauge(S, F, key)


def _refuse_backends(S, c1, c2):
    """The searches' backend refusals in order, no alpha in c1, an infinite backend, then c2's backend; else their field."""
    F = _backend(S, c1)
    if not F.is_finite:
        raise InfiniteBackend("equivalence search needs a finite field")
    if F != _backend(S, c2):
        raise MixedBackends("cocycles over different backends")
    return F


def _witness(S, F, v1, v2):
    """The code pair with the least eta code tuple of the first solvable mu slice carrying v1 to v2, _checked, or None."""
    for mu, l0, kernel in _slices(S, F, v1, v2):
        return _checked(S, F, v1, v2, mu, kernel.least(l0, F._exp.__getitem__))
    return None


def cohomologous_with_relabel(S, c1, c2, bounds=DEFAULT_BOUNDS):
    """Search Aut S x gauge for act(g, relabel(phi, c1)) = c2: backend refusals, validity, Aut S, then a solve per phi."""
    F = _refuse_backends(S, c1, c2)
    v1, v2 = _codes(S, _valid(S, c1)), _codes(S, _valid(S, c2))
    for phi in semigroup_automorphisms(S, bounds):
        key = _witness(S, F, _relabeled(S, phi, v1), v2)
        if key is not None:
            return phi, _gauge(S, F, key)
    return None


def stabilizer(S, c, bounds=DEFAULT_BOUNDS):
    """Semigroup automorphisms whose relabeling stays in the gauge orbit: per phi, whether a first slice solves, _checked."""
    F = _refuse_backends(S, c, c)
    v, out = _codes(S, _valid(S, c)), []
    for phi in semigroup_automorphisms(S, bounds):
        w = _relabeled(S, phi, v)
        first = next(_slices(S, F, v, w), None)
        if first is not None:
            _checked(S, F, v, w, *first[:2])
            out.append(phi)
    return out


def _relabel_witnesses(S, c, bounds):
    """(phi, g) for each phi of Aut S and each gauge g with act(g, relabel(phi, c)) = c, c valid over a field."""
    F, v = c.backend, _codes(S, c)
    for phi in semigroup_automorphisms(S, bounds):
        for key in _solutions(S, F, _relabeled(S, phi, v), v, bounds):
            yield phi, _gauge(S, F, key)


def verify_one_cocycle(S, base, g):
    """Does g fix the base cocycle? Checked as the fixed-point equation g . base = base."""
    return act(S, g, base, check=False) == base


def one_cocycles(S, base, bounds=DEFAULT_BOUNDS):
    """All gauge elements fixing base, in canonical order; over a field, read off one echelon form (_solutions)."""
    F, v = _fixed_codes(S, base)
    return [_gauge(S, F, key) for key in _solutions(S, F, v, v, bounds)]


def _fixed_codes(S, base, word="fixed-point"):
    """The searches' backend refusal, naming the enumeration by word, then validity; then (field, base's _codes pair)."""
    F = _backend(S, base)
    if not F.is_finite:
        raise InfiniteBackend(f"{word} enumeration needs a finite field")
    return F, _codes(S, _valid(S, base))


def one_coboundaries(S, base, bounds=DEFAULT_BOUNDS):
    """Orbit of the identity pair under the diagonal-unit action: the elements of _coboundary_gens' B^1, of the size estimated."""
    F, (a, _) = _fixed_codes(S, base, "orbit")
    b1 = _kept(S, F, a, "coboundaries", _coboundary_gens)[0]
    size = _within(b1.order, "orbit", bounds)
    image = set(b1.elements())
    if len(image) != size:
        raise WitnessRejected(f"{len(image)} coboundaries, not {size}")
    return [_gauge(S, F, key) for key in sorted(((0,) * S.n, tuple(map(F._exp.__getitem__, logs))) for logs in image)]


def _coboundary_gens(S, F, a):
    """(B^1 as a Lattice in eta logs in support order, per row of B^1 the logs of its diagonal unit).

    The diagonal units nu keep mu and send the identity pair to logs l_i - p^(a_ij) l_j over Z/(q-1), so B^1 is the
    head of the Lattice of the images of the n unit vectors l = e_k, each beside its l.
    """
    power, support, n = F._powers, S.elements(), S.n
    images = [[(k == i) - (k == j) * power[a[i, j]] for i, j in support] + [int(k == i) for i in range(1, n + 1)] for k in range(1, n + 1)]
    full = Lattice.span(images, F.q - 1, len(support) + n)
    return full.split(len(support))[0], tuple(h[len(support):] for h in full.rows if any(h[: len(support)]))


@dataclass
class H1Result:
    """|H^1| and its representatives, with the orders of Z^1 and B^1; one_cocycles and one_coboundaries list those."""

    order: int
    reps: list
    z1_order: int
    b1_order: int


def first_cohomology(S, base, bounds=DEFAULT_BOUNDS):
    """Fixing pairs modulo the identity orbit, read off the lattices of Z^1 and B^1 in eta logs; nothing is listed.

    A slice of Z^1 is l0 + K (_slices), B^1 the Lattice of _coboundary_gens, whose rows b must fix base. x B^1 is
    l_x + D_mu(B^1), D_mu scaling slot (i, j) by p^(mu_i), so B^1 is normal when it contains each D_mu(b). |H^1| =
    slices |K| / |B^1| is refused above max_search; the least member of each class of a slice comes from one walk over
    K's slots (Lattice.reps), |K| / |B^1| of them. Only the representatives become GaugeElements.
    """
    return _first_cohomology(S, *_fixed_codes(S, base), bounds)[0]


def _first_cohomology(S, F, v, bounds):
    """(first_cohomology's H1Result, _coboundary_gens) for base's _codes pair v."""
    slices, reps, n, power, support = list(_slices(S, F, v, v)), [], F.q - 1, F._powers, S.elements()
    # the identity fixes base, so the slice mu = 0 is always there; K's step rows, with mu = 0, must fix it too
    size = slices[0][2].order
    for mu, l0 in [((0,) * S.n, h) for h in slices[0][2].rows] + [s[:2] for s in slices]:
        _checked(S, F, v, v, mu, l0)
    b1, _ = gens = _kept(S, F, v[0], "coboundaries", _coboundary_gens)
    if any(_act_codes(S, F, v, (0,) * S.n, dict(zip(support, h))) != v for h in b1.rows):
        raise NotAOneCocycle("a coboundary does not fix the base cocycle")
    _within(len(slices) * size // b1.order, "H^1", bounds)
    for mu, l0, kernel in slices:
        if not all(b1.contains([x * power[mu[i - 1]] % n for x, (i, _) in zip(h, support)]) for h in b1.rows):
            raise WitnessRejected("the coboundaries are not normal in the fixing pairs")
        keys = set(kernel.reps(l0, b1, F._exp.__getitem__))
        if len(keys) * b1.order != size:
            raise WitnessRejected(f"{len(keys)} cosets of {b1.order} do not cover {size} fixing pairs")
        reps += [(mu, tuple(map(F._exp.__getitem__, logs))) for logs in keys]
    return H1Result(len(reps), [_gauge(S, F, r) for r in sorted(reps)], len(slices) * size, b1.order), gens


def _class_witnesses(S, c, bounds):
    """(H^1 of c, B^1 as (gauge, diagonal units) per step row, (phi, g) per phi of Stab_full and H^1 class), over a field.

    Each phi of Aut S with a least witness w (_witness) gets g = w r, the gauge product, for each H^1 representative r
    in order, which carries relabel(phi, c) to c; phi = id has w = 1.
    """
    F, v = _fixed_codes(S, c)
    exp, pairs = F._exp, []
    h1, (b1, logs) = _first_cohomology(S, F, v, bounds)
    for phi in semigroup_automorphisms(S, bounds):
        w = _witness(S, F, _relabeled(S, phi, v), v)
        pairs += [(phi, gauge_mul(S, _gauge(S, F, w), r)) for r in (h1.reps if w else ())]
    units = [(_gauge(S, F, ((0,) * S.n, tuple(exp[x] for x in h))), [FFElement(F, exp[x]) for x in u]) for h, u in zip(b1.rows, logs)]
    return h1, units, pairs
