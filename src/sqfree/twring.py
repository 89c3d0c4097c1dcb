"""Twisted semigroup rings: exact arithmetic plus the cocycle-driven maps.

Elements are left coefficient vectors over the support basis; scalars pass
through basis elements by the alpha twist (s_ij d = alpha_ij(d) s_ij) and
basis products pick up xi. Construction normalizes the cocycle and keeps the
gauge witness, so the stored diagonal idempotents really are idempotent.
"""

from itertools import product

from .coeff import FFElement
from .cohom import (
    GaugeElement,
    _act_codes,
    _codes,
    _elem_key,
    _gauge,
    _mu_candidates,
    _on_domain,
    normalize,
)
from .common import DEFAULT_BOUNDS, ValidationReport
from .errors import (
    InfiniteBackend,
    InvalidInput,
    MixedBackends,
    MixedRings,
    NonCentralXi,
    SearchBoundExceeded,
    WitnessRejected,
)
from .linalg import solve


class TwistedRing:
    """Left D-space on the support pairs with (alpha, xi)-twisted product."""

    __slots__ = ("S", "D", "c", "normalizer", "_core")

    def __init__(self, S, D, c, check=True):
        # an empty cocycle has no backend; normalize or _on_domain refuses it as invalid
        if c.alpha and c.backend != D:
            raise MixedBackends("cocycle over another backend than the ring")
        if check:
            c, witness = normalize(S, c)
        else:
            # corrupted-cocycle experiments construct the raw product table,
            # which reads alpha and xi at every support pair and triple
            c, witness = _on_domain(S, c), GaugeElement.identity(S, D)
        self.S = S
        self.D = D
        self.c = c
        self.normalizer = witness
        self._core = None

    @property
    def core(self):
        """The prime-field structure constants (RingCore), built on first use."""
        if self._core is None:
            self._core = RingCore(self)
        return self._core

    def __eq__(self, other):
        return isinstance(other, TwistedRing) and (other.S, other.D, other.c) == (
            self.S,
            self.D,
            self.c,
        )

    def __repr__(self):
        return f"TwistedRing(n={self.S.n}, D={self.D!r})"

    def element(self, coeffs):
        out = {}
        for p, d in coeffs.items():
            if p not in self.S.support:
                raise InvalidInput(f"pair {p} outside the support", where="coefficients")
            d = self.D.element(d)
            if not d.is_zero():
                out[p] = d
        return RingElement(self, out)

    def basis(self, i, j):
        return self.element({(i, j): self.D.one})

    def zero(self):
        return RingElement(self, {})


def _same_ring(a, b):
    if not (a.ring is b.ring or a.ring == b.ring):
        raise MixedRings("elements of different rings")


class RingElement:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = {p: d for p, d in coeffs.items() if not d.is_zero()}

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        _same_ring(self, other)
        out = dict(self.coeffs)
        for p, d in other.coeffs.items():
            out[p] = out[p] + d if p in out else d
        return RingElement(self.ring, out)

    def __neg__(self):
        return RingElement(self.ring, {p: -d for p, d in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return mul(self.ring, self, other)

    def lscale(self, d):
        d = self.ring.D.element(d)
        return RingElement(self.ring, {p: d * v for p, v in self.coeffs.items()})

    def rscale(self, d):
        # x d = sum of coeff_p alpha_p(d) s_p
        d = self.ring.D.element(d)
        alpha = self.ring.c.alpha
        return RingElement(self.ring, {p: v * alpha[p](d) for p, v in self.coeffs.items()})

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and (other.ring is self.ring or other.ring == self.ring)
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash(tuple(sorted((p, _elem_key(d)) for p, d in self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        terms = [f"({d!r})s{p[0]}{p[1]}" for p, d in sorted(self.coeffs.items())]
        return " + ".join(terms)


def mul(R, a, b):
    """Bilinear extension of (d s_ij)(d' s_jl) = d alpha_ij(d') xi(ijl) s_il."""
    _same_ring(a, b)
    if not (a.ring is R or a.ring == R):
        raise MixedRings("elements do not belong to the given ring")
    alpha, xi, smul = R.c.alpha, R.c.xi, R.S.mul
    out, right = {}, b.coeffs.items()
    for p, dv in a.coeffs.items():
        i, j = p
        ap = alpha[p]
        for q, dw in right:
            if j != q[0]:
                continue
            r = smul(p, q)
            if r is None:
                continue
            term = dv * ap(dw) * xi[(i, j, q[1])]
            out[r] = out[r] + term if r in out else term
    return RingElement(R, out)


def identity_element(R):
    return RingElement(R, {(i, i): R.D.one for i in range(1, R.S.n + 1)})


def check_associativity(R):
    """(xy)z = x(yz) on scalar-decorated composable basis chains.

    The semigroup must pass validate, which makes both bracketings of any
    other basis triple vanish together, so the chains S.tuples(3) are the
    whole sweep. Both bracketings of (d1 s_p)(d2 s_q)(d3 s_r) carry the left
    factor d1 alpha_p(d2), nonzero as D is a division ring and alpha_p an
    automorphism, so only d3 runs over the backend generators, d1 = d2 = one:
    a chain's first failure in (d1, d2, d3) order is (one, one, first failing d3).
    Each chain costs 1 + 3|generators| basis-term products: x y once, then
    (xy) z, y z and x (yz) per d3. Over a finite field they are sums of logs
    (_code_sweep), and ring elements are built only to word a failure.
    """
    srep = R.S.validate()
    if not srep.ok:
        raise InvalidInput(f"invalid semigroup {srep.as_json()}", where="semigroup")
    report = ValidationReport()
    (_code_sweep if R.D.is_finite else _element_sweep)(R, report)
    return report


def _element_sweep(R, report):
    """check_associativity's chain loop by mul: the quaternions' path, the tests' reference over a field."""
    gens = R.D.generators()
    one = gens[0]
    for p, q, r in R.S.tuples(3):
        x, y = RingElement(R, {p: one}), RingElement(R, {q: one})
        xy = mul(R, x, y)
        for d3 in gens:
            z = RingElement(R, {r: d3})
            lhs, rhs = mul(R, xy, z), mul(R, x, mul(R, y, z))
            if lhs != rhs:
                report.add("associativity", (p, q, r), f"scalars ({one!r}, {one!r}, {d3!r}): {lhs!r} != {rhs!r}")
                break


def _term(power, d, m, e, x):
    """Log of d frob^m(e) x for logs d, e and x, the basis-term product (d s_ij)(e s_jl) with alpha_ij = frob^m."""
    return d + power[m] * e + x


def _code_sweep(R, report):
    """_element_sweep over a finite field, on xi logs and Frobenius exponents.

    A chain (s_ij, s_jh, s_hl) is composable, so every product of its basis
    terms is one term and both bracketings land on s_il: the sweep compares
    two sums of logs (_term) mod q-1. Alpha and xi are read once, by
    _codes; a value from another backend raises MixedBackends, as mul
    does. A check=False ring with a zero xi, which has no log, takes _element_sweep.
    """
    F, S = R.D, R.S
    a, x = _codes(S, R.c)
    if None in x.values():
        return _element_sweep(R, report)
    power, exp, log, n = F._powers, F._exp, F._log, F.q - 1
    gens = F.generators()
    one = gens[0]
    for p, q, r in S.tuples(3):
        (i, j), (_, h), (_, l) = p, q, r
        xy = _term(power, 0, a[p], 0, x[i, j, h])
        for d3 in gens:
            e = log[d3.code]
            lhs = _term(power, xy, a[i, h], e, x[i, h, l])
            rhs = _term(power, 0, a[p], _term(power, 0, a[q], e, x[j, h, l]), x[i, j, l])
            if (lhs - rhs) % n:
                lhs, rhs = (RingElement(R, {(i, l): FFElement(F, exp[v % n])}) for v in (lhs, rhs))
                report.add("associativity", (p, q, r), f"scalars ({one!r}, {one!r}, {d3!r}): {lhs!r} != {rhs!r}")
                break


def _central_sample(D):
    if D.is_finite:
        return [D.element(a) for a in range(1, D.p)]
    return [D.one, D.element(2), D.element("1/2")]


class TensorComparison:
    """Evaluation of pure tensors d (x) k s_ij as ring elements d k s_ij."""

    __slots__ = ("ring",)

    def __init__(self, ring):
        self.ring = ring

    def apply(self, d, k, pair):
        d = self.ring.D.element(d)
        k = self.ring.D.element(k)
        if not k.is_central():
            raise NonCentralXi(f"scalar {k!r} is not central")
        return self.ring.element({pair: d * k})

    def check_on_generators(self):
        """Pure-tensor products agree with ring products, generator sweep."""
        report = ValidationReport()
        R = self.ring
        S, D = R.S, R.D
        ks = _central_sample(D)
        for p, q in product(S.elements(), repeat=2):
            target = S.mul(p, q)
            for d1, d2 in product(D.generators(), repeat=2):
                for k1, k2 in product(ks, repeat=2):
                    lhs = mul(R, self.apply(d1, k1, p), self.apply(d2, k2, q))
                    if target is None:
                        rhs = R.zero()
                    else:
                        zeta = R.c.xi[(p[0], p[1], q[1])]
                        rhs = self.apply(d1 * d2, k1 * k2 * zeta, target)
                    if lhs != rhs:
                        report.add(
                            "tensor_product",
                            (p, q),
                            f"({d1!r}, {k1!r}) x ({d2!r}, {k2!r}): {lhs!r} != {rhs!r}",
                        )
        return report


def tensor_ring(S, D, zeta):
    """Scalar extension of a central prime-subfield cocycle: D (x) K_zeta S.

    zeta must have identity alphas and central xi values; the returned
    comparison map sends the pure tensor (d, k, s_ij) to d k s_ij.
    """
    for p, a in zeta.alpha.items():
        if not a.is_identity():
            raise InvalidInput(f"alpha at {p} must be the identity", where="alpha")
    for t, v in zeta.xi.items():
        if not v.is_central():
            raise NonCentralXi(f"xi at {t} is {v!r}, not central")
    ring = TwistedRing(S, D, zeta)
    return ring, TensorComparison(ring)


def is_d_algebra(R):
    """A gauge carrying the cocycle to identity alphas and central xi, or None.

    Over a finite field the twist exponents must split as differences
    m_i - m_j along the support; the witness keeps eta = 1, so the xi part
    just gets pulled through mu and stays in the (commutative) field.
    """
    D = R.D
    if not D.is_finite:
        raise InfiniteBackend("the alpha-splitting search needs a finite field")
    S, a = R.S, _codes(R.S, R.c)[0]
    mu = next(_mu_candidates(S, a, dict.fromkeys(S.support, 0), D.k), None)
    if mu is None:
        return None
    if any(_act_codes(S, D, (a, {}), mu, dict.fromkeys(S.support, 0))[0].values()):
        raise WitnessRejected("the splitting gauge leaves a twist or a non-central xi")
    return _gauge(S, D, (mu, (1,) * len(S.support)))


def linear_basis(R):
    """Prime-field basis of the ring: power-basis scalars on each support pair."""
    return [
        RingElement(R, {p: b}) for p in R.S.elements() for b in R.D.power_basis()
    ]


def to_vector(R, x):
    vec = []
    for p in R.S.elements():
        d = x.coeffs.get(p)
        vec.extend(d.coords if d is not None else [0] * R.D.k)
    return tuple(vec)


def from_vector(R, vec):
    k = R.D.k
    out = {}
    for a, p in enumerate(R.S.elements()):
        out[p] = R.D.element(list(vec[a * k : (a + 1) * k]))
    return RingElement(R, out)


def _enumeration_guard(R, bounds):
    if not R.D.is_finite:
        raise InfiniteBackend("cannot enumerate over the quaternions")
    total = R.D.q ** len(R.S.support)
    if total > bounds.max_units:
        raise SearchBoundExceeded(f"max_units: element estimate {total} above limit {bounds.max_units}")


def _scan(R, test):
    """(element, vector, test(vector)) for each element passing test, in enumerate_elements order."""
    pairs, elems = R.S.elements(), R.D.elements()
    coords = [d.coords for d in elems]
    out = []
    for combo in product(range(R.D.q), repeat=len(pairs)):
        x = tuple(v for c in combo for v in coords[c])
        kept = test(x)
        if kept:
            out.append((RingElement(R, {p: elems[c] for p, c in zip(pairs, combo)}), x, kept))
    return out


def enumerate_elements(R, bounds=DEFAULT_BOUNDS):
    """All ring elements, lexicographic in (support pair, coefficient code)."""
    _enumeration_guard(R, bounds)
    return [x for x, _, _ in _scan(R, lambda x: True)]


def enumerate_idempotents(R, bounds=DEFAULT_BOUNDS):
    _enumeration_guard(R, bounds)
    core = R.core
    return [x for x, _, _ in _scan(R, lambda x: core.mul(x, x) == x)]


def enumerate_units(R, bounds=DEFAULT_BOUNDS):
    """Elements with a two-sided inverse, by left-regular matrix rank."""
    _enumeration_guard(R, bounds)
    return [u for u, _, _ in _scan(R, R.core.inverse)]


class RingCore:
    """Structure constants of a finite twisted ring over its prime field.

    Vectors are the to_vector coordinates over linear_basis(R). constants
    maps each (a, b) with e_a e_b != 0 to the nonzero (c, t) entries of that
    product, read once from the reference product mul; rows[a] flattens
    them to (b, c, t) triples. Products, inverses and automorphism checks
    then run on integer tuples.
    """

    __slots__ = ("p", "dim", "offset", "constants", "rows", "one", "basis", "cache")

    def __init__(self, R):
        if not R.D.is_finite:
            raise InfiniteBackend("structure constants need a finite field")
        basis = linear_basis(R)
        self.p = R.D.p
        self.dim = len(basis)
        self.offset = {pair: a * R.D.k for a, pair in enumerate(R.S.elements())}
        self.constants = {}
        for a, x in enumerate(basis):
            for b, y in enumerate(basis):
                entries = tuple((c, t) for c, t in enumerate(to_vector(R, mul(R, x, y))) if t)
                if entries:
                    self.constants[(a, b)] = entries
        rows = [[] for _ in basis]
        for (a, b), entries in self.constants.items():
            rows[a].extend((b, c, t) for c, t in entries)
        self.rows = tuple(map(tuple, rows))
        self.one = to_vector(R, identity_element(R))
        self.basis = tuple(tuple(int(r == c) for c in range(self.dim)) for r in range(self.dim))
        # per-ring tables that other modules derive from the core, e.g. Inn R
        self.cache = {}

    def mul(self, x, y):
        out = [0] * self.dim
        for a, xa in enumerate(x):
            if xa:
                for b, c, t in self.rows[a]:
                    yb = y[b]
                    if yb:
                        out[c] += xa * yb * t
        p = self.p
        return tuple([v % p for v in out])

    def left_matrix(self, x):
        """Matrix of y -> x y."""
        A = [[0] * self.dim for _ in range(self.dim)]
        for a, xa in enumerate(x):
            if xa:
                for b, c, t in self.rows[a]:
                    A[c][b] += xa * t
        p = self.p
        return tuple(tuple(v % p for v in row) for row in A)

    def inverse(self, x):
        """The two-sided inverse of x, or None when x is not a unit."""
        # x y = 1 as one column of the left multiplication matrix
        Y = solve(self.left_matrix(x), [(v,) for v in self.one], self.p)
        if Y is None:
            return None
        y = tuple(row[0] for row in Y)
        # one-sided inverses are two-sided here, but re-check both products
        if self.mul(x, y) != self.one or self.mul(y, x) != self.one:
            return None
        return y
