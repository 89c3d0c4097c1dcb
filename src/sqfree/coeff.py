"""Exact coefficient backends: GF(p^k) and the rational quaternions.

An element of a finite field is a code in [0, q) whose base-p digits are the
coordinates in the power basis 1, g, ..., g^(k-1) of a caller supplied monic
irreducible modulus, so g*g over GF(4) with modulus x^2+x+1 comes out as g+1.
A product is one sum of discrete logs and a sum one Zech logarithm lookup, in
O(kq) lists. Automorphisms are the k Frobenius powers x -> x^(p^m).

Quaternions carry four Fractions. Every automorphism is conjugation by a
nonzero quaternion (Skolem-Noether); the conjugator is stored canonically as
an integer 4-tuple with content 1 and positive leading coordinate, which
makes equality of automorphisms a tuple comparison.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import DivisionByZero, InfiniteBackend, MixedBackends, ZeroConjugator

_FIELD_TABLE_LIMIT = 4096


def _is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _poly_trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_divmod(a, b, p):
    # b monic
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    q = [0] * max(da - db + 1, 0)
    while len(_poly_trim(a)) - 1 >= db:
        da = len(a) - 1
        c = a[da]
        q[da - db] = c
        for i, bi in enumerate(b):
            a[da - db + i] = (a[da - db + i] - c * bi) % p
    return q, _poly_trim(a)


def _poly_pow(a, e, mod, p):
    """a^e modulo the monic mod, by square-and-multiply."""
    out = [1]
    while e:
        if e & 1:
            out = _poly_divmod(_poly_mul(out, a, p), mod, p)[1]
        a, e = _poly_divmod(_poly_mul(a, a, p), mod, p)[1], e >> 1
    return out


def _monic_polys(p, deg):
    # all monic polynomials of the given degree, as coefficient lists
    coeffs = [0] * deg
    while True:
        yield coeffs[:] + [1]
        i = 0
        while i < deg:
            coeffs[i] += 1
            if coeffs[i] < p:
                break
            coeffs[i] = 0
            i += 1
        else:
            return


def _check_irreducible(modulus, p, k):
    for d in range(1, k // 2 + 1):
        for cand in _monic_polys(p, d):
            _, rem = _poly_divmod(list(modulus), cand, p)
            if not rem:
                raise ValueError(f"modulus {list(modulus)} divisible by {cand} over GF({p})")


# _divide and _power serve both element classes; each class binds them in its
# own dict, where perfbench/tracer.py looks the element operations up
def _divide(self, other):
    self._same(other)
    return self * other.inverse()


def _power(self, n):
    base = self if n >= 0 else self.inverse()
    n = abs(n)
    acc = self.field.one
    while n:
        if n & 1:
            acc = acc * base
        base = base * base
        n >>= 1
    return acc


class FFElement:
    __slots__ = ("field", "code")

    def __init__(self, field, code):
        self.field = field
        self.code = code

    @property
    def coords(self):
        return tuple(self.field._decode(self.code))

    def is_zero(self):
        return self.code == 0

    def is_central(self):
        return True

    # backend checks test the class and the field's identity first, so
    # FiniteField.__eq__ runs only for two distinct field objects
    def _same(self, other):
        if not (other.__class__ is FFElement and (other.field is self.field or other.field == self.field)):
            raise MixedBackends(f"cannot combine {self!r} with {other!r}")

    def __add__(self, other):
        self._same(other)
        f, a, b = self.field, self.code, other.code
        if a and b:
            # g^x + g^y = g^(x + Z(y - x)), Z the Zech logarithm
            x = f._log[a]
            return FFElement(f, f._exp[x + f._zech[f._log[b] - x]])
        return FFElement(f, a or b)

    def __sub__(self, other):
        self._same(other)
        return self + -other

    def __neg__(self):
        return FFElement(self.field, self.field._neg[self.code])

    def __mul__(self, other):
        self._same(other)
        f, a, b = self.field, self.code, other.code
        return FFElement(f, f._exp[f._log[a] + f._log[b]] if a and b else 0)

    def inverse(self):
        if self.code == 0:
            raise DivisionByZero("inverse of 0")
        return FFElement(self.field, self.field._inv[self.code])

    __truediv__ = _divide
    __pow__ = _power

    def __eq__(self, other):
        return (
            other.__class__ is FFElement
            and other.code == self.code
            and (other.field is self.field or other.field == self.field)
        )

    def __hash__(self):
        return hash((self.field, self.code))

    def __repr__(self):
        terms = []
        for a, c in enumerate(self.coords):
            if not c:
                continue
            gpow = "1" if a == 0 else ("g" if a == 1 else f"g^{a}")
            terms.append(gpow if c == 1 and a > 0 else (str(c) if a == 0 else f"{c}g" if a == 1 else f"{c}g^{a}"))
        return "+".join(terms) if terms else "0"


class FieldAutomorphism:
    """Frobenius power x -> x^(p^m)."""

    __slots__ = ("field", "m")

    def __init__(self, field, m):
        self.field = field
        self.m = m % field.k

    def __call__(self, x):
        f = self.field
        if not (x.__class__ is FFElement and (x.field is f or x.field == f)):
            raise MixedBackends(f"automorphism of {f} applied to {x!r}")
        return FFElement(f, f._frob[self.m][x.code])

    def __mul__(self, other):
        # (a*b)(x) = a(b(x))
        f = self.field
        if not (other.__class__ is FieldAutomorphism and (other.field is f or other.field == f)):
            raise MixedBackends("composing automorphisms of different fields")
        return FieldAutomorphism(f, self.m + other.m)

    def inverse(self):
        return FieldAutomorphism(self.field, -self.m)

    def is_identity(self):
        return self.m == 0

    def __eq__(self, other):
        return (
            other.__class__ is FieldAutomorphism
            and other.m == self.m
            and (other.field is self.field or other.field == self.field)
        )

    def __hash__(self):
        return hash((self.field, "frob", self.m))

    def __repr__(self):
        return f"frob^{self.m}"


class FiniteField:
    """GF(p^k) with modulus-defined power basis and precomputed log lists."""

    def __init__(self, p, k=1, modulus=None):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("k must be positive")
        if modulus is None:
            if k == 1:
                modulus = (0, 1)
            else:
                raise ValueError("an explicit monic irreducible modulus is required for k > 1")
        modulus = tuple(c % p for c in modulus[:-1]) + (modulus[-1],)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {k}")
        self.p, self.k, self.modulus = p, k, modulus
        self.q = p**k
        # before the irreducibility test, which tries all monic polynomials up to degree k/2
        if self.q > _FIELD_TABLE_LIMIT:
            raise ValueError(f"field order {self.q} above table limit {_FIELD_TABLE_LIMIT}")
        _check_irreducible(modulus, p, k)
        self._build_tables()

    # fields compare by defining data so separately built copies interoperate
    def __eq__(self, other):
        return self is other or (
            isinstance(other, FiniteField)
            and (other.p, other.k, other.modulus) == (self.p, self.k, self.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.q})" if self.k > 1 else f"GF({self.p})"

    def _decode(self, code):
        """Coordinates c_a on the power basis x^a of the element with code sum c_a p^a."""
        out, c = [], code
        for _ in range(self.k):
            out.append(c % self.p)
            c //= self.p
        return out

    def _encode(self, coeffs):
        code = 0
        for c in reversed(coeffs[: self.k] + [0] * (self.k - len(coeffs))):
            code = code * self.p + (c % self.p)
        return code

    def _build_tables(self):
        # Zech logarithms (Lidl & Niederreiter, Finite Fields): with g
        # primitive, g^x * g^y = g^(x+y) and g^x + g^y = g^(x + Z[y-x]),
        # Z[m] = log(1 + g^m). Only the choice of g and the walk over its
        # powers use polynomial arithmetic; every list is a gather.
        p, q, mod = self.p, self.q, list(self.modulus)
        n = q - 1
        # the least candidate of order n: g^(n/r) != 1 for every prime r | n
        primes = [r for r in range(2, n + 1) if n % r == 0 and _is_prime(r)]
        for cand in range(min(2, n), q):
            gpoly = _poly_trim(self._decode(cand))
            if all(self._encode(_poly_pow(gpoly, n // r, mod, p)) != 1 for r in primes):
                break
        x, exp = [1], [1]
        for _ in range(n - 1):
            x = _poly_divmod(_poly_mul(x, gpoly, p), mod, p)[1]
            exp.append(self._encode(x))
        log = [None] * q  # a zero has no log
        for e, code in enumerate(exp):
            log[code] = e
        # 1 + g^m bumps digit 0 of the code; 1 + g^m = 0 gets the sentinel 2n,
        # which lands in the zero tail of _exp
        zech = [2 * n] * n
        for m, code in enumerate(exp):
            bumped = code - code % p + (code + 1) % p
            if bumped:
                zech[m] = log[bumped]
        # g^e has code _exp[e] for e < 2n, a sum of two logs, and 0 from 2n on;
        # a Zech index, a difference of logs, wraps; frob^m multiplies a log by _powers[m]
        self._exp, self._log, self._zech = exp + exp + [0] * n, log, zech
        self._powers = [p**m % n for m in range(self.k)]
        logs = log[1:]
        self._inv = [0] + [exp[-la] for la in logs]
        minus_one = log[p - 1]
        self._neg = [0] + [exp[(la + minus_one) % n] for la in logs]
        self._frob = [[0] + [exp[la * power % n] for la in logs] for power in self._powers]

    @property
    def is_commutative(self):
        return True

    @property
    def is_finite(self):
        return True

    def element(self, coords):
        if isinstance(coords, FFElement):
            if coords.field != self:
                raise MixedBackends("element of a different field")
            return coords
        if isinstance(coords, int):
            return FFElement(self, self._encode([coords]))
        if len(coords) > self.k:
            raise ValueError(f"{len(coords)} coordinates for a field of degree {self.k}")
        return FFElement(self, self._encode([c % self.p for c in coords]))

    @property
    def zero(self):
        return FFElement(self, 0)

    @property
    def one(self):
        return FFElement(self, 1)

    @property
    def gen(self):
        """Residue class of x; equals 1 when k = 1."""
        return FFElement(self, self.p if self.k > 1 else 1)

    def generators(self):
        """Additive-basis coefficients used in exhaustive product checks."""
        return [self.one, self.gen] if self.k > 1 else [self.one]

    def power_basis(self):
        return [FFElement(self, self.p**a) for a in range(self.k)]

    def elements(self):
        return [FFElement(self, c) for c in range(self.q)]

    def units(self):
        return [FFElement(self, c) for c in range(1, self.q)]

    def automorphisms(self):
        return [FieldAutomorphism(self, m) for m in range(self.k)]

    def identity_automorphism(self):
        return FieldAutomorphism(self, 0)

    def frobenius(self, m=1):
        return FieldAutomorphism(self, m)

    def inner_automorphism(self, d):
        if not self._code_of(d, "conjugator"):
            raise ZeroConjugator("conjugation by 0")
        return FieldAutomorphism(self, 0)

    def _code_of(self, x, what):
        """The code of x, an element of this field; MixedBackends naming what otherwise."""
        if not (x.__class__ is FFElement and (x.field is self or x.field == self)):
            raise MixedBackends(f"{what} from a different backend")
        return x.code

    def _exponent_of(self, a, what):
        """The Frobenius exponent of a, an automorphism of this field; MixedBackends naming what otherwise."""
        if not (a.__class__ is FieldAutomorphism and (a.field is self or a.field == self)):
            raise MixedBackends(f"{what} from a different backend")
        return a.m

    def random_element(self, rng):
        return FFElement(self, rng.randrange(self.q))

    def random_unit(self, rng):
        return FFElement(self, rng.randrange(1, self.q))

    def random_automorphism(self, rng):
        return FieldAutomorphism(self, rng.randrange(self.k))


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ValueError(f"not an exact rational: {x!r}")


class QuatElement:
    __slots__ = ("field", "parts")

    def __init__(self, field, parts):
        self.field = field
        self.parts = tuple(_frac(x) for x in parts)

    def is_zero(self):
        return all(x == 0 for x in self.parts)

    def is_central(self):
        return self.parts[1] == 0 and self.parts[2] == 0 and self.parts[3] == 0

    def _same(self, other):
        if not isinstance(other, QuatElement):
            raise MixedBackends(f"cannot combine {self!r} with {other!r}")

    def __add__(self, other):
        self._same(other)
        return QuatElement(self.field, tuple(x + y for x, y in zip(self.parts, other.parts)))

    def __sub__(self, other):
        self._same(other)
        return QuatElement(self.field, tuple(x - y for x, y in zip(self.parts, other.parts)))

    def __neg__(self):
        return QuatElement(self.field, tuple(-x for x in self.parts))

    def __mul__(self, other):
        self._same(other)
        a1, b1, c1, d1 = self.parts
        a2, b2, c2, d2 = other.parts
        return QuatElement(
            self.field,
            (
                a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
            ),
        )

    def conjugate(self):
        a, b, c, d = self.parts
        return QuatElement(self.field, (a, -b, -c, -d))

    def norm2(self):
        return sum(x * x for x in self.parts)

    def inverse(self):
        n = self.norm2()
        if n == 0:
            raise DivisionByZero("inverse of 0")
        return QuatElement(self.field, tuple(x / n for x in self.conjugate().parts))

    __truediv__ = _divide
    __pow__ = _power

    def __eq__(self, other):
        return isinstance(other, QuatElement) and other.parts == self.parts

    def __hash__(self):
        return hash(("quat", self.parts))

    def __repr__(self):
        names = ("", "i", "j", "k")
        terms = []
        for x, nm in zip(self.parts, names):
            if x == 0:
                continue
            s = str(x) if not nm else (nm if x == 1 else f"-{nm}" if x == -1 else f"{x}{nm}")
            terms.append(s)
        out = "+".join(terms) if terms else "0"
        return out.replace("+-", "-")


def _canonical_conjugator(parts):
    if all(x == 0 for x in parts):
        raise ZeroConjugator("conjugation by 0")
    mult = lcm(*(x.denominator for x in parts))
    ints = [int(x * mult) for x in parts]
    content = gcd(*(abs(v) for v in ints))
    ints = [v // content for v in ints]
    for v in ints:
        if v:
            if v < 0:
                ints = [-w for w in ints]
            break
    return tuple(ints)


class QuaternionAutomorphism:
    """Conjugation x -> q x q^(-1), q stored as a canonical integer 4-tuple."""

    __slots__ = ("field", "conjugator")

    def __init__(self, field, q_parts):
        self.field = field
        self.conjugator = _canonical_conjugator(tuple(_frac(x) for x in q_parts))

    def _q(self):
        return QuatElement(self.field, self.conjugator)

    def __call__(self, x):
        if not isinstance(x, QuatElement):
            raise MixedBackends(f"quaternion automorphism applied to {x!r}")
        q = self._q()
        return q * x * q.inverse()

    def __mul__(self, other):
        if not isinstance(other, QuaternionAutomorphism):
            raise MixedBackends("composing automorphisms of different backends")
        return QuaternionAutomorphism(self.field, (self._q() * other._q()).parts)

    def inverse(self):
        return QuaternionAutomorphism(self.field, self._q().conjugate().parts)

    def is_identity(self):
        return self.conjugator[1:] == (0, 0, 0)

    def __eq__(self, other):
        return isinstance(other, QuaternionAutomorphism) and other.conjugator == self.conjugator

    def __hash__(self):
        return hash(("conj", self.conjugator))

    def __repr__(self):
        return f"conj({QuatElement(self.field, self.conjugator)!r})"


class Quaternions:
    """Quaternion algebra over the rationals; a division ring, center Q."""

    @property
    def is_commutative(self):
        return False

    @property
    def is_finite(self):
        return False

    def __eq__(self, other):
        return isinstance(other, Quaternions)

    def __hash__(self):
        return hash("rational_quaternions")

    def __repr__(self):
        return "H(Q)"

    def element(self, parts):
        if isinstance(parts, QuatElement):
            return parts
        if isinstance(parts, (int, Fraction, str)):
            return QuatElement(self, (parts, 0, 0, 0))
        return QuatElement(self, parts)

    @property
    def zero(self):
        return QuatElement(self, (0, 0, 0, 0))

    @property
    def one(self):
        return QuatElement(self, (1, 0, 0, 0))

    @property
    def i(self):
        return QuatElement(self, (0, 1, 0, 0))

    @property
    def j(self):
        return QuatElement(self, (0, 0, 1, 0))

    @property
    def k(self):
        return QuatElement(self, (0, 0, 0, 1))

    def generators(self):
        return [self.one, self.i, self.j]

    def elements(self):
        raise InfiniteBackend("cannot enumerate the rational quaternions")

    def units(self):
        raise InfiniteBackend("cannot enumerate quaternion units")

    def automorphisms(self):
        raise InfiniteBackend("cannot enumerate quaternion automorphisms")

    def identity_automorphism(self):
        return QuaternionAutomorphism(self, (1, 0, 0, 0))

    def inner_automorphism(self, d):
        if not isinstance(d, QuatElement):
            raise MixedBackends("conjugator from a different backend")
        return QuaternionAutomorphism(self, d.parts)

    def random_element(self, rng):
        return QuatElement(self, tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)))

    def random_unit(self, rng):
        while True:
            x = self.random_element(rng)
            if not x.is_zero():
                return x

    def random_automorphism(self, rng):
        return self.inner_automorphism(self.random_unit(rng))
