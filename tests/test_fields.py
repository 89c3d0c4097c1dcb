"""GF(p^k) arithmetic against a per-pair polynomial construction.

The library keeps the powers of a primitive element, their logs and Zech
logarithms, and multiplies and adds through them. The reference below
builds every entry the direct way, with one polynomial multiply and
reduction per pair, and the public operations must agree with it on every
pair.
"""

import gc
import tracemalloc
import weakref

import pytest

from sqfree.coeff import FFElement, FiniteField
from sqfree.fixtures import gf

# (p, k, monic modulus, low degree first)
FIELDS = {
    "GF2": (2, 1, None),
    "GF3": (3, 1, None),
    "GF4": (2, 2, (1, 1, 1)),
    "GF5": (5, 1, None),
    "GF7": (7, 1, None),
    "GF8": (2, 3, (1, 1, 0, 1)),
    "GF9": (3, 2, (1, 0, 1)),
    "GF16": (2, 4, (1, 1, 0, 0, 1)),
    # x has order 5 here, so x is not primitive
    "GF16-x-order-5": (2, 4, (1, 1, 1, 1, 1)),
    "GF25": (5, 2, (2, 1, 1)),
    "GF27": (3, 3, (1, 2, 0, 1)),
    "GF49": (7, 2, (1, 0, 1)),
    "GF128": (2, 7, (1, 1, 0, 0, 0, 0, 0, 1)),
    # x^3 = -4 has order 3 in GF(7)^*, so x has order 9
    "GF343": (7, 3, (4, 0, 0, 1)),
}


def _decode(code, p, k):
    out = []
    for _ in range(k):
        out.append(code % p)
        code //= p
    return out


def _encode(coeffs, p):
    code = 0
    for c in reversed(coeffs):
        code = code * p + c % p
    return code


def _mul_mod(a, b, mod, p):
    """a * b reduced modulo the monic polynomial mod, as k coefficients."""
    k = len(mod) - 1
    prod = [0] * (2 * k)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(2 * k - 1, k - 1, -1):
        c = prod[d]
        if c:
            for i, mi in enumerate(mod):
                prod[d - k + i] = (prod[d - k + i] - c * mi) % p
    return prod[:k]


def _has_monic_factor(modulus, p):
    """Trial division by every monic polynomial of degree 1 to k/2, the field test the table walk replaced."""
    k = len(modulus) - 1
    for d in range(1, k // 2 + 1):
        for code in range(p**d):
            factor, rem = _decode(code, p, d) + [1], list(modulus)
            for top in range(k, d - 1, -1):
                c = rem[top]
                for i, fi in enumerate(factor):
                    rem[top - d + i] = (rem[top - d + i] - c * fi) % p
            if not any(rem[:d]):
                return True
    return False


def reference_tables(p, k, modulus):
    """Every table entry built per pair, as the field did before Zech logs."""
    q = p**k
    mod = list(modulus) if modulus else [0, 1]
    polys = [_decode(c, p, k) for c in range(q)]
    add = [[_encode([(x + y) % p for x, y in zip(a, b)], p) for b in polys] for a in polys]
    neg = [_encode([-x % p for x in a], p) for a in polys]
    mul = [[_encode(_mul_mod(a, b, mod, p), p) for b in polys] for a in polys]
    inv = [None] + [mul[a].index(1) for a in range(1, q)]

    def power(code, e):
        acc = 1
        for _ in range(e):
            acc = mul[acc][code]
        return acc

    frob = [[power(c, p**m) for c in range(q)] for m in range(k)]
    return add, neg, mul, inv, frob


def cycle_walk_tables(p, k, modulus):
    """The private tables as the field built them by walking the whole power cycle of each candidate, least first."""
    q, n = p**k, p**k - 1
    mod = list(modulus) if modulus else [0, 1]
    for cand in range(min(2, n), q):
        g, x, exp = _decode(cand, p, k), _decode(1, p, k), [1]
        while True:
            x = _mul_mod(x, g, mod, p)
            code = _encode(x, p)
            if code == 1:
                break
            exp.append(code)
        if len(exp) == n:
            break
    log = [None] * q
    for e, code in enumerate(exp):
        log[code] = e
    zech = [2 * n] * n
    for m, code in enumerate(exp):
        bumped = code - code % p + (code + 1) % p
        if bumped:
            zech[m] = log[bumped]
    logs = log[1:]
    return {
        "_exp": exp + exp + [0] * n,
        "_log": log,
        "_zech": zech,
        "_powers": [p**m % n for m in range(k)],
        "_inv": [0] + [exp[-la] for la in logs],
        "_neg": [0] + [exp[(la + log[p - 1]) % n] for la in logs],
        "_frob": [[0] + [exp[la * p**m % n] for la in logs] for m in range(k)],
    }


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_tables_match_the_cycle_walk_build(name):
    # the least primitive candidate is now found by the order test
    # g^((q-1)/r) != 1, r a prime divisor of q - 1, and only its cycle is
    # walked; every list the field keeps must come out the same
    F = FiniteField(*FIELDS[name])
    for table, want in cycle_walk_tables(*FIELDS[name]).items():
        assert getattr(F, table) == want, table


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_public_operations_match_the_per_pair_build(name):
    p, k, modulus = FIELDS[name]
    F = FiniteField(p, k, modulus)
    add, neg, mul, inv, frob = reference_tables(p, k, modulus)
    els = F.elements()
    assert [x.code for x in els] == list(range(F.q))
    autos = [F.frobenius(m) for m in range(k)]
    for a in els:
        assert (-a).code == neg[a.code]
        if a.code:
            assert a.inverse().code == inv[a.code]
        assert [f(a).code for f in autos] == [frob[m][a.code] for m in range(k)]
        assert [(a + b).code for b in els] == add[a.code]
        assert [(a - b).code for b in els] == [add[a.code][neg[b]] for b in range(F.q)]
        assert [(a * b).code for b in els] == mul[a.code]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_kept_primitive_element_generates_the_unit_group(name):
    # g is the element of log 1
    F = FiniteField(*FIELDS[name])
    g = FFElement(F, cycle_walk_tables(*FIELDS[name])["_exp"][1 % (F.q - 1)])
    assert len({(g**e).code for e in range(F.q - 1)}) == F.q - 1


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_one_gen_power_basis_and_coords_follow_the_code_layout(name):
    p, k, modulus = FIELDS[name]
    F = FiniteField(p, k, modulus)
    assert F.one.coords == tuple(_decode(1, p, k)) and F.one * F.one == F.one
    # x, or 1 when k = 1
    assert F.gen.coords == tuple(_decode(p if k > 1 else 1, p, k))
    assert F.power_basis() == [F.gen**a for a in range(k)]
    assert [x.coords for x in F.elements()] == [tuple(_decode(code, p, k)) for code in range(F.q)]


def test_a_dropped_field_is_freed_without_the_cycle_collector():
    # the field's lists go with the last reference, not at the next
    # collection, which would hold several fields at once
    gc.disable()
    try:
        F = FiniteField(*FIELDS["GF343"])
        ref = weakref.ref(F)
        del F
        assert ref() is None
    finally:
        gc.enable()


def test_the_largest_field_builds_in_linear_memory():
    # GF(4096), the table limit, keeps O(kq) lists, about 1 MB at peak;
    # q x q product and sum tables would take over 250 MB
    tracemalloc.start()
    try:
        F = FiniteField(2, 12, (1, 0, 0, 1) + (0,) * 8 + (1,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert F.q == 4096 and F.gen**4095 == F.one
    assert peak < 8 * 2**20, peak


def test_separately_built_copies_compare_equal_and_interoperate():
    F, G = FiniteField(2, 3, (1, 1, 0, 1)), gf(8)
    assert F is not G and F == G and hash(F) == hash(G)
    for a, b in zip(F.elements(), G.elements()):
        assert a == b
        assert (a * G.gen + b).code == (b * F.gen + a).code
        assert F.frobenius(1)(b) == G.frobenius(1)(a)
    assert F != FiniteField(2, 3, (1, 0, 1, 1))


@pytest.mark.parametrize("p, k", [(p, k) for p in (2, 3, 5, 7) for k in range(1, 9) if p**k <= 343])
def test_a_modulus_is_accepted_exactly_when_trial_division_finds_no_factor(p, k):
    # every monic modulus of degree k: a field whose walk closes builds the
    # tables of the full cycle walk, any other is refused after one walk
    for code in range(p**k):
        modulus = tuple(_decode(code, p, k)) + (1,)
        if _has_monic_factor(modulus, p):
            with pytest.raises(ValueError) as info:
                FiniteField(p, k, modulus)
            assert str(info.value) == f"modulus {list(modulus)} is not irreducible over GF({p})"
        else:
            F = FiniteField(p, k, modulus)
            for table, want in cycle_walk_tables(p, k, modulus).items():
                assert getattr(F, table) == want, (modulus, table)


@pytest.mark.parametrize(
    "p, k, modulus, q",
    [(4099, 1, None, 4099), (2, 13, (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 8192)],
)
def test_table_limit_refusal_text(p, k, modulus, q):
    with pytest.raises(ValueError) as info:
        FiniteField(p, k, modulus)
    assert str(info.value) == f"field order {q} above table limit 4096"
