"""Coefficient backends: frozen arithmetic facts computed by hand."""

import random
from fractions import Fraction

import pytest

from sqfree.coeff import FiniteField, Quaternions
from sqfree.errors import DivisionByZero, InfiniteBackend, MixedBackends, ZeroConjugator
from sqfree.fixtures import gf


def test_gf2_addition():
    F = gf(2)
    assert F.one + F.one == F.zero


def test_gf4_generator_square():
    # modulus x^2 + x + 1, so g*g = g + 1
    F = gf(4)
    g = F.gen
    assert g * g == F.element([1, 1])
    assert g * g * g == F.one
    assert (g + F.one) * g == F.one  # g^2 * g = g^3


def test_gf4_frobenius():
    F = gf(4)
    fr = F.frobenius(1)
    assert fr(F.gen) == F.element([1, 1])  # g^2 = g + 1
    assert fr(F.one) == F.one
    assert (fr * fr).is_identity()


def test_gf8_frobenius_composition():
    F = gf(8)
    assert F.frobenius(1) * F.frobenius(2) == F.frobenius(0)
    assert (F.frobenius(2)).inverse() == F.frobenius(1)


def test_gf9_arithmetic():
    # modulus x^2 + 1 over GF(3): g^2 = -1 = 2
    F = gf(9)
    g = F.gen
    assert g * g == F.element([2])
    assert len(F.units()) == 8
    for u in F.units():
        assert u * u.inverse() == F.one


def test_field_inverse_of_zero():
    with pytest.raises(DivisionByZero):
        gf(4).zero.inverse()


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(MixedBackends):
        gf(2).one + gf(3).one
    with pytest.raises(MixedBackends):
        gf(4).one * Quaternions().one
    # every operation refuses an element of another field, a quaternion and
    # a bare int, as the operand and as the argument of an automorphism
    F = gf(4)
    x, fr = F.gen, F.frobenius(1)
    ops = (lambda y: x + y, lambda y: x - y, lambda y: x * y, lambda y: x / y, fr, F.inner_automorphism)
    for y in (gf(2).one, gf(8).gen, Quaternions().one, 1):
        for op in ops:
            with pytest.raises(MixedBackends):
                op(y)
    for other in (gf(2).frobenius(0), gf(8).frobenius(1), Quaternions().identity_automorphism(), 1):
        with pytest.raises(MixedBackends):
            fr * other
    with pytest.raises(ZeroConjugator):
        F.inner_automorphism(F.zero)
    # equality: False across fields, True across separately built copies
    G = FiniteField(2, 2, (1, 1, 1))
    assert F is not G
    assert gf(2).one != gf(3).one and gf(2).one != gf(4).one and F.one != 1
    assert F.frobenius(0) != gf(2).frobenius(0) and F.frobenius(0) != gf(8).frobenius(0)
    assert F.gen == G.gen and F.frobenius(1) == G.frobenius(1)
    assert F.gen + G.one == G.gen + F.one and fr(G.gen) == G.frobenius(1)(F.gen)
    assert F.inner_automorphism(G.gen) == G.identity_automorphism()


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError) as info:
        FiniteField(2, 2, (1, 0, 1))  # x^2+1 = (x+1)^2 over GF(2)
    assert str(info.value) == "modulus [1, 0, 1] is not irreducible over GF(2)"
    with pytest.raises(ValueError) as info:
        FiniteField(3, 2, (2, 0, 1))  # x^2+2 = (x+1)(x+2) over GF(3)
    assert str(info.value) == "modulus [2, 0, 1] is not irreducible over GF(3)"


def test_element_refuses_coordinates_beyond_the_degree():
    # [1, 0, 1] once dropped its x^2 coordinate and read as one
    F = FiniteField(2, 2, (1, 1, 1))
    with pytest.raises(ValueError, match="3 coordinates for a field of degree 2"):
        F.element([1, 0, 1])
    assert F.element([1]) == F.one and F.element([0, 1]) == F.gen
    assert F.element([]) == F.zero


def test_field_value_equality():
    assert gf(4) == FiniteField(2, 2, (1, 1, 1))
    assert gf(4) != FiniteField(2, 1)


def test_all_field_axioms_small():
    for q in (2, 3, 4, 8, 9):
        F = gf(q)
        els = F.elements()
        assert len(els) == q
        for a in els:
            assert a + F.zero == a
            assert a * F.one == a
        # commutativity and distributivity, spot-checked exhaustively for small q
        if q <= 4:
            for a in els:
                for b in els:
                    assert a + b == b + a
                    assert a * b == b * a
                    for c in els:
                        assert a * (b + c) == a * b + a * c
                        assert (a * b) * c == a * (b * c)


def test_frobenius_is_multiplicative_and_additive():
    for q in (4, 8, 9):
        F = gf(q)
        for m in range(F.k):
            fr = F.frobenius(m)
            for a in F.elements():
                for b in F.elements():
                    assert fr(a + b) == fr(a) + fr(b)
                    assert fr(a * b) == fr(a) * fr(b)


def test_quaternion_table():
    H = Quaternions()
    i, j, k, one = H.i, H.j, H.k, H.one
    assert i * j == k
    assert j * i == -k
    assert j * k == i
    assert k * i == j
    assert i * i == -one
    assert j * j == -one
    assert k * k == -one


def test_quaternion_inverse():
    H = Quaternions()
    x = H.element(("1/2", "-2/3", "0", "5"))
    assert x * x.inverse() == H.one
    assert x.inverse() * x == H.one
    with pytest.raises(DivisionByZero):
        H.zero.inverse()


def test_conjugation_by_i_sends_j_to_minus_j():
    H = Quaternions()
    conj_i = H.inner_automorphism(H.i)
    assert conj_i(H.j) == -H.j
    assert conj_i(H.i) == H.i
    assert conj_i(H.k) == -H.k


def test_conjugator_canonical_form():
    H = Quaternions()
    a = H.inner_automorphism(H.element(("1/2", "1/2", "0", "0")))
    b = H.inner_automorphism(H.element((3, 3, 0, 0)))
    c = H.inner_automorphism(H.element((-1, -1, 0, 0)))
    assert a == b == c
    assert a.conjugator == (1, 1, 0, 0)


def test_conjugation_composition_is_product():
    # conj_i after conj_j acts through the product i*j = k
    H = Quaternions()
    comp = H.inner_automorphism(H.i) * H.inner_automorphism(H.j)
    assert comp == H.inner_automorphism(H.k)
    assert comp.conjugator == (0, 0, 0, 1)


def test_conjugation_inverse():
    H = Quaternions()
    q = H.element((1, 2, 0, -1))
    a = H.inner_automorphism(q)
    assert (a * a.inverse()).is_identity()
    rng = random.Random(7)
    for _ in range(20):
        x = H.random_element(rng)
        assert a.inverse()(a(x)) == x


def test_zero_conjugator_rejected():
    with pytest.raises(ZeroConjugator):
        Quaternions().inner_automorphism(Quaternions().zero)


def test_quaternion_enumerations_unavailable():
    H = Quaternions()
    with pytest.raises(InfiniteBackend):
        H.units()
    with pytest.raises(InfiniteBackend):
        H.automorphisms()


def test_central_detection():
    H = Quaternions()
    assert H.element(("7/3", 0, 0, 0)).is_central()
    assert not H.element((0, 1, 0, 0)).is_central()
    assert gf(9).gen.is_central()


def test_quaternion_automorphism_fixes_center():
    H = Quaternions()
    rng = random.Random(3)
    for _ in range(10):
        a = H.inner_automorphism(H.random_unit(rng))
        assert a(H.element((Fraction(5, 7), 0, 0, 0))) == H.element((Fraction(5, 7), 0, 0, 0))
