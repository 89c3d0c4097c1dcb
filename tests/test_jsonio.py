"""JSON wire formats: decode(encode(x)) == x on random inputs.

Semigroups come from the seeded generator in tests/test_sgrp.py; each runs
over GF(2, 3, 4, 8, 9) and the rational quaternions. Every value also
passes through the canonical text form, json.loads(dumps(...)), as the
command line sends it.
"""

import json
import random
from fractions import Fraction

import pytest

from sqfree import cohom, jsonio
from sqfree.autos import InnerWitness, RingAut, sigma, tau
from sqfree.coeff import FieldAutomorphism, FiniteField, QuaternionAutomorphism, Quaternions
from sqfree.cohom import (
    GaugeElement,
    TwoCocycle,
    act,
    random_cochain,
    random_gauge,
    verify_two_cocycle,
)
from sqfree.common import ValidationReport
from sqfree.errors import InvalidInput
from sqfree.fixtures import gf, quaternions, t2
from sqfree.sgrp import SquareFreeSemigroup
from sqfree.twring import TwistedRing, from_vector, to_vector
from test_sgrp import random_semigroup
from test_twring import random_ring_element

SEEDS = range(8)
BACKENDS = {f"GF{q}": lambda q=q: gf(q) for q in (2, 3, 4, 8, 9)} | {"quaternions": quaternions}


def wire(obj):
    return json.loads(jsonio.dumps(obj))


def gauged_cocycle(S, D, rng):
    """A random gauge applied to a difference-pattern Frobenius cocycle (trivial over the quaternions)."""
    c = TwoCocycle.trivial(S, D)
    if D.is_finite:
        ms = {i: rng.randrange(D.k) for i in range(1, S.n + 1)}
        c = TwoCocycle({(i, j): D.frobenius(ms[i] - ms[j]) for (i, j) in S.support}, c.xi)
    return act(S, random_gauge(S, D, rng), c, check=False)


def a_unit(R, rng):
    while True:
        x = to_vector(R, random_ring_element(R, rng))
        y = R.core.inverse(x)
        if y is not None:
            return from_vector(R, x), from_vector(R, y)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_encode_decode_round_trips(seed, backend):
    rng = random.Random(seed)
    S = random_semigroup(rng, rng.randint(1, 4))
    D = BACKENDS[backend]()
    assert jsonio.decode_semigroup(wire(jsonio.encode_semigroup(S))) == S
    assert jsonio.decode_coefficients(wire(jsonio.encode_coefficients(D))) == D

    c = gauged_cocycle(S, D, rng)
    assert jsonio.decode_cocycle(S, D, wire(jsonio.encode_cocycle(c))) == c
    for _ in range(3):
        g = random_gauge(S, D, rng)
        assert jsonio.decode_gauge(S, D, wire(jsonio.encode_gauge(g))) == g
    for m in range(4):
        phi = random_cochain(S, m, D, rng)
        assert jsonio.decode_cochain(S, D, wire(jsonio.encode_cochain(phi))) == phi

    R = TwistedRing(S, D, c)
    for _ in range(3):
        x = random_ring_element(R, rng)
        assert jsonio.decode_ring_element(R, wire(jsonio.encode_ring_element(x))) == x
    if not D.is_finite:
        return
    # a Frobenius fixing pair of the trivial cocycle, and a unit conjugation of R
    T = TwistedRing(S, D, TwoCocycle.trivial(S, D))
    frob = GaugeElement({i: D.frobenius(1 % D.k) for i in range(1, S.n + 1)}, {p: D.one for p in S.support})
    u, v = a_unit(R, rng)
    for f in (sigma(T, frob), tau(R, InnerWitness((u,), (v,)))):
        images = wire(jsonio.encode_ring_aut(f))["images"]
        cols = [
            to_vector(f.ring, jsonio.decode_ring_element(f.ring, images[f"{i},{j}:{t}"]))
            for i, j in S.elements()
            for t in range(D.k)
        ]
        assert RingAut(f.ring, tuple(zip(*cols))) == f


# ------------------------------------------------------- refusal references
#
# The decoders as they read before their bulk checks: every integer is
# checked, and every JSON path built, as it is read. The library must refuse
# each malformed input with the same text at the same path. The one change
# is the canonical key rule: ref_indices still parses "01,1,2" as (1, 1, 2),
# which the library refuses (test_index_keys_must_be_canonical).


def ref_expect(cond, message, where):
    if not cond:
        raise InvalidInput(message, where=where)


def ref_as_int(obj, where):
    ref_expect(isinstance(obj, int) and not isinstance(obj, bool), "expected an integer", where)
    return obj


def ref_int_list(obj, length, where):
    ref_expect(isinstance(obj, list) and len(obj) == length, f"expected a list of {length} integers", where)
    return [ref_as_int(x, f"{where}[{a}]") for a, x in enumerate(obj)]


def ref_indices(key, where):
    try:
        parts = tuple(int(x) for x in key.split(","))
    except ValueError:
        raise InvalidInput(f"key {key!r} is not a comma-separated index tuple", where=where)
    ref_expect(all(x > 0 for x in parts), "indices are 1-based", where)
    return parts


def ref_decode_element(D, obj, where):
    if isinstance(D, Quaternions):
        ref_expect(isinstance(obj, list) and len(obj) == 4, "expected four rational strings", where)
        return D.element(tuple(jsonio._fraction(v, f"{where}[{a}]") for a, v in enumerate(obj)))
    coords = ref_int_list(obj, D.k, where)
    ref_expect(all(0 <= c < D.p for c in coords), f"coordinates must lie in [0,{D.p})", where)
    return D.element(coords)


def ref_decode_automorphism(D, obj, where):
    ref_expect(isinstance(obj, dict), "expected an object", where)
    if isinstance(D, Quaternions):
        parts = obj.get("conj")
        ref_expect(parts is not None, 'quaternion automorphisms are {"conj": [...]}', where)
        ref_expect(isinstance(parts, list) and len(parts) == 4, "expected four rational strings", f"{where}.conj")
        q = tuple(jsonio._fraction(v, f"{where}.conj[{a}]") for a, v in enumerate(parts))
        ref_expect(any(v != 0 for v in q), "conjugator must be nonzero", f"{where}.conj")
        return QuaternionAutomorphism(D, q)
    m = obj.get("frobenius")
    ref_expect(m is not None, 'field automorphisms are {"frobenius": m}', where)
    m = ref_as_int(m, f"{where}.frobenius")
    ref_expect(0 <= m < D.k, f"exponent must lie in [0,{D.k})", f"{where}.frobenius")
    return D.frobenius(m)


def ref_decode_semigroup(obj, where="semigroup"):
    ref_expect(isinstance(obj, dict), "expected an object", where)
    n = ref_as_int(obj.get("n"), f"{where}.n")
    ref_expect(n >= 1, "n must be positive", f"{where}.n")
    support = obj.get("support")
    ref_expect(isinstance(support, list), "expected a list of pairs", f"{where}.support")
    pairs = [tuple(ref_int_list(p, 2, f"{where}.support[{a}]")) for a, p in enumerate(support)]
    comp = obj.get("comp", [])
    ref_expect(isinstance(comp, list), "expected a list of triples", f"{where}.comp")
    triples = [tuple(ref_int_list(t, 3, f"{where}.comp[{a}]")) for a, t in enumerate(comp)]
    return SquareFreeSemigroup.make(n, pairs, triples)


def ref_entries(D, decode, obj, where, domain, what, units=None):
    ref_expect(isinstance(obj, dict), "expected an object", where)
    out = {}
    for key, enc in obj.items():
        path = f"{where}.{key}"
        idx = ref_indices(key, path)
        ref_expect(idx in domain, f"{key!r} is not {what}", path)
        out[idx] = v = decode(D, enc, path)
        if units:
            ref_expect(not v.is_zero(), f"{units} values must be units", path)
    return out


def ref_decode_cocycle(S, D, obj, where="cocycle"):
    ref_expect(isinstance(obj, dict), "expected an object", where)
    alpha = {p: D.identity_automorphism() for p in S.support}
    xi = {t: D.one for t in S.comp}
    alpha.update(ref_entries(D, ref_decode_automorphism, obj.get("alpha", {}), f"{where}.alpha", S.support, "a support pair"))
    xi.update(ref_entries(D, ref_decode_element, obj.get("xi", {}), f"{where}.xi", S.comp, "a composable triple", "xi"))
    return TwoCocycle(alpha, xi)


def ref_decode_gauge(S, D, obj, where="gauge"):
    ref_expect(isinstance(obj, dict), "expected an object", where)
    mu = {i: D.identity_automorphism() for i in range(1, S.n + 1)}
    eta = {p: D.one for p in S.support}
    domain = {(i,) for i in mu}
    given = ref_entries(D, ref_decode_automorphism, obj.get("mu", {}), f"{where}.mu", domain, "an idempotent index")
    mu.update((i, a) for (i,), a in given.items())
    eta.update(ref_entries(D, ref_decode_element, obj.get("eta", {}), f"{where}.eta", S.support, "a support pair", "eta"))
    return GaugeElement(mu, eta)


def ref_verify_two_cocycle(S, c):
    """verify_two_cocycle with its domain and backend listings built on every call."""
    rep = ValidationReport()
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
    if not rep.ok:
        return rep
    D = c.backend
    for t in sorted(S.comp):
        v = c.xi[t]
        if v.field != D or v.is_zero():
            rep.add("xi_not_unit", t, repr(v))
    for p in sorted(S.support):
        if c.alpha[p].field != D:
            rep.add("mixed_backends", p)
    if rep.ok:
        cohom._element_identities(S, c, D, rep)
    return rep


def refusal(text, where):
    return ("refused", f"{where}: {text}", where)


def outcome(decode, *args):
    """("ok", value) or ("refused", text, JSON path)."""
    try:
        return ("ok", decode(*args))
    except InvalidInput as exc:
        return ("refused", str(exc), exc.where)


# ------------------------------------------------------- malformed bundles

NOT_INTS = (True, False, 1.0, 2.5, "1", None, [1])


def bad_rows(rng, rows, length):
    """rows with one entry spoiled: a non-integer, a wrong length, or a non-list."""
    rows = [list(r) for r in rows]
    a = rng.randrange(len(rows))
    kind = rng.randrange(4)
    if kind == 0:
        rows[a][rng.randrange(length)] = rng.choice(NOT_INTS)
    elif kind == 1:
        rows[a] = rows[a][: rng.randrange(length)]
    elif kind == 2:
        rows[a] = rows[a] + [1]
    else:
        rows[a] = rng.choice(NOT_INTS[:5] + ({"1": 1}, (1, 2)))
    return rows


def malformed_semigroups(S, rng):
    good = jsonio.encode_semigroup(S)
    out = [good]
    for field, length in (("support", 2), ("comp", 3)):
        if good[field]:
            for _ in range(4):
                out.append({**good, field: bad_rows(rng, good[field], length)})
        out.append({**good, field: rng.choice(NOT_INTS + ({},))})
    out.append({**good, "n": rng.choice(NOT_INTS[:5] + (0, -1))})
    out.append({k: v for k, v in good.items() if k != "comp"})
    out.append([good])
    return out


def bad_value(D, rng, enc, zero=True):
    """An element encoding with one defect: its type, its length, a coordinate or, if zero, its value."""
    kinds = ["type", "short", "long", "entry"] + (["zero"] if zero else [])
    kind = rng.choice(kinds + ([] if isinstance(D, Quaternions) else ["range"]))
    enc = list(enc)
    if kind == "type":
        return rng.choice(({"0": 1}, "1", 1, None, True))
    if kind == "short":
        return enc[:-1]
    if kind == "long":
        return enc + enc[:1]
    if kind == "zero":
        return ["0/1"] * 4 if isinstance(D, Quaternions) else [0] * D.k
    a = rng.randrange(len(enc))
    if kind == "range":
        enc[a] = rng.choice((D.p, D.p + 3, -1))
    else:
        enc[a] = rng.choice(("1/0", "x", 1.5, None) if isinstance(D, Quaternions) else NOT_INTS)
    return enc


def bad_automorphism(D, rng):
    if isinstance(D, Quaternions):
        return rng.choice(({}, {"conj": ["1/1"] * 3}, {"conj": ["0/1"] * 4}, {"conj": ["1/1", "x", "0/1", "0/1"]},
                           {"conj": "1/1"}, {"frobenius": 1}, [1]))
    return rng.choice(({}, {"frobenius": D.k}, {"frobenius": -1}, {"frobenius": True}, {"frobenius": 1.0},
                       {"frobenius": "1"}, {"conj": 1}, [1], 1))


def bad_key(S, rng, domain):
    """A key that names no member of domain, or does not parse."""
    m = len(next(iter(domain)))
    return rng.choice([
        ",".join(["1"] * (m + 1)),
        ",".join([str(S.n + 1)] * m),
        ",".join(["0"] + ["1"] * (m - 1)),
        "x",
        "a,b",
        "",
        ",".join(["1"] * m) + ",",
    ])


def malformed_cocycles(S, D, rng, good):
    """Encodings of good, a cocycle of S over D, each spoiled once."""
    out = [good]
    for field in ("alpha", "xi"):
        table = good[field]
        domain = S.support if field == "alpha" else S.comp
        keys = sorted(table)
        for _ in range(3):
            if keys:
                key = rng.choice(keys)
                if field == "xi":
                    spoiled = bad_value(D, rng, table[key])
                else:
                    spoiled = bad_automorphism(D, rng)
                out.append({**good, field: {**table, key: spoiled}})
            # a bad key after the entries, or a bad key before a bad value: the key is named first
            value = bad_value(D, rng, jsonio.encode_element(D.one)) if field == "xi" else bad_automorphism(D, rng)
            idx = ",".join(map(str, rng.choice(sorted(domain))))
            out.append({**good, field: {**table, bad_key(S, rng, domain): next(iter(table.values()), value)}})
            out.append({**good, field: {bad_key(S, rng, domain): value, idx: value, **table}})
        out.append({**good, field: rng.choice(([], "x", 1, None))})
    out.append([good])
    return out


def encoded_gauge(S, D, rng):
    g = jsonio.encode_gauge(random_gauge(S, D, rng))
    out = [g]
    for _ in range(3):
        if g["eta"]:
            key = rng.choice(sorted(g["eta"]))
            out.append({**g, "eta": {**g["eta"], key: bad_value(D, rng, g["eta"][key])}})
        out.append({**g, "mu": {**g["mu"], str(rng.randint(1, S.n)): bad_automorphism(D, rng)}})
        out.append({**g, "mu": {**g["mu"], rng.choice(("0", str(S.n + 1), "1,1", "x")): {"frobenius": 0}}})
    return out


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("seed", SEEDS)
def test_refusals_match_the_reference_decoders(seed, backend):
    rng = random.Random(f"refusals:{seed}:{backend}")
    D = BACKENDS[backend]()
    refused = 0
    for _ in range(3):
        S = random_semigroup(rng, rng.randint(1, 5))
        for obj in malformed_semigroups(S, rng):
            want = outcome(ref_decode_semigroup, obj)
            assert outcome(jsonio.decode_semigroup, obj) == want, obj
            refused += want[0] == "refused"
        good = jsonio.encode_cocycle(gauged_cocycle(S, D, rng))
        for obj in malformed_cocycles(S, D, rng, good):
            want = outcome(ref_decode_cocycle, S, D, obj)
            assert outcome(jsonio.decode_cocycle, S, D, obj) == want, obj
            refused += want[0] == "refused"
        for obj in encoded_gauge(S, D, rng):
            want = outcome(ref_decode_gauge, S, D, obj)
            assert outcome(jsonio.decode_gauge, S, D, obj) == want, obj
            refused += want[0] == "refused"
    assert refused >= 30


def test_refusal_cases_reach_every_message():
    messages = set()
    for backend in sorted(BACKENDS):
        rng = random.Random(f"refusals:0:{backend}")
        D = BACKENDS[backend]()
        for _ in range(3):
            S = random_semigroup(rng, rng.randint(1, 5))
            got = [outcome(ref_decode_semigroup, obj) for obj in malformed_semigroups(S, rng)]
            good = jsonio.encode_cocycle(gauged_cocycle(S, D, rng))
            got += [outcome(ref_decode_cocycle, S, D, obj) for obj in malformed_cocycles(S, D, rng, good)]
            got += [outcome(ref_decode_gauge, S, D, obj) for obj in encoded_gauge(S, D, rng)]
            for _, text, where in (o for o in got if o[0] == "refused"):
                text = text.removeprefix(f"{where}: ")
                messages.add("key" if text.startswith("key") else text)
    for text in ("expected an integer", "expected a list of 2 integers", "expected a list of 3 integers",
                 "expected a list of pairs", "expected a list of triples", "expected an object",
                 "n must be positive", "indices are 1-based", "key", "xi values must be units",
                 "eta values must be units", "coordinates must lie in [0,3)", "expected four rational strings",
                 "conjugator must be nonzero", 'field automorphisms are {"frobenius": m}'):
        assert text in messages, text
    assert any(m.endswith("is not a composable triple") for m in messages)
    assert any(m.endswith("is not a support pair") for m in messages)
    assert any(m.startswith("exponent must lie in") for m in messages)


def test_index_keys_must_be_canonical():
    S, F = t2(), gf(3)
    R = TwistedRing(S, F, TwoCocycle.trivial(S, F))
    text = "key {!r} is not a comma-separated index tuple"
    # two spellings of one triple: the reference lets the last one win
    both = {"xi": {"1,1,2": [2], "01,1,2": [1]}}
    assert ref_decode_cocycle(S, F, both).xi[(1, 1, 2)] == F.one
    assert outcome(jsonio.decode_cocycle, S, F, both) == refusal(text.format("01,1,2"), "cocycle.xi.01,1,2")
    for key in ("01,1,2", " 1,1,2", "1,1 ,2", "+1,1,2", "1,1,2 ", "1,1,0_2", "1,1,٢"):
        obj = {"xi": {key: [2]}}
        assert ref_decode_cocycle(S, F, obj).xi[(1, 1, 2)] == F.element(2), key
        assert outcome(jsonio.decode_cocycle, S, F, obj) == refusal(text.format(key), f"cocycle.xi.{key}")
    for key in ("0,1,1", "-1,1,1", "1,0,2"):
        obj = {"xi": {key: [2]}}
        assert outcome(jsonio.decode_cocycle, S, F, obj) == refusal("indices are 1-based", f"cocycle.xi.{key}")
    # every reader of index keys: alpha, mu, eta and ring elements
    F4 = gf(4)
    cases = [
        (lambda obj: jsonio.decode_cocycle(S, F4, obj), {"alpha": {"01,2": {"frobenius": 1}}}, "cocycle.alpha.01,2"),
        (lambda obj: jsonio.decode_gauge(S, F, obj), {"mu": {"+1": {"frobenius": 0}}}, "gauge.mu.+1"),
        (lambda obj: jsonio.decode_gauge(S, F, obj), {"eta": {"1, 2": [2]}}, "gauge.eta.1, 2"),
        (lambda obj: jsonio.decode_ring_element(R, obj), {"1,02": [1]}, "element.1,02"),
    ]
    for decode, obj, where in cases:
        key = where.rsplit(".", 1)[1]
        assert outcome(decode, obj) == refusal(text.format(key), where)
        canonical = json.loads(json.dumps(obj).replace(key, key.replace("0", "").replace("+", "").replace(" ", "")))
        assert outcome(decode, canonical)[0] == "ok", canonical


def test_quaternion_numbers_must_be_digits():
    # [-]digits[/digits] only: Fraction would also read exponents, decimals,
    # a sign and spaces, and expands an exponent in full, so a value like
    # "1e999999999" would stall the decoder; a zero denominator is refused
    # as before
    H = quaternions()
    text = "{!r} is not a rational number"
    for value in ("1e5", "1e1000", "0.5", "+1", " 1/2", "1/2 ", "1_0", "1/0", "1/00", "", "1/", "/2", "--1"):
        obj = [value, "0", "0", "0"]
        assert outcome(jsonio.decode_element, H, obj, "element") == refusal(text.format(value), "element[0]"), value
        conj = {"conj": ["1", "0", value, "0"]}
        assert outcome(jsonio.decode_automorphism, H, conj, "alpha") == refusal(text.format(value), "alpha.conj[2]"), value
    assert jsonio.decode_element(H, ["-3/4", "10/20", "0", "-0/7"], "element").parts == (Fraction(-3, 4), Fraction(1, 2), 0, 0)


def mixed_cocycles(S, D, rng):
    """Cocycles of S over D with a missing, stray, foreign or zero entry, and clean ones."""
    c = gauged_cocycle(S, D, rng)
    other = quaternions() if D.is_finite else gf(5)
    p, t = rng.choice(sorted(S.support)), rng.choice(sorted(S.comp))
    alpha, xi = dict(c.alpha), dict(c.xi)
    out = [c, TwoCocycle(alpha, {**xi, t: D.zero})]
    out.append(TwoCocycle({**alpha, p: other.identity_automorphism()}, xi))
    out.append(TwoCocycle(alpha, {**xi, t: other.one}))
    out.append(TwoCocycle({**alpha, p: other.identity_automorphism()}, {**xi, t: other.zero}))
    out.append(TwoCocycle({q: a for q, a in alpha.items() if q != p}, xi))
    out.append(TwoCocycle(alpha, {u: v for u, v in xi.items() if u != t}))
    out.append(TwoCocycle({**alpha, (S.n + 1, 1): D.identity_automorphism()}, {**xi, (1, 2, S.n + 2): D.one}))
    out.append(TwoCocycle({q: a for q, a in alpha.items() if q != p}, {**xi, (S.n + 1,) * 3: D.one}))
    if D.is_finite and D.q > 2:
        out.append(TwoCocycle(alpha, {**xi, t: D.gen if xi[t] != D.gen else D.one}))
    if D.is_finite:
        twin = FiniteField(D.p, D.k, D.modulus)  # an equal field, another object
        out.append(TwoCocycle({q: FieldAutomorphism(twin, a.m) for q, a in alpha.items()}, xi))
    return out


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_verify_listings_match_the_reference(backend):
    rng = random.Random(f"listings:{backend}")
    D = BACKENDS[backend]()
    kinds = set()
    for _ in range(12):
        S = random_semigroup(rng, rng.randint(1, 5))
        for c in mixed_cocycles(S, D, rng):
            want = ref_verify_two_cocycle(S, c).as_json()
            assert verify_two_cocycle(S, c).as_json() == want
            kinds.update(v["kind"] for v in want["violations"])
    assert {"missing_alpha", "missing_xi", "stray_alpha", "stray_xi", "xi_not_unit", "mixed_backends"} <= kinds
