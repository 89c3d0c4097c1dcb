"""JSON wire formats for everything the command line reads and writes.

Coefficients travel exactly: finite-field elements as coordinate vectors
over the prime field, quaternions as four "num/den" strings, never floats.
Decoders are strict about shape and raise InvalidInput naming the JSON
path of the first offending key; encoders are inverse on the nose, so a
decode of an encode gives back an equal object. Missing cocycle alpha
entries default to the identity and missing xi/eta entries to 1, which
keeps hand-written bundles short. Index keys must be spelled as encoders
write them, "1,2,3", so no two keys name one tuple. Types and shapes are
checked in bulk; JSON paths are built only on failure, to name the first
offender.
"""

import json
import re
from dataclasses import replace
from fractions import Fraction
from itertools import chain

from .coeff import FFElement, FiniteField, QuatElement, QuaternionAutomorphism, Quaternions
from .cohom import Cochain, GaugeElement, TwoCocycle, chain_keys
from .common import DEFAULT_BOUNDS
from .errors import InvalidInput
from .sgrp import SquareFreeSemigroup


def dumps(obj):
    """Canonical report serialization: sorted keys, stable layout."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _expect(cond, message, where):
    if not cond:
        raise InvalidInput(message, where=where)


def _as_dict(obj, where):
    _expect(isinstance(obj, dict), "expected an object", where)
    return obj


def _as_int(obj, where):
    _expect(isinstance(obj, int) and not isinstance(obj, bool), "expected an integer", where)
    return obj


def _int_list(obj, length, where):
    _expect(isinstance(obj, list) and len(obj) == length, f"expected a list of {length} integers", where)
    return [_as_int(x, f"{where}[{a}]") for a, x in enumerate(obj)]


def _int_rows(obj, length, what, where):
    """obj, a list of lists of length integers, as tuples."""
    _expect(isinstance(obj, list), f"expected a list of {what}", where)
    if set(map(type, obj)) <= {list} and set(map(len, obj)) <= {length} and set(map(type, chain.from_iterable(obj))) <= {int}:
        return list(map(tuple, obj))
    return [tuple(_int_list(r, length, f"{where}[{a}]")) for a, r in enumerate(obj)]


def _indices(key, domain, what, where):
    """The index tuple that key spells, a member of domain, else "<key> is not <what>"."""
    try:
        parts = tuple(map(int, key.split(",")))
    except ValueError:
        parts = None
    if parts is None or ",".join(map(str, parts)) != key:
        raise InvalidInput(f"key {key!r} is not a comma-separated index tuple", where=where)
    _expect(min(parts) > 0, "indices are 1-based", where)
    if parts not in domain:
        raise InvalidInput(f"{key!r} is not {what}", where=where)
    return parts


def _key_of(chain):
    if isinstance(chain, int):
        return str(chain)
    if isinstance(chain[0], int):
        return ",".join(str(x) for x in chain)
    # a composable chain of pairs is determined by its vertex sequence
    return ",".join(str(x) for x in (chain[0][0],) + tuple(p[1] for p in chain))


def _fraction(text, where):
    _expect(isinstance(text, str), 'expected a rational string "num/den"', where)
    # [-]digits[/digits], the denominator not zero: Fraction would expand an exponent such as "1e999999999" in full
    _expect(re.fullmatch(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?", text), f"{text!r} is not a rational number", where)
    return Fraction(text)


# ---------------------------------------------------------------- backends


def encode_coefficients(D):
    if isinstance(D, Quaternions):
        return {"backend": "quaternion"}
    return {"backend": "finite_field", "p": D.p, "k": D.k, "modulus": list(D.modulus)}


def decode_coefficients(obj, where="coefficients"):
    obj = _as_dict(obj, where)
    backend = obj.get("backend")
    if backend == "quaternion":
        return Quaternions()
    _expect(backend == "finite_field", f"unknown backend {backend!r}", f"{where}.backend")
    p = _as_int(obj.get("p"), f"{where}.p")
    k = _as_int(obj.get("k", 1), f"{where}.k")
    modulus = obj.get("modulus")
    if modulus is not None:
        modulus = _int_list(modulus, k + 1, f"{where}.modulus")
    try:
        return FiniteField(p, k, modulus)
    except ValueError as exc:
        raise InvalidInput(str(exc), where=where)


# ---------------------------------------------------------------- elements


def encode_element(x):
    if isinstance(x, QuatElement):
        return [f"{v.numerator}/{v.denominator}" for v in x.parts]
    return list(x.coords)


def decode_element(D, obj, where):
    if isinstance(D, Quaternions):
        _expect(isinstance(obj, list) and len(obj) == 4, "expected four rational strings", where)
        return D.element(tuple(_fraction(v, f"{where}[{a}]") for a, v in enumerate(obj)))
    p = D.p
    if not (obj.__class__ is list and len(obj) == D.k and all(c.__class__ is int and 0 <= c < p for c in obj)):
        _expect(all(0 <= c < p for c in _int_list(obj, D.k, where)), f"coordinates must lie in [0,{p})", where)
    return FFElement(D, D._encode(obj))


def encode_automorphism(a):
    if isinstance(a, QuaternionAutomorphism):
        return {"conj": [f"{v}/1" for v in a.conjugator]}
    return {"frobenius": a.m}


def decode_automorphism(D, obj, where):
    obj = _as_dict(obj, where)
    if isinstance(D, Quaternions):
        parts = obj.get("conj")
        _expect(parts is not None, 'quaternion automorphisms are {"conj": [...]}', where)
        _expect(isinstance(parts, list) and len(parts) == 4, "expected four rational strings", f"{where}.conj")
        q = tuple(_fraction(v, f"{where}.conj[{a}]") for a, v in enumerate(parts))
        _expect(any(v != 0 for v in q), "conjugator must be nonzero", f"{where}.conj")
        return QuaternionAutomorphism(D, q)
    m = obj.get("frobenius")
    _expect(m is not None, 'field automorphisms are {"frobenius": m}', where)
    if m.__class__ is not int or not 0 <= m < D.k:
        _as_int(m, f"{where}.frobenius")
        _expect(0 <= m < D.k, f"exponent must lie in [0,{D.k})", f"{where}.frobenius")
    return D.frobenius(m)


# --------------------------------------------------------------- semigroup


def encode_semigroup(S):
    return {
        "n": S.n,
        "support": [list(p) for p in sorted(S.support)],
        "comp": [list(t) for t in sorted(S.comp)],
    }


def decode_semigroup(obj, where="semigroup"):
    """Structural parse plus unit closure; semantic checks stay in validate()."""
    obj = _as_dict(obj, where)
    n = _as_int(obj.get("n"), f"{where}.n")
    _expect(n >= 1, "n must be positive", f"{where}.n")
    pairs = _int_rows(obj.get("support"), 2, "pairs", f"{where}.support")
    triples = _int_rows(obj.get("comp", []), 3, "triples", f"{where}.comp")
    return SquareFreeSemigroup.make(n, pairs, triples)


# ----------------------------------------------------------------- cocycle


def encode_cocycle(c):
    alpha = {_key_of(p): encode_automorphism(a) for p, a in c.alpha.items() if not a.is_identity()}
    xi = {_key_of(t): encode_element(v) for t, v in c.xi.items() if v != v.field.one}
    return {"alpha": alpha, "xi": xi}


def _entries(D, decode, obj, where, domain, what, units=None):
    """{index tuple: decode(D, value, JSON path)} for an object keyed by comma-separated indices.

    Each key must name a member of domain, else "<key> is not <what>"; with
    units named, a zero value is refused as "<units> values must be units".
    """
    obj = _as_dict(obj, where)
    try:  # one pass without JSON paths; on a refusal the loop below names the first offender
        out = {_indices(key, domain, what, None): decode(D, enc, None) for key, enc in obj.items()}
        if not (units and any(v.is_zero() for v in out.values())):
            return out
    except InvalidInput:
        pass
    out = {}
    for key, enc in obj.items():
        path = f"{where}.{key}"
        idx = _indices(key, domain, what, path)
        out[idx] = v = decode(D, enc, path)
        if units:
            _expect(not v.is_zero(), f"{units} values must be units", path)
    return out


def decode_cocycle(S, D, obj, where="cocycle"):
    obj = _as_dict(obj, where)
    alpha = dict.fromkeys(S.support, D.identity_automorphism())
    xi = dict.fromkeys(S.comp, D.one)
    alpha.update(_entries(D, decode_automorphism, obj.get("alpha", {}), f"{where}.alpha", S.support, "a support pair"))
    xi.update(_entries(D, decode_element, obj.get("xi", {}), f"{where}.xi", S.comp, "a composable triple", "xi"))
    return TwoCocycle(alpha, xi)


def encode_gauge(g):
    mu = {str(i): encode_automorphism(a) for i, a in g.mu.items() if not a.is_identity()}
    eta = {_key_of(p): encode_element(v) for p, v in g.eta.items() if v != v.field.one}
    return {"mu": mu, "eta": eta}


def decode_gauge(S, D, obj, where="gauge"):
    obj = _as_dict(obj, where)
    mu = dict.fromkeys(range(1, S.n + 1), D.identity_automorphism())
    eta = dict.fromkeys(S.support, D.one)
    given = _entries(D, decode_automorphism, obj.get("mu", {}), f"{where}.mu", {(i,) for i in mu}, "an idempotent index")
    mu.update((i, a) for (i,), a in given.items())
    eta.update(_entries(D, decode_element, obj.get("eta", {}), f"{where}.eta", S.support, "a support pair", "eta"))
    return GaugeElement(mu, eta)


# ----------------------------------------------------------------- cochain


def encode_cochain(phi):
    return {"m": phi.m, "cochain": {_key_of(k): encode_element(v) for k, v in phi.data.items()}}


def decode_cochain(S, D, obj, where="cochain"):
    """Total m-cochain from {"m": int, "cochain": {...}}; no defaulting."""
    obj = _as_dict(obj, where)
    m = _as_int(obj.get("m"), f"{where}.m")
    _expect(0 <= m <= 3, "cochain degree must lie in [0,3]", f"{where}.m")
    table = _as_dict(obj.get("cochain"), f"{where}.cochain")
    keys = chain_keys(S, m)
    wanted = {_key_of(k): k for k in keys}
    data = {}
    for key, enc in table.items():
        path = f"{where}.cochain.{key}"
        _expect(key in wanted, f"{key!r} is not a composable {m}-chain", path)
        v = decode_element(D, enc, path)
        _expect(not v.is_zero(), "cochain values must be units", path)
        data[wanted[key]] = v
    for key in wanted:
        _expect(key in table, f"missing value at {key!r}", f"{where}.cochain")
    return Cochain(m, data)


def encode_ring_element(x):
    return {_key_of(p): encode_element(v) for p, v in sorted(x.coeffs.items())}


def encode_ring_aut(f):
    """Images of the additive basis, keyed "i,j:t" for gen^t s_ij."""
    R = f.ring
    images = {}
    for p in sorted(R.S.support):
        for t, b in enumerate(R.D.power_basis()):
            images[f"{_key_of(p)}:{t}"] = encode_ring_element(f.apply(R.element({p: b})))
    return {"images": images}


def decode_ring_element(R, obj, where="element"):
    return R.element(_entries(R.D, decode_element, obj, where, R.S.support, "a support pair"))


# ------------------------------------------------------------------ bundle


def decode_bounds(obj, base=DEFAULT_BOUNDS, where="bounds"):
    if obj is None:
        return base
    obj = _as_dict(obj, where)
    values = {}
    for name in ("max_units", "max_search", "aut_s_max_n"):
        if name in obj:
            value = _as_int(obj[name], f"{where}.{name}")
            _expect(value > 0, "bounds must be positive", f"{where}.{name}")
            values[name] = value
    return replace(base, **values) if values else base


def decode_bundle(obj, base_bounds=DEFAULT_BOUNDS):
    """Parse {semigroup, coefficients, cocycle?, bounds?} into domain objects."""
    obj = _as_dict(obj, "bundle")
    _expect("semigroup" in obj, "missing semigroup", "bundle.semigroup")
    _expect("coefficients" in obj, "missing coefficients", "bundle.coefficients")
    S = decode_semigroup(obj["semigroup"])
    D = decode_coefficients(obj["coefficients"])
    cocycle = None
    if obj.get("cocycle") is not None:
        cocycle = decode_cocycle(S, D, obj["cocycle"])
    bounds = decode_bounds(obj.get("bounds"), base_bounds)
    return S, D, cocycle, bounds
