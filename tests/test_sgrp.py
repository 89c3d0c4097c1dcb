"""Semigroup combinatorics against small hand-checked patterns.

The walks in `tuples`, `validate` and `sim_classes` follow the support
pairs out of each index; the references at the end of this file scan every
pair or index instead, and both must agree on random valid semigroups and
on corrupted copies of them. `automorphisms` and `is_automorphism` are
compared with a filter of all n! permutations.
"""

import random
from functools import cached_property
from itertools import permutations, product

import pytest

from sqfree import sgrp
from sqfree.cohom import TwoCocycle
from sqfree.common import Bounds, ValidationReport

from sqfree.errors import SearchBoundExceeded
from sqfree.fixtures import a3, double_t2, gf, mu, single, t2, two_cycle
from sqfree.sgrp import (
    SemigroupAutomorphism,
    SquareFreeSemigroup,
    automorphisms,
    is_automorphism,
    is_normal_automorphism,
    sim_classes,
)
from sqfree.twring import TwistedRing, check_associativity


def test_fixture_validation():
    for S in (single(), t2(), a3(), mu(2), mu(3), double_t2()):
        rep = S.validate()
        assert rep.ok, rep.as_json()


def test_unit_closure():
    S = t2()
    assert (1, 1, 2) in S.comp and (1, 2, 2) in S.comp
    assert (1, 1, 1) in S.comp and (2, 2, 2) in S.comp


def test_multiplication():
    S = a3()
    assert S.mul((1, 2), (2, 3)) == (1, 3)
    assert S.mul((1, 2), (1, 2)) is None  # indices do not chain
    assert S.mul((1, 1), (1, 2)) == (1, 2)
    T = t2()
    assert T.mul((1, 2), (2, 2)) == (1, 2)


def test_tuples_t2():
    S = t2()
    assert S.tuples(0) == [(1, 1), (2, 2)]
    assert S.tuples(1) == [(1, 1), (1, 2), (2, 2)]
    two = set(S.tuples(2))
    assert two == {
        ((1, 1), (1, 1)),
        ((2, 2), (2, 2)),
        ((1, 1), (1, 2)),
        ((1, 2), (2, 2)),
    }


def test_tuples_a3():
    S = a3()
    assert ((1, 2), (2, 3)) in S.tuples(2)
    assert ((1, 2), (2, 2), (2, 3)) in S.tuples(3)
    # every 3-chain multiplies out without hitting zero
    for p, q, r in S.tuples(3):
        assert S.mul(S.mul(p, q), r) is not None


def test_tuples_is_a_fresh_list_each_call():
    # the chains are built once per semigroup; a caller may change its copy
    for S in (a3(), mu(3), double_t2()):
        for m in (2, 3):
            first = S.tuples(m)
            first.append(((1, 1),) * m)
            first[0] = None
            assert S.tuples(m) == ref_tuples(S, m)
            assert S.tuples(m) is not S.tuples(m)


def test_missing_idempotent_flagged():
    S = SquareFreeSemigroup.make(2, [(1, 1), (1, 2)], [])
    kinds = {v.kind for v in S.validate().violations}
    assert "missing_idempotent" in kinds


def test_comp_without_support_flagged():
    S = SquareFreeSemigroup.make(
        3,
        [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)],
        [(1, 2, 3)],
    )
    kinds = {v.kind for v in S.validate().violations}
    assert "comp_without_support" in kinds


def test_unit_law_flagged_without_closure():
    S = SquareFreeSemigroup(2, frozenset([(1, 1), (2, 2), (1, 2)]), frozenset())
    rep = S.validate()
    assert any(v.kind == "unit_law" for v in rep.violations)


def test_associativity_flagged():
    # 4-path where (s12 s23) s34 is nonzero but s12 (s23 s34) vanishes
    S = SquareFreeSemigroup.make(
        4,
        [(1, 1), (2, 2), (3, 3), (4, 4), (1, 2), (2, 3), (3, 4), (1, 3), (1, 4), (2, 4)],
        [(1, 2, 3), (1, 3, 4)],
    )
    rep = S.validate()
    bad = [v for v in rep.violations if v.kind == "associativity"]
    assert any(v.where == (1, 2, 3, 4) for v in bad)


def test_index_out_of_range_flagged():
    S = SquareFreeSemigroup(2, frozenset([(1, 1), (2, 2), (1, 5)]), frozenset())
    assert any(v.kind == "index_out_of_range" for v in S.validate().violations)


def test_sim_classes():
    assert sim_classes(t2()) == [[1], [2]]
    assert sim_classes(mu(2)) == [[1, 2]]
    assert sim_classes(mu(3)) == [[1, 2, 3]]
    assert sim_classes(double_t2()) == [[1], [2], [3], [4]]


def test_automorphism_groups():
    assert len(automorphisms(single())) == 1
    assert len(automorphisms(t2())) == 1
    assert len(automorphisms(a3())) == 1
    assert len(automorphisms(mu(2))) == 2
    assert len(automorphisms(mu(3))) == 6
    auts = automorphisms(double_t2())
    assert len(auts) == 2
    assert SemigroupAutomorphism((3, 4, 1, 2)) in auts


def test_automorphism_algebra():
    a = SemigroupAutomorphism((3, 4, 1, 2))
    assert (a * a).is_identity()
    assert a.inverse() == a
    assert a.pair((1, 2)) == (3, 4)
    assert a.triple((1, 1, 2)) == (3, 3, 4)
    b = SemigroupAutomorphism((2, 3, 1))
    c = SemigroupAutomorphism((1, 3, 2))
    # (b*c)(i) = b(c(i))
    assert (b * c).perm == (2, 1, 3)


def test_automorphisms_preserve_structure():
    S = mu(3)
    for phi in automorphisms(S):
        assert all(phi.pair(p) in S.support for p in S.support)
        assert all(phi.triple(t) in S.comp for t in S.comp)


def test_normality():
    swap2 = SemigroupAutomorphism((2, 1))
    assert not is_normal_automorphism(mu(2), swap2)
    assert is_normal_automorphism(mu(2), SemigroupAutomorphism.identity(2))
    assert is_normal_automorphism(double_t2(), SemigroupAutomorphism((3, 4, 1, 2)))


def test_automorphism_search_bound():
    with pytest.raises(SearchBoundExceeded):
        automorphisms(mu(9))


def ref_tuples(S, m):
    """Composable m-chains by scanning the whole support at every step."""
    if m == 0:
        return [(i, i) for i in range(1, S.n + 1)]
    elements = sorted(S.support)
    if m == 1:
        return elements
    chains = [((p,), p) for p in elements]
    for _ in range(m - 1):
        grown = []
        for chain, (i, j) in chains:
            for q in elements:
                if q[0] == j and (i, j, q[1]) in S.comp:
                    grown.append((chain + (q,), (i, q[1])))
        chains = grown
    return [c for c, _ in chains]


def ref_validate(S):
    """validate with every index scanned in the associativity loop."""
    rep = ValidationReport()
    rng = range(1, S.n + 1)
    for p in sorted(S.support):
        if not (p[0] in rng and p[1] in rng):
            rep.add("index_out_of_range", p)
    for t in sorted(S.comp):
        if not all(x in rng for x in t):
            rep.add("index_out_of_range", t)
    if not rep.ok:
        return rep
    for i in rng:
        if (i, i) not in S.support:
            rep.add("missing_idempotent", (i, i), "diagonal pair absent from support")
    for t in sorted(S.comp):
        i, j, k = t
        for p in ((i, j), (j, k), (i, k)):
            if p not in S.support:
                rep.add("comp_without_support", t, f"pair {p} absent")
    for i, j in sorted(S.support):
        if (i, i, j) not in S.comp:
            rep.add("unit_law", (i, i, j), "left unit triple absent")
        if (i, j, j) not in S.comp:
            rep.add("unit_law", (i, j, j), "right unit triple absent")
    for i, j in sorted(S.support):
        for k in rng:
            if (j, k) not in S.support:
                continue
            for l in rng:
                if (k, l) not in S.support:
                    continue
                left = (i, j, k) in S.comp and (i, k, l) in S.comp
                right = (j, k, l) in S.comp and (i, j, l) in S.comp
                if left != right:
                    rep.add("associativity", (i, j, k, l), f"left={left} right={right}")
    return rep


def ref_sim_classes(S):
    """sim_classes over all index pairs i < j."""
    cls = {i: {i} for i in range(1, S.n + 1)}
    for i, j in product(range(1, S.n + 1), repeat=2):
        if i < j and {(i, j), (j, i)} <= S.support and {(i, j, i), (j, i, j)} <= S.comp:
            merged = cls[i] | cls[j]
            for a in merged:
                cls[a] = merged
    return sorted({tuple(sorted(c)) for c in cls.values()})


def four_chains(support):
    for (i, j), (k, l) in product(sorted(support), repeat=2):
        if (j, k) in support:
            yield i, j, k, l


def random_semigroup(rng, n):
    """A random valid square-free semigroup on n idempotents.

    Some indices are grouped into matrix-unit blocks; random arrows, some
    of their composites, and composable triples follow. Associativity
    failures are then repaired by dropping the first triple of the true
    bracketing; that triple is never a unit-law triple, since a failure
    needs i != j != k != l.
    """
    indices = list(range(1, n + 1))
    rng.shuffle(indices)
    support = {(i, i) for i in indices}
    comp = set()
    while indices:
        size = rng.choice((1, 1, 2, 3))
        block, indices = indices[:size], indices[size:]
        support |= set(product(block, repeat=2))
        comp |= set(product(block, repeat=3))
    arrows, keep = rng.random() / 2, 0.5 + rng.random() / 2
    support |= {p for p in product(range(1, n + 1), repeat=2) if rng.random() < arrows}
    while rng.random() < 0.5:
        support |= {(i, l) for (i, j), (k, l) in product(support, repeat=2) if j == k}
    comp |= {
        (i, j, k)
        for i, j, k in product(range(1, n + 1), repeat=3)
        if {(i, j), (j, k), (i, k)} <= support and rng.random() < keep
    }
    comp = set(SquareFreeSemigroup.make(n, support, comp).comp)
    repaired = True
    while repaired:
        repaired = False
        for i, j, k, l in four_chains(support):
            left = (i, j, k) in comp and (i, k, l) in comp
            right = (j, k, l) in comp and (i, j, l) in comp
            if left != right:
                comp.discard((i, j, k) if left else (j, k, l))
                repaired = True
    return SquareFreeSemigroup(n, frozenset(support), frozenset(comp))


def corrupted_copies(S, rng):
    """Copies of a valid S that each break one validate rule, by name."""
    n, support, comp = S.n, S.support, S.comp
    out = {}
    i, j = max(sorted(support), key=lambda p: p[0] != p[1])
    out["unit_law"] = SquareFreeSemigroup(n, support, comp - {(i, i, j)})
    for i, j, k, l in four_chains(support):
        if i != j != k != l and {(i, j, k), (i, k, l), (j, k, l), (i, j, l)} <= comp:
            out["associativity"] = SquareFreeSemigroup(n, support, comp - {(i, j, k)})
            break
    unsupported = [
        t for t in product(range(1, n + 1), repeat=3) if not {t[:2], t[1:], t[::2]} <= support
    ]
    if unsupported:
        extra = rng.sample(unsupported, min(3, len(unsupported)))
        out["comp_without_support"] = SquareFreeSemigroup(n, support, comp | set(extra))
    out["index_out_of_range"] = SquareFreeSemigroup(
        n, support | {(1, n + 1), (n + 1, 1), (0, 1)}, comp | {(1, n + 1, 1), (n + 1, 1, n + 1)}
    )
    return out


SEEDS = range(60)


def _cases(seed):
    rng = random.Random(seed)
    S = random_semigroup(rng, rng.randint(1, 8))
    return S, corrupted_copies(S, rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_walks_match_full_scans_on_random_semigroups(seed):
    S, bad = _cases(seed)
    assert ref_validate(S).ok, ref_validate(S).as_json()
    for kind, T in [("valid", S)] + sorted(bad.items()):
        rep = T.validate()
        assert rep.as_json() == ref_validate(T).as_json(), kind
        if kind != "valid":
            assert kind in {v.kind for v in rep.violations}
        for m in range(5):
            assert T.tuples(m) == ref_tuples(T, m), (kind, m)
        assert [tuple(c) for c in sim_classes(T)] == ref_sim_classes(T), kind


def test_random_semigroups_reach_every_case():
    cases = [_cases(seed) for seed in SEEDS]
    assert any(len(c) > 1 for S, _ in cases for c in sim_classes(S))
    assert any(S.tuples(4) != [] and any(len(set(ch)) == 4 for ch in S.tuples(4)) for S, _ in cases)
    kinds = [set(bad) for _, bad in cases]
    for kind in ("unit_law", "associativity", "comp_without_support", "index_out_of_range"):
        assert sum(kind in k for k in kinds) >= 10, kind


def test_adjacency_leaves_equality_and_hash_alone():
    S, T = a3(), a3()
    assert S.tuples(3) == T.tuples(3)
    assert S == T and hash(S) == hash(T)
    assert S != SquareFreeSemigroup(S.n, S.support, S.comp - {(1, 2, 3)})


def ref_automorphisms(S):
    """Every index permutation preserving support and comp both ways, in perm order."""
    indices = range(1, S.n + 1)
    out = []
    for perm in permutations(indices):
        phi = SemigroupAutomorphism(perm)
        if all((p in S.support) == (phi.pair(p) in S.support) for p in product(indices, repeat=2)) and all(
            (t in S.comp) == (phi.triple(t) in S.comp) for t in product(indices, repeat=3)
        ):
            out.append(phi)
    return out


def test_automorphisms_match_a_filter_of_every_permutation():
    fixtures = [single(), t2(), a3(), mu(2), mu(3), two_cycle(), double_t2()]
    randoms = [S for S, _ in map(_cases, SEEDS) if S.n <= 6]
    assert len(randoms) >= 30 and any(len(automorphisms(S)) > 1 for S in randoms)
    for S in fixtures + randoms:
        want = ref_automorphisms(S)
        assert automorphisms(S) == want, S
        # the closure rule alone, on every permutation, keeps the same maps
        perms = map(SemigroupAutomorphism, permutations(range(1, S.n + 1)))
        assert [phi for phi in perms if is_automorphism(S, phi)] == want, S
        # S's kept list, and a fresh equal semigroup's own search
        assert automorphisms(S) == automorphisms(SquareFreeSemigroup(S.n, S.support, S.comp)) == want, S


def test_the_kept_automorphisms_keep_the_bound_first_and_come_out_fresh(monkeypatch):
    # Aut S is searched once per semigroup; the bound is checked first on every
    # call, with the same text warm or cold, and each call gets its own list
    S, searches = mu(3), [0]
    backtrack = sgrp._backtrack

    def counted(T):
        searches[0] += 1
        return backtrack(T)

    monkeypatch.setattr(sgrp, "_backtrack", counted)
    texts = []
    for _ in range(2):
        with pytest.raises(SearchBoundExceeded) as refused:
            automorphisms(S, Bounds(aut_s_max_n=1))
        texts.append(str(refused.value))
        auts = automorphisms(S)
        assert auts == ref_automorphisms(S) and len(auts) == 6
        auts.reverse()
        auts[0] = SemigroupAutomorphism((9, 9, 9))
        del auts[1:]
    assert texts == ["n=3 above automorphism bound 1"] * 2 and searches == [1]
    assert automorphisms(S) == ref_automorphisms(S) and automorphisms(S) is not automorphisms(S)


def path_semigroup(n):
    """n idempotents with arrows i -> i+1 and no composite."""
    return SquareFreeSemigroup.make(n, [(i, i) for i in range(1, n + 1)] + [(i, i + 1) for i in range(1, n)], [])


def t2_union(blocks):
    """blocks disjoint copies of t2: the arrow 2b-1 -> 2b for each block b."""
    n = 2 * blocks
    return SquareFreeSemigroup.make(n, [(i, i) for i in range(1, n + 1)] + [(i, i + 1) for i in range(1, n, 2)], [])


def sparse_corruptions(S, rng):
    """Copies of a sparse valid S that each break one validate rule, with no scan of all index triples."""
    n, support, comp = S.n, S.support, S.comp
    arrows = sorted(p for p in support if p[0] != p[1])
    i, j = rng.choice(arrows)
    out = {"unit_law": SquareFreeSemigroup(n, support, comp - {rng.choice([(i, i, j), (i, j, j)])})}
    a = rng.randrange(1, n - 2)
    out["comp_without_support"] = SquareFreeSemigroup(n, support, comp | {(a, a + 2, a + 1), (a + 2, a, a + 2)})
    k = rng.randint(1, n)
    out["missing_idempotent"] = SquareFreeSemigroup(n, support - {(k, k)}, comp)
    out["index_out_of_range"] = SquareFreeSemigroup(n, support | {(n, n + 1), (0, 1)}, comp | {(n + 1, n + 1, n + 1)})
    # a 4-path a -> a+1 -> a+2 -> a+3 whose left bracketing composes and whose right one does not
    b = rng.randrange(1, n - 3)
    extra = SquareFreeSemigroup.make(
        n, support | {(b, b + 1), (b + 1, b + 2), (b + 2, b + 3), (b, b + 2), (b, b + 3)},
        comp | {(b, b + 1, b + 2), (b, b + 2, b + 3)},
    )
    out["associativity"] = extra
    return out


@pytest.mark.parametrize("make", [lambda: path_semigroup(300), lambda: t2_union(200)], ids=["path300", "t2_union400"])
def test_validate_matches_the_full_scan_on_corrupted_sparse_semigroups(make):
    S = make()
    assert S.validate().ok and ref_validate(S).ok
    rng = random.Random(27)
    for _ in range(3):
        for kind, T in sorted(sparse_corruptions(S, rng).items()):
            rep = T.validate()
            assert rep.as_json() == ref_validate(T).as_json(), kind
            assert kind in {v.kind for v in rep.violations}, kind


def test_validate_checks_once_and_returns_a_fresh_report(monkeypatch):
    calls = []
    check = SquareFreeSemigroup.__dict__["_violations"].func
    counted = cached_property(lambda S: calls.append(S) or check(S))
    counted.__set_name__(SquareFreeSemigroup, "_violations")
    monkeypatch.setattr(SquareFreeSemigroup, "_violations", counted)
    R = TwistedRing(a3(), gf(3), TwoCocycle.trivial(a3(), gf(3)))
    assert check_associativity(R).ok and check_associativity(R).ok and R.S.validate().ok
    assert len(calls) == 1

    S = SquareFreeSemigroup.make(2, [(1, 1), (1, 2)], [])
    first = S.validate()
    assert not first.ok
    want = first.as_json()
    first.extend(first)
    first.violations.clear()
    assert S.validate() is not S.validate()
    assert S.validate().as_json() == want


def test_longer_chains_extend_the_cached_shorter_ones():
    # asked longest first, each m-chain list still equals the full scan's
    for S in (a3(), mu(3), double_t2(), two_cycle(), path_semigroup(12)):
        for m in (4, 3, 2):
            assert S.tuples(m) == ref_tuples(S, m), (S, m)
            assert S.tuples(m) is not S.tuples(m)
