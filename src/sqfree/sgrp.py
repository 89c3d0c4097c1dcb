"""Square-free semigroups with zero, encoded combinatorially.

The data is the idempotent count n, the support set of pairs (i,j) meaning
e_i*S*e_j has a nonzero element s_ij, and the composability set of triples
(i,j,k) meaning s_ij*s_jk = s_ik (anything not listed multiplies to zero).
Indices are 1-based throughout, matching the wire format.

Semigroup elements are represented by their support pair; e_i is (i,i).
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter

from .common import DEFAULT_BOUNDS, ValidationReport
from .errors import SearchBoundExceeded


@dataclass(frozen=True)
class SquareFreeSemigroup:
    n: int
    support: frozenset
    comp: frozenset

    @classmethod
    def make(cls, n, support, comp):
        """Build from iterables, adding the unit-law triples."""
        support = frozenset((int(i), int(j)) for i, j in support)
        comp = {(int(i), int(j), int(k)) for i, j, k in comp}
        comp.update(map(itemgetter(0, 0, 1), support), map(itemgetter(0, 1, 1), support))
        return cls(n, support, frozenset(comp))

    @cached_property
    def _out(self):
        """Index i -> the sorted support pairs (i, j) leaving it."""
        out = {}
        for p in sorted(self.support):
            out.setdefault(p[0], []).append(p)
        return out

    @cached_property
    def _store(self):
        """Derived data kept with S, each entry immutable and keyed by what it reads: Aut S, and cohom's gauge Lattices (_kept)."""
        return {}

    @cached_property
    def _ranks(self):
        """Index i -> its position in its sorted splitting class (sim_classes)."""
        return {i: pos for cls in sim_classes(self) for pos, i in enumerate(cls)}

    def mul(self, p, q):
        """Product of two elements-as-pairs, or None for zero."""
        if p[1] != q[0]:
            return None
        t = (p[0], p[1], q[1])
        return (p[0], q[1]) if t in self.comp else None

    def idempotent_pairs(self):
        return [(i, i) for i in range(1, self.n + 1)]

    def elements(self):
        return sorted(self.support)

    @cached_property
    def _chains(self):
        """Entry m - 1 holds the composable m-chains; each is built once, by extending the one before."""
        return [tuple((p,) for p in self.elements())]

    def tuples(self, m):
        """Composable m-chains: lists of pairs for m <= 1, m-tuples of pairs beyond.

        m = 0 gives the idempotents, m = 1 all of the support, m >= 2 the
        m-tuples with every prefix product nonzero. Every call returns a
        fresh list.
        """
        if m == 0:
            return self.idempotent_pairs()
        if m == 1:
            return self.elements()
        chains, out, comp = self._chains, self._out, self.comp
        while len(chains) < m:
            chains.append(
                tuple(c + (q,) for c in chains[-1] for i, j in [(c[0][0], c[-1][1])] for q in out.get(j, ()) if (i, j, q[1]) in comp)
            )
        return list(chains[m - 1])

    def validate(self):
        """A fresh ValidationReport of the semigroup axioms, which are checked once per semigroup."""
        return ValidationReport(list(self._violations))

    @cached_property
    def _violations(self):
        """validate's violations. Each rule is checked in bulk, and its violations listed in order only if it fails."""
        rep, support, comp, rng = ValidationReport(), self.support, self.comp, range(1, self.n + 1)
        if not set(chain.from_iterable(chain(support, comp))) <= set(rng):
            for x in sorted(support) + sorted(comp):
                if not all(i in rng for i in x):
                    rep.add("index_out_of_range", x)
            return rep.violations
        for i in rng:
            if (i, i) not in support:
                rep.add("missing_idempotent", (i, i), "diagonal pair absent from support")
        if not all(set(map(itemgetter(*at), comp)) <= support for at in ((0, 1), (1, 2), (0, 2))):
            for t in sorted(comp):
                for p in (t[:2], t[1:], t[::2]):
                    if p not in support:
                        rep.add("comp_without_support", t, f"pair {p} absent")
        if not all(set(map(itemgetter(*at), support)) <= comp for at in ((0, 0, 1), (0, 1, 1))):
            for i, j in sorted(support):
                if (i, i, j) not in comp:
                    rep.add("unit_law", (i, i, j), "left unit triple absent")
                if (i, j, j) not in comp:
                    rep.add("unit_law", (i, j, j), "right unit triple absent")
        # (s_ij s_jk) s_kl and s_ij (s_jk s_kl) must vanish together; if the rules above
        # hold, both do when a factor is idempotent, so only arrows are walked, in sorted order
        out = {i: [p for p in row if p[0] != p[1] or rep.violations] for i, row in self._out.items()}
        for row in out.values():
            for i, j in row:
                for _, k in out.get(j, ()):
                    for _, l in out.get(k, ()):
                        left = (i, j, k) in comp and (i, k, l) in comp
                        right = (j, k, l) in comp and (i, j, l) in comp
                        if left != right:
                            rep.add("associativity", (i, j, k, l), f"left={left} right={right}")
        return rep.violations


def sim_classes(S):
    """Partition of the idempotent indices by mutual splitting.

    i ~ j when s_ij and s_ji exist and compose back to the idempotents.
    """
    parent = list(range(S.n + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(1, S.n + 1):
        for _, j in S._out.get(i, ()):
            if i < j <= S.n and (j, i) in S.support and (i, j, i) in S.comp and (j, i, j) in S.comp:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(1, S.n + 1):
        groups.setdefault(find(i), []).append(i)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


@dataclass(frozen=True)
class SemigroupAutomorphism:
    """Support- and composability-preserving permutation of idempotent indices."""

    perm: tuple  # perm[i-1] is the image of i

    @classmethod
    def identity(cls, n):
        return cls(tuple(range(1, n + 1)))

    def __call__(self, i):
        return self.perm[i - 1]

    def pair(self, p):
        return (self.perm[p[0] - 1], self.perm[p[1] - 1])

    def triple(self, t):
        return (self.perm[t[0] - 1], self.perm[t[1] - 1], self.perm[t[2] - 1])

    def __mul__(self, other):
        # (a*b)(i) = a(b(i))
        return SemigroupAutomorphism(tuple(self.perm[other.perm[i] - 1] for i in range(len(self.perm))))

    def inverse(self):
        inv = [0] * len(self.perm)
        for i, img in enumerate(self.perm):
            inv[img - 1] = i + 1
        return SemigroupAutomorphism(tuple(inv))

    def is_identity(self):
        return all(img == i + 1 for i, img in enumerate(self.perm))

    def __repr__(self):
        return f"perm{self.perm}"


def automorphisms(S, bounds=DEFAULT_BOUNDS):
    """All automorphisms in perm order, as a fresh list; the bound is checked first on every call, the search once per S."""
    if S.n > bounds.aut_s_max_n:
        raise SearchBoundExceeded(f"n={S.n} above automorphism bound {bounds.aut_s_max_n}")
    store = S._store
    if "automorphisms" not in store:
        store["automorphisms"] = _backtrack(S)
    return list(store["automorphisms"])


def _backtrack(S):
    """automorphisms' search, as a tuple, by backtracking on images in increasing order.

    Each placed index has its pairs and its triples on at most two indices
    checked both ways, which prunes; a leaf is kept when is_automorphism
    holds.
    """
    n = S.n
    found = []
    image = [0] * (n + 1)

    def consistent(i):
        for j in range(1, i + 1):
            for a, b in ((i, j), (j, i)):
                if ((a, b) in S.support) != ((image[a], image[b]) in S.support):
                    return False
            for a, b, c in ((i, j, j), (j, i, j), (j, j, i), (i, i, j), (i, j, i), (j, i, i), (i, i, i)):
                if ((a, b, c) in S.comp) != ((image[a], image[b], image[c]) in S.comp):
                    return False
        return True

    def place(i, used):
        if i > n:
            phi = SemigroupAutomorphism(tuple(image[1:]))
            if is_automorphism(S, phi):
                found.append(phi)
            return
        for img in range(1, n + 1):
            if img in used:
                continue
            image[i] = img
            if consistent(i):
                place(i + 1, used | {img})
        image[i] = 0

    place(1, frozenset())
    return tuple(found)


def is_automorphism(S, phi):
    """Does the permutation phi map support and comp into themselves? Both are finite, so into is onto."""
    return all(phi.pair(p) in S.support for p in S.support) and all(phi.triple(t) in S.comp for t in S.comp)


def is_normal_automorphism(S, phi):
    """Does phi preserve each index's rank inside its ~-class?"""
    rank = S._ranks
    return all(rank[phi(i)] == rank[i] for i in range(1, S.n + 1))
