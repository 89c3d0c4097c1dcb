"""Ring automorphisms of a twisted semigroup ring and the exact sequence.

Automorphisms are stored as prime-field matrices on the (support pair, power
basis) coordinates, which makes equality, composition, inversion and cosets
mechanical. The witness map (sigma, the section, isomorphisms), unit
conjugation tau, Aut R as Inn R times the diagonal-normal maps, Out R, and
the Lambda / Phi interplay all live here.

Conventions: maps are applied on the left, compose(f, g) applies g first,
and tau with X = {u}, Y = {u^(-1)} is a -> u^(-1) a u.
"""

from dataclasses import asdict, dataclass
from functools import partial
from itertools import product

from .cohom import (
    GaugeElement,
    TwoCocycle,
    _class_witnesses,
    _relabel_witnesses,
    _valid,
    act,
    relabel,
    verify_one_cocycle,
)
from .common import DEFAULT_BOUNDS, ValidationReport, cosets
from .errors import (
    InfiniteBackend,
    InvalidInput,
    MixedRings,
    NormalizationFailed,
    NotAOneCocycle,
    NotInvertible,
    SearchBoundExceeded,
    WitnessRejected,
)
from .linalg import identity_matrix, mat_inv, mat_mul, mat_vec, row_reduce, solve
from .sgrp import SemigroupAutomorphism, is_automorphism, is_normal_automorphism
from .twring import (
    _enumeration_guard,
    _scan,
    from_vector,
    identity_element,
    linear_basis,
    mul,
    to_vector,
)


class RingAut:
    """Additive bijection of the ring in matrix form over the prime field."""

    __slots__ = ("ring", "matrix")

    def __init__(self, ring, matrix):
        self.ring = ring
        self.matrix = matrix

    @classmethod
    def identity(cls, R):
        return cls(R, identity_matrix(len(R.S.support) * R.D.k))

    def apply(self, x):
        return from_vector(self.ring, mat_vec(self.matrix, to_vector(self.ring, x), self.ring.D.p))

    __call__ = apply

    @property
    def images(self):
        return {p: self.apply(self.ring.basis(*p)) for p in self.ring.S.support}

    def compose(self, other):
        # apply other first, then self
        return RingAut(self.ring, mat_mul(self.matrix, other.matrix, self.ring.D.p))

    def inverse(self):
        return RingAut(self.ring, mat_inv(self.matrix, self.ring.D.p))

    def is_identity(self):
        return self.matrix == identity_matrix(len(self.matrix))

    def __eq__(self, other):
        return (
            isinstance(other, RingAut)
            and (other.ring is self.ring or other.ring == self.ring)
            and other.matrix == self.matrix
        )

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"RingAut({self.images!r})"


def _invertible(matrix, p):
    return solve(matrix, [()] * len(matrix), p) is not None


def _product_violations(source, R, matrix):
    """Yield ("identity_moved", image of 1), then ("multiplicativity", (a, b)), unformatted.

    The matrix is read as a map source -> R: the image of e_a e_b combines its columns by source's structure
    constants of e_a e_b, and must equal R's core product of columns a and b. Both are zero when e_a e_b is and no
    block column a meets composes in S with one column b meets, so a block-monomial map along phi in Aut S costs
    only its nonzero products.
    """
    core, constants, p, S, k = R.core, source.core.constants, R.D.p, R.S, R.D.k
    # 1 = sum of the e_ii has the same coordinates in source and R
    image_of_one = mat_vec(matrix, core.one, p)
    if image_of_one != core.one:
        yield "identity_moved", image_of_one
    cols = list(zip(*matrix))
    meets = {pair: [a for a, col in enumerate(cols) if any(col[at : at + k])] for pair, at in core.offset.items()}
    pairs = set(constants).union((a, b) for x in meets for y in meets if S.mul(x, y) for a in meets[x] for b in meets[y])
    for a, b in sorted(pairs):
        lhs = [0] * core.dim
        for c, t in constants.get((a, b), ()):
            for r, v in enumerate(cols[c]):
                lhs[r] += t * v
        if tuple([v % p for v in lhs]) != core.mul(cols[a], cols[b]):
            yield "multiplicativity", (a, b)


def check_ring_automorphism(R, f):
    """Bijective, identity-preserving, multiplicative on the linear basis, as a map R -> f.ring."""
    report = ValidationReport()
    if not _invertible(f.matrix, R.D.p):
        report.add("not_bijective", ())
    basis = None
    for kind, at in _product_violations(R, f.ring, f.matrix):
        if kind == "identity_moved":
            report.add(kind, (), f"1 -> {from_vector(f.ring, at)!r}")
        else:
            basis = basis or linear_basis(R)
            report.add(kind, (repr(basis[at[0]]), repr(basis[at[1]])))
    return report


def _verified(R, f):
    rep = check_ring_automorphism(R, f)
    if not rep.ok:
        raise WitnessRejected(rep.as_json())
    return f


def _witness_aut(source, R, phi, g):
    """The checked map d s_ij -> mu_i(d) eta(ij) s_phi(i)phi(j) from source to R, on core vectors.

    Its columns are block-monomial, so once phi is in Aut S the check multiplies only source.core.constants.
    """
    core, k = R.core, R.D.k
    cols = []
    for p in R.S.elements():
        target = phi.pair(p)
        if target not in core.offset:
            raise InvalidInput(f"pair {target} outside the support", where="coefficients")
        at = core.offset[target]
        for b in R.D.power_basis():
            col = [0] * core.dim
            col[at : at + k] = (g.mu[p[0]](b) * g.eta[p]).coords
            cols.append(col)
    if not is_automorphism(R.S, phi):
        raise WitnessRejected(f"{phi!r} is not an automorphism of the semigroup")
    return _verified(source, RingAut(R, tuple(zip(*cols))))


def sigma(R, g):
    """The fixing-pair automorphism d s_ij -> mu_i(d) eta(ij) s_ij."""
    if not verify_one_cocycle(R.S, R.c, g):
        raise NotAOneCocycle("the pair does not fix the ring's cocycle")
    return _witness_aut(R, R, SemigroupAutomorphism.identity(R.S.n), g)


def iso_from_witness(R1, R2, w):
    """Ring isomorphism R2 -> R1 read off a relabel-plus-gauge witness, over a finite field.

    w is a (phi, gauge) pair or a bare gauge (phi = identity) claiming
    act(g, relabel(phi, R1.c)) == R2.c; the witness map is returned after
    that claim and check_ring_automorphism from R2 pass. R1 and R2 share S
    and D, hence coordinates: f is a RingAut on R1, and f.apply(x) for x in
    R2 is its image in R1.
    """
    phi, g = (SemigroupAutomorphism.identity(R1.S.n), w) if isinstance(w, GaugeElement) else w
    if R1.S != R2.S or R1.D != R2.D:
        raise MixedRings("rings over different semigroups or backends")
    if act(R1.S, g, relabel(R1.S, phi, R1.c), check=False) != R2.c:
        raise WitnessRejected("witness does not carry the first cocycle to the second")
    return _witness_aut(R2, R1, phi, g)


@dataclass(frozen=True)
class InnerWitness:
    X: tuple
    Y: tuple


def unit_inverse(R, u):
    v = R.core.inverse(to_vector(R, u))
    if v is None:
        raise NotInvertible(f"{u!r} has no two-sided inverse")
    return from_vector(R, v)


def _conjugation_matrix(core, u, v):
    """Matrix of a -> v a u."""
    return tuple(zip(*(core.mul(core.mul(v, e), u) for e in core.basis)))


def tau(R, w):
    """a -> (sum Y) a (sum X); conjugation when X, Y are a unit and its inverse."""
    sx, sy, one = sum(w.X, R.zero()), sum(w.Y, R.zero()), identity_element(R)
    if mul(R, sx, sy) != one or mul(R, sy, sx) != one:
        raise NotInvertible("witness sums are not mutually inverse")
    return _verified(R, RingAut(R, _conjugation_matrix(R.core, to_vector(R, sx), to_vector(R, sy))))


def _kernel(core, M, order):
    """A basis of the x with x f(e_a) = e_a x for all basis vectors e_a, from the last free column.

    Coordinate b of x is column order[b] of the system; order is its own inverse.
    """
    dim = core.dim
    rows = [[0] * dim for _ in range(dim * dim)]
    for (b, b2), entries in core.constants.items():
        for c, t in entries:
            # e_b e_b2 has t e_c: x_b2 enters (e_b x)_c, and x_b enters (x f(e_a))_c through f(e_a)_b2
            rows[b * dim + c][order[b2]] -= t
            for a, m in enumerate(M[b2]):
                if m:
                    rows[a * dim + c][order[b]] += t * m
    pivots = {row.index(1): row for row in row_reduce(rows, core.p)}
    free = [j for j in reversed(range(dim)) if j not in pivots]
    return [[-pivots[i][j] if i in pivots else int(i == j) for i in order] for j in free]


def _conjugator(R, M, bounds):
    """The first unit x, in enumerate_units order, with M the matrix of a -> x^(-1) a x, and its inverse; or None.

    The system's columns run from the least to the most significant
    coordinate of the scan, so the kernel walk below is in scan order. When
    M is inner the kernel is x_0 Z(R), as large as the centre.
    """
    core, p, k = R.core, R.D.p, R.D.k
    # scan order: the first pair leads, and inside a pair the last power-basis coordinate
    order = [a + i for a in reversed(range(0, core.dim, k)) for i in range(k)]
    basis = _kernel(core, M, order)
    if "centre" not in core.cache:
        core.cache["centre"] = len(_kernel(core, core.basis, order))
    if len(basis) != core.cache["centre"]:
        return None
    if p ** len(basis) > bounds.max_units:
        raise SearchBoundExceeded(f"max_units: inner kernel estimate {p ** len(basis)} above limit {bounds.max_units}")
    cols = list(zip(*basis))
    for coeffs in product(range(p), repeat=len(basis)):
        x = mat_vec(cols, coeffs, p)
        v = core.inverse(x)
        if v is not None:
            if _conjugation_matrix(core, x, v) != M:
                raise WitnessRejected("the solved unit does not conjugate to the map")
            return x, v
    return None


def _inner(R, bounds):
    """Inn R as {matrix: (unit vector, inverse vector)}, from the first unit giving it.

    The units come from the enumerate_units scan, with the inverse it found
    for each unit, and each distinct conjugation is checked once. The table
    holds no reference back to the ring, so it lives in the ring's core.
    """
    _enumeration_guard(R, bounds)
    cache = R.core.cache
    if "inner" not in cache:
        table = {}
        for _, x, v in _scan(R, R.core.inverse):
            M = _conjugation_matrix(R.core, x, v)
            if M not in table:
                _verified(R, RingAut(R, M))
                table[M] = (x, v)
        cache["inner"] = table
    return cache["inner"]


def is_inner(R, f, bounds=DEFAULT_BOUNDS):
    """A conjugation witness producing f, from the first unit giving it, or None when no unit does."""
    found = _conjugator(R, f.matrix, bounds) if f.ring is R or f.ring == R else None
    if found is None:
        return None
    x, v = found
    return InnerWitness((from_vector(R, x),), (from_vector(R, v),))


def inner_group(R, bounds=DEFAULT_BOUNDS):
    return [RingAut(R, m) for m in sorted(_inner(R, bounds))]


def _key(key_of, f):
    if f.matrix not in key_of:
        raise WitnessRejected("map outside every coset of the Aut R search")
    return key_of[f.matrix]


def _out_cosets(R, bounds):
    """Aut R as {matrix: least matrix of its Inn R coset}: the cosets of the normal maps N, from the unit table.

    N holds the witness maps of phi in Aut S and each gauge carrying the relabeled cocycle back to R's. Every
    automorphism is an inner one times such a map: a unit conjugates its images of the e_i back onto a permutation of
    them, by the lifting of idempotents in a semiperfect ring (Lam, A First Course in Noncommutative Rings, section
    23). That step needs R to be a ring.
    """
    if not R.D.is_finite:
        raise InfiniteBackend("Aut R search needs a finite field")
    maps = [_witness_aut(R, R, phi, g).matrix for phi, g in _relabel_witnesses(R.S, _valid(R.S, R.c), bounds)]
    return cosets(maps, list(_inner(R, bounds)), partial(mat_mul, p=R.D.p))


def _class_maps(R, bounds):
    """(h1, stab_full, sigmas, key_of), cached per bounds: key_of the coset keys (_inner_cosets) of one witness map per
    phi of Stab_full and H^1 class (cohom._class_witnesses), sigmas (g, key) for phi = id.

    Any other map of N is one of them times sigma(b), b in B^1, inner once sigma of each B^1 step row is conjugation
    by its diagonal unit; so their cosets are Out R = N/K, K = N meet Inn R.
    """
    if not R.D.is_finite or ("classes", bounds) not in R.core.cache:
        h1, b1, pairs = _class_witnesses(R.S, R.c, bounds)
        for g, units in b1:
            u, v = (to_vector(R, R.element({(i, i): x**e for i, x in enumerate(units, 1)})) for e in (1, -1))
            if sigma(R, g).matrix != _conjugation_matrix(R.core, v, u):
                raise WitnessRejected("a coboundary's map is not conjugation by its diagonal unit")
        maps = [(phi, g, _witness_aut(R, R, phi, g).matrix) for phi, g in pairs]
        key_of = _inner_cosets(R, [M for _, _, M in maps], bounds)
        sigmas = [(g, key_of[M]) for phi, g, M in maps if phi.is_identity()]
        R.core.cache[("classes", bounds)] = h1, list(dict.fromkeys(phi for phi, _ in pairs)), sigmas, key_of
    return R.core.cache[("classes", bounds)]


def _inner_cosets(R, maps, bounds):
    """{matrix: least matrix of its Inn R coset among maps}, maps one per class of N / sigma(B^1), by linear tests.

    The inner maps (_conjugator) make the identity's coset; another map f joins the first smaller coset whose first
    map M has f M^(-1) inner, or opens one. Each coset must end as large as the identity's.
    """
    p, inner = R.D.p, [M for M in maps if _conjugator(R, M, bounds)]
    found = [inner]
    for M in maps:
        if M not in inner:
            home = next((C for C in found if len(C) < len(inner) and _conjugator(R, mat_mul(M, mat_inv(C[0], p), p), bounds)), [])
            if not home:
                found.append(home)
            home.append(M)
    if any(len(C) != len(inner) for C in found):
        raise WitnessRejected("a coset of the inner normal maps leaves the normal maps")
    return {M: min(C) for C in found for M in C}


def aut_r_bruteforce(R, bounds=DEFAULT_BOUNDS):
    """All ring automorphisms in matrix order: the union of the Inn R cosets of the normal maps."""
    return [RingAut(R, m) for m in sorted(_out_cosets(R, bounds))]


def out_r(R, bounds=DEFAULT_BOUNDS):
    """Order of Aut R / Inn R plus the least automorphism of each coset."""
    keys = sorted(set(_out_cosets(R, bounds).values()))
    return len(keys), [RingAut(R, key) for key in keys]


def lambda_map(R, h1, bounds=DEFAULT_BOUNDS):
    """Check sigma is inner exactly on the coboundary part of the fixing pairs.

    The per-class pass (_class_maps) checks sigma(B^1) inner, and sigma(g b) = sigma(g) sigma(b); so sigma of each
    H^1 representative must be inner exactly for the class of B^1, the identity. The pass must hold h1's order of
    Z^1, so a passing report certifies the induced map on classes is well defined and injective.
    """
    report = ValidationReport()
    own, _, sigmas, key_of = _class_maps(R, bounds)
    if len(sigmas) * own.b1_order != h1.z1_order:  # some fixing pair's sigma is outside the search
        raise WitnessRejected("map outside every coset of the Aut R search")
    inner = _key(key_of, RingAut.identity(R))
    for g, key in sigmas:
        if (key == inner) != g.is_identity():
            report.add("lambda_monomorphism", (g.canonical_key(),), "inner" if key == inner else "not inner")
    return report


def _diagonal_phi(R, images):
    """The normal automorphism phi of S whose e_phi(i) is the i-th of the images of e_1..e_n, or None."""
    S, core = R.S, R.core
    diag = {core.basis[core.offset[(i, i)]]: i for i in range(1, S.n + 1)}
    perm = tuple(diag.get(img) for img in images)
    if None in perm or len(set(perm)) != S.n:
        return None
    phi = SemigroupAutomorphism(perm)
    return phi if is_automorphism(S, phi) and is_normal_automorphism(S, phi) else None


def _diagonal_images(R, M):
    return [tuple(row[R.core.offset[(i, i)]] for row in M) for i in range(1, R.S.n + 1)]


def phi_map(R, f, bounds=DEFAULT_BOUNDS):
    """The semigroup automorphism induced after an inner normalization.

    Searches for a unit conjugation making every diagonal idempotent land
    back in the diagonal set, order-preserving per splitting class; the
    resulting index permutation is independent of the correcting unit.
    """
    images = _diagonal_images(R, f.matrix)
    # units giving the same conjugation give the same permutation, so Inn R
    # in first-unit order decides as the full unit scan does
    for M in _inner(R, bounds):
        phi = _diagonal_phi(R, (mat_vec(M, img, R.D.p) for img in images))
        if phi is not None:
            return phi
    raise NormalizationFailed("no unit conjugation makes the map diagonal-normal")


def section_automorphism(R, phi):
    """The basis permutation d s_ij -> d s_{phi(i)phi(j)} as a ring map."""
    return _witness_aut(R, R, phi, GaugeElement.identity(R.S, R.D))


@dataclass
class SESReport:
    h1_order: int
    stab_order: int
    stab_full_order: int
    out_order: int
    exact: bool
    lambda_ok: bool
    kernel_ok: bool
    image_ok: bool
    split_ok: object = None

    def as_json(self):
        return asdict(self)


def verify_ses(R, bounds=DEFAULT_BOUNDS):
    """Compute H^1, the normal stabilizer and Out R, and check the sequence glues.

    One pass (_class_maps) solves H^1, gives each phi of the full stabilizer a witness map per H^1 class and splits
    them into Inn R cosets, Out R. Out order must factor as the H^1 order times the order of the normal stabilizer
    of the cocycle in Aut S; each coset must induce one normal semigroup map, read off its maps' diagonal images;
    the cosets of sigma of the H^1 representatives must be exactly the kernel of that map, whose image must be that
    stabilizer. For a trivial cocycle the basis-permutation section is checked to split the sequence.
    """
    S = R.S
    h1, stab_full, sigmas, key_of = _class_maps(R, bounds)
    W = [phi for phi in stab_full if is_normal_automorphism(S, phi)]
    induced = {}
    for M, key in key_of.items():
        phi = _diagonal_phi(R, _diagonal_images(R, M))
        if phi is not None and induced.setdefault(key, phi) != phi:
            raise WitnessRejected("an Out R class induces two normal semigroup maps")
    out_order = len(set(key_of.values()))
    if len(induced) != out_order:
        raise WitnessRejected("an Out R class induces no normal semigroup map")
    lam = lambda_map(R, h1, bounds=bounds)
    lam_keys = {key for _, key in sigmas}
    ker_keys = {key for key, phi in induced.items() if phi.is_identity()}
    kernel_ok = lam_keys == ker_keys and len(lam_keys) == h1.order
    image_ok = set(induced.values()) == set(W)
    exact = out_order == h1.order * len(W) and lam.ok and kernel_ok and image_ok
    split_ok = None
    if R.c == TwoCocycle.trivial(S, R.D):
        sec = {phi: section_automorphism(R, phi) for phi in W}
        keys = {phi: _key(key_of, f) for phi, f in sec.items()}
        products = [_key(key_of, sec[a].compose(sec[b])) == keys[a * b] for a in W for b in W]
        split_ok = len(set(keys.values())) == len(W) and all(products) and all(induced[keys[phi]] == phi for phi in W)
    return SESReport(h1.order, len(W), len(stab_full), out_order, exact, lam.ok, kernel_ok, image_ok, split_ok)
