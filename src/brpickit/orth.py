"""The finite orthogonal group O(G+G^) and the attached (U_alpha, psi_alpha).

Elements of G+G^ are coordinate vectors (G coordinates first, dual exps
second).  The quadratic value q(g,chi) = <chi,g> is carried as an integer
exponent mod N, and b(x, y) = q(x+y) - q(x) - q(y) = v_x . y is its
polarization, v_x = (chi * w, g * w) for x = (g, chi), w_i = N / f_i.

An OrthAut is its matrix alone, proved orthogonal on generators.  Every
other question about alpha concerns homomorphisms between groups of rank
at most 2r, answered from the matrix by abelian.solve: inversion, |U_alpha|,
S_alpha and psi_alpha's well-definedness.  Only enumerate_orth lists G+G^
(at most MAX_DSUM_ORDER elements), and only u_alpha and psi_alpha, which
the comodule-algebra models read, list U_alpha.
"""

from __future__ import annotations

import itertools
from functools import cache, lru_cache
from math import gcd, lcm
from operator import mul

from . import abelian as ab
from .abelian import FinAbGroup, GroupElement
from .errors import CapacityError, DomainError

# Largest |G+G^| enumerate_orth lists.
MAX_DSUM_ORDER = 1 << 20


@cache
def dsum_group(G: FinAbGroup) -> FinAbGroup:
    return ab.direct_sum(G, ab.dual_group(G))


class OrthAut:
    """An automorphism of G+G^ preserving the pairing value pointwise.

    matrix[i] is the reduced image of the i-th generator e_i of G+G^.
    Construction checks a homomorphism that keeps q on each e_i and b on
    each pair of them (_orthogonal), or raises a DomainError.

    That is orthogonality.  b is bilinear, b(y, y) = 2 q(y) and q(y + z) =
    q(y) + q(z) + b(y, z), so by induction q(sum c_i y_i) = sum c_i^2 q(y_i)
    + sum_{i<j} c_i c_j b(y_i, y_j).  With y_i = alpha(e_i) that gives
    q(alpha(x)) = q(x) at every x, and then alpha keeps b, which is
    nondegenerate (v_x = 0 forces x = 0): alpha(x) = 0 makes b(x, y) = 0
    for every y, so alpha is injective, hence bijective.
    """

    __slots__ = ("group", "matrix")

    def __init__(self, group: FinAbGroup, matrix):
        D = dsum_group(group)
        matrix = tuple(D._normalize(row) for row in matrix)
        if len(matrix) != D.rank:
            raise DomainError(f"hom matrix has {len(matrix)} rows for source rank {D.rank}")
        # a hom: n_i times the image of e_i vanishes in G+G^
        for n_i, row in zip(D.factors, matrix):
            if any((n_i * c) % f for c, f in zip(row, D.factors)):
                raise DomainError(
                    f"generator of order {n_i} maps to an element whose order does not divide it")
        if not _orthogonal(group, matrix):
            raise DomainError("not an orthogonal automorphism of G+G^")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("OrthAut is immutable")

    def __eq__(self, other):
        return (isinstance(other, OrthAut) and self.group == other.group
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.group, self.matrix))

    def __repr__(self):
        return f"OrthAut({[list(r) for r in self.matrix]})"

    def to_json(self):
        return {"matrix": [list(r) for r in self.matrix]}

    @staticmethod
    def from_json(group: FinAbGroup, obj) -> "OrthAut":
        try:
            return OrthAut(group, obj["matrix"])
        except DomainError as e:
            raise DomainError(f"alpha.matrix: {e}") from None


def _qv(G: FinAbGroup, x) -> tuple:
    """(q, v_x) at the element x of G+G^: q(x) mod N, and b(x, y) = v_x . y."""
    n, N = G.rank, G.exponent
    v = tuple(c * (N // f) for c, f in zip(x[n:] + x[:n], G.factors * 2))
    return sum(map(mul, x[:n], v[:n])) % N, v


def _orthogonal(G: FinAbGroup, rows) -> bool:
    """Whether the hom with generator images rows keeps q on every
    generator of G+G^ and b on every pair of generators."""
    return _form(G, tuple(rows)) == _form(G, dsum_generators(G))


@lru_cache(maxsize=256)  # bounded; the generators' form, asked on every call, stays
def _form(G: FinAbGroup, ys) -> tuple:
    """q at each of the elements ys of G+G^, then b at each pair of them."""
    qv = [_qv(G, y) for y in ys]
    return tuple(q for q, _ in qv) + tuple(sum(map(mul, qv[i][1], ys[j])) % G.exponent
                                           for i, j in itertools.combinations(range(len(ys)), 2))


def dsum_generators(G: FinAbGroup) -> tuple:
    """The coordinate tuples of the generators of G+G^, in order."""
    D = dsum_group(G)
    return tuple(D.generator(i).coords for i in range(D.rank))


@cache
def orth_identity(G: FinAbGroup) -> OrthAut:
    return OrthAut(G, dsum_generators(G))


def _apply(factors, rows, x) -> tuple:
    """The image of x, reduced mod factors, under the hom with generator images rows."""
    return tuple(sum(c * row[j] for c, row in zip(x, rows)) % f
                 for j, f in enumerate(factors))


def compose_matrices(G: FinAbGroup, a, b) -> tuple:
    """The matrix of a after b, homs of G+G^: row i is a applied to b's row i."""
    cols = list(zip(*a))
    return tuple(tuple(sum(map(mul, row, col)) % f
                       for col, f in zip(cols, dsum_group(G).factors)) for row in b)


@cache
def orth_compose(a: OrthAut, b: OrthAut) -> OrthAut:
    """a after b, the matrix product, memoized by value: each distinct
    pair's result is validated by OrthAut once.  Errors are not cached."""
    if a.group != b.group:
        raise DomainError("cannot compose orthogonal maps over different groups")
    return OrthAut(a.group, compose_matrices(a.group, a.matrix, b.matrix))


def _rows(factors, matrix, target) -> list:
    """sum_i x_i matrix[i] = target on the leading coordinates, mod factors."""
    return [([row[j] for row in matrix], t, f)
            for j, (t, f) in enumerate(zip(target, factors))]


@cache
def orth_invert(a: OrthAut) -> OrthAut:
    """The inverse of a: row i solves a(x) = e_i (abelian.solve), and OrthAut
    proves the result again, once per distinct a.  Errors are not cached."""
    fs = dsum_group(a.group).factors
    return OrthAut(a.group, [ab.solve(fs, _rows(fs, a.matrix, e))[0]
                             for e in dsum_generators(a.group)])


def enumerate_orth(G: FinAbGroup, bound: int = 256):
    """All of O(G+G^), sorted by matrix, by depth-first search over the
    images of the generators of D = G+G^, on coordinate tuples.

    The search lists D with its q exponents and v vectors, and prunes
    three ways: the image of the i-th generator e_i has order dividing
    that of e_i and the same q exponent, and b(image, image_j) =
    b(e_i, e_j) for every image already placed.  Placing an image narrows
    the candidate lists of all later generators by that polarization test.
    These are OrthAut's generator test, so each leaf is an OrthAut.

    The bound caps the work twice: |G|^2 <= bound, checked first, and at
    most bound automorphisms (CapacityError at the (bound + 1)-th).  As
    the bound is the caller's, D above MAX_DSUM_ORDER is refused too.
    """
    if G.order ** 2 > bound:
        raise CapacityError(
            f"|G|^2 = {G.order ** 2} exceeds the enumeration bound {bound}")
    D = dsum_group(G)
    if D.order > MAX_DSUM_ORDER:
        raise CapacityError(f"|G+G^| = {D.order} exceeds the supported "
                            f"maximum {MAX_DSUM_ORDER}")
    N = G.exponent
    elements = list(itertools.product(*(range(f) for f in D.factors)))
    qv = {x: _qv(G, x) for x in elements}
    gens = dsum_generators(G)
    gen_b = [[sum(map(mul, qv[e][1], f)) % N for f in gens] for e in gens]
    candidates = [[x for x in elements if qv[x][0] == qv[e][0]
                   and all(m * c % f == 0 for c, f in zip(x, D.factors))]
                  for m, e in zip(D.factors, gens)]
    found = []
    images: list = []

    def place(live):
        if not live:
            found.append(OrthAut(G, images))
            if len(found) > bound:
                raise CapacityError(
                    f"O(G+G^) has more than {bound} elements, the enumeration bound")
            return
        i = len(images)
        for x in live[0]:
            vx = qv[x][1]
            narrowed = []
            for k, cand in enumerate(live[1:], i + 1):
                t = gen_b[k][i]
                kept = [y for y in cand if sum(map(mul, vx, y)) % N == t]
                if not kept:
                    break
                narrowed.append(kept)
            else:
                images.append(x)
                place(narrowed)
                images.pop()

    place(candidates)
    return sorted(found, key=lambda a: a.matrix)


class Twist:
    """k_psi F, the one form of a twist: F a subgroup of G x G, held by its
    elements sorted by coordinates (index: their positions) and its
    generators gens, and psi a bicharacter on F, zeta_N^(x E y) at (a, b),
    x and y the words of a and b (their coefficients on gens), E[i][j] =
    exponent(gens[i], gens[j]) mod N, or 0 without an exponent.

    Construction is the one place that proves F a subgroup and psi well
    defined, or raises a DomainError.  gens are picked greedily in position
    order, each element the earlier ones do not generate; adding such a g
    to the span H of the earlier ones walks the cosets H + k g, every sum
    must lie in F, and as every element is reached, F = <gens>.  Two words
    of one element differ by a relation among the gens, so psi is well
    defined when each relation (abelian.solve, over the gens' orders) pairs
    to 0 mod N with every generator on either side.  A bicharacter is
    normalized and a 2-cocycle: both sides of the identity are psi(a,b)
    psi(a,c) psi(b,c).
    """

    # _wE[k]: words[k] . E mod N; _law: the pairs law() has read
    __slots__ = ("pair_group", "elements", "index", "gens", "words", "N", "E",
                 "_wE", "_law")

    def __init__(self, group: FinAbGroup, elements, N: int = 1, exponent=None):
        GG = ab.direct_sum(group, group)
        fs = GG.factors
        elements = tuple(sorted(elements, key=lambda e: e.coords))
        index = {e.coords: k for k, e in enumerate(elements)}
        zero = (0,) * len(fs)
        if (any(e.parent != GG for e in elements) or len(index) != len(elements)
                or zero not in index):
            raise DomainError("F must list distinct elements of G x G, "
                              "the identity among them")
        words, gens = {zero: ()}, []
        for g in index:
            if g in words:
                continue
            layer = [(a, w + (0,) * (len(gens) - len(w))) for a, w in words.items()]
            gens.append(g)
            k = 0
            while layer:
                k, step = k + 1, []
                for a, w in layer:
                    b = tuple((x + y) % f for x, y, f in zip(a, g, fs))
                    if b not in words:
                        if b not in index:
                            raise DomainError("F is not closed under addition")
                        words[b] = w + (k,)
                        step.append((b, w))
                layer = step
        r = len(gens)
        E = tuple(tuple(exponent(g, h) % N if exponent else 0 for h in gens)
                  for g in gens)
        if any(map(any, E)):
            orders = [lcm(*(f // gcd(f, c) for c, f in zip(g, fs))) for g in gens]
            relations = ab.solve(orders, [([g[t] for g in gens], 0, f)
                                          for t, f in enumerate(fs)])[1]
            relations += [[o * (i == j) for j in range(r)]
                          for i, o in enumerate(orders)]
            if any(sum(map(mul, k, line)) % N
                   for k in relations for line in E + tuple(zip(*E))):
                raise DomainError("psi ill-defined: a relation among F's "
                                  "generators pairs to a nontrivial root")
        object.__setattr__(self, "pair_group", GG)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "gens", tuple(gens))
        words = tuple(w + (0,) * (r - len(w)) for w in map(words.__getitem__, index))
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "_wE", tuple(
            tuple(sum(map(mul, w, col)) % N for col in zip(*E)) for w in words))
        object.__setattr__(self, "_law", {})

    def __setattr__(self, name, value):
        raise AttributeError("Twist is immutable")

    def law(self, i: int, j: int) -> tuple:
        """(position of a + b, exponent of psi(a, b) mod N) at the i-th
        element a and the j-th b: their coordinate sum looked up in index,
        and words[i] E words[j].  Each pair is computed on its first read
        and kept."""
        try:
            return self._law[i, j]
        except KeyError:
            a, b = self.elements[i].coords, self.elements[j].coords
            got = self._law[i, j] = (
                self.index[tuple((x + y) % f for x, y, f
                                 in zip(a, b, self.pair_group.factors))],
                sum(map(mul, self._wE[i], self.words[j])) % self.N)
            return got


@cache
def trivial_twist(group: FinAbGroup, elements: tuple) -> Twist:
    """psi = 1 on the subgroup with these elements, built once per tuple."""
    return Twist(group, elements)


def _pair_and_vector(alpha: OrthAut, x) -> tuple:
    """(a, v_x) for x = (g, chi) in G+G^: its image a = (alpha_1(x), g) in
    U_alpha, and v_x = (-alpha_2(x) * w, chi * w), w_i = N / f_i, additive
    in x, with psi_alpha(a, b) = <alpha_2(x)^-1, b_1> <chi, b_2> =
    zeta_N^(v_x . b)."""
    G = alpha.group
    n, N = G.rank, G.exponent
    w = [N // f for f in G.factors]
    y = _apply(dsum_group(G).factors, alpha.matrix, x)
    return (y[:n] + tuple(x[:n]), tuple(-c * wi % N for c, wi in zip(y[n:], w))
            + tuple(c * wi for c, wi in zip(x[n:], w)))


def _generator_images(alpha: OrthAut) -> list:
    """_pair_and_vector at each generator of G+G^, in order."""
    return [_pair_and_vector(alpha, e) for e in dsum_generators(alpha.group)]


@cache
def _u_vectors(alpha: OrthAut) -> dict:
    """{a: v} over the coordinates a of U_alpha, closed from the generator
    images: 0 has v = 0, and a + a_i gets v + v_i, the v of a preimage of
    a + a_i when v is that of a preimage of a."""
    fs, N = alpha.group.factors * 2, alpha.group.exponent
    images = [(a, v) for a, v in _generator_images(alpha) if any(a)]
    out = {(0,) * len(fs): (0,) * len(fs)}
    frontier = list(out)
    while frontier:
        a = frontier.pop()
        for ai, vi in images:
            b = tuple((x + y) % f for x, y, f in zip(a, ai, fs))
            if b not in out:
                out[b] = tuple((x + y) % N for x, y in zip(out[a], vi))
                frontier.append(b)
    return out


@cache
def u_alpha(alpha: OrthAut) -> Twist:
    """U_alpha = {(alpha_1(x), g_x)}, closed from its generators, with the
    trivial twist."""
    GG = ab.direct_sum(alpha.group, alpha.group)
    return Twist(alpha.group, [GroupElement(GG, a) for a in _u_vectors(alpha)])


@cache
def u_generators(alpha: OrthAut) -> tuple:
    """Generators of U_alpha, the image of x -> (alpha_1(x), g_x): the
    distinct nonzero images of the generators of G+G^, in order, as
    coordinate tuples read off alpha.matrix."""
    return tuple(dict.fromkeys(a for a, _ in _generator_images(alpha)
                               if any(a)))


@cache
def _u_kernel(alpha: OrthAut) -> tuple:
    """abelian.solve of alpha_1(0, chi) = 0 on chi: the kernel of x ->
    (alpha_1(x), g_x) is the (0, chi) with chi in its solutions."""
    G = alpha.group
    return ab.solve(G.factors, _rows(G.factors, alpha.matrix[G.rank:], (0,) * G.rank))


def u_order(alpha: OrthAut) -> int:
    """|U_alpha| = |G+G^| / |ker(x -> (alpha_1(x), g_x))|."""
    return alpha.group.order ** 2 // _u_kernel(alpha)[2]


@cache
def stabilizer_generators(alpha: OrthAut) -> tuple:
    """Generators of S_alpha = {z : (z, z) in U_alpha} = {g_x : alpha_1(x)
    = g_x}, as the coordinates of the pairs (z, z): the distinct nonzero
    G-parts of the generators of ker(alpha_1 - pi_G), which maps onto it."""
    G = alpha.group
    moved = [[c - (i == j) for j, c in enumerate(row)] for i, row in enumerate(alpha.matrix)]
    kernel = ab.solve(dsum_group(G).factors, _rows(G.factors, moved, (0,) * G.rank))[1]
    return tuple(dict.fromkeys(x[:G.rank] * 2 for x in kernel if any(x[:G.rank])))


@cache
def in_stabilizer(alpha: OrthAut, z) -> bool:
    """Whether the z in G with these coordinates lies in S_alpha: some chi
    has alpha_1(z, chi) = z, i.e. alpha_1(0, chi) = z - alpha_1(z, 0)."""
    G = alpha.group
    image = _apply(G.factors, alpha.matrix, z)  # alpha_1(z, 0)
    return ab.solve(G.factors, _rows(G.factors, alpha.matrix[G.rank:], [
        c - a for c, a in zip(z, image)]))[0] is not None


@cache
def psi_vectors(alpha: OrthAut) -> dict:
    """{a: v_a} over the coordinates a of U_alpha, with psi_alpha(a, b) =
    v_a . b mod N, N the exponent of G; the one place that proves psi_alpha
    well defined.  Callers must not mutate the dict.

    v_a is read off a chosen preimage x of a (_pair_and_vector).  Two
    preimages differ by some k in the kernel of x -> (alpha_1(x), g_x), and
    v is additive, so psi_alpha is well defined exactly when v_k . b = 0
    mod N for every such k and b in U_alpha.  That is bilinear in (k, b),
    so it is checked on the kernel's generators (abelian.solve) against
    u_generators; a failure raises rather than silently depending on the
    section.  Then v is filled in by closure over the generator images
    (_u_vectors): psi_alpha is a bicharacter, fixed on pairs of generators.
    """
    N = alpha.group.exponent
    for chi in _u_kernel(alpha)[1]:
        v = _pair_and_vector(alpha, (0,) * alpha.group.rank + chi)[1]
        if any(sum(map(mul, v, b)) % N for b in u_generators(alpha)):
            raise DomainError("psi ill-defined for this alpha")
    return _u_vectors(alpha)


@cache
def psi_alpha(alpha: OrthAut) -> Twist:
    """The Twist zeta_N^(v_a . b) on U_alpha, v from psi_vectors, built once
    per alpha."""
    vectors = psi_vectors(alpha)
    return Twist(alpha.group, u_alpha(alpha).elements, alpha.group.exponent,
                 lambda a, b: sum(map(mul, vectors[a], b)))
