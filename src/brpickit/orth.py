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
from operator import mul

from . import abelian as ab
from .abelian import FinAbGroup, GroupElement
from .errors import CapacityError, DomainError

# Largest |G+G^| enumerate_orth lists, and largest |U|^2 TwistedSubgroup tabulates.
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


class TwistedSubgroup:
    """The subgroup U_alpha of G x G.

    Its closure under + is checked on the full |U| x |U| addition table
    (that makes a non-empty list a subgroup: -x = (ord x - 1) x), so a U
    with |U|^2 above MAX_DSUM_ORDER is refused first (CapacityError)."""

    __slots__ = ("group", "pair_group", "elements", "law")

    def __init__(self, group: FinAbGroup, elements):
        pair_group = ab.direct_sum(group, group)
        elements = tuple(sorted(elements, key=lambda e: e.coords))
        _check_table_size(len(elements))
        law = ab.addition_table(elements)
        if law is None:
            raise DomainError("element list is not closed under the product")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "pair_group", pair_group)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "law", law)

    def __setattr__(self, name, value):
        raise AttributeError("TwistedSubgroup is immutable")

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"TwistedSubgroup(order {len(self.elements)})"


def _check_table_size(order: int):
    if order ** 2 > MAX_DSUM_ORDER:
        raise CapacityError(f"|U_alpha| = {order}: its addition table exceeds "
                            f"the supported maximum of {MAX_DSUM_ORDER} entries")


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
def u_alpha(alpha: OrthAut) -> TwistedSubgroup:
    """U_alpha = {(alpha_1(x), g_x)}, closed from its generators once
    u_order has passed TwistedSubgroup's cap."""
    _check_table_size(u_order(alpha))
    GG = ab.direct_sum(alpha.group, alpha.group)
    return TwistedSubgroup(alpha.group, [GroupElement(GG, a) for a in _u_vectors(alpha)])


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


class TwoCocycle:
    """A twist psi = zeta_N^E on a subgroup of G x G, the one form of psi.

    domain is a TwistedSubgroup and E[i][j] the exponent of zeta_N at
    (domain.elements[i], domain.elements[j]), reduced mod N on
    construction.  Construction is the one place that proves psi a
    normalized 2-cocycle: E vanishes on the row and column of the
    identity, and cocycle_failure finds no failing triple.  It raises a
    DomainError otherwise, naming the first failing triple.
    """

    __slots__ = ("domain", "N", "E")

    def __init__(self, domain: TwistedSubgroup, N: int, E):
        E = tuple(tuple(e % N for e in row) for row in E)
        index, add = domain.law
        z = index.get(domain.pair_group.zero().coords)
        if z is None or any(E[z]) or any(row[z] for row in E):
            raise DomainError("cocycle is not normalized at the identity")
        bad = cocycle_failure(add, E, N)
        if bad is not None:
            elems = domain.elements
            raise DomainError("2-cocycle identity fails at " + ",".join(
                str(elems[k].coords) for k in bad))
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "E", E)

    @staticmethod
    def trivial(domain: TwistedSubgroup) -> "TwoCocycle":
        """psi = 1 on domain: N = 1 and every exponent 0."""
        n = len(domain)
        return TwoCocycle(domain, 1, ((0,) * n,) * n)

    def __setattr__(self, name, value):
        raise AttributeError("TwoCocycle is immutable")

    def __repr__(self):
        return f"TwoCocycle(on order-{len(self.domain)} subgroup, N={self.N})"


def cocycle_failure(add, E, N: int):
    """The first (i, j, k), in lexicographic order, with
    E[i][j] + E[i+j][k] != E[j][k] + E[i][j+k] (mod N), or None.

    E is a table of exponents of zeta_N over the elements of a group whose
    addition table on indices is add; the congruence is the 2-cocycle
    identity psi(a,b) psi(a+b,c) = psi(b,c) psi(a,b+c) for psi = zeta_N^E.
    add and E are tuples of tuples, or lists of lists.

    Fast path: when E is a bicharacter mod N (_bicharacter), psi is one,
    and a bicharacter is a 2-cocycle: both sides of the identity are
    psi(a,b) psi(a,c) psi(b,c).  Any other table, such as a coboundary
    that is not a bicharacter, goes through the triple loop, which names
    the first failing triple.
    """
    if _bicharacter(add, E, N):
        return None
    n = len(E)
    for i in range(n):
        Ei, addi = E[i], add[i]
        for j in range(n):
            Eij, Eab, Ej, addj = Ei[j], E[addi[j]], E[j], add[j]
            for k in range(n):
                if (Eij + Eab[k] - Ej[k] - Ei[addj[k]]) % N:
                    return i, j, k
    return None


def _bicharacter(add, E, N: int) -> bool:
    """Whether E is additive mod N in each argument, decided on the
    generators g, h of the group (abelian.generators) in gens * |E|^2 steps.

    Each row is checked along every g: E[i][g+j] = E[i][g] + E[i][j] for
    all j.  That makes the row additive, by induction on word length: j = 0
    gives E[i][0] = 0, and if x is additive so is g + x, as E[i][g+x+j] =
    E[i][g] + E[i][x] + E[i][j] = E[i][g+x] + E[i][j].  Then for each g and
    i, j -> E[g+i][j] - E[g][j] - E[i][j] is additive, so it vanishes
    everywhere once it vanishes at every generator h; and additivity along
    every g in the first argument spreads by the same induction.
    """
    gens = ab.generators(add)
    R = [[e % N for e in row] for row in E]
    for Ri in R:
        for g in gens:
            Rig = Ri[g]
            if list(map(Ri.__getitem__, add[g])) != [(c + Rig) % N for c in Ri]:
                return False
    return not any((R[add[g][i]][h] - R[g][h] - Ri[h]) % N
                   for g in gens for i, Ri in enumerate(R) for h in gens)


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
def psi_alpha(alpha: OrthAut) -> TwoCocycle:
    """The TwoCocycle zeta_N^(v_a . b) on U_alpha, v from psi_vectors,
    built and proved a 2-cocycle once per alpha."""
    vectors = psi_vectors(alpha)
    U = u_alpha(alpha)
    coords = [e.coords for e in U.elements]
    return TwoCocycle(U, alpha.group.exponent, [
        [sum(map(mul, vectors[a], b)) for b in coords] for a in coords])
