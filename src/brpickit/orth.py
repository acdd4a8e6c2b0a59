"""The finite orthogonal group O(G+G^) and the attached (U_alpha, psi_alpha).

Elements of G+G^ are coordinate vectors (G coordinates first, dual exps
second).  The quadratic value q(g,chi) = <chi,g> is carried as an integer
exponent mod N, and b(x, y) = q(x+y) - q(x) - q(y) is its polarization.
Orthogonality of an automorphism means q is preserved at every point — a
quadratic condition, so it is checked pointwise, not just on generators.

The pointwise work runs on plain integer tuples.  Per group G, _tables
builds once: the elements of G+G^ as tuples in dsum_group(G).elements()
order, their q exponents, and for each element x the vector v_x with
b(x, y) = v_x . y mod N.  _tables refuses G+G^ with more than
MAX_DSUM_ORDER elements (CapacityError), so every alpha, and every table
read from it, stays within that size.  An OrthAut is its matrix (the
images of the generators of G+G^) and its position table pos: pos[k] is
the position of alpha(elements[k]) in that list.  Constructing an
OrthAut checks the matrix and runs the one orthogonality test,
_preserves_q, which computes that table while checking bijectivity and q
at every point; the leaf of enumerate_orth runs the same test and hands
its table over, and the identity's table is range(|G+G^|).  U_alpha,
psi_alpha and S_alpha are read from pos (U_alpha's generators from the
matrix), and so are composition (compose_tables) and inversion (the
inverse permutation); brpic closes its suite under compose_tables too.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import prod
from operator import mul

from . import abelian as ab
from .abelian import FinAbGroup, GroupElement
from .errors import CapacityError, DomainError

# Largest |G+G^| whose tables are built.  On a 2-vCPU machine (Python 3.11),
# identity `brpic mul` on Z2^10 (2^20 elements) runs in 15 s at 825 MB peak,
# and on Z1000 (10^6 elements) in 9 s at 480 MB.
MAX_DSUM_ORDER = 1 << 20


@cache
def dsum_group(G: FinAbGroup) -> FinAbGroup:
    return ab.direct_sum(G, ab.dual_group(G))


class OrthAut:
    """An automorphism of G+G^ preserving the pairing value pointwise.

    matrix[i] is the coordinate vector of the image of the i-th generator
    of G+G^.  pos[k] is the position of the image of the k-th element of
    G+G^, in _tables order, computed by the orthogonality test at
    construction.  A caller that has already run that test passes its
    table as _pos.  Equality, hashing, repr and JSON ignore it.
    """

    __slots__ = ("group", "matrix", "pos")

    def __init__(self, group: FinAbGroup, matrix, _pos: tuple = None):
        matrix = _hom_matrix(group, matrix)
        if _pos is None:
            _pos = _preserves_q(group, matrix)
            if _pos is None:
                raise DomainError("not an orthogonal automorphism of G+G^")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "pos", _pos)

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


def _hom_matrix(G: FinAbGroup, rows) -> tuple:
    """rows, reduced, when they are the generator images of an endomorphism
    of G+G^: integer coordinate vectors of the right length, one per
    generator, each of order dividing its generator's."""
    D = dsum_group(G)
    matrix = tuple(D._normalize(row) for row in rows)
    if len(matrix) != D.rank:
        raise DomainError(
            f"hom matrix has {len(matrix)} rows for source rank {D.rank}")
    # order compatibility: n_i * image(e_i) must vanish in G+G^
    for n_i, row in zip(D.factors, matrix):
        if any((n_i * c) % f for c, f in zip(row, D.factors)):
            raise DomainError(
                f"generator of order {n_i} maps to an element whose order does not divide it")
    return matrix


@cache
def _tables(G: FinAbGroup):
    """(elements, q, v) for G+G^ on coordinate tuples, built once per G.

    elements lists G+G^ in dsum_group(G).elements() order, q[k] is the q
    exponent of elements[k], and v maps x to the vector with
    b(x, y) = v[x] . y mod N, N the exponent of G.  CapacityError when
    |G+G^| exceeds MAX_DSUM_ORDER.
    """
    D = dsum_group(G)
    if D.order > MAX_DSUM_ORDER:
        raise CapacityError(f"|G+G^| = {D.order} exceeds the supported "
                            f"maximum {MAX_DSUM_ORDER}")
    n = G.rank
    N = G.exponent
    w = [N // f for f in G.factors]
    elements = list(itertools.product(*(range(f) for f in D.factors)))
    q = [sum(x[i] * x[n + i] * w[i] for i in range(n)) % N for x in elements]
    v = {x: tuple(c * wi for c, wi in zip(x[n:], w)) + tuple(c * wi for c, wi in zip(x[:n], w))
         for x in elements}
    return elements, q, v


def _image_columns(factors, rows):
    """Column j holds coordinate j, not yet reduced mod factors[j], of the
    image of every element, in itertools.product order over factors, under
    the hom sending the i-th generator to the tuple rows[i]."""
    cols = []
    for j in range(len(factors)):
        col = [0]
        for f, row in zip(factors, rows):
            steps = [c * row[j] for c in range(f)]
            col = [a + s for a in col for s in steps]
        cols.append(col)
    return cols


def _positions(G: FinAbGroup, rows) -> tuple:
    """The position, in _tables(G) element order, of the image of every
    element under the hom with generator images rows (mixed radix over
    the factors of G+G^)."""
    D = dsum_group(G)
    pos = [0] * D.order
    for f, col in zip(D.factors, _image_columns(D.factors, rows)):
        pos = [p * f + c % f for p, c in zip(pos, col)]
    return tuple(pos)


def _preserves_q(G: FinAbGroup, rows):
    """Both exhaustive checks on tuples: the hom with generator images rows
    is a bijection of G+G^ and keeps q at every point.  Its position table
    when both hold, None otherwise."""
    q = _tables(G)[1]
    pos = _positions(G, rows)
    if len(set(pos)) == len(pos) and [q[p] for p in pos] == q:
        return pos
    return None


def dsum_generators(G: FinAbGroup) -> tuple:
    """The coordinate tuples of the generators of G+G^, in order."""
    D = dsum_group(G)
    return tuple(D.generator(i).coords for i in range(D.rank))


def orth_identity(G: FinAbGroup) -> OrthAut:
    """The identity, with table range(|G+G^|); reading _tables first
    applies the size cap."""
    return OrthAut(G, dsum_generators(G),
                   _pos=tuple(range(len(_tables(G)[0]))))


def compose_tables(a: tuple, b: tuple) -> tuple:
    """The position table of a after b: a[b[k]] at k."""
    return tuple(map(a.__getitem__, b))


def _from_table(G: FinAbGroup, table) -> OrthAut:
    """The OrthAut whose position table is table, built from the images
    of the generators of G+G^ read off it and validated by OrthAut.  The
    i-th generator sits at position prod(factors[i+1:]), or at 0 when its
    factor is trivial."""
    elements = _tables(G)[0]
    fs = dsum_group(G).factors
    return OrthAut(G, [elements[table[1 % f * prod(fs[i + 1:])]]
                       for i, f in enumerate(fs)])


@cache
def orth_compose(a: OrthAut, b: OrthAut) -> OrthAut:
    """a after b, from the composed position tables, memoized by value:
    the result of each distinct pair is validated by OrthAut once.  Errors
    are not cached."""
    if a.group != b.group:
        raise DomainError("cannot compose orthogonal maps over different groups")
    return _from_table(a.group, compose_tables(a.pos, b.pos))


@cache
def orth_invert(a: OrthAut) -> OrthAut:
    """The inverse of a, from the inverse permutation of a.pos, validated
    by OrthAut once per distinct a.  Errors are not cached."""
    return _from_table(a.group, dict(zip(a.pos, range(len(a.pos)))))


def enumerate_orth(G: FinAbGroup, bound: int = 256):
    """All of O(G+G^), sorted by matrix, by depth-first search over the
    images of the generators of D = G+G^, on coordinate tuples.

    Three prunings, read from the _tables of G: the image of the i-th
    generator e_i has order dividing that of e_i and the same q exponent,
    and b(image, image_j) = b(e_i, e_j) for every image already placed.
    Placing an image narrows the candidate lists of all later generators
    by that polarization test.  The prunings imply q-preservation at every
    point, yet each leaf still gets both exhaustive checks of _preserves_q
    (|D| distinct images, q kept at every point) before it becomes an
    OrthAut, which keeps the position table the check computed.

    The bound caps the work twice: |G|^2 <= bound, checked first, and at
    most bound automorphisms; CapacityError is raised as soon as the
    search has found bound + 1.
    """
    if G.order ** 2 > bound:
        raise CapacityError(
            f"|G|^2 = {G.order ** 2} exceeds the enumeration bound {bound}")
    D = dsum_group(G)
    N = G.exponent
    elements, q, v = _tables(G)
    gens = dsum_generators(G)
    gen_b = [[sum(map(mul, v[e], f)) % N for f in gens] for e in gens]
    gen_q = [q[elements.index(e)] for e in gens]
    candidates = [[x for x, qx in zip(elements, q)
                   if qx == qe and all(m * c % f == 0 for c, f in zip(x, D.factors))]
                  for m, qe in zip(D.factors, gen_q)]
    found = []
    images: list = []

    def place(live):
        if not live:
            pos = _preserves_q(G, images)
            if pos is not None:
                found.append((tuple(images), pos))
                if len(found) > bound:
                    raise CapacityError(
                        f"O(G+G^) has more than {bound} elements, the enumeration bound")
            return
        i = len(images)
        for x in live[0]:
            vx = v[x]
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
    # matrices are distinct, so the sort never compares tables
    return [OrthAut(G, rows, _pos=pos) for rows, pos in sorted(found)]


class TwistedSubgroup:
    """The subgroup U_alpha of G x G.

    Its closure under + is checked on the full |U| x |U| addition table
    (that makes a non-empty list a subgroup: -x = (ord x - 1) x), so a U
    with |U|^2 above MAX_DSUM_ORDER is refused first (CapacityError)."""

    __slots__ = ("group", "pair_group", "elements", "law")

    def __init__(self, group: FinAbGroup, elements):
        pair_group = ab.direct_sum(group, group)
        elements = tuple(sorted(elements, key=lambda e: e.coords))
        if len(elements) ** 2 > MAX_DSUM_ORDER:
            raise CapacityError(f"|U_alpha| = {len(elements)}: its addition "
                                f"table exceeds the supported maximum of "
                                f"{MAX_DSUM_ORDER} entries")
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


def _alpha_table(alpha: OrthAut):
    """(x, alpha(x)) as coordinate tuples for every x in G+G^, in the order
    of dsum_group(G).elements(), read off alpha.pos."""
    elements = _tables(alpha.group)[0]
    return [(x, elements[p]) for x, p in zip(elements, alpha.pos)]


@cache
def u_alpha(alpha: OrthAut) -> TwistedSubgroup:
    """U_alpha = {(alpha_1(x), g_x)}."""
    G = alpha.group
    n = G.rank
    GG = ab.direct_sum(G, G)
    pairs = {y[:n] + x[:n] for x, y in _alpha_table(alpha)}
    return TwistedSubgroup(G, [GroupElement(GG, p) for p in pairs])


@cache
def u_generators(alpha: OrthAut) -> tuple:
    """Generators of U_alpha, the image of x -> (alpha_1(x), g_x): the
    distinct nonzero images of the generators of G+G^, in order, as
    coordinate tuples read off alpha.matrix."""
    n = alpha.group.rank
    pairs = [y[:n] + e[:n]
             for e, y in zip(dsum_generators(alpha.group), alpha.matrix)]
    return tuple(dict.fromkeys(a for a in pairs if any(a)))


def u_order(alpha: OrthAut) -> int:
    """|U_alpha|, read off alpha.pos without building U_alpha.

    U_alpha is the image of x = (g, chi) -> (alpha_1(x), g), whose kernel
    is {(0, chi) : alpha_1(0, chi) = 0}: the first |G| positions of the
    _tables order hold the elements (0, chi), and the kernel is those k
    among them with pos[k] among them too.
    """
    m = alpha.group.order
    return m * m // sum(p < m for p in alpha.pos[:m])


@cache
def diagonal_stabilizer(alpha: OrthAut) -> tuple:
    """S_alpha = {z in G : (z, z) in U_alpha} = {g_x : alpha_1(x) = g_x},
    in G.elements() order (computed once per alpha)."""
    n = alpha.group.rank
    diagonal = {x[:n] for x, y in _alpha_table(alpha) if y[:n] == x[:n]}
    return tuple(z for z in alpha.group.elements() if z.coords in diagonal)


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

    The defining formula reads off a chosen preimage of a; before trusting
    it, every other preimage is checked against it, and a disagreement
    raises (rather than silently depending on the section).

    Two preimages agree on every b in U_alpha once they agree on the
    generators of U_alpha (u_generators): psi(a, b) is v . b mod N,
    and each coordinate of v is a multiple of w_i = N / f_i, so v . b mod
    N does not depend on the representatives of b's coordinates mod f_i
    and is additive in b.  Two additive maps that agree on generators
    agree everywhere.  And v_r is additive in r, so psi_alpha is a
    bicharacter, fixed by its values on pairs of generators.
    """
    # psi(a, b) = <alpha_2(r)^-1, b_1> <chi_r, b_2> for a preimage r = (g,
    # chi) of a, whose exponent mod N is the dot product of b's coordinates
    # with v_r = (-alpha_2(r) * w, chi * w), w_i = N / f_i.
    G = alpha.group
    n = G.rank
    N = G.exponent
    w = [N // f for f in G.factors]
    gens = u_generators(alpha)
    first: dict = {}  # the v_r of the first preimage r of each element
    for x, y in _alpha_table(alpha):
        v = tuple(-a * wi % N for a, wi in zip(y[n:], w)) \
            + tuple(c * wi for c, wi in zip(x[n:], w))
        v0 = first.setdefault(y[:n] + x[:n], v)
        if v != v0 and any((sum(map(mul, v, b)) - sum(map(mul, v0, b))) % N
                           for b in gens):
            raise DomainError("psi ill-defined for this alpha")
    return first


@cache
def psi_alpha(alpha: OrthAut) -> TwoCocycle:
    """The TwoCocycle zeta_N^(v_a . b) on U_alpha, v from psi_vectors,
    built and proved a 2-cocycle once per alpha."""
    first = psi_vectors(alpha)
    U = u_alpha(alpha)
    coords = [e.coords for e in U.elements]
    return TwoCocycle(U, alpha.group.exponent, [
        [sum(map(mul, first[a], b)) for b in coords] for a in coords])
