"""The finite orthogonal group O(G+G^) and the attached (U_alpha, psi_alpha).

Elements of G+G^ are coordinate vectors (G coordinates first, dual exps
second).  The quadratic value q(g,chi) = <chi,g> is carried as an integer
exponent mod N.  Orthogonality of an automorphism means q is preserved at
every point — a quadratic condition, so it is checked pointwise, not just
on generators (at larger sizes: generator values plus all polarization
values, which together imply the pointwise condition, plus random spot
checks).
"""

from __future__ import annotations

import itertools
import random

from . import abelian as ab
from .abelian import Character, FinAbGroup, GroupElement, GroupHom
from .cyclo import CycloScalar
from .errors import CapacityError, DomainError

_POINTWISE_LIMIT = 4096  # exhaustive q check up to this |G+G^|


def dsum_group(G: FinAbGroup) -> FinAbGroup:
    return ab.direct_sum(G, ab.dual_group(G))


def embed(G: FinAbGroup, g: GroupElement, chi: Character) -> GroupElement:
    return dsum_group(G).element(g.coords + chi.exps)


def split(G: FinAbGroup, x: GroupElement):
    n = G.rank
    return G.element(x.coords[:n]), G.character(x.coords[n:])


def q_exp(G: FinAbGroup, x: GroupElement) -> int:
    """Exponent of <chi, g> for x = (g, chi) in G+G^."""
    g, chi = split(G, x)
    return ab.pair(chi, g)


def b_exp(G: FinAbGroup, x: GroupElement, y: GroupElement) -> int:
    """Polarization of q: exponent of <chi_x, g_y><chi_y, g_x>."""
    gx, cx = split(G, x)
    gy, cy = split(G, y)
    return (ab.pair(cx, gy) + ab.pair(cy, gx)) % G.exponent


class OrthAut:
    """An automorphism of G+G^ preserving the pairing value pointwise."""

    __slots__ = ("group", "hom")

    def __init__(self, group: FinAbGroup, hom: GroupHom, _checked: bool = False):
        D = dsum_group(group)
        if hom.source != D or hom.target != D:
            raise DomainError("hom must act on G+G^ for the given G")
        if not _checked and not is_orthogonal(group, hom):
            raise DomainError("hom is not an orthogonal automorphism of G+G^")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "hom", hom)

    def __setattr__(self, name, value):
        raise AttributeError("OrthAut is immutable")

    def apply(self, x: GroupElement) -> GroupElement:
        return self.hom(x)

    def alpha1(self, x: GroupElement) -> GroupElement:
        return split(self.group, self.hom(x))[0]

    def alpha2(self, x: GroupElement) -> Character:
        return split(self.group, self.hom(x))[1]

    def __eq__(self, other):
        return (isinstance(other, OrthAut) and self.group == other.group
                and self.hom == other.hom)

    def __hash__(self):
        return hash((self.group, self.hom))

    def __repr__(self):
        return f"OrthAut({[list(r) for r in self.hom.matrix]})"

    def to_json(self):
        return {"matrix": [list(r) for r in self.hom.matrix]}

    @staticmethod
    def from_json(group: FinAbGroup, obj) -> "OrthAut":
        D = dsum_group(group)
        return OrthAut(group, GroupHom(D, D, obj["matrix"]))


def is_orthogonal(G: FinAbGroup, hom: GroupHom) -> bool:
    """Automorphism of G+G^ with q preserved at every point."""
    D = dsum_group(G)
    if hom.source != D or hom.target != D:
        return False
    if not ab.hom_is_automorphism(hom):
        return False
    if D.order <= _POINTWISE_LIMIT:
        return all(q_exp(G, hom(x)) == q_exp(G, x) for x in D.elements())
    # generator q-values plus all polarizations determine q everywhere
    gens = [D.generator(i) for i in range(D.rank)]
    if any(q_exp(G, hom(e)) != q_exp(G, e) for e in gens):
        return False
    for e, f in itertools.combinations(gens, 2):
        if b_exp(G, hom(e), hom(f)) != b_exp(G, e, f):
            return False
    rng = random.Random(0)
    for _ in range(64):
        x = D.element([rng.randrange(f) for f in D.factors])
        if q_exp(G, hom(x)) != q_exp(G, x):
            return False
    return True


def orth_identity(G: FinAbGroup) -> OrthAut:
    return OrthAut(G, ab.hom_identity(dsum_group(G)), _checked=True)


def orth_compose(a: OrthAut, b: OrthAut) -> OrthAut:
    """a after b; the result is re-validated."""
    if a.group != b.group:
        raise DomainError("cannot compose orthogonal maps over different groups")
    return OrthAut(a.group, ab.hom_compose(a.hom, b.hom))


def orth_invert(a: OrthAut) -> OrthAut:
    D = dsum_group(a.group)
    if D.order > _POINTWISE_LIMIT:
        raise CapacityError(f"inversion by preimage table needs |G+G^| <= {_POINTWISE_LIMIT}")
    preimage = {a.hom(x).coords: x for x in D.elements()}
    rows = []
    for i in range(D.rank):
        e = D.generator(i)
        rows.append(preimage[e.coords].coords)
    return OrthAut(a.group, GroupHom(D, D, rows))


def enumerate_orth(G: FinAbGroup, bound: int = 256):
    """All of O(G+G^), by pruned depth-first search over generator images.

    Pruning: each generator image must be order-compatible, carry the same
    q-value as the generator, and reproduce all pairwise polarization values
    against the images already placed.  Those constraints exactly capture
    pointwise q-preservation, so leaves only need the bijectivity check
    (a full pointwise re-check is still done defensively).
    """
    if G.order ** 2 > bound:
        raise CapacityError(
            f"|G|^2 = {G.order ** 2} exceeds the enumeration bound {bound}")
    D = dsum_group(G)
    elements = list(D.elements())
    gens = [D.generator(i) for i in range(D.rank)]
    gen_q = [q_exp(G, e) for e in gens]
    gen_b = [[b_exp(G, e, f) for f in gens] for e in gens]
    candidates = []
    for i, e in enumerate(gens):
        m = D.factors[i]
        cand = [x for x in elements
                if all((m * c) % f == 0 for c, f in zip(x.coords, D.factors))
                and q_exp(G, x) == gen_q[i]]
        candidates.append(cand)
    found = []
    images: list = []

    def place(i):
        if i == len(gens):
            hom = GroupHom(D, D, [x.coords for x in images])
            if ab.hom_is_automorphism(hom) and is_orthogonal(G, hom):
                found.append(OrthAut(G, hom, _checked=True))
            return
        for x in candidates[i]:
            if all(b_exp(G, x, images[j]) == gen_b[i][j] for j in range(i)):
                images.append(x)
                place(i + 1)
                images.pop()

    place(0)
    found.sort(key=lambda a: a.hom.matrix)
    return found


class TwistedSubgroup:
    """The subgroup U_alpha of G x G, with a chosen section back to G+G^."""

    __slots__ = ("group", "pair_group", "elements", "section", "law")

    def __init__(self, group: FinAbGroup, elements, section):
        pair_group = ab.direct_sum(group, group)
        elements = tuple(sorted(elements, key=lambda e: e.coords))
        law = ab.addition_table(elements)
        if law is None:
            raise DomainError("element list is not closed under the product")
        zero = law[0].get(pair_group.zero().coords)
        if any(zero not in row for row in law[1]):
            raise DomainError("element list is not closed under inverses")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "pair_group", pair_group)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "section", dict(section))
        object.__setattr__(self, "law", law)

    def __setattr__(self, name, value):
        raise AttributeError("TwistedSubgroup is immutable")

    def __len__(self):
        return len(self.elements)

    def contains(self, x) -> bool:
        if isinstance(x, GroupElement):
            coords = x.coords
        else:
            g, h = x
            coords = g.coords + h.coords
        return coords in self.law[0]

    def contains_uu(self, u: GroupElement) -> bool:
        return self.contains((u, u))

    def components(self, e: GroupElement):
        """The (first, second) G-components of a pair element."""
        n = self.group.rank
        return self.group.element(e.coords[:n]), self.group.element(e.coords[n:])

    def __repr__(self):
        return f"TwistedSubgroup(order {len(self.elements)})"


def _alpha_table(alpha: OrthAut):
    """(x, alpha(x)) as coordinate tuples for every x in G+G^, in the order
    of dsum_group(G).elements()."""
    fs = dsum_group(alpha.group).factors
    M = alpha.hom.matrix
    table = []
    for x in itertools.product(*(range(f) for f in fs)):
        y = [0] * len(fs)
        for c, row in zip(x, M):
            if c:
                for j, m in enumerate(row):
                    y[j] += c * m
        table.append((x, tuple(v % f for v, f in zip(y, fs))))
    return table


def u_alpha(alpha: OrthAut) -> TwistedSubgroup:
    """U_alpha = {(alpha_1(x), g_x)} with a first-found section per element."""
    return _u_alpha(alpha.group, _alpha_table(alpha))


def _u_alpha(G: FinAbGroup, table) -> TwistedSubgroup:
    n = G.rank
    D = dsum_group(G)
    GG = ab.direct_sum(G, G)
    section = {}
    for x, y in table:
        p = y[:n] + x[:n]
        if p not in section:
            section[p] = GroupElement(D, x)
    return TwistedSubgroup(G, [GroupElement(GG, p) for p in section], section)


class TwoCocycle:
    """psi_alpha on U_alpha, stored as a table of exponents of zeta_N."""

    __slots__ = ("domain", "N", "exps")

    def __init__(self, domain: TwistedSubgroup, N: int, exps):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "exps", dict(exps))
        self._verify_cocycle_identity()

    def __setattr__(self, name, value):
        raise AttributeError("TwoCocycle is immutable")

    def exp(self, a, b) -> int:
        ca = a.coords if isinstance(a, GroupElement) else tuple(a)
        cb = b.coords if isinstance(b, GroupElement) else tuple(b)
        return self.exps[(ca, cb)]

    def value(self, a, b) -> CycloScalar:
        return CycloScalar.root_of_unity(self.N, self.exp(a, b))

    @property
    def table(self):
        return {k: CycloScalar.root_of_unity(self.N, e) for k, e in self.exps.items()}

    def _verify_cocycle_identity(self):
        GG = self.domain.pair_group
        elems = self.domain.elements
        zero = (0,) * GG.rank
        for a in elems:
            if self.exps[(zero, a.coords)] % self.N or self.exps[(a.coords, zero)] % self.N:
                raise DomainError("cocycle is not normalized at the identity")
        add = self.domain.law[1]
        E = [[self.exps[(a.coords, b.coords)] for b in elems] for a in elems]
        n = len(elems)
        for i in range(n):
            for j in range(n):
                Eij, Eab, Ej, Ei, addj = E[i][j], E[add[i][j]], E[j], E[i], add[j]
                for k in range(n):
                    if (Eij + Eab[k] - Ej[k] - Ei[addj[k]]) % self.N:
                        raise DomainError("2-cocycle identity fails at "
                                          f"{elems[i].coords},{elems[j].coords},{elems[k].coords}")

    def __repr__(self):
        return f"TwoCocycle(on order-{len(self.domain)} subgroup, N={self.N})"


_PSI_CACHE = {}


def psi_alpha(alpha: OrthAut) -> TwoCocycle:
    """The 2-cocycle on U_alpha, with well-definedness verified.

    The defining formula reads off a chosen preimage of a; before trusting
    it, every other preimage is tried, and a disagreement raises (rather
    than silently depending on the section).  Built, and its cocycle
    identity verified, once per alpha.
    """
    if alpha not in _PSI_CACHE:
        _PSI_CACHE[alpha] = _build_psi(alpha)
    return _PSI_CACHE[alpha]


def _build_psi(alpha: OrthAut) -> TwoCocycle:
    # psi(a, b) = <alpha_2(r)^-1, b_1> <chi_r, b_2> for a preimage r = (g,
    # chi) of a, whose exponent mod N is the dot product of b's coordinates
    # with v_r = (-alpha_2(r) * w, chi * w), w_i = N / f_i.
    G = alpha.group
    n = G.rank
    N = G.exponent
    w = [N // f for f in G.factors]
    table = _alpha_table(alpha)
    U = _u_alpha(G, table)
    # the distinct v_r mod N over all preimages r of each subgroup element
    vecs: dict = {e.coords: set() for e in U.elements}
    for x, y in table:
        v = tuple(-a * wi % N for a, wi in zip(y[n:], w)) \
            + tuple(c * wi for c, wi in zip(x[n:], w))
        vecs[y[:n] + x[:n]].add(v)
    exps = {}
    for a in U.elements:
        vs = vecs[a.coords]
        for b in U.elements:
            vals = {sum(s * t for s, t in zip(v, b.coords)) % N for v in vs}
            if len(vals) != 1:
                raise DomainError("psi ill-defined for this alpha")
            exps[(a.coords, b.coords)] = vals.pop()
    return TwoCocycle(U, N, exps)
