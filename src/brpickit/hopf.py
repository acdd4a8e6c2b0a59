"""Comodule algebras over the doubled host of a module, and their cotensor
products.

The host layer (HopfAlg, its constructors and checks, and the sparse
element helpers) lives in host; this module builds on the doubled host of
a module (V, u, G), the tensor host of two copies of its supergroup host,
with group G x G and blocks V1, V2.

On the doubled host we build comodule algebras K from data
(W1, W2, W3, beta, F, psi): a twisted group algebra k_psi F extended by
generators from W1 (first axis), W2 (second axis) and W3 (graphs meeting
neither axis), subject to

    e_f e_h = psi(f, h) e_{fh},          e_f w = (f.w) e_f,
    w w' + w' w = beta(w, w') 1          on sectors 11, 22, 33, 13,
    w w' - w' w = beta(w, w') e_u        on sectors 12, 23,

with f acting componentwise on V + V.  F and psi are one orth.Twist, whose
construction proves F a subgroup and psi a well-defined bicharacter, hence
a normalized 2-cocycle; a datum over any other F is refused when it is
made.  The validator enforces the axis and independence conditions,
F-stability of each sector, invariance of beta, and the centrality of e_u
in k_psi F whenever the presentation mentions e_u; incompatible data
raises a DomainError listing every violated clause.  Read as a rewriting
system towards the words w_S e_f, these clauses and the cocycle identity
of psi are its overlap conditions, so by Bergman's diamond lemma (Adv.
Math. 29, 1978) every order of reduction gives the same normal form.
build_K checks the clauses before it builds any table (every bicharacter
is a 2-cocycle), and then assembles the product of w_S1 e_f1 and w_S2
e_f2 from two small tables and psi instead of rewriting the whole word:
the products w_S1 w_S2, the roots e_f picks up passing w_S, and the
twisted law of F, read from psi a pair at a time.  It reduces w_S1 w_S2
in one order, inserting the generators of S2 one at a time: each passes
the rows above it by its sector's rule, the e_g on the right lets it pass
as g.w, and an e_u its relation leaves joins e_g by F's twisted law.  K
keeps its product as those factors (KFactors) and computes an entry when
first read.
loewy_graded grades the tables, and same_tables proves two models equal
when their tables are equal, without reading the dim^2 entries; any
difference is left to their per-entry loops, which find and name it.
Coactions, cotensor products (each computed as one exact kernel), the
Loewy filtration induced by the host coradical filtration and the diagonal
comodule model of a host over its own double all live here.  Verification
routines return reports with located witnesses; check_comodule_algebra
verifies every K that build_K returns, and nothing is assumed to hold by
construction.  Both isomorphism checks, check_diag_iso and
verify_cotensor_iso, prove theirs by one presentation check, _model_iso.

In K, lam(w_S e_f) = g_S f x w_S e_f plus terms of higher host degree, so
its group-like (host degree 0) terms sit at their own basis index; so do
those of the graded, diagonal and cotensor tables on the module zoo.
cotensor and coinvariants check this on the table they are given, and
then leave out the unknowns it forces to zero (see there); where a table
breaks it, nothing is left out.

Every tensor is keyed by tuples of basis indices: L x K by (a, b), a
coaction by (host index, basis index).
"""

import random
from fractions import Fraction
from functools import cache
from math import lcm
from typing import NamedTuple

from . import abelian as ab
from . import linalg as la
from . import orth
from . import brpic as bp
from .cyclo import roots_of_unity
from .errors import BrpicError, CapacityError, DomainError, InputValidationError
from .host import (_ONE, _ZERO, _apply, _coaction_law, _elem_add,
                   _recorder, _scaled, _subsets, _tensor_mul, _tuples,
                   build_supergroup, cop_phi, doubled_host,
                   multiplicative_failures)
from .linalg import addin

_HALF = la.sc(Fraction(1, 2))


# -- comodule algebras ------------------------------------------------------

class KFactors(NamedTuple):
    """The product of K held as the factors build_K assembles it from.

    The basis index of w_S e_f is s nF + f, s the index of S among the
    subsets.  wtab[s1][s2] lists w_S1 w_S2 = sum c w_T e_g as terms
    (index of w_T e_0, index of g, c), with distinct (index, g); e_f picks
    up zeta_N^chi[f][s] passing w_S, N the group's exponent; psi is the
    datum's Twist, which gives e_g e_f1 e_f2 (twist) on demand.  entry(i,
    j) evaluates build_K's formula for an entry on scalars, for ComodAlg;
    host.multiplicative_failures evaluates it on ids(vid), the same
    factors on value ids, under its own memoized id multiply.
    """

    nF: int
    wtab: list
    chi: list
    psi: orth.Twist
    N: int

    def twist(self, g, f1, f2):
        """(h, e) with e_g e_f1 e_f2 = zeta_N^e e_h, N = psi.N: psi(f1, f2)
        at g = 0, else psi(g, f1) psi(g + f1, f2), read from psi.law."""
        law = self.psi.law
        if not g:  # 0: F's identity sorts first
            return law(f1, f2)
        a, d = law(g, f1)
        h, e = law(a, f2)
        return h, (d + e) % self.psi.N

    def entry(self, i, j):
        """Entry (i, j) as {k + h: c zeta_M^(x M/N + e M/psi.N)}, M = lcm(N,
        psi.N), over the terms (k, g, c) of wtab[s1][s2] with x = chi[f1][s2]
        and (h, e) = twist(g, f1, f2); distinct (k, g) give distinct k + h."""
        nF, wtab, chi, psi, N = self
        M = lcm(N, psi.N)
        s1, f1 = divmod(i, nF)
        s2, f2 = divmod(j, nF)
        x, se, roots = chi[f1][s2] * (M // N), M // psi.N, roots_of_unity(M)
        return {k + h: c * roots[(x + e * se) % M] for k, g, c in wtab[s1][s2]
                for h, e in (self.twist(g, f1, f2),)}

    def ids(self, vid):
        """These factors with every scalar c in wtab replaced by vid(c)."""
        return self._replace(wtab=[[[(k, g, vid(c)) for k, g, c in t]
                                    for t in row] for row in self.wtab])


class ComodAlg:
    """A right comodule algebra over a host, held as sparse tables.

    mult maps basis pairs (i, j) to {k: coefficient}; coaction maps a basis
    index to {(host_index, k): coefficient}.  Either table may be backed by
    a builder function and filled on demand (cotensor products do this).
    An algebra with factors (a KFactors; build_K and loewy_graded give
    them) has mulfn = factors.entry, and mult is then only the memo of the
    entries read so far: callers must not write into it, since same_tables
    and loewy_graded read the factors instead.
    """

    __slots__ = ("host", "dim", "basis", "index", "mult", "coaction", "unit",
                 "loewy_degree", "meta", "factors", "_mulfn", "_coactfn")

    def __init__(self, host, basis, mult, coaction, unit, *,
                 loewy_degree=None, meta=None, mulfn=None, coactfn=None,
                 factors=None):
        basis = tuple(basis)
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "dim", len(basis))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "index", {lab: i for i, lab in enumerate(basis)})
        object.__setattr__(self, "mult", mult)
        object.__setattr__(self, "coaction", coaction)
        object.__setattr__(self, "unit", dict(unit))
        object.__setattr__(self, "loewy_degree",
                           tuple(loewy_degree) if loewy_degree is not None else None)
        object.__setattr__(self, "meta", dict(meta) if meta else {})
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "_mulfn", mulfn if factors is None
                           else factors.entry)
        object.__setattr__(self, "_coactfn", coactfn)

    def __setattr__(self, name, value):
        raise AttributeError("ComodAlg is immutable")

    def __repr__(self):
        return f"ComodAlg(dim {self.dim}, {self.meta.get('kind', '?')})"

    def mul_basis(self, i, j):
        got = self.mult.get((i, j))
        if got is None:
            if self._mulfn is None:
                return {}
            got = self._mulfn(i, j)
            self.mult[(i, j)] = got
        return got

    def coact_basis(self, i):
        got = self.coaction.get(i)
        if got is None:
            if self._coactfn is None:
                return {}
            got = self._coactfn(i)
            self.coaction[i] = got
        return got


# -- compatible data --------------------------------------------------------

class CompatibleData:
    """Input data (W1, W2, W3, beta, F, psi) for a comodule algebra K.

    beta is a raw gram table over the concatenated canonical sector bases
    (a BilinearForm is accepted when only the third sector is present); F is
    a subgroup of G x G, held sorted by coordinates.  psi is an orth.Twist
    whose elements are the sorted F, which gives F's coordinates (index),
    G x G (pair_group), and F's law with psi's values (Twist.law); any other
    psi raises an InputValidationError.  None means psi = 1, held as the
    shared orth.trivial_twist on F, whose constructor raises a DomainError
    when F is not a subgroup.

    f in G x G keeps a sector when its row terms (linalg.row_terms, built
    once per datum) hold at f, and then scales each of its reduced rows by
    zeta_N^e, e f's exponent at the row's pivot.  act_exponents(f) gives
    both; actions() holds them for every f in F, computed on first use.
    """

    # _acts: the cached actions(), _violations: compatible_violations' names;
    # each built once, read by every later caller
    __slots__ = ("module", "W1", "W2", "W3", "gram", "F", "psi", "alpha",
                 "rows", "types", "pivots", "terms", "_acts", "_violations")

    def __init__(self, module, W1, W2, W3, beta, F, psi=None, alpha=None):
        m = module.dim
        amb = 2 * m
        GG = ab.direct_sum(module.group, module.group)

        def space(S):
            if S is None:
                return la.zero_space(amb)
            if not isinstance(S, la.Subspace):
                S = la.Subspace(amb, S)
            if S.ambient_dim != amb:
                raise InputValidationError(
                    f"sector ambient dimension {S.ambient_dim} != {amb}")
            return S

        W1 = space(W1)
        W2 = space(W2)
        W3 = space(W3)
        rows = W1.basis + W2.basis + W3.basis
        types = (1,) * W1.dim + (2,) * W2.dim + (3,) * W3.dim
        nW = len(rows)
        if beta is None:
            gram = tuple((( _ZERO, ) * nW) for _ in range(nW))
        elif isinstance(beta, la.BilinearForm):
            if W1.dim or W2.dim or not beta.space.equals(W3):
                raise InputValidationError(
                    "a BilinearForm is only accepted on a pure third sector")
            gram = tuple(tuple(r) for r in beta.gram)
        else:
            gram = tuple(tuple(la.sc(x) for x in r) for r in beta)
            if len(gram) != nW or any(len(r) != nW for r in gram):
                raise InputValidationError(
                    f"gram table must be {nW} x {nW} over the sector basis")

        els = {}
        for f in F:
            if not isinstance(f, ab.GroupElement):
                f = GG.element(tuple(f))
            if f.parent != GG:
                raise InputValidationError("F element does not live in G x G")
            els.setdefault(f.coords, f)
        els = tuple(els[c] for c in sorted(els))

        if psi is None:
            psi = orth.trivial_twist(module.group, els)
        elif not isinstance(psi, orth.Twist) or psi.elements != els:
            raise InputValidationError("psi must be a Twist on F")

        object.__setattr__(self, "module", module)
        object.__setattr__(self, "W1", W1)
        object.__setattr__(self, "W2", W2)
        object.__setattr__(self, "W3", W3)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "F", els)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "pivots", W1.pivots + W2.pivots + W3.pivots)
        object.__setattr__(self, "terms",
                           tuple(la.row_terms(S) for S in (W1, W2, W3)))
        object.__setattr__(self, "_acts", None)
        object.__setattr__(self, "_violations", None)

    def __setattr__(self, name, value):
        raise AttributeError("CompatibleData is immutable")

    def __repr__(self):
        dims = (self.W1.dim, self.W2.dim, self.W3.dim)
        return f"CompatibleData(sectors {dims}, |F|={len(self.F)})"

    def uu_coords(self):
        return self.module.u.coords * 2

    def act_exponents(self, f):
        """(exps, stable) over the global sector basis: stable[t - 1] says
        whether f keeps sector t (always, when it has no row terms), and
        then f.w_i = zeta_N^exps[i] w_i on its rows.  f's exponent row is
        read once, off the module's table by f's coordinates."""
        e = la.pair_exponents(self.module, f.coords)
        N = self.module.group.exponent
        return ([e[p] for p in self.pivots],
                [not t or la.rows_satisfy(t, (e,), N) for t in self.terms])

    def actions(self):
        """act_exponents(f) for every f in F, in F's order."""
        if self._acts is None:
            object.__setattr__(self, "_acts",
                               tuple(self.act_exponents(f) for f in self.F))
        return self._acts

    def zero_beta(self):
        """The same data with beta = 0, the model gr K is compared with.
        The actions do not depend on beta, so the copy shares them; its
        compatibility is decided afresh."""
        nW = len(self.rows)
        z = object.__new__(CompatibleData)
        for name in self.__slots__:
            object.__setattr__(z, name, getattr(self, name))
        object.__setattr__(z, "gram", tuple((_ZERO,) * nW for _ in range(nW)))
        object.__setattr__(z, "_acts", self.actions())
        object.__setattr__(z, "_violations", None)
        return z


_SYM_SIGN = {(1, 1): 1, (2, 2): 1, (3, 3): 1, (1, 3): 1, (1, 2): -1, (2, 3): -1}


def compatible_violations(data) -> list:
    """Names of every compatibility clause the data violates (empty = valid).

    They are found once per datum and held in its _violations slot; every
    call returns a fresh list of them."""
    if data._violations is not None:
        return list(data._violations)
    module = data.module
    m = module.dim
    bad = []
    if any(any(not c.is_zero() for c in row[m:]) for row in data.W1.basis):
        bad.append("W1_axis")
    if any(any(not c.is_zero() for c in row[:m]) for row in data.W2.basis):
        bad.append("W2_axis")
    if any(la.axis_meets(data.W3)):
        bad.append("W3_axis")
    if la.rank(list(data.rows)) != len(data.rows):
        bad.append("independent")

    acts = data.actions()
    stable = True
    for t, name in ((1, "F_stable_W1"), (2, "F_stable_W2"), (3, "F_stable_W3")):
        if not all(ok[t - 1] for _, ok in acts):
            bad.append(name)
            stable = False

    nW = len(data.rows)
    eu_beta = any(not data.gram[i][j].is_zero()
                  for i in range(nW) for j in range(nW)
                  if _SYM_SIGN.get(tuple(sorted((data.types[i], data.types[j])))) == -1)
    needs_u = data.W3.dim > 0 or eu_beta
    has_u = data.uu_coords() in data.psi.index
    if needs_u and not has_u:
        bad.append("u_in_F")

    sym_ok = True
    for i in range(nW):
        for j in range(i, nW):
            sign = _SYM_SIGN[tuple(sorted((data.types[i], data.types[j])))]
            lhs = data.gram[j][i]
            rhs = data.gram[i][j] if sign > 0 else -data.gram[i][j]
            if lhs != rhs:
                sym_ok = False
    if not sym_ok:
        bad.append("beta_symmetry")

    # f.beta = beta: zeta^(e_i + e_j) gram_ij = gram_ij on the support, e
    # f's exponents at the rows' pivots, as actions() read them
    if stable and not la.rows_satisfy(
            la.form_terms(la.support(data.gram), range(nW)),
            [e for e, _ in acts], module.group.exponent):
        bad.append("beta_F_invariant")

    if needs_u and has_u and not _u_central(data.psi, data.uu_coords()):
        bad.append("psi_u_central")
    object.__setattr__(data, "_violations", tuple(bad))
    return bad


def _u_central(psi, uu) -> bool:
    """True when uu lies in psi's F and psi(g, uu) = psi(uu, g) at each
    generator g, hence at every f: row and column g of E agree on uu's word.
    The psi_u_central clause, and the seeded generators' rule for graph
    lines and e_u-sector beta entries."""
    u = psi.index.get(uu)
    return u is not None and all(
        sum((x - y) * c for x, y, c in zip(row, col, psi.words[u])) % psi.N == 0
        for row, col in zip(psi.E, zip(*psi.E)))


def build_K(data) -> ComodAlg:
    """The comodule algebra K of a compatible datum over the doubled host.

    Once compatible_violations passes, every reduction order gives the same
    normal form (see the module docstring), so the product is assembled as

        w_S1 e_f1 . w_S2 e_f2 = chi(f1, S2) sum c psi'(g, f1, f2) w_T e_h

    over w_S1 w_S2 = sum c w_T e_g (times_ws, so g is 0 or (u, u)), with
    chi(f1, S2) the product of the roots e_f1 picks up passing each row of
    S2 and e_g e_f1 e_f2 = psi'(g, f1, f2) e_h, h = g + f1 + f2.  Each
    root is an exponent, chi mod N and psi' mod psi.N, until K (K.factors,
    a KFactors) computes entry (i, j) on its first read, as c zeta_M^x
    with M = lcm(N, psi.N) and zeta_M^x from roots_of_unity(M).
    The coaction is multiplicative.  lam(w_S) = lam(w_S') lam(w_s), with
    s = max S and S' = S minus s, is built by prefix and reads the entries
    it needs.  lam(w_S e_f) = lam(w_S) (f x e_f) is a translation: f is
    group-like, and w_T' e_f1 . e_f = psi(f1, f) w_T' e_(f1 + f) (chi is 1
    past no w and e_0 e_f1 e_f has no further twist), so each term
    c v_T g x w_T' e_f1 goes to c psi(f1, f) v_T (g + f) x w_T' e_(f1 + f):
    the host index is the one key of mono_mul(v_T g, f), the F index and
    psi(f1, f) are read from psi.law.
    """
    bad = compatible_violations(data)
    if bad:
        raise DomainError("incompatible comodule-algebra data; violated: "
                          + ", ".join(bad))
    module = data.module
    m = module.dim
    host = doubled_host(module)

    rows = data.rows
    nW = len(rows)
    Fels = data.F
    nF = len(Fels)
    if (1 << nW) * nF > 8192:
        raise CapacityError("comodule algebra dimension exceeds the supported bound")
    psi = data.psi
    id_f = 0  # F's identity sorts first
    u_f = psi.index.get(data.uu_coords())
    N = module.group.exponent
    M = lcm(N, psi.N)
    roots, sx, se = roots_of_unity(M), M // N, M // psi.N
    acts = [exps for exps, _ in data.actions()]
    gram = data.gram
    types = data.types

    @cache
    def times_w(T, b):
        """w_T w_b = sum c w_U e_g as {(U, g): c}, T sorted: w_b passes the
        rows of T above it, from the top, by its sector's rule: w_a w_b =
        -w_b w_a + beta_ba, or w_b w_a - beta_ba e_u on sectors 12 and 23,
        after which e_g passes w_a as (g.w_a) w_a e_g."""
        if not T or b > T[-1]:
            return {(T + (b,), id_f): _ONE}
        if b == T[-1]:
            c = _HALF * gram[b][b]
            return {} if c.is_zero() else {(T[:-1], id_f): c}
        a, T1, c = T[-1], T[:-1], gram[b][T[-1]]
        odd = _SYM_SIGN[tuple(sorted((types[a], types[b])))] < 0
        out = {}
        for (U, g), x in times_w(T1, b).items():
            x = x if g == id_f else x * roots[acts[g][a] * sx]
            out[(U + (a,), g)] = x if odd else -x
        if not c.is_zero():
            out[(T1, u_f if odd else id_f)] = -c if odd else c
        return out

    @cache
    def times_ws(T, g, R):
        """(w_T e_g) w_R = sum c w_U e_h as {(U, h): c}, T and R sorted:
        w_b, b = R[0], is inserted first, as (w_T e_g) w_b = (g.w_b) (w_T
        w_b) e_g with e_h e_g read from psi.law, and each term then takes the
        rest of R, the order in which leftmost-first rewriting of the word
        lists an entry's terms.  g = 0 acts trivially, so only g = (u, u)
        multiplies, by the one root of g.w_b and psi(h, g), where it is not
        1; the empty rest of R gives coefficient 1, which is not applied."""
        if not R:
            return {(T, g): _ONE}
        out = {}
        for (U, h), x in times_w(T, R[0]).items():
            if g != id_f:
                h, e = psi.law(h, g)
                e = (acts[g][R[0]] * sx + e * se) % M
                if e:
                    x = x * roots[e]
            for k, v in times_ws(U, h, R[1:]).items():
                addin(out, k, x * v if len(R) > 1 else x)
        return out

    subsets = _subsets(nW)
    keys = [(S, fk) for S in subsets for fk in range(nF)]
    kidx = {key: i for i, key in enumerate(keys)}
    labels = tuple((S, Fels[fk].coords) for S, fk in keys)

    # w_S1 w_S2 = sum c w_T e_g, g in {0, (u, u)}, as (kidx[(T, 0)], g, c)
    wtab = [[[(kidx[(T, 0)], g, c)
              for (T, g), c in times_ws(S1, id_f, S2).items()]
             for S2 in subsets] for S1 in subsets]
    # chi(f, S): the root e_f picks up passing w_S, an exponent mod N
    chi = [[sum(exps[b] for b in S) % N for S in subsets] for exps in acts]

    zeroG = module.group.zero().coords
    zeroGG = psi.pair_group.zero().coords
    ue = module.u.coords + zeroG
    eu = zeroG + module.u.coords
    uu = data.uu_coords()
    unit_k = kidx[((), id_f)]

    # lam(w) = sum_j w_j v_j x 1 + g x w with g = (u, 1), or (1, u) on the
    # second axis; a graph row's second-axis terms are w_j v_j (u, u) x e_u.
    # The axis clauses make first- and second-axis rows zero off their axis.
    lamw = []
    for wi, row in enumerate(rows):
        t = types[wi]
        d = {}
        for j, c in enumerate(row):
            if c.is_zero():
                continue
            if j >= m and t == 3:
                addin(d, (host.index[((j,), uu)], kidx[((), u_f)]), c)
            else:
                addin(d, (host.index[((j,), zeroGG)], unit_k), c)
        addin(d, (host.index[((), eu if t == 2 else ue)], kidx[((wi,), id_f)]),
              _ONE)
        lamw.append(d)

    loewy = tuple(len(S) for S, fk in keys)
    K = ComodAlg(host, labels, {}, {}, {unit_k: _ONE}, loewy_degree=loewy,
                 meta={"kind": "K", "data": data},
                 factors=KFactors(nF, wtab, chi, psi, N))
    # the coaction is multiplicative: lam(w_S) by prefix, then lam(w_S e_f)
    # by translation
    lam_S = {(): {(host.one_idx, unit_k): _ONE}}
    for S in subsets[1:]:
        lam_S[S] = _tensor_mul(host.mono_mul, K.mul_basis, lam_S[S[:-1]],
                               lamw[S[-1]])
    for i, (S, fk) in enumerate(keys):
        r = host.group_like(Fels[fk])
        K.coaction[i] = {(h2, k - k % nF + f): c * roots[e * se]
                         for (h, k), c in lam_S[S].items()
                         for f, e in (psi.law(k % nF, fk),)
                         for h2 in host.mono_mul(h, r)}
    return K


def build_L(module, W, beta, alpha) -> ComodAlg:
    """K built from the twist psi_alpha on U_alpha."""
    psi = orth.psi_alpha(alpha)
    data = CompatibleData(module, None, None, W, beta, psi.elements, psi,
                          alpha=alpha)
    return build_K(data)


def _model_iso(K, gen_w, gen_e, mul, one, target, coords, note):
    """Whether w_i -> gen_w[i] and e_f -> gen_e[k] (f the k-th element of
    K's F) extend to an isomorphism of comodule algebras from the
    third-sector model K onto target; notes each failure and returns the
    bijectivity verdict.  mul and one are the product and unit of an
    algebra holding target; coords(x) gives x in target's basis, or None.

    Proof.  K is the algebra its relations present, with basis w_S e_f
    and unit e_0 (module docstring), so images that satisfy relations_w,
    relations_psi and relations_action, with e_0 -> one, give an algebra
    map, and it sends w_S e_f to the product of its letters' images.
    When those images lie in target, are independent and number dim
    target, they span target, which holds one; each ends in some gen_e[f]
    = gen_e[f] gen_e[0] (psi is normalized), so one = one gen_e[0] =
    gen_e[0], and the map is a bijective algebra map.  A linear map that
    commutes with the coactions on a basis is a comodule map.

    relations_psi is checked for a in {0} and the generators of F
    (psi.gens) and every b: e_a e_b = psi(a, b) e_(a+b) then holds for
    every a, by induction on the length of a as a sum of generators.  For
    a = g + a', g a generator, the checked relation at (g, a') gives e_a =
    psi(g, a')^-1 e_g e_a', as psi's values are roots of unity; the product
    of the algebra holding target is associative, so e_a e_b = psi(g,
    a')^-1 psi(a', b) psi(g, a' + b) e_(a+b), and psi is a bicharacter
    (its Twist proved it well defined), so that scalar is psi(a, b)."""
    data = K.meta["data"]
    if data.W1.dim or data.W2.dim:
        raise DomainError("_model_iso reads the relations of a third-sector "
                          "model only")
    gram = data.gram
    nW = len(data.rows)
    for i in range(nW):
        for j in range(i, nW):
            lhs = _elem_add(mul(gen_w[i], gen_w[j]),
                            mul(gen_w[j], gen_w[i])) if i != j \
                else mul(gen_w[i], gen_w[i])
            rhs = _scaled(one, gram[i][j] if i != j else _HALF * gram[i][i])
            if lhs != rhs:
                note("relations_w", (i, j))
    psi = data.psi
    fpos, roots = psi.index, roots_of_unity(psi.N)
    for i in (0, *map(fpos.__getitem__, psi.gens)):  # 0: F's identity
        for j, b in enumerate(data.F):
            h, e = psi.law(i, j)
            if mul(gen_e[i], gen_e[j]) != _scaled(gen_e[h], roots[e]):
                note("relations_psi", (data.F[i].coords, b.coords))
    roots = roots_of_unity(data.module.group.exponent)
    for f, e, (exps, _) in zip(data.F, gen_e, data.actions()):
        for wi in range(nW):
            rhs = _scaled(mul(gen_w[wi], e), roots[exps[wi]])
            if mul(e, gen_w[wi]) != rhs:
                note("relations_action", (f.coords, wi))

    ech = la.Echelon()
    images = []
    for S, fc in K.basis:
        acc = dict(one)
        for s in S:
            acc = mul(acc, gen_w[s])
        acc = mul(acc, gen_e[fpos[fc]])
        ech.insert(acc)
        co = coords(acc)
        if co is None:
            note("image_outside_cotensor", (S, fc))
        images.append(co)
    inside = None not in images
    bij = ech.dim == K.dim and target.dim == K.dim and inside
    if not bij:
        note("not_bijective", (ech.dim, target.dim, K.dim))

    if inside:
        for b in range(K.dim):
            rhs = {}
            for (h, b2), c in K.coact_basis(b).items():
                for pos, c2 in images[b2].items():
                    addin(rhs, (h, pos), c * c2)
            if _apply(target.coact_basis, images[b]) != rhs:
                note("comodule_map", K.basis[b])
    return bij


# -- diagonal model ---------------------------------------------------------

def diag_comodule(H) -> ComodAlg:
    """H as a comodule algebra over its own double, along the diagonal."""
    if H.kind != "supergroup":
        raise InputValidationError("diagonal model needs a supergroup host")
    module = H.modules[0]
    m = module.dim
    B = doubled_host(module)
    zeroG = module.group.zero().coords
    phi = cop_phi(H)
    emb1 = [B.index[(S, g.coords + zeroG)] for S, g in H.basis]
    emb2 = [B.index[(tuple(x + m for x in S), zeroG + g.coords)]
            for S, g in H.basis]

    coaction = {}
    loewy = []
    for i in range(H.dim):
        t3 = {}
        for (a, b), c in H.comult(i).items():
            for (b1, b2), c2 in H.comult(b).items():
                addin(t3, (a, b1, b2), c * c2)
        acc = {}
        for (a1, a2, a3), c in t3.items():
            for p, cp in phi[a3].items():
                for h, ch in B.mono_mul(emb1[p], emb2[a1]).items():
                    addin(acc, (h, a2), c * cp * ch)
        coaction[i] = acc
        loewy.append(max((B.deg(h) for (h, _k) in acc), default=0))

    labels = tuple((S, g.coords) for S, g in H.basis)
    unit = {H.one_idx: _ONE}
    return ComodAlg(B, labels, {}, coaction, unit, loewy_degree=loewy,
                    meta={"kind": "diag"}, mulfn=H.mono_mul)


def check_diag_iso(H):
    """Prove the diagonal model D of H isomorphic to K = build_L of
    bp.identity_rdatum (diagonal W, beta = 0, F the diagonal of G x G) by
    _model_iso on K -> D: w_i -> v_i u, e_(g,g) -> g.  Its inverse is
    sigma: v -> (v, v) e_(u,u), g -> e_(g,g)."""
    module = H.modules[0]
    d = bp.identity_rdatum(module)
    K = build_L(module, d.W, d.beta, d.alpha)
    u = {H.group_like(module.u): _ONE}
    gen_w = [H.mul({H.v_basis(i): _ONE}, u) for i in range(module.dim)]
    r = len(module.group.factors)
    gen_e = [{H.index[((), f.coords[:r])]: _ONE} for f in K.meta["data"].F]
    failures, note = _recorder()
    bij = _model_iso(K, gen_w, gen_e, H.mul, {H.one_idx: _ONE},
                     diag_comodule(H), lambda x: x, note)
    return {"ok": not failures, "bijective": bij, "dim": H.dim,
            "failures": failures}


# -- comodule-algebra verification ------------------------------------------

def _group_like_parts(coact, n, host):
    """The group-like (host degree 0) terms {p: c} of coact(i) for i < n,
    or None when a nonzero one, (p, k), sits off its own index (k != i)."""
    parts = []
    for i in range(n):
        part = {}
        for (p, k), c in coact(i).items():
            if not host.basis[p][0] and not c.is_zero():
                if k != i:
                    return None
                part[p] = c
        parts.append(part)
    return parts


def coinvariants(A) -> list:
    """Basis of {x : coaction(x) = 1 tensor x}, as dense coefficient vectors.

    Lemma: when every group-like (host degree 0) term of every lam(i) sits
    at its own index i, a coinvariant x has x_k = 0 wherever the group-like
    part of lam(k) is not 1 x k.  Proof: for group-like p, the coordinate
    (p, k) of lam(x) - 1 x x is sum_i x_i lam(i)[p, k] - [p = 1] x_k, and
    only i = k contributes, so it reads x_k (lam(k)[p, k] - [p = 1]) = 0.
    Only the other columns are eliminated, and kernel_sparse_rows gives the
    full basis with zeros there: a column forced to zero has a constraint
    row whose only entry is there, so the full reduced form is the one
    without it plus that unit row, with the same free columns and vectors.
    When a group-like term sits off its own index, every column is
    eliminated."""
    host = A.host
    one = {host.one_idx: _ONE}
    parts = _group_like_parts(A.coact_basis, A.dim, host)
    cols = [i for i in range(A.dim) if parts is None or parts[i] == one]
    rows = {}
    for t, i in enumerate(cols):
        for (h, k), c in A.coact_basis(i).items():
            addin(rows.setdefault((h, k), {}), t, c)
        addin(rows.setdefault((host.one_idx, i), {}), t, -_ONE)
    out = []
    for vec in la.kernel_sparse_rows([r for r in rows.values() if r],
                                     len(cols)):
        x = [_ZERO] * A.dim
        for t, c in vec.items():
            x[cols[t]] = c
        out.append(x)
    return out


def check_comodule_algebra(A, rng=None):
    """Verify coassociativity, counitality and multiplicativity of the
    coaction; returns a report with located witnesses and the dimension of
    the coinvariant subalgebra.  Multiplicativity runs over all basis pairs
    when dim A <= 24 and over max(200, 4 dim A) random pairs above, each
    failing occurrence noted in pair order; host.multiplicative_failures
    decides each distinct pair once, on value ids (see there).

    A's own product is not checked: its associativity is taken from the
    construction (ROADMAP item 15).  On a K without sector rows, a product
    with one e_f e_f entry doubled is not associative, keeps the coaction
    multiplicative and passes as ok.
    """
    rng = rng if rng is not None else random.Random(0)
    host = A.host
    failures, note = _recorder()
    for i in range(A.dim):
        coassoc, counit = _coaction_law(A.coact_basis, host.comult,
                                        host.counit, i)
        if not coassoc:
            note("coassoc", A.basis[i])
        if not counit:
            note("counit", A.basis[i])

    if _apply(A.coact_basis, A.unit) != {(host.one_idx, k): c for k, c
                                         in A.unit.items() if c}:
        note("unit", None)

    pairs = _tuples(A.dim, 2, rng, None if A.dim <= 24 else max(200, 4 * A.dim))
    bad = multiplicative_failures(A, pairs)
    for i, j in pairs:
        if (i, j) in bad:
            note("multiplicative", (A.basis[i], A.basis[j]))

    coin = coinvariants(A)
    return {"ok": not failures, "failures": failures,
            "checked_pairs": len(pairs), "coinvariants_dim": len(coin)}


# -- cotensor products ------------------------------------------------------

def _counit_legs(host, H, side):
    """Per basis index h of the doubled host H x H: what the counit of the
    other factor leaves of h, as (H index, host index of that leg embedded
    back on its side), or None where that counit kills h.  Side 0 applies
    id x eps, side 1 eps x id."""
    m, r = H.nv, len(H.group.factors)
    zero = H.group.zero().coords
    out = []
    for S, g in host.basis:
        if any((s >= m) != side for s in S):
            out.append(None)
            continue
        leg = g.coords[r:] if side else g.coords[:r]
        out.append((H.index[(tuple(s - side * m for s in S), leg)],
                    host.index[(S, zero + leg if side else leg + zero)]))
    return out


@cache
def _cotensor_frame(module):
    """What cotensor reads of the module alone, built once per module: its
    supergroup host H, cop_phi(H), the _counit_legs tables of the doubled
    host for sides 0 and 1, and the co-opposite comultiplication of H."""
    H = build_supergroup(module)
    host = doubled_host(module)
    cop = [{(h2, h1): c for (h1, h2), c in H.comult(h).items()}
           for h in range(H.dim)]
    return (H, cop_phi(H), _counit_legs(host, H, 0), _counit_legs(host, H, 1),
            cop)


def _induced_right(L, phi, leg2):
    """The right coaction of L over the supergroup host through the second
    leg of the doubled host and cop_phi, flipped: keyed (H index, L index)."""
    out = []
    for i in range(L.dim):
        d = {}
        for (h, k), c in L.coact_basis(i).items():
            if leg2[h] is not None:
                for p, cp in phi[leg2[h][0]].items():
                    addin(d, (p, k), c * cp)
        out.append(d)
    return out


def cotensor(L, K) -> ComodAlg:
    """Exact cotensor product of two comodule algebras over the doubled
    host, computed as the kernel of one constraint system.

    Elements of L x K are keyed by basis pairs (a, b) and multiplied with
    _tensor_mul.  L coacts on the right over the supergroup host H through
    the second leg and cop_phi; that coaction is held flipped, keyed
    (H index, L index), and checked as a left coaction over the co-opposite
    comultiplication of H.  K coacts on the left through the first leg.

    Lemma: when every group-like (host degree 0) term of every lam_r(i)
    and lam_l(j) sits at its own index, a cotensor element z has z_ij = 0
    unless the group-like parts of lam_r(i) and lam_l(j) agree.  Proof: z
    is in the kernel of (rho x id) - (id x lam).  Its coordinate (i, p, j)
    at a group-like p collects z_i'j rho(i')[p, i] and z_ij' lam(j')[p, j],
    and by the hypothesis only i' = i and j' = j have such terms, so it
    reads z_ij (rho(i)[p, i] - lam(j)[p, j]) = 0.  Only the unknowns (i, j)
    whose parts agree are solved, in (i, j) order, and the kernel basis is
    the full one with zeros at the others (the argument of coinvariants),
    so the echelon has the reduced rows the full computation gives.  When a
    group-like term sits off its own index, every unknown is kept."""
    host = L.host
    if K.host is not host:
        if (K.host.kind != host.kind or K.host.group != host.group
                or K.host.modules != host.modules):
            raise InputValidationError("factors live over different hosts")
    if host.kind != "tensor" or host.modules[0] != host.modules[1]:
        raise InputValidationError("cotensor needs the doubled host of a module")
    H, phi, leg1, leg2, cop = _cotensor_frame(host.modules[0])

    lam_r = _induced_right(L, phi, leg2)
    lam_l = []
    for j in range(K.dim):
        d = {}
        for (h, k), c in K.coact_basis(j).items():
            if leg1[h] is not None:
                addin(d, (leg1[h][0], k), c)
        lam_l.append(d)
    if not all(_coaction_law(lam_r.__getitem__, cop.__getitem__, H.counit, i)
               == (True, True) for i in range(L.dim)):
        raise BrpicError("internal invariant violation: induced right coaction "
                         "is not a comodule structure")
    if not all(_coaction_law(lam_l.__getitem__, H.comult, H.counit, j)
               == (True, True) for j in range(K.dim)):
        raise BrpicError("internal invariant violation: induced left coaction "
                         "is not a comodule structure")

    parts_r = _group_like_parts(lam_r.__getitem__, L.dim, H)
    parts_l = _group_like_parts(lam_l.__getitem__, K.dim, H)
    prune = parts_r is not None and parts_l is not None
    cols = [(i, j) for i in range(L.dim) for j in range(K.dim)
            if not prune or parts_r[i] == parts_l[j]]
    rows = {}
    for t, (i, j) in enumerate(cols):
        for (p, k), c in lam_r[i].items():
            addin(rows.setdefault((k, p, j), {}), t, c)
        for (p, k), c in lam_l[j].items():
            addin(rows.setdefault((i, p, k), {}), t, -c)
    ech = la.Echelon()
    for vec in la.kernel_sparse_rows([r for r in rows.values() if r],
                                     len(cols)):
        ech.insert({cols[t]: c for t, c in vec.items()})

    n = ech.dim
    labels = tuple(("z", t) for t in range(n))
    zrows = ech.rows_by_pos

    def mulfn(i, j):
        co = ech.coords(_tensor_mul(L.mul_basis, K.mul_basis,
                                    zrows[i], zrows[j]))
        if co is None:
            raise BrpicError("internal invariant violation: cotensor product "
                             "left the computed kernel")
        return co

    def coactfn(t):
        byh = {}
        for (a, b), c in zrows[t].items():
            for (h1, a0), c1 in L.coact_basis(a).items():
                if leg1[h1] is None:
                    continue
                cc1 = c * c1
                for (h2, b0), c2 in K.coact_basis(b).items():
                    if leg2[h2] is None:
                        continue
                    for h3, ch in host.mono_mul(leg1[h1][1],
                                                leg2[h2][1]).items():
                        addin(byh.setdefault(h3, {}), (a0, b0),
                              cc1 * c2 * ch)
        entry = {}
        for h3 in sorted(byh):
            vec = {k: c for k, c in byh[h3].items() if not c.is_zero()}
            if not vec:
                continue
            co = ech.coords(vec)
            if co is None:
                raise BrpicError("internal invariant violation: cotensor "
                                 "coaction left the computed kernel")
            for pos, c in co.items():
                addin(entry, (h3, pos), c)
        return entry

    unit = ech.coords({(a, b): ca * cb for a, ca in L.unit.items()
                       for b, cb in K.unit.items()})
    if unit is None:
        raise BrpicError("internal invariant violation: unit is outside "
                         "the cotensor kernel")

    return ComodAlg(host, labels, {}, {}, unit,
                    meta={"kind": "cotensor", "echelon": ech},
                    mulfn=mulfn, coactfn=coactfn)


def verify_cotensor_iso(d, dt):
    """Check that the cotensor of the models of d and dt (second factor with
    identity twist) is isomorphic, as a comodule algebra, to the model of
    their composed datum, via w -> iota1(w) x 1 + e_u x iota2(w) and
    e_f -> e_f x e_(f2,f2).  Returns a report; 'ok' requires the dimension
    law and every structural check.

    A row (v1 | v3) of the composite has a witness v2 with (v1 | v2) in W
    and (v2 | v3) in W~.  Neither meets an axis, so their reduced rows have
    their pivots in the first half, and a vector's coordinates are its
    entries at the pivots: iota1(w) = (v1 | v2) has coordinates s_k = v1
    at W's k-th pivot, v2 = sum s_k W_k[m:], and iota2(w) = (v2 | v3) has
    t_k = v2 at W~'s k-th pivot.  A wrong witness would fail the relation,
    image or comodule-map check."""
    module = d.module
    G = module.group
    if dt.module != module:
        raise DomainError("factors live over different modules")
    if dt.alpha != orth.orth_identity(G):
        raise DomainError("second factor must carry the identity twist")
    m = module.dim
    r = len(G.factors)
    zeroGG = G.zero().coords * 2

    d3 = bp.rdatum_product(d, dt)
    L1 = build_L(module, d.W, d.beta, d.alpha)
    L2 = build_L(module, dt.W, dt.beta, dt.alpha)
    L3 = build_L(module, d3.W, d3.beta, d3.alpha)
    C = cotensor(L1, L2)
    data1 = L1.meta["data"]
    data3 = L3.meta["data"]
    failures, note = _recorder(12)

    def tmul(x, y):
        return _tensor_mul(L1.mul_basis, L2.mul_basis, x, y)

    expected = (1 << d3.W.dim) * len(data1.F)
    report = {"dim_cot": C.dim, "dim_expected": expected, "dim_model": L3.dim,
              "W_product_dim": d3.W.dim}
    if not (C.dim == expected == L3.dim):
        note("dimension_law", (C.dim, expected, L3.dim))

    unit2 = L2.index[((), zeroGG)]
    one = {(L1.index[((), zeroGG)], unit2): _ONE}

    R = d.W.basis
    eu1 = data3.rows and L1.index[((), data1.uu_coords())]  # V = 0: no e_u
    phiw = []
    for row in data3.rows:
        v2 = [_ZERO] * m
        vec = {}
        for k, p in enumerate(d.W.pivots):
            if not row[p].is_zero():
                v2 = [a + row[p] * b for a, b in zip(v2, R[k][m:])]
                vec[(L1.index[((k,), zeroGG)], unit2)] = row[p]
        for k, p in enumerate(dt.W.pivots):
            if not v2[p].is_zero():
                addin(vec, (eu1, L2.index[((k,), zeroGG)]), v2[p])
        phiw.append(vec)

    phie = []
    for f in data3.F:
        f2 = f.coords[r:]
        phie.append({(L1.index[((), f.coords)], L2.index[((), f2 + f2)]): _ONE})

    report["bijective"] = _model_iso(L3, phiw, phie, tmul, one, C,
                                     C.meta["echelon"].coords, note)
    report["ok"] = not failures
    report["failures"] = failures
    return report


# -- Loewy filtration -------------------------------------------------------

def loewy_graded(A) -> ComodAlg:
    """Associated graded of A under the filtration pulled back from the host
    coradical filtration.  Requires (and verifies) that each filtration step
    is spanned by basis vectors of the recorded degree.

    Step n is the kernel of the coaction rows (h, k) with deg h > n.  Let
    R_d be the rows with deg h = d, and C_d the columns i with deg i = d.
    Lemma: once the top host degree of every lam(i) is deg i (checked
    first), every step n is spanned by {i : deg i <= n} exactly when each
    block (R_d, C_d), d >= 1, has full column rank.  Proof: column i has no
    entry in R_e for e > deg i, so step n, the kernel of the rows R_e with
    e > n, contains every C_d with d <= n; it equals their span iff the
    columns with d > n are independent on those rows.  Given full blocks,
    take x != 0 on those columns and D the largest d with x_D != 0: then
    R_D sees only x_D, which the block maps to a nonzero vector.
    Conversely, at n = d - 1 a vector on C_d alone meets only R_d.
    So one echelon per d >= 1, stopped once its rank reaches |C_d|, decides
    every step.  Only when a block falls short does _filtration_steps run,
    and it names the first failing step.

    When A has factors with degrees constant on each w_S e_F block, the
    product is graded on them: each term of an entry is a term (T, g) of
    wtab, so an entry has a term above |S1| + |S2| exactly when wtab has,
    and the graded algebra keeps the top-degree terms of wtab, the same chi
    and the same psi.  Any term above, or no
    factors, runs the per-entry loop, which raises at the first entry in
    row-major order."""
    host = A.host
    if A.loewy_degree is None:
        raise DomainError("algebra carries no degree labels to grade against")
    deg = A.loewy_degree
    blocks = {}
    for i, d in enumerate(deg):
        lam = A.coact_basis(i)
        hdeg = [host.deg(h) for h, _k in lam]
        if max(hdeg, default=0) != d:
            raise BrpicError("recorded degree disagrees with the coaction "
                             f"at basis {A.basis[i]}")
        if d:
            rows = blocks.setdefault(d, {})
            for e, (key, c) in zip(hdeg, lam.items()):
                if e == d:
                    addin(rows.setdefault(key, {}), i, c)
    for d, rows in blocks.items():
        need = deg.count(d)
        ech = la.Echelon()
        for row in rows.values():
            ech.insert(row)
            if ech.dim == need:
                break
        else:
            _filtration_steps(A)

    factors = _graded_factors(A.factors, deg)
    mult = {}
    if factors is None:
        for i in range(A.dim):
            for j in range(A.dim):
                entry = {}
                for k, c in A.mul_basis(i, j).items():
                    if deg[k] > deg[i] + deg[j]:
                        raise BrpicError("product violates the filtration at "
                                         f"{A.basis[i]} * {A.basis[j]}")
                    if deg[k] == deg[i] + deg[j]:
                        entry[k] = c
                mult[(i, j)] = entry
    coaction = {}
    for i in range(A.dim):
        entry = {}
        for (h, k), c in A.coact_basis(i).items():
            tot = host.deg(h) + deg[k]
            if tot > deg[i]:
                raise BrpicError("coaction violates the filtration at "
                                 f"{A.basis[i]}")
            if tot == deg[i]:
                entry[(h, k)] = c
        coaction[i] = entry
    return ComodAlg(host, A.basis, mult, coaction, A.unit, loewy_degree=deg,
                    meta={"kind": "graded"}, factors=factors)


def _filtration_steps(A):
    """Raise at the least degree n whose filtration step (see loewy_graded)
    is not spanned by the basis vectors of degree <= n.  Step n is the
    kernel of the coaction rows (h, k) with deg h > n, so its dimension is
    dim A minus their rank.  Those rows only grow as n falls: one echelon
    takes them from the top host degree down and gives every step's rank."""
    deg = A.loewy_degree
    by_deg = {}
    for i in range(A.dim):
        for (h, k), c in A.coact_basis(i).items():
            addin(by_deg.setdefault(A.host.deg(h), {}).setdefault((h, k), {}),
                  i, c)
    ech = la.Echelon()
    failing = None
    for n in range(max(deg), -1, -1):
        if A.dim - ech.dim != sum(d <= n for d in deg):
            failing = n
        for row in by_deg.get(n, {}).values():
            ech.insert(row)
    if failing is not None:
        raise BrpicError("Loewy filtration step is not spanned by the "
                         f"monomial basis at degree {failing}")


def _graded_factors(factors, deg):
    """The factors of the graded algebra (loewy_graded), or None when there
    are none, the degrees are not constant on blocks or a term lies above."""
    if factors is None:
        return None
    nF = factors.nF
    if any(deg[i] != deg[i - i % nF] for i in range(len(deg))):
        return None
    block = deg[::nF]
    wtab = []
    for s1, row in enumerate(factors.wtab):
        graded = []
        for s2, terms in enumerate(row):
            d = block[s1] + block[s2]
            if any(deg[k] > d for k, _, _ in terms):
                return None
            graded.append([t for t in terms if deg[t[0]] == d])
        wtab.append(graded)
    return factors._replace(wtab=wtab)


def same_tables(A, B):
    """Exact structural equality of two table-backed comodule algebras.

    When A and B have equal factors, which give equal entries, no product
    entry is read; otherwise every entry is compared, in row-major order.
    So a difference is always found, and named, by that loop.  Factors
    hold their datum's psi, which the beta = 0 model of K's datum shares,
    so loewy_graded(K) and that model have equal factors."""
    if A.basis != B.basis:
        return False, "basis labels differ"
    if A.unit != B.unit:
        return False, "units differ"
    if A.loewy_degree != B.loewy_degree:
        return False, "degree labels differ"
    if A.factors is None or A.factors != B.factors:
        for i in range(A.dim):
            for j in range(A.dim):
                if A.mul_basis(i, j) != B.mul_basis(i, j):
                    return False, ("products differ at "
                                   f"{A.basis[i]} * {A.basis[j]}")
    for i in range(A.dim):
        if A.coact_basis(i) != B.coact_basis(i):
            return False, f"coactions differ at {A.basis[i]}"
    return True, None


# -- seeded generators ------------------------------------------------------

_T_CHOICES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
              Fraction(3), Fraction(-2, 3))
_B_CHOICES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
              Fraction(-3))


def _graph_positions(module, pairs):
    """Generators whose character agrees on both components of every pair
    of G x G listed by its coordinates."""
    m = module.dim
    return [i for i in range(m)
            if la.pairs_satisfy(module, [(i, 1, m + i, 1, 0)], pairs)]


def _graph_row(rng, m, i):
    """The line of e_i + t e_(m+i) in V + V, t drawn from _T_CHOICES."""
    row = [_ZERO] * (2 * m)
    row[i] = _ONE
    row[m + i] = la.sc(_T_CHOICES[rng.randrange(len(_T_CHOICES))])
    return row


def family_alphas(module, bound=256):
    """The alphas compatible_families twists by: bp.suite_alphas(module,
    bound), which holds the identity, when |G| <= 4, and none above."""
    return bp.suite_alphas(module, bound) if module.group.order <= 4 else []


@cache
def compatible_families(module):
    """Candidate (name, psi) pairs for a module, psi an orth.Twist on the
    family's F: psi = 1, the shared orth.trivial_twist on F (the Twist a
    CompatibleData given psi=None holds), psi_alpha, or an N = 2 sign
    twist, -1 where a rule bilinear mod 2 holds on F's generators.
    """
    G = module.group
    GG = ab.direct_sum(G, G)
    uu = module.u.coords * 2
    # G.elements() runs in coordinate order, so each F is listed sorted,
    # as CompatibleData keys trivial_twist
    order2 = (GG.zero(), GG.element(uu))
    whole = tuple(GG.element(a.coords + b.coords)
                  for a in G.elements() for b in G.elements())
    fams = [("diag", orth.trivial_twist(G, tuple(
                GG.element(g.coords * 2) for g in G.elements()))),
            ("trivial", orth.trivial_twist(G, order2[:1])),
            ("order2", orth.trivial_twist(G, order2)),
            ("order2_sign", orth.Twist(G, order2, 2,
                                       lambda a, b: a == b == uu))]
    alphas = family_alphas(module)
    if alphas:
        fams.append(("whole", orth.trivial_twist(G, whole)))
        fams += [(f"U_alpha_{k}", orth.psi_alpha(alpha))
                 for k, alpha in enumerate(alphas)]
    if G.order == 2:
        # bicharacter twist on G x G that is not central at (u, u)
        fams.append(("bichar", orth.Twist(G, whole, 2,
                                          lambda a, b: a[0] * b[1] % 2)))
    return tuple(fams)


def _random_subset(rng, n, cap):
    out = [i for i in range(n) if rng.random() < 0.5]
    while len(out) > cap:
        out.pop(rng.randrange(len(out)))
    return out


def _random_gram(module, rng, pivots, sign, gens):
    """A gram table on the rows with these pivots.  Entry (i, j), i <= j,
    is drawn with probability 1/2 from _B_CHOICES where sign(i, j) is
    nonzero and the pair's eigenvalues cancel on gens (la.pairs_satisfy),
    and (j, i) is it times sign(i, j), +1 or -1."""
    n = len(pivots)
    gram = [[_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            s = sign(i, j)
            if not s or not la.pairs_satisfy(
                    module, la.form_terms([(i, j)], pivots), gens):
                continue
            if rng.random() < 0.5:
                c = la.sc(_B_CHOICES[rng.randrange(len(_B_CHOICES))])
                gram[i][j] = c
                gram[j][i] = c if s > 0 else -c
    return gram


def random_compatible_data(module, rng, dim_cap=128) -> "CompatibleData":
    """A valid compatible datum over a family drawn from
    compatible_families, whose Twist psi gives F, its generators and |F|.

    Sector positions are filtered so that every drawn datum passes
    compatible_violations: graph lines only where the character agrees on
    both components over F, beta entries only where the paired eigenvalues
    cancel on all of F, and graph lines and e_u-sector entries only when
    _u_central(psi, (u, u)).  The first two are k = 0 questions
    (la.pairs_satisfy), asked on psi's generators.
    """
    m = module.dim
    psi = rng.choice(compatible_families(module))[1]
    has_uu = _u_central(psi, module.u.coords * 2)
    graph_ok = _graph_positions(module, psi.gens)

    S1 = _random_subset(rng, m, 2)
    S2 = _random_subset(rng, m, 2)
    S3 = [] if not has_uu else \
        [i for i in graph_ok if not (i in S1 and i in S2)
         and rng.random() < 0.5][:2]
    while (1 << (len(S1) + len(S2) + len(S3))) * len(psi.elements) > dim_cap:
        for S in (S3, S2, S1):
            if S:
                S.pop()
                break

    rows1 = [[_ONE if j == i else _ZERO for j in range(2 * m)] for i in S1]
    rows2 = [[_ONE if j == m + i else _ZERO for j in range(2 * m)] for i in S2]
    rows3 = [_graph_row(rng, m, i) for i in S3]

    types = [1] * len(S1) + [2] * len(S2) + [3] * len(S3)

    def sign(i, j):
        s = _SYM_SIGN[tuple(sorted((types[i], types[j])))]
        return s if s > 0 or has_uu else 0

    gram = _random_gram(module, rng, S1 + [m + i for i in S2] + S3, sign,
                        psi.gens)
    return CompatibleData(
        module,
        la.Subspace(2 * m, rows1) if rows1 else None,
        la.Subspace(2 * m, rows2) if rows2 else None,
        la.Subspace(2 * m, rows3) if rows3 else None,
        gram, psi.elements, psi)


def random_graph_datum(module, rng, alpha, dim_cap=64):
    """A relation datum (W, beta, alpha) with W a U_alpha-stable graph span,
    U_alpha, its generators and the (u, u) rule read from psi_alpha."""
    m = module.dim
    psi = orth.psi_alpha(alpha)
    graph_ok = (_graph_positions(module, psi.gens)
                if _u_central(psi, module.u.coords * 2) else [])
    S3 = [i for i in graph_ok if rng.random() < 0.6]
    while (1 << len(S3)) * len(psi.elements) > dim_cap and S3:
        S3.pop()
    rows = [_graph_row(rng, m, i) for i in S3]
    W = la.Subspace(2 * m, rows) if rows else la.zero_space(2 * m)
    gram = _random_gram(module, rng, S3, lambda i, j: 1, psi.gens)
    return bp.RDatum(module, W, la.BilinearForm(W, gram), alpha)
