"""Exact linear algebra over cyclotomic scalars.

Matrices are plain lists of rows of CycloScalar.  Subspaces are stored as
row-reduced echelon bases (zero rows dropped, pivots normalized to 1 and
cleared above), so two equal subspaces have literally equal bases and
equality is a tuple comparison.

One elimination engine.  Echelon is an incremental, exact reduced echelon
form over sparse {key: scalar} rows.  rref, rank, Subspace, the matrix
inverse and the comodule-algebra code all run on it, and so does the one
null-space routine, kernel_sparse_rows, which takes sparse rows and gives
sparse vectors that each caller reduces once, in what it builds from them.
A scalar has one stored form (cyclo), so the order of elimination cannot
show in a printed entry.

A basis already in reduced echelon form is adopted, not reduced again, in
one place: the composite of two relations (_compose_with_lift), whose
rows are cut from a reduced matrix whose pivots all lie before the cut.
Such rows are the one reduced basis of their span, so adopting them gives
the Subspace a second rref would give; the docstring there has the proof.
Every other Subspace and rank runs Echelon, and nothing scans a matrix to
ask whether it is already reduced.

Also houses the diagonal G-action on V+V (V presented in a
character-diagonal basis), composition of linear relations inside V+V, and
the bilinear form transported along such a composition.

Relations compose through their middle match alone.  For W with basis rows
(a_i | b_i) and Wt with rows (c_j | e_j), the coefficient pairs (s, t) with
s.b = t.c form a kernel, and one rref of the rows (s.a | t.e | s, t) over
its basis gives the reduced composite basis together with each basis row's
witness coordinates (s, t) in W and Wt; the transported form reads
s^T beta s' + t^T betat t' off those coordinates.  Neither factor may meet
a coordinate axis, and that makes the witness unique: s.a = 0 would put
(0 | s.b) in W & (0+V), and t.e = 0 would put (t.c | 0) in Wt & (V+0).

The action of G x G has one congruence engine.  A pair (x, y) acts on V+V
as diag(zeta_N^e), e = pair_exponents(mod, x.coords + y.coords), and each
question about it is a list of terms (a, s, b, t, k) asking
t e[b] - s e[a] = k (mod N).  rows_satisfy is the one place that decides
them; pairs_satisfy asks on pairs, and proves that a subgroup may be asked
on its generators when every k is 0.  g keeps a subspace iff e[j] = e[p_i]
on the support of each reduced row i, p_i its pivot (row_terms), and then
keeps a form on it iff e[p_i] + e[p_j] = 0 wherever gram_ij != 0
(form_terms).  brpic and hopf ask every G x G question here.
"""

from __future__ import annotations

from fractions import Fraction

from . import abelian as ab
from .abelian import Character, FinAbGroup, GroupElement
from .cyclo import CycloScalar
from .errors import DomainError

_ZERO = CycloScalar.zero()
_ONE = CycloScalar.one()


def sc(x) -> CycloScalar:
    if isinstance(x, CycloScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return CycloScalar.from_rational(x)
    raise DomainError(f"cannot use {type(x).__name__} as a scalar")


def scalar_rows(field: str, rows) -> list:
    """A JSON table of scalar strings, read row by row: a table or a row
    that is not a list raises a DomainError naming the field and the row."""
    if type(rows) is not list:
        raise DomainError(f"{field}: must be a list of rows, got {rows!r}")
    for i, r in enumerate(rows):
        if type(r) is not list:
            raise DomainError(f"{field}: row {i} must be a list of scalars, "
                              f"got {r!r}")
    return [[CycloScalar.from_string(s) for s in r] for r in rows]


def mat(rows):
    return [[x if type(x) is CycloScalar else sc(x) for x in row]
            for row in rows]


# -- matrix operations -----------------------------------------------------

def rref(M):
    """Reduced row echelon form, by Echelon.  Returns
    (rows_without_zero_rows, pivot_cols), rows in pivot order."""
    rows = _rectangular(mat(M))
    if not rows:
        return [], []
    ncols = len(rows[0])
    ech = Echelon()
    for r in rows:
        ech.insert(dict(enumerate(r)))
    pivots = sorted(ech.pivots)
    return [[ech.pivots[p][1].get(c, _ZERO) for c in range(ncols)]
            for p in pivots], pivots


def rank(M) -> int:
    return len(rref(M)[1])


def _rectangular(M):
    """M, after checking that its rows have one length."""
    if any(len(r) != len(M[0]) for r in M):
        raise DomainError("ragged matrix")
    return M


def transpose(M):
    M = _rectangular(mat(M))
    if not M:
        return []
    return [list(col) for col in zip(*M)]


def product(A, B):
    """A B.  Entry (i, j) sums A[i][k] B[k][j] over the k where both are
    nonzero, starting from the first such product (zero when there is none)."""
    A, B = _rectangular(mat(A)), _rectangular(mat(B))
    if not A or not B:
        return []
    m = len(B)
    if len(A[0]) != m:
        raise DomainError(f"matrix product shape mismatch: {len(A[0])} vs {m}")
    cols = [[(k, x) for k, x in enumerate(col) if x] for col in zip(*B)]
    out = []
    for a in A:
        a = {k: x for k, x in enumerate(a) if x}
        row = []
        for col in cols:
            s = None
            for k, b in col:
                x = a.get(k)
                if x is not None:
                    s = x * b if s is None else s + x * b
            row.append(_ZERO if s is None else s)
        out.append(row)
    return out


def support(M):
    """The positions (i, j) of the nonzero entries of M, row by row."""
    return [(i, j) for i, row in enumerate(M) for j, x in enumerate(row)
            if not x.is_zero()]


def addin(acc, key, c):
    """acc[key] += c on a sparse {key: scalar} dict, dropping a zero sum."""
    v = acc.get(key)
    v = c if v is None else v + c
    if v.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = v


class Echelon:
    """Incremental exact reduced echelon form over sparse {key: scalar} rows.

    Keys must be mutually comparable; a row's pivot is its least key.  Zero
    values in an input row are dropped before it is reduced.  pivots maps a
    pivot key to (position, row); rows_by_pos lists the rows as inserted.
    """

    __slots__ = ("pivots", "rows_by_pos")

    def __init__(self):
        self.pivots = {}
        self.rows_by_pos = []

    @property
    def dim(self):
        return len(self.rows_by_pos)

    def reduce(self, d):
        d = {k: c for k, c in d.items() if not c.is_zero()}
        coords = {}
        while True:
            hit = None
            for k in d:
                if k in self.pivots and (hit is None or k < hit):
                    hit = k
            if hit is None:
                break
            pos, row = self.pivots[hit]
            f = d[hit]
            coords[pos] = f
            for k2, c2 in row.items():
                addin(d, k2, -(f * c2))
        return d, coords

    def insert(self, d):
        res, _ = self.reduce(d)
        if not res:
            return None
        piv = min(res)
        f = res[piv].inv()
        row = {k: f * c for k, c in res.items()}
        for _, r in self.pivots.values():
            c = r.get(piv)
            if c is not None:
                for k2, c2 in row.items():
                    addin(r, k2, -(c * c2))
        pos = len(self.rows_by_pos)
        self.pivots[piv] = (pos, row)
        self.rows_by_pos.append(row)
        return pos

    def coords(self, d):
        res, coords = self.reduce(d)
        return None if res else coords


def kernel_sparse_rows(rows, n) -> list:
    """Common null space of sparse constraint rows ({col: scalar} dicts) in
    k^n, the one null-space routine.

    One sparse vector {col: scalar} per free column c of the rows' reduced
    echelon form, in ascending c: 1 at c and, at each pivot p whose row is
    nonzero at c, minus that entry.  A reduced pivot row holds only its
    pivot and free columns, so one pass over the pivot rows fills them.
    The basis is not reduced; each caller reduces what it builds from it.
    """
    ech = Echelon()
    for row in rows:
        ech.insert(row)
    basis = {c: {c: _ONE} for c in range(n) if c not in ech.pivots}
    for p, (_, row) in ech.pivots.items():
        for c, x in row.items():
            if c != p:
                basis[c][p] = -x
    return list(basis.values())


# -- subspaces -------------------------------------------------------------

class Subspace:
    """A subspace of k^n held as a canonical RREF basis and its pivots."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, rows):
        rows = mat(rows)
        if any(len(r) != ambient_dim for r in rows):
            raise DomainError("basis row length does not match ambient dimension")
        self._set(ambient_dim, *rref(rows))

    def _set(self, ambient_dim, R, pivots):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(tuple(r) for r in R))
        object.__setattr__(self, "pivots", tuple(pivots))

    @classmethod
    def _adopt(cls, ambient_dim, R, pivots) -> "Subspace":
        """The subspace whose canonical basis is already R, with these
        pivots; the caller proves R reduced (module docstring)."""
        S = object.__new__(cls)
        S._set(ambient_dim, R, pivots)
        return S

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def equals(self, other: "Subspace") -> bool:
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    __eq__ = equals

    __hash__ = None

    def to_json(self):
        return {"ambient": self.ambient_dim,
                "basis": [[x.to_string() for x in r] for r in self.basis]}

    @staticmethod
    def from_json(obj) -> "Subspace":
        """The W of a relation datum's JSON, the one subspace it holds."""
        return Subspace(obj["ambient"], scalar_rows("W.basis", obj["basis"]))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient_dim})"


def zero_space(n: int) -> Subspace:
    return Subspace(n, [])


# -- the G-module V and its diagonal action --------------------------------

class GModuleV:
    """V with a character-diagonal basis: basis vector i spans the chi_i line.

    u must have order 2 and every character must send u to -1.  Immutable
    and hashed by value, as the memo key of what a module alone determines.
    exponents_at(coords) reads a table, filled on first use and kept in the
    _exps slot, from g.coords to (pair(chi_1, g), ..., pair(chi_m, g));
    every character exponent of the module is computed once, there.  Like a
    datum's _store of derived values (brpic._derived), == and hash ignore
    the table.
    """

    __slots__ = ("group", "u", "chars", "_exps")

    def __init__(self, group: FinAbGroup, u: GroupElement, chars):
        chars = tuple(chars)
        if u.parent != group:
            raise DomainError("u does not live in the given group")
        if ab.order_of(u) != 2:
            raise DomainError(f"u must have order 2, got order {ab.order_of(u)}")
        N = group.exponent
        for i, chi in enumerate(chars):
            if not isinstance(chi, Character) or chi.parent != group:
                raise DomainError(f"character {i} does not live in the given group")
            if ab.pair(chi, u) != N // 2:
                raise DomainError(f"character {i} does not send u to -1")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "chars", chars)
        object.__setattr__(self, "_exps", {})

    def __setattr__(self, name, value):
        raise AttributeError("GModuleV is immutable")

    def exponents_at(self, coords) -> tuple:
        """(e_1, ..., e_m) with chi_i(g) = zeta_N^{e_i}, N the group
        exponent, for the g with these coordinates, read by them; g is
        built only to fill the table."""
        row = self._exps.get(coords)
        if row is None:
            g = self.group.element(coords)
            row = self._exps[coords] = tuple(ab.pair(chi, g) for chi in self.chars)
        return row

    @property
    def dim(self) -> int:
        return len(self.chars)

    def __eq__(self, other):
        return (isinstance(other, GModuleV) and self.group == other.group
                and self.u == other.u and self.chars == other.chars)

    def __hash__(self):
        return hash((self.group, self.u, self.chars))

    def __repr__(self):
        return f"GModuleV(dim {self.dim} over {self.group!r})"


# -- bilinear forms --------------------------------------------------------

class BilinearForm:
    """A bilinear form on a subspace, stored as a Gram matrix in its basis."""

    __slots__ = ("space", "gram")

    def __init__(self, space: Subspace, gram):
        gram = mat(gram)
        if len(gram) != space.dim or any(len(r) != space.dim for r in gram):
            raise DomainError(
                f"gram matrix must be {space.dim}x{space.dim} for this space")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "gram", tuple(tuple(r) for r in gram))

    def __setattr__(self, name, value):
        raise AttributeError("BilinearForm is immutable")

    def is_symmetric(self) -> bool:
        d = self.space.dim
        return all(self.gram[i][j] == self.gram[j][i] for i in range(d) for j in range(d))

    def __eq__(self, other):
        return (isinstance(other, BilinearForm) and self.space == other.space
                and self.gram == other.gram)

    __hash__ = None

    def to_json(self):
        return {"gram": [[x.to_string() for x in r] for r in self.gram]}

    def __repr__(self):
        return f"BilinearForm(on dim {self.space.dim})"


def _pair(gram, x, y) -> CycloScalar:
    """x^T gram y for coordinate vectors x, y, skipping zero terms."""
    s = _ZERO
    for i, a in enumerate(x):
        if a.is_zero():
            continue
        for j, b in enumerate(y):
            if not b.is_zero() and not gram[i][j].is_zero():
                s = s + a * gram[i][j] * b
    return s


def zero_form(space: Subspace) -> BilinearForm:
    d = space.dim
    return BilinearForm(space, [[_ZERO] * d for _ in range(d)])


# -- the G x G action: one congruence engine --------------------------------

def pair_exponents(mod: GModuleV, coords) -> tuple:
    """e with the pair (x, y) of G x G acting on V+V as diag(zeta_N^e), for
    coords = x.coords + y.coords, read off mod's table by coordinates."""
    r = len(mod.group.factors)
    return mod.exponents_at(coords[:r]) + mod.exponents_at(coords[r:])


def rows_satisfy(terms, rows, N) -> bool:
    """Whether t e[b] - s e[a] = k (mod N) for every term (a, s, b, t, k)
    and every exponent row e in rows, the rows read in order once."""
    return not any((t * e[b] - s * e[a] - k) % N
                   for e in rows for a, s, b, t, k in terms)


def pairs_satisfy(mod: GModuleV, terms, pairs) -> bool:
    """rows_satisfy on the exponent row of every pair of G x G listed by
    its coordinates in pairs, each row read once.

    When every k is 0, asking on generators of a subgroup answers for the
    whole subgroup.  Each e_i(x, y) is a pairing exponent of x or of y,
    additive mod N, so (x, y) -> (t e[b] - s e[a] mod N) over the terms is
    a homomorphism G x G -> (Z/N)^terms.  The pairs that satisfy the list
    form its kernel, a subgroup, and a subgroup lies inside the kernel
    exactly when its generators do: every element is a sum of generators.
    With some k != 0 the solutions form a coset of that kernel or nothing,
    and abelian.solve finds the first one from the terms' rows (term_row).
    """
    return rows_satisfy(terms, (pair_exponents(mod, c) for c in pairs),
                        mod.group.exponent)


def term_row(mod: GModuleV, term) -> tuple:
    """The term (a, s, b, t, k) as the congruence (coefficients, k, N) on a
    pair's x.coords + y.coords, for abelian.solve: e[i] is linear in x's
    coordinates for i < dim V, in y's for the rest."""
    G = mod.group
    r, m, N = G.rank, mod.dim, G.exponent
    row = [0] * (2 * r)
    for i, sign in ((term[0], -term[1]), (term[2], term[3])):
        for l, (c, f) in enumerate(zip(mod.chars[i % m].exps, G.factors)):
            row[l + r * (i >= m)] += sign * c * (N // f)
    return row, term[4], N


def row_terms(S: Subspace) -> list:
    """The k = 0 terms under which a pair keeps S: e[j] = e[p_i] wherever
    reduced row i, with pivot p_i, has a nonzero entry at j."""
    return [(p, 1, j, 1, 0) for p, row in zip(S.pivots, S.basis)
            for j, x in enumerate(row) if j > p and not x.is_zero()]


def form_terms(positions, pivots) -> list:
    """The k = 0 terms under which a pair keeping a subspace with these row
    pivots keeps a form nonzero at positions: e[p_i] + e[p_j] = 0."""
    return [(pivots[i], 1, pivots[j], -1, 0) for i, j in positions]


def form_invariant_under(mod: GModuleV, beta: BilinearForm, pairs) -> tuple:
    """(stable, invariant): whether every pair of G x G listed by
    coordinates in pairs (a sequence) keeps beta's space, a subspace of
    V+V, and whether it keeps the form too (False when the space moves)."""
    S = beta.space
    if not pairs_satisfy(mod, row_terms(S), pairs):
        return False, False
    return True, pairs_satisfy(mod, form_terms(support(beta.gram), S.pivots),
                               pairs)


# -- relation composition and the transported form -------------------------

def axis_meets(W: Subspace):
    """(dim W & (V+0), dim W & (0+V)) for a subspace W of V+V.

    W meets the first axis in the kernel of its projection onto the second
    block, so that dimension is dim W minus the rank of the second block.
    W & (0+V) is spanned by the basis rows with pivot >= d: a combination
    sum c_i r_i has entry c_i at the pivot p_i of each row, since W's basis
    is reduced, so its first block vanishes only when c_i = 0 for every
    p_i < d, and the rows with p_i >= d are zero there.
    """
    d = W.ambient_dim // 2
    return (W.dim - rank([r[d:] for r in W.basis]),
            sum(p >= d for p in W.pivots))


def _compose_with_lift(W: Subspace, Wt: Subspace):
    """Shared core of relation_compose/bullet_form: (composite, witnesses).

    With W spanned by rows (a_i | b_i) and Wt by rows (c_j | e_j), a
    coefficient pair (s, t) gives a composite vector (s.a | t.e) with middle
    witness s.b = t.c exactly when it lies in the kernel of
    (s, t) -> s.b - t.c.  One rref of the rows (s.a | t.e | s, t), over
    any kernel basis (all span the same rows), gives the canonical
    composite basis in its first 2 dim V columns and, on the same rows, the
    pair (s, t) of each basis row, its witness coordinates in W and Wt.
    The witness is unique because neither factor meets an axis: s.a = 0
    puts (0 | s.b) in W & (0+V), so s = 0, and t.e = 0 puts (t.c | 0) in
    Wt & (V+0), so t = 0.  A pivot in the (s, t) block would be a nonzero
    pair with no outer part.

    The composite is adopted as [r[:2d] for r in R] with R's pivots, not
    reduced again.  Every pivot p_i of R lies below 2d, so cutting a row
    at 2d keeps its leading 1 at p_i with zeros before it, keeps the zeros
    at the other rows' pivots, and leaves no row zero.  The cut rows span
    the composite, as the cut of R's span, and are in reduced echelon
    form, which a span has only one of: Subspace(2d, cut rows) would
    return them unchanged.
    """
    if W.ambient_dim != Wt.ambient_dim or W.ambient_dim % 2:
        raise DomainError("relation composition wants two subspaces of V+V")
    d = W.ambient_dim // 2
    for S, name in ((W, "left factor"), (Wt, "right factor")):
        if any(axis_meets(S)):
            raise DomainError(
                f"witness not unique: {name} meets a coordinate axis")
    p, n = W.dim, W.dim + Wt.dim
    middles = [r[d:] for r in W.basis] + [[-x for x in r[:d]] for r in Wt.basis]
    pairs = [[v.get(c, _ZERO) for c in range(n)] for v in kernel_sparse_rows(
        [dict(enumerate(col)) for col in zip(*middles)], n)] if middles else []
    rows = [a + e + list(st) for a, e, st in zip(
        product([st[:p] for st in pairs], [r[:d] for r in W.basis]),
        product([st[p:] for st in pairs], [r[d:] for r in Wt.basis]), pairs)]
    R, pivots = rref(rows)
    if pivots and pivots[-1] >= 2 * d:
        raise DomainError("witness not unique: middle coordinate is not determined")
    composite = Subspace._adopt(2 * d, [r[:2 * d] for r in R], pivots)
    return composite, [(r[2 * d:2 * d + p], r[2 * d + p:]) for r in R]


def relation_compose(W: Subspace, Wt: Subspace) -> Subspace:
    """{(v1, w1) : exists v2 with (v1,v2) in W and (v2,w1) in Wt}."""
    composite, _ = _compose_with_lift(W, Wt)
    return composite


def bullet_form(W: Subspace, beta: BilinearForm, Wt: Subspace,
                betat: BilinearForm) -> BilinearForm:
    """The form on the composite: sum of the two forms through the witnesses.

    Composite basis row i is (s_i.a | t_i.e) with witness coordinates
    (s_i, t_i) against the bases of W and Wt (_compose_with_lift), so
    gram_ij = s_i^T beta s_j + t_i^T betat t_j.
    """
    if beta.space != W or betat.space != Wt:
        raise DomainError("forms must live on the subspaces being composed")
    composite, witnesses = _compose_with_lift(W, Wt)
    gram = [[_pair(beta.gram, s, s2) + _pair(betat.gram, t, t2)
             for s2, t2 in witnesses] for s, t in witnesses]
    return BilinearForm(composite, gram)
