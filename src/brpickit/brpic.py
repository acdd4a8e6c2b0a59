"""Brauer-Picard element algebra over a supergroup module (V, u, G).

Two presentations of the same group and the dictionary between them:

* relation data (W, beta, alpha): a subspace W of V+V meeting neither
  coordinate axis, a symmetric bilinear form on it, and an orthogonal
  automorphism alpha of G+G^;
* matrix data (T, alpha): an invertible map on V+V* whose V*->V block
  vanishes and whose V*->V* block is the inverse transpose of the V->V
  block, paired with the same alpha.

The bridge is the Lagrangian encoding tau(W, beta) inside V+V*+V+V*, on
which both products become plain relation composition.

Stabilizer convention.  A pair (x, y) in G x G acts componentwise on V+V
and acts on V+V* with x on the output and y on the input.  Validation
imposes stability along the diagonal part of U_alpha only, i.e. under the
subgroup S_alpha = {z : (z, z) in U_alpha} acting as (z, z): off-diagonal
pairs of U_alpha move a representative to an equivalent datum, so they
constrain the equivalence class rather than the representative.  Reports
also carry informational flags for stability under all of U_alpha and under
the full diagonal of G x G.

Validity is established once per datum object.  The binding check (the
conditions that decide 'valid') runs the first time a datum is used and its
verdict is kept in the immutable datum's store of derived values (_derived);
operands, inputs and every product, inverse and conversion output read it
there.  The same store keeps a datum's inverse, relation form and tau, each
computed on first use.  The report
(validate_odatum / validate_rdatum) adds the informational flags and is
computed only on request.  Every question about the G x G action is asked
of linalg's congruence engine, with one term per entry of T (_entry_term)
or of W and its form; S_alpha, U_alpha and the diagonal of G are asked on
their generators, which orth reads off alpha's matrix, and an equivalence
witness is the first solution of its terms' congruences (abelian.solve).
Because the diagonal part of a product's U_alpha need not sit inside the
factors' diagonal parts, every product, inverse and conversion output is
still checked before it is returned, and a failure is raised loudly instead
of being assumed away.  The random generators only produce data whose
blocks commute with the whole diagonal G-action; that set is closed under
products, inverses and G x G-translations, so generated suites never
trigger the failure path.

At dim V = 0, A(V, u, G) = kG, BrPic(Rep kG) is all of O(G+G^) (Etingof-
Nikshych-Ostrik 2010), and uu_in_U holds: (u, u) in U_alpha is needed only
to present e_u, which occurs only in the relations of W's generators, and
there are none.  At V != 0, W = 0 data included, it binds (ROADMAP item 10).
"""

from functools import cache, partial

from . import abelian as ab
from . import linalg as la
from . import orth
from .cyclo import CycloScalar
from .errors import BrpicError, DomainError, NotInvertibleError

_ZERO = CycloScalar.zero()
_ONE = CycloScalar.one()


# -- small matrix utilities -------------------------------------------------

def identity_matrix(n):
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def matrix_is_invertible(M) -> bool:
    return la.rank(M) == len(M)


def matrix_inverse(M):
    """M^-1 from one rref of [M | I].  M is invertible iff its columns are
    the pivots; column j of the I block gets the row operations that
    solve M x = e_j."""
    n = len(M)
    if n == 0:
        return []
    R, pivots = la.rref([list(r) + e for r, e in zip(M, identity_matrix(n))])
    if pivots != list(range(n)):
        raise NotInvertibleError("matrix is singular")
    return [r[n:] for r in R]


# -- the G x G action in exponent form --------------------------------------

def _entry_term(m, i, j, k=0):
    """The congruence under which D_x T D_y^{-1} scales T_ij by zeta^k,
    m = dim V: s e_a(x) - t e_b(y) = k, a and b the indices of i and j mod
    m and s, t = +1 on V, -1 on V*, so (a, s, m + b, t, -k)."""
    return (i % m, 1 if i < m else -1, m + j % m, 1 if j < m else -1, -k)


def _first_pair(mod: la.GModuleV, terms):
    """(found, witness): the first (x, y) of G x G, x outer, that satisfies
    terms, the lexicographically first solution of their congruences on
    x.coords + y.coords (abelian.solve), or (False, None).  Each distinct
    congruence is solved once: a row is reduced mod N and taken up to
    sign, and one that reads 0 = 0 is dropped, which leaves the solutions
    as they are."""
    G = mod.group
    N = G.exponent
    rows = set()
    for t in terms:
        a, k, _ = la.term_row(mod, t)
        row = min((tuple(x % N for x in a), k % N),
                  (tuple(-x % N for x in a), -k % N))
        if any(row[0]) or row[1]:
            rows.add(row)
    x = ab.solve(G.factors * 2, [(a, k, N) for a, k in sorted(rows)])[0]
    return (False, None) if x is None else (
        True, (G.element(x[:G.rank]), G.element(x[G.rank:])))


def _equivariant(d, pairs) -> bool:
    """Whether D_{-x} T D_y = T for every (x, y), listed by coordinates."""
    terms = [_entry_term(d.module.dim, i, j) for i, j in la.support(d.T)]
    return la.pairs_satisfy(d.module, terms, pairs)


def _diagonal_generators(G) -> list:
    """G's own generators as the coordinates of the pairs (g, g)."""
    return [G.generator(i).coords * 2 for i in range(G.rank)]


# -- datum containers -------------------------------------------------------

class RDatum:
    """Relation datum (W, beta, alpha) over a module (V, u, G)."""

    # _store: values derived from this datum alone, each on first use and
    # never seeded from another datum (_derived); equality and JSON ignore it
    __slots__ = ("module", "W", "beta", "alpha", "_store")

    def __init__(self, module: la.GModuleV, W: la.Subspace,
                 beta: la.BilinearForm, alpha: orth.OrthAut):
        if W.ambient_dim != 2 * module.dim:
            raise DomainError(
                f"W must live in V+V of dimension {2 * module.dim}, "
                f"got ambient {W.ambient_dim}")
        if beta.space != W:
            raise DomainError("beta must be a form on W")
        if alpha.group != module.group:
            raise DomainError("alpha must act on the module's group")
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "_store", {})

    def __setattr__(self, name, value):
        raise AttributeError("RDatum is immutable")

    def __eq__(self, other):
        return (isinstance(other, RDatum) and self.module == other.module
                and self.W.equals(other.W) and self.beta == other.beta
                and self.alpha == other.alpha)

    __hash__ = None

    def __repr__(self):
        return f"RDatum(dim W = {self.W.dim}, alpha {self.alpha.matrix})"

    def to_json(self):
        return {"W": self.W.to_json(), "beta": self.beta.to_json(),
                "alpha": self.alpha.to_json()}

    @staticmethod
    def from_json(module: la.GModuleV, obj) -> "RDatum":
        ambient = obj["W"]["ambient"]
        if type(ambient) is not int:
            raise DomainError(f"W.ambient: must be an integer, got {ambient!r}")
        W = la.Subspace.from_json(obj["W"])
        beta = la.BilinearForm(W, la.scalar_rows("beta.gram",
                                                 obj["beta"]["gram"]))
        alpha = orth.OrthAut.from_json(module.group, obj["alpha"])
        return RDatum(module, W, beta, alpha)


class ODatum:
    """Matrix datum (T, alpha): T on V+V* in blocks [[A, B], [C, D]]."""

    # _store: values derived from this datum alone, each on first use and
    # never seeded from another datum (_derived); equality and JSON ignore it
    __slots__ = ("module", "T", "alpha", "_store")

    def __init__(self, module: la.GModuleV, T, alpha: orth.OrthAut):
        T = la.mat(T)
        n = 2 * module.dim
        if len(T) != n or any(len(r) != n for r in T):
            raise DomainError(f"T must be {n}x{n} for this module")
        if alpha.group != module.group:
            raise DomainError("alpha must act on the module's group")
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "T", tuple(tuple(r) for r in T))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "_store", {})

    def __setattr__(self, name, value):
        raise AttributeError("ODatum is immutable")

    def _block(self, rows, cols):
        return [[self.T[i][j] for j in cols] for i in rows]

    def block_A(self):
        d = self.module.dim
        return self._block(range(d), range(d))

    def block_B(self):
        d = self.module.dim
        return self._block(range(d), range(d, 2 * d))

    def block_C(self):
        d = self.module.dim
        return self._block(range(d, 2 * d), range(d))

    def block_D(self):
        d = self.module.dim
        return self._block(range(d, 2 * d), range(d, 2 * d))

    def __eq__(self, other):
        return (isinstance(other, ODatum) and self.module == other.module
                and self.alpha == other.alpha and self.T == other.T)

    __hash__ = None

    def __repr__(self):
        return f"ODatum({2 * self.module.dim}x{2 * self.module.dim}, alpha {self.alpha.matrix})"

    def to_json(self):
        return {"T": [[x.to_string() for x in row] for row in self.T],
                "alpha": self.alpha.to_json()}

    @staticmethod
    def from_json(module: la.GModuleV, obj) -> "ODatum":
        T = la.scalar_rows("T", obj["T"])
        alpha = orth.OrthAut.from_json(module.group, obj["alpha"])
        return ODatum(module, T, alpha)


class LagDatum:
    """Lagrangian datum: tau(W, beta) inside V+V*+V+V*, plus alpha."""

    __slots__ = ("module", "L", "alpha")

    def __init__(self, module: la.GModuleV, L: la.Subspace, alpha: orth.OrthAut):
        if L.ambient_dim != 4 * module.dim:
            raise DomainError(
                f"L must live in a {4 * module.dim}-dimensional ambient space")
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "alpha", alpha)

    def __setattr__(self, name, value):
        raise AttributeError("LagDatum is immutable")

    def __eq__(self, other):
        return (isinstance(other, LagDatum) and self.module == other.module
                and self.L.equals(other.L) and self.alpha == other.alpha)

    __hash__ = None

    def __repr__(self):
        return f"LagDatum(dim {self.L.dim})"


# -- validation -------------------------------------------------------------

def _uu_in_U(module, alpha) -> bool:
    """(u, u) in U_alpha, iff u in S_alpha; True at dim V = 0 (above)."""
    return not module.dim or orth.in_stabilizer(alpha, module.u.coords)


def _rdatum_conditions(d: RDatum) -> dict:
    stable, invariant = la.form_invariant_under(
        d.module, d.beta, orth.stabilizer_generators(d.alpha))
    return {
        "axis_clear": not any(la.axis_meets(d.W)),
        "uu_in_U": _uu_in_U(d.module, d.alpha),
        "W_stable": stable,
        "beta_symmetric": d.beta.is_symmetric(),
        "beta_invariant": invariant,
    }


def _odatum_conditions(d: ODatum) -> dict:
    mod = d.module
    b_zero = all(x.is_zero() for row in d.block_B() for x in row)
    AtD = la.product(la.transpose(d.block_A()), d.block_D())
    duality = AtD == identity_matrix(mod.dim)
    return {
        "uu_in_U": _uu_in_U(mod, d.alpha),
        # B = 0 makes T block triangular with det T = det A det D, and
        # A^t D = I makes both factors nonzero; only otherwise is a rank needed
        "invertible": ((b_zero and duality)
                       or matrix_is_invertible([list(r) for r in d.T])),
        "equivariant": _equivariant(d, orth.stabilizer_generators(d.alpha)),
        "B_zero": b_zero,
        "duality": duality,
    }


def _derived(d, key, compute):
    """compute(d), computed once per datum object and kept in its store.

    A call that raises stores nothing, so it raises again next time.  A
    store holds only values computed from its own datum and is never
    seeded from another's: an inverse's inverse and a round trip's result
    are computed, not assumed, so every identity a suite checks is
    computed on both sides.
    """
    store = d._store
    if key not in store:
        store[key] = compute(d)
    return store[key]


def _binding(d) -> dict:
    rep = (_rdatum_conditions(d) if isinstance(d, RDatum)
           else _odatum_conditions(d))
    rep["valid"] = all(rep.values())
    return rep


def binding_report(d) -> dict:
    """The binding conditions of a datum and 'valid', their conjunction.

    Computed once per datum object and kept in its store (_derived);
    callers must not mutate the returned dict.
    """
    return _derived(d, "binding", _binding)


def validate_rdatum(d: RDatum) -> dict:
    """Per-condition report; 'valid' iff every binding condition passes."""
    report = dict(binding_report(d))
    # informational flags: stability beyond the diagonal part
    report["W_stable_full_U"], report["beta_invariant_full_U"] = \
        la.form_invariant_under(d.module, d.beta, orth.u_generators(d.alpha))
    report["W_stable_full_diagonal"] = la.pairs_satisfy(
        d.module, la.row_terms(d.W), _diagonal_generators(d.module.group))
    return report


def validate_odatum(d: ODatum) -> dict:
    """Per-condition report; 'valid' iff every binding condition passes."""
    report = dict(binding_report(d))
    report["equivariant_full_U"] = _equivariant(d, orth.u_generators(d.alpha))
    report["equivariant_full_diagonal"] = _equivariant(
        d, _diagonal_generators(d.module.group))
    return report


def failing(rep):
    """The names of the conditions of a report that fail."""
    return [k for k, v in rep.items() if v is False and k != "valid"]


def _require_valid(d, what):
    rep = binding_report(d)
    if not rep["valid"]:
        raise DomainError(
            f"{what} is not a valid datum; failing: {failing(rep)}")


def _checked(out, what):
    """out, once its binding check passes; an internal error otherwise."""
    rep = binding_report(out)
    if not rep["valid"]:
        raise BrpicError(f"internal invariant violation: {what} datum fails "
                         f"validation {failing(rep)}")
    return out


def _same_module(d, dt):
    if d.module != dt.module:
        raise DomainError("data live over different modules")


def _valid_operands(d, dt, what, what_t):
    _same_module(d, dt)
    _require_valid(d, what)
    _require_valid(dt, what_t)


# -- identity data ----------------------------------------------------------

def identity_rdatum(module: la.GModuleV) -> RDatum:
    """(diag(V), zero form, identity alpha)."""
    dm = module.dim
    rows = [[_ONE if (j == i or j == i + dm) else _ZERO
             for j in range(2 * dm)] for i in range(dm)]
    W = la.Subspace(2 * dm, rows)
    return RDatum(module, W, la.zero_form(W),
                  orth.orth_identity(module.group))


def identity_odatum(module: la.GModuleV) -> ODatum:
    return ODatum(module, identity_matrix(2 * module.dim),
                  orth.orth_identity(module.group))


# -- products, inverses, equivalence ---------------------------------------

def rdatum_product(d: RDatum, dt: RDatum) -> RDatum:
    _valid_operands(d, dt, "left factor", "right factor")
    beta = la.bullet_form(d.W, d.beta, dt.W, dt.beta)
    alpha = orth.orth_compose(d.alpha, dt.alpha)
    return _checked(RDatum(d.module, beta.space, beta, alpha), "product")


def odatum_product(d: ODatum, dt: ODatum) -> ODatum:
    _valid_operands(d, dt, "left factor", "right factor")
    T = la.product([list(r) for r in d.T], [list(r) for r in dt.T])
    return _checked(ODatum(d.module, T, orth.orth_compose(d.alpha, dt.alpha)),
                    "product")


def odatum_invert(d: ODatum) -> ODatum:
    """d's inverse, computed once per datum object (_derived)."""
    return _derived(d, "inverse", _invert)


def _invert(d: ODatum) -> ODatum:
    _require_valid(d, "datum")
    T = matrix_inverse([list(r) for r in d.T])
    return _checked(ODatum(d.module, T, orth.orth_invert(d.alpha)), "inverse")


def _shifts(A, B, N):
    """[((i, j), k)] with B_ij = zeta_N^k A_ij over the support of A, or None
    when the supports differ or some B_ij is no such multiple of A_ij."""
    supp = la.support(A)
    if supp != la.support(B):
        return None
    out = []
    for i, j in supp:
        k = next((k for k in range(N)
                  if CycloScalar.root_of_unity(N, k) * A[i][j] == B[i][j]),
                 None)
        if k is None:
            return None
        out.append(((i, j), k))
    return out


def rdatum_equiv(d: RDatum, dt: RDatum):
    """The first (x, y) of G x G moving valid d to valid dt; (found,
    witness)."""
    _valid_operands(d, dt, "first datum", "second datum")
    return _rdatum_search(d, dt)


def _rdatum_search(d: RDatum, dt: RDatum):
    """rdatum_equiv's answer, on data valid or not: each entry of dt's rows
    and form is one congruence on the pivots p_i of W's rows."""
    if d.alpha != dt.alpha:
        return False, None
    N = d.module.group.exponent
    w_shifts = _shifts(d.W.basis, dt.W.basis, N)
    g_shifts = _shifts(d.beta.gram, dt.beta.gram, N)
    if w_shifts is None or g_shifts is None:
        return False, None
    piv = d.W.pivots
    return _first_pair(d.module,
                       [(piv[i], 1, j, 1, k) for (i, j), k in w_shifts]
                       + [(piv[i], 1, piv[j], -1, k) for (i, j), k in g_shifts])


def odatum_equiv(d: ODatum, dt: ODatum):
    """The first (x, y) of G x G with T' = D_x T D_y^{-1}, d and dt valid;
    (found, witness)."""
    _valid_operands(d, dt, "first datum", "second datum")
    return _odatum_search(d, dt)


def _odatum_search(d: ODatum, dt: ODatum):
    """odatum_equiv's answer, on data valid or not: the supports must
    agree, and each T'_ij = zeta^k T_ij is one congruence (_entry_term)."""
    if d.alpha != dt.alpha:
        return False, None
    shifts = _shifts(d.T, dt.T, d.module.group.exponent)
    if shifts is None:
        return False, None
    m = d.module.dim
    return _first_pair(d.module, [_entry_term(m, i, j, k)
                                  for (i, j), k in shifts])


# -- the Lagrangian encoding ------------------------------------------------

def tau(d: RDatum) -> LagDatum:
    """Encode (W, beta) as the subspace of all (w1, f1, w2, f2) with
    (w1, w2) in W and f1(w1') - f2(w2') = beta((w1,w2), (w1',w2')) for all
    (w1', w2') in W; computed once per datum object (_derived)."""
    return _derived(d, "tau", _tau)


def _tau(d: RDatum) -> LagDatum:
    _require_valid(d, "datum")
    mod = d.module
    dm = mod.dim
    m = d.W.dim
    gram = d.beta.gram
    wbasis = d.W.basis
    # unknowns: (c_1..c_m, f1_1..f1_dm, f2_1..f2_dm); one constraint per
    # W-basis vector b_j:  sum_i c_i gram[i][j] - f1(w1_j) + f2(w2_j) = 0
    rows = []
    for j in range(m):
        row = [gram[i][j] for i in range(m)]
        row += [-wbasis[j][k] for k in range(dm)]
        row += [wbasis[j][dm + k] for k in range(dm)]
        rows.append(dict(enumerate(row)))
    ambient = []
    for k in la.kernel_sparse_rows(rows, m + 2 * dm):
        w = [_ZERO] * (2 * dm)
        f = [_ZERO] * (2 * dm)
        for i, x in k.items():
            if i < m:
                w = [wi + x * bi for wi, bi in zip(w, wbasis[i])]
            else:
                f[i - m] = x
        ambient.append(w[:dm] + f[:dm] + w[dm:] + f[dm:])
    L = la.Subspace(4 * dm, ambient)
    return LagDatum(mod, L, d.alpha)


def lag_product(L1: LagDatum, L2: LagDatum) -> LagDatum:
    _same_module(L1, L2)
    composite = la.relation_compose(L1.L, L2.L)
    return LagDatum(L1.module, composite,
                    orth.orth_compose(L1.alpha, L2.alpha))


# -- the two conversions ----------------------------------------------------

def odatum_to_rdatum(d: ODatum) -> RDatum:
    """W_T = {(Av, v)} with the form (C v1)(A v2), checked symmetric;
    computed once per datum object (_derived)."""
    return _derived(d, "relation", _to_relation)


def _to_relation(d: ODatum) -> RDatum:
    _require_valid(d, "datum")
    mod = d.module
    dm = mod.dim
    A = d.block_A()
    C = d.block_C()
    rows = [[A[i][j] for i in range(dm)]
            + [_ONE if i == j else _ZERO for i in range(dm)]
            for j in range(dm)]
    W = la.Subspace(2 * dm, rows)
    basis = W.basis
    gram = []
    for bi in basis:
        ci = [r[0] for r in la.product(C, [[x] for x in bi[dm:]])]
        gram.append([sum((x * y for x, y in zip(ci, bj[:dm])), _ZERO)
                     for bj in basis])
    if any(gram[i][j] != gram[j][i] for i in range(dm) for j in range(dm)):
        raise DomainError(
            "T outside O(V,u,G) image: the induced form is not symmetric")
    return _checked(RDatum(mod, W, la.BilinearForm(W, gram), d.alpha),
                    "converted")


def rdatum_to_odatum(d: RDatum) -> ODatum:
    """Solve tau(W, beta) = graph(T); the tail projection must be bijective."""
    L = tau(d)
    mod = d.module
    dm = mod.dim
    rows = [list(r) for r in L.L.basis]
    Y = [r[2 * dm:] for r in rows]
    try:
        Yit = matrix_inverse(la.transpose(Y)) if len(rows) == 2 * dm else None
    except NotInvertibleError:
        Yit = None
    if Yit is None:
        raise NotInvertibleError(
            "datum is not invertible: the (w2, f2) projection is degenerate")
    X = [r[:2 * dm] for r in rows]
    T = la.product(la.transpose(X), Yit)
    return _checked(ODatum(mod, T, d.alpha), "reconstructed")


# -- structural description -------------------------------------------------

def describe_brpic(module: la.GModuleV, bound: int = 256):
    """One block-dimension report per admissible alpha, as a list of dicts
    with keys alpha, A_dim, C_dim, D_block and invertibility.

    S_alpha = {z : (z, z) in U_alpha} keeps an entry of T exactly when its
    congruence (_entry_term) holds at every (z, z), or equivalently at the
    generators of S_alpha, so each dimension is a count of positions.  The
    A block ranges over the S_alpha-equivariant maps V -> V: A_dim counts
    the (i, j) with chi_i = chi_j on S_alpha.  The D block is determined as
    the inverse transpose of A.  The C block ranges over the equivariant
    maps C : V -> V* (entries at the (i, j) with chi_i chi_j = 1 on
    S_alpha) with C^t A symmetric, for an invertible equivariant A.  C_dim
    counts the i <= j with chi_i chi_j = 1 on S_alpha, whatever A is:

    M = A^t C is equivariant, so supported where chi_i chi_j = 1, and
    M^t = C^t A, so C^t A is symmetric exactly when M is.  A^-t is
    equivariant too, so C = A^-t M maps every symmetric M supported there
    back to an allowed C.  C -> A^t C is thus a linear bijection onto the
    symmetric forms supported where chi_i chi_j = 1, and that condition is
    symmetric in i and j, so their dimension is the number of such i <= j.

    Invertibility of A is an open condition not captured by the count.
    """
    dm = module.dim
    components = []
    for alpha in admissible_alphas(module, bound):
        # at dim V = 0 no position is counted, so S_alpha goes unread
        pairs = orth.stabilizer_generators(alpha) if dm else ()

        def kept(i, j):
            return la.pairs_satisfy(module, [_entry_term(dm, i, j)], pairs)
        components.append({
            "alpha": alpha,
            "A_dim": sum(kept(i, j) for i in range(dm) for j in range(dm)),
            "C_dim": sum(kept(dm + i, j)
                         for i in range(dm) for j in range(i, dm)),
            "D_block": "determined as the inverse transpose of the A block",
            "invertibility": ("A ranges over the invertible locus of its "
                              "solution space; the dimension ignores that "
                              "open condition"),
        })
    return components


def admissible_alphas(module: la.GModuleV, bound: int = 256):
    """All enumerated alphas with (u, u) in U_alpha (all at dim V = 0)."""
    return list(_admissible(module, bound))


@cache
def _admissible(module, bound):
    return tuple(a for a in orth.enumerate_orth(module.group, bound)
                 if _uu_in_U(module, a))


def suite_alphas(module: la.GModuleV, bound: int = 256):
    """A product-closed subgroup of admissible alphas, for randomized suites.

    (u, u) in U_alpha is not preserved by composition in general: for
    G = Z2 x Z2 with u central the admissible set has 48 of the 72
    orthogonal maps and contains subgroups only up to order 12.  Products
    of data are checked loudly, so seeded suites must draw alphas from
    a subgroup that stays admissible.  Starting from the identity, this
    adds admissible alphas greedily (in enumeration order) whenever the
    subgroup they generate remains inside the admissible set.  Whenever the
    admissible set is itself closed (e.g. cyclic G at small orders) the
    result is the whole set.  The closure composes the alphas' matrices
    by orth.compose_matrices, as orth_compose does.
    """
    return list(_suite(module, bound))


@cache
def _suite(module, bound):
    admissible = _admissible(module, bound)
    members = {a.matrix for a in admissible}
    ident = orth.orth_identity(module.group).matrix
    compose = cache(partial(orth.compose_matrices, module.group))

    def closure(gens):
        """The matrices gens generate, or None at the first product
        outside the admissible set."""
        seen = {ident}
        frontier = [ident]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = compose(x, g)
                if y not in members:
                    return None
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return seen

    subgroup = {ident}
    gens = []
    for alpha in admissible:
        if alpha.matrix in subgroup:
            continue
        grown = closure(gens + [alpha.matrix])
        if grown is not None:
            gens.append(alpha.matrix)
            subgroup = grown
    return tuple(a for a in admissible if a.matrix in subgroup)


# -- random suites ----------------------------------------------------------

def random_odatum(module: la.GModuleV, rng, alpha: orth.OrthAut = None,
                  bound: int = 256) -> ODatum:
    """A seeded random valid datum whose blocks commute with all of diag(G).

    A is supported on positions with equal characters, M (the induced form)
    on positions whose character product is trivial, C = A^{-T} M and
    D = A^{-T}; such data stay valid under every product, inverse and
    G x G-translation, which keeps randomized suites inside the valid set.
    Without an alpha, one is drawn from suite_alphas(module, bound).
    """
    G = module.group
    dm = module.dim
    chars = module.chars
    if alpha is None:
        choices = suite_alphas(module, bound)
        alpha = choices[rng.randrange(len(choices))]
    same = [[chars[i] == chars[j] for j in range(dm)] for i in range(dm)]
    while True:
        A = [[la.sc(rng.randint(-3, 3)) if same[i][j] else _ZERO
              for j in range(dm)] for i in range(dm)]
        for i in range(dm):
            if A[i][i].is_zero():
                A[i][i] = la.sc(rng.choice((-3, -2, -1, 1, 2, 3)))
        try:
            Ait = matrix_inverse(la.transpose(A))
            break
        except NotInvertibleError:
            pass
    diag = _diagonal_generators(G)
    triv = [[la.pairs_satisfy(module, [_entry_term(dm, dm + i, j)], diag)
             for j in range(dm)] for i in range(dm)]
    M = [[_ZERO] * dm for _ in range(dm)]
    for i in range(dm):
        for j in range(i, dm):
            if triv[i][j]:
                v = la.sc(rng.randint(-3, 3))
                M[i][j] = v
                M[j][i] = v
    C = la.product(Ait, M)
    T = [A[i] + [_ZERO] * dm for i in range(dm)] + [
        C[i] + Ait[i] for i in range(dm)]
    return ODatum(module, T, alpha)
