"""Tests for exact linear algebra, the diagonal G-action, and relation composition."""

import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import hopf_helpers as hh
import oracles
from brpickit import abelian as ab
from brpickit import linalg as la
from brpickit.abelian import FinAbGroup
from brpickit.cyclo import CycloScalar
from brpickit.errors import DomainError

Z2 = FinAbGroup([2])
Z4 = FinAbGroup([4])

I4 = CycloScalar.root_of_unity(4)  # zeta_4
ZERO = CycloScalar.zero()


def _rand_scalar(rng):
    c = CycloScalar.from_rational(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)))
    if rng.random() < 0.4:
        c = c + CycloScalar.root_of_unity(4, rng.randrange(4)) * rng.randrange(-2, 3)
    return c


def _rand_matrix(rng, n, m):
    return [[_rand_scalar(rng) for _ in range(m)] for _ in range(n)]


def _rand_invertible(rng, n):
    while True:
        M = _rand_matrix(rng, n, n)
        if la.rank(M) == n:
            return M


def _full_space(n):
    return la.Subspace(n, [[int(i == j) for j in range(n)] for i in range(n)])


def test_kernel_of_identity_and_zero():
    I3 = la.mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert la.kernel_sparse_rows([dict(enumerate(r)) for r in I3], 3) == []
    Z = la.mat([[0, 0], [0, 0]])
    K = la.kernel_sparse_rows([dict(enumerate(r)) for r in Z], 2)
    assert K == [{0: la.sc(1)}, {1: la.sc(1)}]
    assert la.Subspace(2, [[v.get(c, ZERO) for c in range(2)] for v in K]) \
        == _full_space(2)


def test_rank_and_transpose_product():
    rng = random.Random(5)
    A = _rand_matrix(rng, 3, 2)
    B = _rand_matrix(rng, 2, 4)
    AB = la.product(A, B)
    assert len(AB) == 3 and len(AB[0]) == 4
    assert la.transpose(la.transpose(A)) == A
    assert la.rank(AB) <= 2


def test_subspace_canonical_equality():
    S1 = la.Subspace(3, [[1, 1, 0], [0, 0, 1]])
    S2 = la.Subspace(3, [[2, 2, 2], [0, 0, 5]])
    assert S1 == S2
    assert S1.dim == 2
    assert hh.in_span(S1, [3, 3, 7])
    assert not hh.in_span(S1, [1, 0, 0])


def _intersect(A, B):
    return oracles.intersect(A, B, hh.kernel, la.sc(0))


def _sum(A, B):
    """A + B, spanned by both bases."""
    return la.Subspace(A.ambient_dim, [*A.basis, *B.basis])


def test_subspace_intersect_axes():
    # V+0 and 0+V in V+V, dim V = 2
    V0 = la.Subspace(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    OV = la.Subspace(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert _intersect(V0, OV).dim == 0
    diag = la.Subspace(4, [[1, 0, 1, 0], [0, 1, 0, 1]])
    assert _intersect(diag, V0).dim == 0
    assert _sum(diag, V0) == _full_space(4)


def test_dim_formula_random():
    rng = random.Random(9)
    for _ in range(10):
        A = la.Subspace(4, _rand_matrix(rng, rng.randrange(1, 4), 4))
        B = la.Subspace(4, _rand_matrix(rng, rng.randrange(1, 4), 4))
        assert _sum(A, B).dim + _intersect(A, B).dim == A.dim + B.dim


def test_kernel_sparse_rows_matches_dense():
    rng = random.Random(17)
    # (columns, rows, kernel dim to draw until): wide sparse systems, then
    # systems with more rows than columns and a kernel of dimension 0 or 1
    cases = [(8, 5, None)] * 6 + [(4, 7, 0), (4, 7, 1)] * 2
    for n, m, kdim in cases:
        # a kernel of dimension 1 leaves the last column free, held as an
        # explicit zero entry in every row
        cols = n - 1 if kdim == 1 else n
        while True:
            rows = []
            dense = []
            for _ in range(m):
                row = {n - 1: la.sc(0)} if kdim == 1 else {}
                dense_row = [la.sc(0)] * n
                for _ in range(rng.randrange(1, 4)):
                    j = rng.randrange(cols)
                    c = _rand_scalar(rng)
                    row[j] = row.get(j, la.sc(0)) + c
                    dense_row[j] = dense_row[j] + c
                rows.append(row)
                dense.append(dense_row)
            if kdim is None or hh.kernel(dense).dim == kdim:
                break
        sparse_basis = la.kernel_sparse_rows(rows, n)
        dense_basis = [[v.get(c, ZERO) for c in range(n)] for v in sparse_basis]
        assert la.Subspace(n, dense_basis) == hh.kernel(dense)
        assert kdim is None or len(sparse_basis) == kdim


def test_kernel_sparse_rows_gives_one_sparse_vector_per_free_column():
    """Each basis vector is a dict holding 1 at its free column, its other
    keys pivot columns of the reduced form with nonzero values, and the
    vectors come in ascending free column."""
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randrange(1, 9)
        rows = [{rng.randrange(n): _rand_scalar(rng)
                 for _ in range(rng.randrange(1, 4))}
                for _ in range(rng.randrange(6))]
        dense = [[r.get(c, ZERO) for c in range(n)] for r in rows]
        pivots = oracles.dense_rref(dense)[1]
        free = [c for c in range(n) if c not in pivots]
        basis = la.kernel_sparse_rows(rows, n)
        assert len(basis) == len(free)
        for v, c in zip(basis, free):
            assert type(v) is dict and v[c] == la.sc(1)
            assert all(k in pivots and not x.is_zero()
                       for k, x in v.items() if k != c)


def test_echelon_drops_zero_entries():
    zero, one = la.sc(0), la.sc(1)
    ech = la.Echelon()
    assert ech.insert({0: zero}) is None
    assert ech.insert({0: zero, 2: I4}) == 0
    assert ech.pivots.keys() == {2}
    assert ech.rows_by_pos == [{2: one}]
    assert ech.coords({1: zero, 2: la.sc(3)}) == {0: la.sc(3)}
    assert ech.insert({1: one, 2: one}) == 1
    assert ech.rows_by_pos == [{2: one}, {1: one}]
    assert ech.dim == 2


def test_axis_meets_matches_intersections():
    rng = random.Random(23)
    for d in (1, 2, 3):
        axis1 = [[int(j == i) for j in range(2 * d)] for i in range(d)]
        axis2 = [[int(j == i + d) for j in range(2 * d)] for i in range(d)]
        spaces = [la.Subspace(2 * d, axis1), la.Subspace(2 * d, axis2),
                  la.zero_space(2 * d), _full_space(2 * d)]
        for _ in range(8):
            # random rows, some of them pushed onto one axis
            rows = _rand_matrix(rng, rng.randrange(1, 2 * d + 1), 2 * d)
            for r in rows:
                if rng.random() < 0.3:
                    side = rng.choice((slice(0, d), slice(d, 2 * d)))
                    r[side] = [la.sc(0)] * d
            spaces.append(la.Subspace(2 * d, rows))
        for W in spaces:
            assert la.axis_meets(W) == oracles.axis_intersection_dims(
                W, hh.kernel, la.sc(0))
        assert la.axis_meets(spaces[0]) == (d, 0)
        assert la.axis_meets(spaces[1]) == (0, d)
    assert la.axis_meets(la.zero_space(0)) == (0, 0)


def test_gmodule_validation():
    u = Z2.generator(0)
    chi = Z2.character((1,))
    mod = la.GModuleV(Z2, u, [chi])
    assert mod.dim == 1
    with pytest.raises(DomainError):
        la.GModuleV(Z2, Z2.zero(), [chi])  # u must have order 2
    with pytest.raises(DomainError):
        la.GModuleV(Z2, u, [Z2.character((0,))])  # must send u to -1
    with pytest.raises(DomainError):
        la.GModuleV(Z4, Z4.generator(0), [Z4.character((1,))])  # order 4, not 2


# Every character exponent of a module is read from its own table, filled
# on first use; all zoo modules fill theirs side by side, so a table keyed
# by g alone, without the module, hands one module's row to another.
def test_exponent_table_matches_pairing():
    zoo = [mod for _, mod in hh.module_zoo()]
    for mod in zoo:
        for g in mod.group.elements():
            for _ in range(2):
                assert mod.exponents_at(g.coords) == tuple(
                    ab.pair(chi, g) for chi in mod.chars), (mod, g)
    with pytest.raises(DomainError):  # coordinates of the wrong rank
        _z4_module().exponents_at((1, 0))


def test_exponent_table_ignored_by_eq_and_hash():
    filled, empty = _z4_module(2), _z4_module(2)
    for g in Z4.elements():
        filled.exponents_at(g.coords)
    assert filled == empty and empty == filled
    assert hash(filled) == hash(empty)
    assert {filled: 1}[empty] == 1


def _sweedler_module():
    return la.GModuleV(Z2, Z2.generator(0), [Z2.character((1,))])


def _z4_module(dim=1):
    # u = g^2; characters chi with chi(u) = -1 are the odd powers
    return la.GModuleV(Z4, Z4.element([2]), [Z4.character((1,))] * dim)


def _act(mod, g, v, dual=False):
    """The diagonal action of g on V+V (on V+V* when dual), by the dense
    oracle."""
    N = mod.group.exponent
    e = la.pair_exponents(mod, hh.pair_coords(g))
    if dual:
        e = oracles.vplusvdual_exponents(e, N)
    return oracles.dense_act(e, la.mat([v])[0],
                             partial(CycloScalar.root_of_unity, N))


def test_act_u_by_minus_one():
    mod = _sweedler_module()
    u = Z2.generator(0)
    assert _act(mod, u, [1, 2]) == [la.sc(-1), la.sc(-2)]
    assert _act(mod, u, [1, 2], dual=True) == [la.sc(-1), la.sc(-2)]
    assert _act(mod, Z2.zero(), [5, 3]) == [la.sc(5), la.sc(3)]


def test_act_z4_and_dual_inverse():
    mod = _z4_module()
    g = Z4.generator(0)
    assert _act(mod, g, [1, 1]) == [I4, I4]
    assert _act(mod, g, [1, 1], dual=True) == [I4, I4 ** 3]
    # a pair acts componentwise on V+V
    out = _act(mod, (g, Z4.zero()), [1, 1])
    assert out == [I4, la.sc(1)]
    out = _act(mod, (Z4.zero(), g), [1, 1], dual=True)
    assert out == [la.sc(1), I4 ** 3]


def _graph(A):
    # {(Av, v)} as a subspace of V+V
    d = len(A)
    rows = []
    for i in range(d):
        col = [A[r][i] for r in range(d)]
        e = [la.sc(1) if j == i else la.sc(0) for j in range(d)]
        rows.append(col + e)
    return la.Subspace(2 * d, rows)


def _cograph(B):
    # {(v, Bv)}
    d = len(B)
    rows = []
    for i in range(d):
        col = [B[r][i] for r in range(d)]
        e = [la.sc(1) if j == i else la.sc(0) for j in range(d)]
        rows.append(e + col)
    return la.Subspace(2 * d, rows)


def test_relation_compose_identity_and_graphs():
    rng = random.Random(23)
    d = 2
    diag = _graph([[la.sc(1 if i == j else 0) for j in range(d)] for i in range(d)])
    for _ in range(5):
        A = _rand_invertible(rng, d)
        W = _graph(A)
        assert la.relation_compose(W, diag) == W
        assert la.relation_compose(diag, W) == W
        B = _rand_invertible(rng, d)
        # {(Av,v)} then {(v,Bv)} gives {(Av, Bv)}
        C = la.relation_compose(W, _cograph(B))
        expected = la.Subspace(2 * d, [
            [A[r][i] for r in range(d)] + [B[r][i] for r in range(d)]
            for i in range(d)])
        assert C == expected
        assert C.dim == d


def test_relation_compose_associative_on_graphs():
    rng = random.Random(29)
    d = 2
    for _ in range(5):
        Ws = [_graph(_rand_invertible(rng, d)) for _ in range(3)]
        lhs = la.relation_compose(la.relation_compose(Ws[0], Ws[1]), Ws[2])
        rhs = la.relation_compose(Ws[0], la.relation_compose(Ws[1], Ws[2]))
        assert lhs == rhs


def test_relation_compose_axis_precondition():
    bad = la.Subspace(2, [[1, 0]])  # V+0 inside V+V, dim V = 1
    good = la.Subspace(2, [[1, 1]])
    with pytest.raises(DomainError, match="witness not unique"):
        la.relation_compose(bad, good)
    with pytest.raises(DomainError, match="witness not unique"):
        la.relation_compose(good, bad)


def test_bullet_form_identity_transport():
    rng = random.Random(31)
    d = 2
    diag = _graph([[la.sc(1 if i == j else 0) for j in range(d)] for i in range(d)])
    zero = la.zero_form(diag)
    Wt = _graph(_rand_invertible(rng, d))
    gram = _rand_matrix(rng, d, d)
    bt = la.BilinearForm(Wt, gram)
    out = la.bullet_form(diag, zero, Wt, bt)
    assert out.space == Wt
    assert out == bt


def test_bullet_form_zero_zero():
    rng = random.Random(37)
    W = _graph(_rand_invertible(rng, 2))
    Wt = _graph(_rand_invertible(rng, 2))
    out = la.bullet_form(W, la.zero_form(W), Wt, la.zero_form(Wt))
    assert all(x.is_zero() for row in out.gram for x in row)


def test_bullet_form_one_dim_symbolic():
    # W = span{(a,1)} with beta((a,1),(a,1)) = b; Wt = span{(a',1)} with b'.
    # The composite is span{(aa',1)} and the transported value at (aa',1)
    # is a'^2 * b + b'.
    a, b = I4, la.sc(2)
    ap, bp = la.sc(3), la.sc(5)
    W = la.Subspace(2, [[a, 1]])
    Wt = la.Subspace(2, [[ap, 1]])
    # gram entries are for the canonical bases (1, 1/a), (1, 1/a')
    betaW = la.BilinearForm(W, [[b * (a * a).inv()]])
    betaT = la.BilinearForm(Wt, [[bp * (ap * ap).inv()]])
    assert oracles.form_value(betaW, [a, la.sc(1)], [a, la.sc(1)], ZERO) == b
    out = la.bullet_form(W, betaW, Wt, betaT)
    target = [a * ap, la.sc(1)]
    assert hh.in_span(out.space, target)
    assert oracles.form_value(out, target, target, ZERO) == ap * ap * b + bp


def test_form_invariant_zero_form():
    mod = _z4_module(2)
    S = la.Subspace(4, [[1, 0, 1, 0], [0, 1, 0, 1]])
    g = Z4.generator(0)
    u = Z4.element([2])
    assert la.form_invariant_under(mod, la.zero_form(S),
                                   [hh.pair_coords(g), hh.pair_coords(u)]) \
        == (True, True)


def test_form_invariant_zeta4_scaling():
    # the V+0 line scaled by zeta_4: only the zero form survives
    mod = _z4_module(1)
    g = Z4.generator(0)
    S = la.Subspace(2, [[1, 0]])
    good = la.BilinearForm(S, [[0]])
    bad = la.BilinearForm(S, [[1]])
    g = hh.pair_coords(g)
    assert la.form_invariant_under(mod, good, [g]) == (True, True)
    assert la.form_invariant_under(mod, bad, [g]) == (True, False)
    # u acts by -1, and (-1)^2 = 1 preserves any form
    assert la.form_invariant_under(
        mod, bad, [hh.pair_coords(Z4.element([2]))]) == (True, True)


def test_form_invariant_space_not_invariant_is_distinct_verdict():
    # a moved space reads (False, False), apart from a kept space whose
    # form moves, (True, False)
    mod = _sweedler_module()
    u = Z2.generator(0)
    S = la.Subspace(2, [[1, 1]])
    f = la.BilinearForm(S, [[1]])
    assert la.form_invariant_under(
        mod, f, [hh.pair_coords((u, Z2.zero()))]) == (False, False)
    assert la.form_invariant_under(
        mod, f, [hh.pair_coords((u, u))]) == (True, True)


def _sparse_subspace(rng, n):
    """Rows with one or two nonzero entries: some spans are moved by the
    diagonal action, some are not."""
    rows = []
    for _ in range(rng.randrange(n + 1)):
        row = [0] * n
        for j in rng.sample(range(n), min(n, rng.choice((1, 2)))):
            row[j] = rng.choice((1, -2, I4, 1 + I4))
        rows.append(row)
    return la.Subspace(n, rows)


def _movers(mod):
    els = list(mod.group.elements())
    return els + [(x, y) for x in els for y in els]


def test_row_terms_match_dense_action():
    rng = random.Random(61)
    seen = set()
    for _, mod in hh.module_zoo():
        root = partial(CycloScalar.root_of_unity, mod.group.exponent)
        for _ in range(6):
            S = _sparse_subspace(rng, 2 * mod.dim)
            for g in _movers(mod):
                e = la.pair_exponents(mod, hh.pair_coords(g))
                stable = la.pairs_satisfy(mod, la.row_terms(S),
                                          [hh.pair_coords(g)])
                moved = oracles.dense_moved(S, e, root)
                assert stable is moved.equals(S), (S, g)
                # g sends row k to zeta^(e at its pivot) times row k of g.S
                for k, row in enumerate(S.basis):
                    assert _act(mod, g, row) == [
                        root(e[S.pivots[k]]) * x for x in moved.basis[k]]
                seen.add(stable)
    assert seen == {True, False}


def test_form_invariant_under_matches_dense_reference():
    rng = random.Random(62)
    seen = set()
    for _, mod in hh.module_zoo():
        root = partial(CycloScalar.root_of_unity, mod.group.exponent)
        for _ in range(3):
            S = _sparse_subspace(rng, 2 * mod.dim)
            gram = [[0] * S.dim for _ in range(S.dim)]
            for i in range(S.dim):
                for j in range(i, S.dim):
                    if rng.random() < 0.5:
                        gram[i][j] = gram[j][i] = _rand_scalar(rng)
            beta = la.BilinearForm(S, gram)
            for g in _movers(mod):
                stable, invariant = oracles.dense_invariant(
                    S, beta.gram, [la.pair_exponents(mod, hh.pair_coords(g))],
                    root, CycloScalar.zero())
                assert la.form_invariant_under(
                    mod, beta, [hh.pair_coords(g)]) == (stable,
                                                        stable and invariant)
                if stable:
                    seen.add(invariant)
    assert seen == {True, False}


def test_subspace_json_round_trip():
    S = la.Subspace(3, [[1, I4, 0], [0, 0, 1]])
    assert la.Subspace.from_json(S.to_json()) == S


# -- the one elimination engine against the dense reference ----------------

def _drawn_entry(draw, N):
    """A third of the time zero, else q + c zeta_N^k."""
    if draw(st.integers(0, 2)) == 0:
        return ZERO
    q = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    return q + draw(st.integers(-2, 2)) * CycloScalar.root_of_unity(
        N, draw(st.integers(0, N - 1)))


@st.composite
def rref_inputs(draw):
    """A matrix over Q, Q(i), Q(zeta_8) or Q(zeta_3) with n <= 4 rows of
    m <= 5 entries, a third of them zero; with a row that is the sum of
    two others, an empty matrix, or one ragged row among them."""
    N = draw(st.sampled_from([1, 4, 8, 3]))
    n, m = draw(st.integers(0, 4)), draw(st.integers(1, 5))
    rows = [[_drawn_entry(draw, N) for _ in range(m)] for _ in range(n)]
    shape = draw(st.sampled_from(["plain", "sum", "ragged"]))
    if shape == "sum" and n >= 2:
        rows.append([x + y for x, y in zip(rows[0], rows[1])])
    elif shape == "ragged" and n >= 2:
        rows[-1] = rows[-1] + [_drawn_entry(draw, N)]
    return rows


@given(rref_inputs())
@settings(max_examples=200, deadline=None)
def test_rref_matches_dense_reference(M):
    """rref on Echelon gives the dense Gauss-Jordan's rows and pivots,
    and refuses a ragged matrix as it does."""
    try:
        want = oracles.dense_rref(M)
    except ValueError:
        with pytest.raises(DomainError, match="ragged"):
            la.rref(M)
        return
    assert la.rref(M) == want


@st.composite
def product_inputs(draw):
    """(A, B), n x m and m x p with n, m, p <= 4, over Q, Q(i) or
    Q(zeta_8), a third of the entries zero; at times a row of A or a
    column of B is zero throughout."""
    N = draw(st.sampled_from([1, 4, 8]))
    n, m, p = (draw(st.integers(1, 4)) for _ in range(3))
    A = [[_drawn_entry(draw, N) for _ in range(m)] for _ in range(n)]
    B = [[_drawn_entry(draw, N) for _ in range(p)] for _ in range(m)]
    if draw(st.booleans()):
        A[draw(st.integers(0, n - 1))] = [ZERO] * m
    if draw(st.booleans()):
        j = draw(st.integers(0, p - 1))
        for r in B:
            r[j] = ZERO
    return A, B


@given(product_inputs())
@settings(max_examples=150, deadline=None)
def test_product_matches_dense_reference(AB):
    """product sums over the nonzero supports and gives the dense sum's
    entries; a B with one row too many is a shape mismatch."""
    A, B = AB
    assert la.product(A, B) == oracles.dense_product(A, B, ZERO)
    with pytest.raises(DomainError, match="shape mismatch"):
        la.product(A, B + [B[0]])


@pytest.mark.parametrize("A,B", [
    ([[1, 2]], [[1, 2], [3, 4, 5]]),  # a long row of B: the 5 was dropped
    ([[1, 2]], [[1, 2, 3], [4, 5]]),  # a short row of B: an IndexError
    ([[1, 2], [3]], [[1], [2]]),      # a short row of A: an IndexError
], ids=["long-B-row", "short-B-row", "short-A-row"])
def test_product_refuses_a_ragged_matrix(A, B):
    with pytest.raises(DomainError, match="ragged matrix"):
        la.product(A, B)


def test_transpose_refuses_a_ragged_matrix():
    # zip used to cut every row to the shortest
    with pytest.raises(DomainError, match="ragged matrix"):
        la.transpose([[1, 2], [3]])
    assert la.transpose([[1, 2], [3, 4]]) == la.mat([[1, 3], [2, 4]])


def _axis_free(rng, d):
    """A random relation in V+V, dim V = d, of dimension 1 to d, that meets
    neither axis by the intersection reference."""
    while True:
        W = la.Subspace(2 * d, _rand_matrix(rng, rng.randrange(1, d + 1), 2 * d))
        if oracles.axis_intersection_dims(W, hh.kernel, ZERO) == (0, 0):
            return W


def test_compose_adopts_the_reduced_composite():
    """The composite _compose_with_lift adopts without a second reduction
    is the Subspace of the same rows, pivots included, and the relation
    the intersection reference composes."""
    rng = random.Random(37)
    dims = set()
    for d in (1, 2, 3, 4):
        for _ in range(10):
            W, Wt = _axis_free(rng, d), _axis_free(rng, d)
            composite, _ = la._compose_with_lift(W, Wt)
            again = la.Subspace(2 * d, composite.basis)
            assert composite == again and composite.pivots == again.pivots
            assert composite == oracles.compose_by_intersection(
                W, Wt, hh.kernel, ZERO, CycloScalar.one())[0]
            dims.add(composite.dim)
    assert {1, 2, 3} <= dims
